import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sampler_oracle import sample_outcomes

from friendlab import cli, relmodel, scenarios, statlab
from friendlab import marginal_polytope as mp
from friendlab.relmodel import InsufficientDataError, RunRecord
from friendlab.scenarios import LFConfig, RovelliConfig
from friendlab.statlab import CHOICE, PAIR_IDS

COS45 = math.cos(math.radians(45.0))


def audit_with(batch, **tables):
    """relmodel.audit(batch) with the given entries of TABLES replaced."""
    with mock.patch.dict(relmodel.TABLES, tables):
        return relmodel.audit(batch)


def edited(table, code, value):
    """A copy of a 64-entry table with the entry of `code` set to `value`."""
    table = table.copy()
    table[code] = value
    return table


def runs_of_pair(pair, n, seed):
    """The runs that measure `pair` in a batch of 5n runs at `seed`: at least
    n of them, so a test on one pair keeps at least n qualifying runs."""
    batch = relmodel.simulate_batch(LFConfig(), 5 * n, seed)
    mine = batch.code >> 4 == PAIR_IDS.index(pair)
    assert mine.sum() >= n
    return dataclasses.replace(batch, code=batch.code[mine])


def decode(code) -> dict:
    """The variables of a run with this code 16*k + 8*ia + 4*ic + cell,
    decoded here one at a time; None where a variable does not exist."""
    code = int(code)
    (bob, divya), (x, y) = PAIR_IDS[code >> 4], statlab.PAIR_CELLS[code & 3]
    ai, ci = (-1 if code & 8 else 1), (-1 if code & 4 else 1)
    a, c = (x if bob == "A" else None), (y if divya == "C" else None)
    return {"pair": bob + divya, "Ai": ai, "Ci": ci, "A": a, "B": x if bob == "B" else None,
            "C": c, "D": y if divya == "D" else None,
            "Ar": None if a is None else a * ai, "Cr": None if c is None else c * ci}


def reference_row(batch, i) -> dict:
    """Run i as a report row, decoded from its code."""
    v = decode(batch.code[i])
    return dataclasses.asdict(RunRecord(v["Ai"], v["Ci"], *(CHOICE[w] for w in v["pair"]),
                                        *(v[name] for name in ("B", "D", "A", "C", "Ar", "Cr"))))


def same_runs(b1, b2, stop=None) -> bool:
    """Do the first `stop` runs (all when None) of b1 equal b2's runs?"""
    return np.array_equal(b1.code[:stop], b2.code)


def reference_codes(cfg, n, seed):
    """simulate_batch's codes from the same draws, written out as before the
    code column: per chunk rng.choice for the pairs, the two internal bits,
    one uniform per run placed in its pair's cumulative Born table, at most
    at the pair's last positive cell."""
    born = np.array(list(scenarios.born_tables(cfg).values()))
    cdf, last = np.cumsum(born, axis=1), [max(np.flatnonzero(t)) for t in born]
    codes = []
    for chunk in range(-(-n // relmodel.CHUNK)):
        m = min(relmodel.CHUNK, n - chunk * relmodel.CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk]))
        k = rng.choice(4, size=m, p=[0.25] * 4)
        ia, ic = rng.integers(0, 2, size=m), rng.integers(0, 2, size=m)
        cell = np.minimum((rng.random(m)[:, None] >= cdf[k]).sum(axis=1), np.take(last, k))
        codes.append(16 * k + 8 * ia + 4 * ic + cell)
    return np.concatenate(codes)


def test_every_code_obeys_the_presence_discipline_and_product_identity():
    tables = {name: table.tolist() for name, table in relmodel.TABLES.items()}
    assert all(len(t) == 64 for t in tables.values())
    for code in range(64):
        v = {name: t[code] for name, t in tables.items()}
        want = decode(code)
        assert PAIR_IDS[v["k"]] == want["pair"]
        assert {name: v[name] or None for name in relmodel.VARIABLES} == {
            name: want[name] for name in relmodel.VARIABLES}
        # both internal outcomes always exist
        assert v["Ai"] in (1, -1) and v["Ci"] in (1, -1)
        for asks, outcome, external, relation, internal in (
                (want["pair"][0] == "A", v["B"], v["A"], v["Ar"], v["Ai"]),
                (want["pair"][1] == "C", v["D"], v["C"], v["Cr"], v["Ci"])):
            if asks:  # a relation exists, external = internal * relation
                assert outcome == 0 and relation in (1, -1)
                assert external == internal * relation
            else:  # only the supermeasurement's outcome exists
                assert outcome in (1, -1) and external == 0 and relation == 0
        # the planted violation changes only Alice's internal bit: +1 exactly
        # when Bob asks
        planted = int(relmodel.PLANTED[code])
        assert planted ^ code in (0, 8)
        assert decode(planted)["Ai"] == (1 if want["pair"][0] == "A" else -1)
    every = relmodel.TrialBatch(LFConfig(), np.arange(64, dtype=np.uint8))
    assert every.rows(64) == [reference_row(every, code) for code in range(64)]
    assert every.rows_json(64) == json.dumps(every.rows(64), sort_keys=True,
                                             separators=(",", ":"))


def test_run_trial_presence_discipline_per_choice_pair():
    for pair in PAIR_IDS:
        b_choice, d_choice = CHOICE[pair[0]], CHOICE[pair[1]]
        batch = runs_of_pair(pair, 50, 0)
        assert batch.code.dtype == np.uint8 and not batch.code.flags.writeable
        assert not any(table.flags.writeable for table in relmodel.TABLES.values())
        rows = batch.rows(len(batch))
        assert {r["a_internal"] for r in rows} == {r["c_internal"] for r in rows} == {1, -1}
        for r in rows:
            assert (r["b_choice"], r["d_choice"]) == (b_choice, d_choice)
            if b_choice == "ask":
                assert r["b_outcome"] is None
                assert r["a_external"] == r["a_internal"] * r["a_relation"]
            else:
                assert r["b_outcome"] in (+1, -1)
                assert r["a_external"] is None and r["a_relation"] is None
            if d_choice == "ask":
                assert r["d_outcome"] is None
                assert r["c_external"] == r["c_internal"] * r["c_relation"]
            else:
                assert r["d_outcome"] in (+1, -1)
                assert r["c_external"] is None and r["c_relation"] is None


def test_record_validation_catches_broken_invariants():
    batch = relmodel.simulate_batch(LFConfig(), 2000, 6)
    assert relmodel.audit(batch)[0][0]["observed"] == 0.0
    pair = batch.code >> 4
    b_asks, d_asks = (pair <= 1), (pair % 2 == 0)  # AC, AD; AC, BC
    t = relmodel.TABLES
    broken = [("Ar", b_asks, lambda c: -t["Ar"][c]),            # relation flipped
              ("A", ~b_asks, lambda c: 1),                      # supermeasured wing with A
              ("Ci", np.ones(len(batch), bool), lambda c: 0),   # internal value of 0
              ("D", d_asks, lambda c: -1)]                      # asked wing with a super outcome
    codes, tables, expected = [], {}, 0
    for name, where, value in broken:
        code = next(int(c) for c in batch.code[where] if c not in codes)
        codes.append(code)
        runs = int((batch.code == code).sum())
        table = edited(t[name], code, value(code))
        assert audit_with(batch, **{name: table})[0][0]["observed"] == runs
        tables[name], expected = table, expected + runs
    checks = audit_with(batch, **tables)[0]
    assert checks[0]["observed"] == expected and not checks[0]["pass"]


def test_born_target_table_matches_cosine_correlators():
    cfg = LFConfig()
    expected = {"AC": COS45, "AD": -COS45, "BC": COS45, "BD": COS45}
    for pair, e_want in expected.items():
        table = scenarios.born_tables(cfg)[pair]
        assert len(table) == len(statlab.PAIR_CELLS)
        # at the Tsirelson angles the agreeing cells both hold (1 + E) / 4
        assert table[0] == pytest.approx((1 + e_want) / 4, abs=1e-12)
        assert table[3] == pytest.approx((1 + e_want) / 4, abs=1e-12)
        assert statlab.correlator(table) == pytest.approx(e_want, abs=1e-12)
        assert sum(table) == pytest.approx(1.0, abs=1e-12)


def test_simulate_batch_same_seed_identical():
    cfg = LFConfig()
    b1 = relmodel.simulate_batch(cfg, 3000, 17)
    b2 = relmodel.simulate_batch(cfg, 3000, 17)
    assert same_runs(b1, b2)
    assert b1.rows(len(b1)) == b2.rows(len(b2))
    b3 = relmodel.simulate_batch(cfg, 3000, 18)
    assert not same_runs(b1, b3)


def test_simulate_batch_chunk_aligned_prefix_stability():
    # full chunks are seeded independently of the total size, so a
    # chunk-aligned shorter run is an exact prefix of a longer one
    cfg = LFConfig()
    small = relmodel.simulate_batch(cfg, relmodel.CHUNK, 5)
    large = relmodel.simulate_batch(cfg, relmodel.CHUNK + 4000, 5)
    assert len(large) == relmodel.CHUNK + 4000
    assert same_runs(large, small, stop=relmodel.CHUNK)
    rows = large.rows(relmodel.CHUNK)
    assert rows[relmodel.CHUNK - 1] == small.rows(relmodel.CHUNK)[relmodel.CHUNK - 1]
    assert rows[relmodel.CHUNK - 1] == reference_row(small, relmodel.CHUNK - 1)


def test_simulate_batch_rejects_bad_inputs():
    cfg = LFConfig()
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, 0, 1)
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, 10, -1)


def test_pair_draw_is_rng_choice_of_four_uniform():
    # floor(4u) takes the same doubles as rng.choice(4, p=[1/4] * 4) and leaves
    # the generator in the same state
    for seed in range(5):
        for m in (1, relmodel.CHUNK - 1, relmodel.CHUNK, relmodel.CHUNK + 1):
            by_choice, by_floor = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(by_choice.choice(4, size=m, p=[0.25] * 4),
                                  (by_floor.random(m) * 4).astype(np.int8))
            assert np.array_equal(by_choice.random(3), by_floor.random(3))


def test_simulate_batch_matches_reference_draws():
    cfg = LFConfig(10.0, 80.0, 35.0, 170.0)
    for seed in (0, 1, 5):
        for n in (1, relmodel.CHUNK - 1, relmodel.CHUNK, relmodel.CHUNK + 1):
            assert np.array_equal(relmodel.simulate_batch(cfg, n, seed).code,
                                  reference_codes(cfg, n, seed))


def test_supermeasured_pair_matches_born_correlator():
    batch = runs_of_pair("BD", 10 ** 5, 3)
    table = relmodel.empirical_pair_table(batch, ("B", "D"))
    assert sum(table) == len(batch) >= 10 ** 5
    e, stderr = statlab.correlation_estimate(table)
    assert abs(e - COS45) < 0.02
    assert abs(e - COS45) < 5 * stderr


def test_batch_cell_counts_within_binomial_band():
    cfg = LFConfig()
    batch = runs_of_pair("AC", 10 ** 5, 8)
    table = relmodel.empirical_pair_table(batch, ("A", "C"))
    n = sum(table)
    assert n == len(batch) >= 10 ** 5
    for freq, p in zip(statlab.freqs(table), scenarios.born_tables(cfg)["AC"], strict=True):
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= band + 1e-12


def test_empirical_pair_table_errors():
    batch = runs_of_pair("BD", 100, 1)
    with pytest.raises(InsufficientDataError):
        relmodel.empirical_pair_table(batch, ("A", "C"))  # never asked
    with pytest.raises(ValueError):
        relmodel.empirical_pair_table(batch, ("B", "Z"))


SIGNED = st.sampled_from((-1, 0, 1))
TABLE = st.lists(SIGNED, min_size=64, max_size=64)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300), TABLE, TABLE)
@example([5, 17, 63], [0] * 64, [1] * 64)
def test_empirical_pair_table_is_a_plain_count(codes, x, y):
    # arbitrary code columns read through arbitrary Ai and Ci tables
    batch = relmodel.TrialBatch(LFConfig(), np.array(codes, np.uint8))
    runs = [(x[c], y[c]) for c in codes]
    counts = tuple(runs.count(cell) for cell in statlab.PAIR_CELLS)
    with mock.patch.dict(relmodel.TABLES, Ai=np.array(x, np.int8), Ci=np.array(y, np.int8)):
        if sum(counts) == 0:
            with pytest.raises(InsufficientDataError):
                relmodel.empirical_pair_table(batch, ("Ai", "Ci"))
        else:
            assert relmodel.empirical_pair_table(batch, ("Ai", "Ci")) == counts
    # and through the model's own tables, each pair against decoded runs
    for pair in PAIR_IDS:
        runs = [(v[pair[0]], v[pair[1]]) for v in map(decode, codes)]
        counts = tuple(runs.count(cell) for cell in statlab.PAIR_CELLS)
        if sum(counts):
            assert relmodel.empirical_pair_table(batch, pair) == counts


def test_choice_independence_clean_on_fair_batch():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 10 ** 5, 0)
    report = relmodel.check_choice_independence(batch)
    assert not report["flags"]
    assert set(report["stats"]) == {"alice", "chidi"}
    assert set(report["stats"]["alice"]) == {"ask,ask", "ask,super", "super,ask", "super,super"}
    assert sum(s["n"] for s in report["stats"]["alice"].values()) == 10 ** 5


def test_choice_independence_flags_planted_dependence():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 20000, 4)
    # force the internal outcome to +1 on asked runs (AC, AD): clear the Ai
    # bit of their codes; the relation follows, keeping the product identity
    asked = batch.code >> 4 <= 1
    bad = dataclasses.replace(batch, code=np.where(asked, batch.code & 0xF7, batch.code))
    assert relmodel.audit(bad)[0][0]["observed"] == 0.0
    report = relmodel.check_choice_independence(bad)
    assert report["flags"]
    assert any(f["wing"] == "alice" for f in report["flags"])


def test_choice_independence_needs_variation():
    batch = runs_of_pair("AC", 1000, 2)
    with pytest.raises(InsufficientDataError):
        relmodel.check_choice_independence(batch)


def test_rows_are_the_first_runs_in_record_field_order():
    batch = relmodel.simulate_batch(LFConfig(), 20, 9)
    rows = batch.rows(8)
    assert rows == [reference_row(batch, i) for i in range(8)]
    assert all(tuple(r) == relmodel.RECORD_FIELDS for r in rows)
    assert batch.rows(0) == [] and len(batch.rows(1000)) == len(batch)


def test_jsonl_serialization_round_trips_values():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 20, 9)
    rows = batch.rows(len(batch))
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    for i, (line, row) in enumerate(zip(lines, rows)):
        obj = json.loads(line)
        assert obj == row
        assert obj["b_choice"] in ("ask", "super")
        # 0 in a table is null in the row; every other value is the table's
        for field, name in (("a_external", "A"), ("b_outcome", "B"), ("c_relation", "Cr")):
            value = int(relmodel.TABLES[name][batch.code[i]])
            assert obj[field] == (value or None)


def test_audit_checks_in_order_and_catches_broken_records():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 20000, 9)
    checks, internal, independence = relmodel.audit(batch)
    assert [c["name"] for c in checks] == (
        ["presence/product violations"]
        + [f"observed pair {p} vs Born" for p in statlab.PAIR_IDS]
        + ["internal joint cells vs 1/4", "choice-independence flags"])
    assert all(c["pass"] for c in checks)
    assert sum(internal) == 20000 and not independence["flags"]
    # flip the relation of the first asked run's code: the product identity
    # breaks on exactly the runs with that code
    code = int(batch.code[np.flatnonzero(batch.code >> 4 <= 1)[0]])
    relation = edited(relmodel.TABLES["Ar"], code, -relmodel.TABLES["Ar"][code])
    checks, _, _ = audit_with(batch, Ar=relation)
    assert checks[0]["observed"] == (batch.code == code).sum() and not checks[0]["pass"]


PP, PA, NO_M2 = (scenarios.ROVELLI_RECORDS.index(r) for r in ("PP", "PA", "noM2"))


def trigger_index(cfg):
    """The trigger's index on a count table's first and second axes (+1, -1)."""
    return (1 - cfg.trigger) // 2


def test_rovelli_run_bookkeeping():
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger)
        table = relmodel.simulate_rovelli(cfg, 200, 0)
        assert table.shape == (2, 3, 3) and table.dtype == np.int64
        assert not table.flags.writeable and table.sum() == 200
        t = trigger_index(cfg)
        # a second outcome exists exactly on the runs whose first is the trigger
        assert not table[t, 2].any() and not table[1 - t, :2].any()
        # the record reads noM2 exactly on the runs with no second measurement
        assert not table[t, :, NO_M2].any() and not table[1 - t, :, [PP, PA]].any()
        assert table[t].sum() > 0 and table[1 - t].sum() > 0


def test_rovelli_run_reports_consistent_when_asked():
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger=trigger)
        n = 2000
        _, table, consistent = relmodel.rovelli_audit(cfg, n, 1)
        assert consistent == n
        # the record also tells whether the second outcome agreed with the
        # first (PP) or not (PA), for either trigger
        t = trigger_index(cfg)
        assert table[t, t, PP] > 0 and table[t, 1 - t, PA] > 0
        assert table[t, t, PP] + table[t, 1 - t, PA] == table[t].sum()


def test_rovelli_first_outcome_balanced():
    n = 20000
    plus = int(relmodel.simulate_rovelli(RovelliConfig(), n, 6)[0].sum())
    assert abs(plus / n - 0.5) < 0.02


class _Draws:
    """A generator stand-in: each `random` call returns the next given
    uniforms, and `integers` returns zeros."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def random(self, n):
        return np.array(next(self.draws))[:n]

    def integers(self, low, high, size):
        return np.zeros(size, np.int64)


def test_a_uniform_in_the_round_off_tail_never_draws_a_zero_cell(monkeypatch):
    # BC's cells 0 and 3 have probability 0, and its float sum stops short of
    # 1 - 2**-53; one run per pair draws that uniform
    cfg = LFConfig(0, 90, 270, 135)
    born = scenarios.born_tables(cfg)
    assert born["BC"][3] == 0.0 and sum(born["BC"]) < 1 - 2 ** -53
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _Draws(np.arange(4) / 4, [1 - 2 ** -53] * 4))
    codes = relmodel.simulate_batch(cfg, 4, 0).code.tolist()
    assert [code >> 4 for code in codes] == [0, 1, 2, 3]
    assert all(born[PAIR_IDS[code >> 4]][code & 3] > 0 for code in codes)


# stacks of 1-4 tables of 2-4 cells, each given as integer weights (some 0)
# and a shift of its last positive cell by -3 to +3 units in the last place,
# so that a table sums to 1 give or take a few ulps
WEIGHTED_TABLES = st.integers(2, 4).flatmap(lambda cells: st.lists(st.tuples(
    st.lists(st.integers(0, 3), min_size=cells, max_size=cells).filter(any),
    st.integers(-3, 3)), min_size=1, max_size=4))


def _tables(weighted) -> np.ndarray:
    tables = []
    for weights, ulps in weighted:
        probs = np.array(weights) / sum(weights)
        j = np.flatnonzero(probs)[-1]
        for _ in range(abs(ulps)):
            probs[j] = np.nextafter(probs[j], 2.0 if ulps > 0 else 0.0)
        tables.append(probs)
    return np.array(tables)


# derandomized so the suite's run time and outcome do not vary between runs
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(WEIGHTED_TABLES, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
def test_draw_cells_matches_the_searchsorted_sampler(weighted, uniforms):
    # each uniform is drawn from every table, interleaved; the uniforms include
    # both ends of [0, 1), every cumulative probability and the float below it
    tables = _tables(weighted)
    cdf = np.cumsum(tables, axis=1).ravel()
    u = np.array([0.0, np.nextafter(1.0, 0.0), *uniforms, *cdf, *np.nextafter(cdf, 0.0)])
    u = np.repeat(u[u < 1.0], len(tables))
    which = np.tile(np.arange(len(tables)), len(u) // len(tables))
    out = np.full(len(u), 7, dtype=np.uint8)  # draw_cells adds each cell in place
    cells = relmodel.draw_cells(tables, which, u, out)
    assert cells is out
    want = np.empty(len(u), dtype=np.intp)
    for t, table in enumerate(tables):
        want[which == t] = sample_outcomes(table, u[which == t])
    assert (cells - 7).tolist() == want.tolist()
    assert (tables[which, cells - 7] > 0).all()


def rovelli_cell_probabilities(cfg, records):
    """P(cell) of a count table's 18 cells, flattened, when the final states
    PP, PA and noM2 draw their records from `records`."""
    t = trigger_index(cfg)
    p = np.zeros((2, 3, 3))
    # a final state's share of the runs: 1/4 for PP and PA, 1/2 for noM2
    p[t, t], p[t, 1 - t], p[1 - t, 2] = (np.array(r) * w
                                         for r, w in zip(records, (0.25, 0.25, 0.5)))
    return p.ravel()


def test_simulate_rovelli_counts_are_multinomial(monkeypatch):
    # mixed record distributions, so every final state spreads its runs over
    # two or three records; over S seeds each cell's mean and each two cells'
    # covariance must match Multinomial(n, p): within K standard errors, the
    # covariance's from the normal approximation Var = (s_ii s_jj + s_ij^2) / S
    mixed = ((0.5, 0.25, 0.25), (0.0, 0.3, 0.7), (0.2, 0.0, 0.8))
    monkeypatch.setattr(scenarios, "rovelli_states", lambda cfg: tuple((r, 1.0) for r in mixed))
    n, S, K = 400, 2000, 5.0
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger)
        p = rovelli_cell_probabilities(cfg, mixed)
        counts = np.array([relmodel.simulate_rovelli(cfg, n, seed).ravel() for seed in range(S)])
        assert (counts.sum(axis=1) == n).all()
        assert not counts[:, p == 0].any()  # a zero cell never gets a run
        mean, cov = n * p, n * (np.diag(p) - np.outer(p, p))
        assert (abs(counts.mean(axis=0) - mean) <= K * np.sqrt(np.diag(cov) / S)).all()
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / S)
        assert (abs(np.cov(counts, rowvar=False) - cov) <= K * se).all()


def test_a_zero_record_cell_never_gets_a_count_at_any_n():
    # PP's record row is (0.9999999999999998, 0, 0): a multinomial over all
    # three cells would hand its round-off tail to noM2 and report an
    # inconsistent run; draw_counts gives it to PP, the last positive cell
    pp = np.array(scenarios.rovelli_states(RovelliConfig())[PP][0])
    assert pp[0] < 1.0 and not pp[1:].any()
    rng = np.random.default_rng(0)
    assert relmodel.draw_counts(pp, 10 ** 18, rng).tolist() == [10 ** 18, 0, 0]
    assert relmodel.draw_counts(np.array([0.0, 0.5, 0.0, 0.5 - 2 ** -53]), 10 ** 18,
                                rng)[[0, 2]].tolist() == [0, 0]
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger)
        for seed in range(3):
            _, table, consistent = relmodel.rovelli_audit(cfg, 10 ** 18, seed)
            assert consistent == 10 ** 18 == table.sum()
            t = trigger_index(cfg)
            used = np.zeros((2, 3, 3), bool)
            used[t, t, PP] = used[t, 1 - t, PA] = used[1 - t, 2, NO_M2] = True
            assert not table[~used].any()


def test_rovelli_record_is_drawn_from_the_final_state(monkeypatch, capsys):
    # swap the PP and noM2 final states: a record read from the state now
    # disagrees with the run, which a record copied from the run would hide
    real = scenarios.rovelli_states

    def swapped(cfg):
        pp, pa, no_m2 = real(cfg)
        return no_m2, pa, pp

    monkeypatch.setattr(scenarios, "rovelli_states", swapped)
    code = cli.main(["rovelli", "--trials", "500", "--seed", "0", "--format", "json"])
    assert code == cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["consistency_rate"] < 1.0


def test_a_repeated_rovelli_config_rebuilds_no_branch_or_witness(monkeypatch):
    cfg = RovelliConfig(-1)
    relmodel.rovelli_audit(cfg, 10, 0)
    calls = []
    for name in ("build_rovelli_states", "orientation_branches", "interference_witness"):
        real = getattr(scenarios, name)
        monkeypatch.setattr(scenarios, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    relmodel.rovelli_audit(cfg, 10, 0)
    assert calls == []
    scenarios.rovelli_states.cache_clear()  # a fresh config builds each once
    relmodel.rovelli_audit(cfg, 10, 0)
    assert sorted(calls) == ["build_rovelli_states", *["interference_witness"] * 3,
                             *["orientation_branches"] * 3]


def test_a_repeated_circuit_config_decides_its_targets_once(monkeypatch, capsys):
    calls = []
    real = mp.feasible_joint_4
    monkeypatch.setattr(mp, "feasible_joint_4", lambda t: calls.append(t) or real(t))
    scenarios.circuit_verdict.cache_clear()  # a fresh config is decided once
    for _ in range(2):
        cli.main(["relmodel", "--trials", "100", "--seed", "0", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["analytic_feasibility"]["feasible"] is False
    assert calls == [scenarios.circuit_targets(LFConfig())]
