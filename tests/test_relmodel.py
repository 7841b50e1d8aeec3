import csv
import io
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pins
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friendlab import acceptance, cli, relmodel, scenarios, statlab
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
    return table[:code] + (value,) + table[code + 1:]


def batch_of(codes, cfg=LFConfig()):
    """A batch of the runs with these codes, in this order."""
    codes = tuple(codes)
    return relmodel.TrialBatch(cfg, tuple(map(codes.count, range(64))), codes[:relmodel.ROWS])


def remapped(batch, table):
    """The batch with each run's code c, counted and in order, replaced by table[c]."""
    histogram = tuple(sum(runs for c, runs in enumerate(batch.histogram) if table[c] == code)
                      for code in range(64))
    return relmodel.TrialBatch(batch.config, histogram, tuple(table[c] for c in batch.first))


def runs_of_pair(pair, n, seed):
    """The runs that measure `pair` in a batch of 5n runs at `seed`: at least
    n of them, so a test on one pair keeps at least n qualifying runs."""
    batch = relmodel.simulate_batch(LFConfig(), 5 * n, seed)
    mine = [k == PAIR_IDS.index(pair) for k in relmodel.TABLES["k"]]
    histogram = tuple(runs if m else 0 for runs, m in zip(batch.histogram, mine))
    assert sum(histogram) >= n
    return relmodel.TrialBatch(batch.config, histogram, tuple(c for c in batch.first if mine[c]))


def assert_int_tuple(values):
    """`values` is a tuple of ints: read-only by its type, and no numpy scalar
    can reach a report through it."""
    assert type(values) is tuple and all(type(v) is int for v in values)
    with pytest.raises(TypeError):
        values[0] = values[0]


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
    v = decode(batch.first[i])
    return RunRecord(v["Ai"], v["Ci"], *(CHOICE[w] for w in v["pair"]),
                     *(v[name] for name in ("B", "D", "A", "C", "Ar", "Cr")))._asdict()


def reference_rows(batch, stop=relmodel.ROWS) -> list[dict]:
    """The batch's first `stop` runs as report rows, each a `reference_row`."""
    return [reference_row(batch, i) for i in range(min(stop, len(batch.first)))]


def written_rows(batch, stop=relmodel.ROWS) -> list[dict]:
    """The batch's first `stop` runs as its JSON writer writes them, read back."""
    return json.loads("".join(batch.rows_json(stop)))


def code_probabilities(cfg):
    """P(code) of one run: a uniform pair k, uniform internal bits and the
    pair's Born cell, born[k][cell] / 16."""
    born = scenarios.born_tables(cfg)
    return np.array([born[PAIR_IDS[c >> 4]][c & 3] / 16 for c in range(64)])


def test_every_code_obeys_the_presence_discipline_and_product_identity():
    tables = relmodel.TABLES
    assert all(len(t) == 64 for t in tables.values())
    for table in (*tables.values(), relmodel.PLANTED):
        assert_int_tuple(table)
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
        planted = relmodel.PLANTED[code]
        assert planted ^ code in (0, 8)
        assert decode(planted)["Ai"] == (1 if want["pair"][0] == "A" else -1)
    every = batch_of(range(64))
    rows = reference_rows(every, 64)
    # rows_json gives pieces; joined, they must be json.dumps of the rows
    assert "".join(every.rows_json(64)) == json.dumps(rows, sort_keys=True,
                                                      separators=(",", ":"))
    buf = io.StringIO()
    csv.writer(buf).writerows([relmodel.RECORD_FIELDS, *(r.values() for r in rows)])
    assert every.rows_csv(64) == buf.getvalue()


def test_run_trial_presence_discipline_per_choice_pair():
    batch = relmodel.simulate_batch(LFConfig(), 250, 0)
    assert_int_tuple(batch.first)
    assert_int_tuple(batch.histogram)
    for pair in PAIR_IDS:
        b_choice, d_choice = CHOICE[pair[0]], CHOICE[pair[1]]
        batch = runs_of_pair(pair, 50, 0)
        rows = written_rows(batch)
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
    t = relmodel.TABLES
    b_asks, d_asks = [k <= 1 for k in t["k"]], [k % 2 == 0 for k in t["k"]]  # AC, AD; AC, BC
    broken = [("Ar", b_asks, lambda c: -t["Ar"][c]),            # relation flipped
              ("A", [not a for a in b_asks], lambda c: 1),      # supermeasured wing with A
              ("Ci", [True] * 64, lambda c: 0),                 # internal value of 0
              ("D", d_asks, lambda c: -1)]                      # asked wing with a super outcome
    codes, tables, expected = [], {}, 0
    for name, where, value in broken:
        code = next(c for c in range(64)
                    if where[c] and batch.histogram[c] > 0 and c not in codes)
        codes.append(code)
        runs = batch.histogram[code]
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
    assert b1.histogram == b2.histogram
    assert b1.first == b2.first
    assert b1.rows_json(relmodel.ROWS) == b2.rows_json(relmodel.ROWS)
    b3 = relmodel.simulate_batch(cfg, 3000, 18)
    assert b1.first != b3.first


def test_simulate_batch_rejects_bad_inputs():
    cfg = LFConfig()
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, 0, 1)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        relmodel.simulate_batch(cfg, 10, -1)


# seeds per distributional property, and the standard errors its means may be off
SEEDS, K = 2000, 5.0


def test_simulate_batch_histogram_is_multinomial():
    # over SEEDS seeds each code's mean count and each two codes' covariance
    # match Multinomial(n, p): within K standard errors, the covariance's from
    # the normal approximation Var = (s_ii s_jj + s_ij^2) / S; at angles where
    # no code has probability 0, so every code is tested
    cfg = LFConfig(10.0, 80.0, 35.0, 170.0)
    p = code_probabilities(cfg)
    assert (p > 0).all()
    for n in (relmodel.ROWS, relmodel.ROWS + 1, 4 * 10 ** 4):
        counts = np.array([relmodel.simulate_batch(cfg, n, seed).histogram
                           for seed in range(SEEDS)])
        assert (counts.sum(axis=1) == n).all()
        mean, cov = n * p, n * (np.diag(p) - np.outer(p, p))
        assert (abs(counts.mean(axis=0) - mean) <= K * np.sqrt(np.diag(cov) / SEEDS)).all()
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / SEEDS)
        assert (abs(np.cov(counts, rowvar=False) - cov) <= K * se).all()


def test_first_rows_are_drawn_from_p_in_uniform_order():
    # the first min(n, ROWS) runs are the first runs of the batch: counted in
    # its histogram, each code as often as p says over SEEDS seeds, and in a
    # uniformly random order: of two runs with distinct codes at positions
    # i < j, the one with the smaller code comes first half the time
    cfg = LFConfig(10.0, 80.0, 35.0, 170.0)
    p = code_probabilities(cfg)
    for n in (5, relmodel.ROWS, 3 * relmodel.ROWS):
        r = min(n, relmodel.ROWS)
        positions = ((0, 1), (0, r - 1), (r - 2, r - 1))
        freq, smaller_first, distinct = np.zeros(64), np.zeros(3), np.zeros(3)
        for seed in range(SEEDS):
            batch = relmodel.simulate_batch(cfg, n, seed)
            assert len(batch.first) == r and len(batch) == n
            first = np.bincount(batch.first, minlength=64)
            assert (first <= batch.histogram).all()
            freq += first
            a, b = (np.array([batch.first[i] for i in pos]) for pos in zip(*positions))
            smaller_first += a < b
            distinct += a != b
        se = np.sqrt(p * (1 - p) / (SEEDS * r))
        assert (abs(freq / (SEEDS * r) - p) <= K * se).all()
        assert (abs(smaller_first / distinct - 0.5) <= K * np.sqrt(0.25 / distinct)).all()


def list_shuffled_batch(cfg, n, seed):
    """simulate_batch's histogram and first runs drawn here from one
    default_rng(seed): the first runs' counts as a multinomial over the
    positive cells of P(code), their codes as a list in code order shuffled
    by numpy, then the rest's counts."""
    p = code_probabilities(cfg).tolist()

    def draw(runs, rng):
        drawn = iter(rng.multinomial(runs, [min(x, 1.0) for x in p if x > 0]).tolist())
        return tuple(next(drawn) if x > 0 else 0 for x in p)

    rng = np.random.default_rng(seed)
    counts = draw(min(n, relmodel.ROWS), rng)
    first = [code for code, runs in enumerate(counts) for _ in range(runs)]
    rng.shuffle(first)
    rest = draw(n - len(first), rng)
    return relmodel.TrialBatch(cfg, tuple(a + b for a, b in zip(counts, rest)), tuple(first))


def test_simulate_batch_draws_the_stream_of_a_list_shuffle():
    # numpy shuffles a 1-d array with the draws it shuffles a list with, so
    # the batch is the one drawn code by code into a list; at the default
    # angles and at angles where half the pairs have zero cells
    for cfg in (LFConfig(), LFConfig(0.0, 90.0, 0.0, 90.0)):
        for n in (1, relmodel.ROWS - 1, relmodel.ROWS, relmodel.ROWS + 1, 4 * 10 ** 4):
            for seed in range(50):
                batch = relmodel.simulate_batch(cfg, n, seed)
                want = list_shuffled_batch(cfg, n, seed)
                assert (batch.histogram, batch.first) == (want.histogram, want.first), (n, seed)
                planted, want = batch.planted(), remapped(want, relmodel.PLANTED)
                assert (planted.histogram, planted.first) == (want.histogram, want.first)


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
    batch = batch_of(codes)
    runs = [(x[c], y[c]) for c in codes]
    counts = tuple(runs.count(cell) for cell in statlab.PAIR_CELLS)
    with mock.patch.dict(relmodel.TABLES, Ai=tuple(x), Ci=tuple(y)):
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
    bad = remapped(batch, [c & 0xF7 if c >> 4 <= 1 else c for c in range(64)])
    assert relmodel.audit(bad)[0][0]["observed"] == 0.0
    report = relmodel.check_choice_independence(bad)
    assert [f["wing"] for f in report["flags"]] == ["alice"]
    flag = report["flags"][0]
    assert flag["df"] == 3 and flag["statistic"] > flag["critical"]
    assert flag["critical"] == statlab.chi2_critical(relmodel.INDEPENDENCE_ALPHA / 2, 3)


def test_choice_independence_needs_variation():
    batch = runs_of_pair("AC", 1000, 2)
    with pytest.raises(InsufficientDataError):
        relmodel.check_choice_independence(batch)


def biased_probabilities(delta):
    """P(code) at the default angles when Alice's internal outcome is +1 with
    probability 1/2 + delta on the ask/ask runs (AC) and 1/2 elsewhere."""
    p = code_probabilities(LFConfig())
    p[:16] *= np.where(np.arange(16) & 8, 1 - 2 * delta, 1 + 2 * delta)
    return p


def test_choice_independence_false_alarm_rate_is_alpha():
    # clean 4e4-run batches: the gate flags at most INDEPENDENCE_ALPHA of them
    # (2 expected of 2000; 10 or more has probability below 1e-4), and each
    # wing's statistic exceeds its 5% critical value on 5% of the batches
    batches, alpha = 2000, relmodel.INDEPENDENCE_ALPHA
    assert alpha == 1e-3
    at_5_percent, x = 0, statlab.chi2_critical(0.05, 3)
    flagged = 0
    for seed in range(batches):
        report = relmodel.check_choice_independence(
            relmodel.simulate_batch(LFConfig(), 4 * 10 ** 4, seed))
        flagged += bool(report["flags"])
        for wing in report["stats"].values():
            columns = [(s["n_plus"], s["n"] - s["n_plus"]) for s in wing.values()]
            at_5_percent += statlab.homogeneity(columns, 0.05)["statistic"] > x
    assert flagged < 10
    wings = 2 * batches
    assert abs(at_5_percent - 0.05 * wings) <= K * math.sqrt(wings * 0.05 * 0.95)


def test_choice_independence_flags_the_planted_violation_at_every_seed():
    for n in (100, 4 * 10 ** 4):
        for seed in range(100):
            report = relmodel.check_choice_independence(
                relmodel.simulate_batch(LFConfig(), n, seed).planted())
            assert "alice" in [f["wing"] for f in report["flags"]], (n, seed)


def test_choice_independence_has_power_against_a_small_bias():
    # Alice's internal outcome +1 with probability 0.515 on the ask/ask runs
    # only: at 4e5 runs the gate flags her wing on every one of 200 batches
    p = biased_probabilities(0.015)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)
    for seed in range(200):
        histogram = relmodel.draw_counts(p, 4 * 10 ** 5, np.random.default_rng(seed))
        batch = relmodel.TrialBatch(LFConfig(), histogram, ())
        flags = relmodel.check_choice_independence(batch)["flags"]
        assert "alice" in [f["wing"] for f in flags], seed


def test_rows_are_the_first_runs_in_record_field_order():
    batch = relmodel.simulate_batch(LFConfig(), 20, 9)
    rows = reference_rows(batch, 8)
    assert written_rows(batch, 8) == rows
    # CSV columns follow RECORD_FIELDS; None is an empty field
    header, *lines = list(csv.reader(io.StringIO(batch.rows_csv(8))))
    assert tuple(header) == relmodel.RECORD_FIELDS
    assert lines == [["" if v is None else str(v) for v in r.values()] for r in rows]
    assert written_rows(batch, 0) == [] and len(written_rows(batch, 1000)) == len(batch)
    assert batch.rows_json(0) == ["[", "]"]
    assert "".join(batch.rows_json(1)) == "[" + json.dumps(rows[0], sort_keys=True,
                                                           separators=(",", ":")) + "]"
    assert batch.rows_csv(0) == ",".join(relmodel.RECORD_FIELDS) + "\r\n"


def test_jsonl_serialization_round_trips_values():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 20, 9)
    for i, obj in enumerate(written_rows(batch)):
        assert obj == reference_row(batch, i)
        assert obj["b_choice"] in ("ask", "super")
        # 0 in a table is null in the row; every other value is the table's
        for field, name in (("a_external", "A"), ("b_outcome", "B"), ("c_relation", "Cr")):
            value = relmodel.TABLES[name][batch.first[i]]
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
    # flip the relation of the first asked code drawn: the product identity
    # breaks on exactly the runs with that code
    code = next(c for c, k in enumerate(relmodel.TABLES["k"]) if k <= 1 and batch.histogram[c])
    relation = edited(relmodel.TABLES["Ar"], code, -relmodel.TABLES["Ar"][code])
    checks, _, _ = audit_with(batch, Ar=relation)
    assert checks[0]["observed"] == batch.histogram[code] and not checks[0]["pass"]


def decoded_tables(**edits):
    """k and each variable per code, decoded here one code at a time (0
    where absent), with each (code, value) of `edits[name]` written over."""
    values = []
    for v in map(decode, range(64)):
        values.append({name: v[name] or 0 for name in relmodel.VARIABLES})
        values[-1]["k"] = PAIR_IDS.index(v["pair"])
    for name, (code, value) in edits.items():
        values[code][name] = value
    return values


def reference_audit(batch, values):
    """From per-code `values`, summed code by code: the runs breaking the
    presence discipline or product identity, the (Ai, Ci) count table and
    the choice-independence entry."""
    def valid(asks, outcome, external, relation, internal):
        return (outcome == 0 and relation in (1, -1) and external == internal * relation
                if asks else outcome in (1, -1) and external == relation == 0)

    invalid, internal, stats, flags = 0, [0] * 4, {}, []
    columns = {"alice": [[0, 0] for _ in PAIR_IDS], "chidi": [[0, 0] for _ in PAIR_IDS]}
    for v, runs in zip(values, batch.histogram):
        bob, divya = PAIR_IDS[v["k"]]
        if not (v["Ai"] in (1, -1) and v["Ci"] in (1, -1)
                and valid(bob == "A", v["B"], v["A"], v["Ar"], v["Ai"])
                and valid(divya == "C", v["D"], v["C"], v["Cr"], v["Ci"])):
            invalid += runs
        internal[statlab.PAIR_CELLS.index((v["Ai"], v["Ci"]))] += runs
        for wing, name in (("alice", "Ai"), ("chidi", "Ci")):
            columns[wing][v["k"]][v[name] != 1] += runs
    for wing, table in columns.items():
        used = {",".join(CHOICE[w] for w in PAIR_IDS[k]): (plus, other)
                for k, (plus, other) in enumerate(table) if plus + other}
        stats[wing] = {key: {"n": a + b, "n_plus": a} for key, (a, b) in used.items()}
        test = statlab.homogeneity(list(used.values()), relmodel.INDEPENDENCE_ALPHA / 2)
        if test["statistic"] > test["critical"]:
            flags.append({"wing": wing, **test})
    return invalid, tuple(internal), {"stats": stats, "flags": flags}


def test_the_audits_read_the_tables_as_they_are_at_each_call():
    # the audits' code lists are memoized; a table edited under mock.patch.dict
    # and then restored must be read as it is at each call, never through
    # lists found for the other contents
    batch = relmodel.simulate_batch(LFConfig(), 20000, 4)
    code = next(c for c in range(64) if c >> 4 == 0 and batch.histogram[c])  # pair AC
    t = relmodel.TABLES
    real = reference_audit(batch, decoded_tables())
    for name, value in (("Ar", -t["Ar"][code]), ("Ai", -t["Ai"][code]), ("k", 1)):
        want = reference_audit(batch, decoded_tables(**{name: (code, value)}))
        assert want != real
        for tables, expected in (({}, real), ({name: edited(t[name], code, value)}, want),
                                 ({}, real)):
            with mock.patch.dict(relmodel.TABLES, tables):
                checks, internal, independence = relmodel.audit(batch)
                got = (checks[0]["observed"], internal, independence)
                assert got == expected, name
                assert relmodel.empirical_pair_table(batch, ("Ai", "Ci")) == expected[1]
                assert relmodel.check_choice_independence(batch) == expected[2]


PP, PA, NO_M2 = (scenarios.ROVELLI_RECORDS.index(r) for r in ("PP", "PA", "noM2"))


def trigger_index(cfg):
    """The trigger's index on a count table's first and second axes (+1, -1)."""
    return (1 - cfg.trigger) // 2


def test_rovelli_run_bookkeeping():
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger)
        table = relmodel.simulate_rovelli(cfg, 200, 0)
        assert type(table) is tuple and all(type(rows) is tuple for rows in table)
        for records in (records for rows in table for records in rows):
            assert_int_tuple(records)
        table = np.array(table)
        assert table.shape == (2, 3, 3) and table.sum() == 200
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
        checks, _, runs = relmodel.rovelli_audit(cfg, n, 1)
        assert runs["consistent"] == n and runs["second_iff_trigger"]
        assert [(c["observed"], c["pass"], c["n"]) for c in checks] == [(0.0, True, n)] * 2
        table = np.array(relmodel.simulate_rovelli(cfg, n, 1))
        assert runs["second"] == table[:, :2].sum()
        # the record also tells whether the second outcome agreed with the
        # first (PP) or not (PA), for either trigger
        t = trigger_index(cfg)
        assert table[t, t, PP] > 0 and table[t, 1 - t, PA] > 0
        assert table[t, t, PP] + table[t, 1 - t, PA] == table[t].sum()


def test_rovelli_first_outcome_balanced():
    n = 20000
    plus = sum(map(sum, relmodel.simulate_rovelli(RovelliConfig(), n, 6)[0]))
    assert abs(plus / n - 0.5) < 0.02


def test_a_uniform_in_the_round_off_tail_never_draws_a_zero_cell():
    # BC's cells 0 and 3 have probability 0, and its float sum stops short of
    # 1 - 2**-53; the multinomial gives that round-off tail to the table's last
    # positive code, so no run of any batch size has a zero-probability code
    cfg = LFConfig(0, 90, 270, 135)
    born = scenarios.born_tables(cfg)
    assert born["BC"][3] == 0.0 and sum(born["BC"]) < 1 - 2 ** -53
    zero = {c for c, p in enumerate(code_probabilities(cfg)) if p == 0}
    assert len(zero) == 8  # BC's two zero cells, under each of 4 internal outcome pairs
    for n in (1, relmodel.ROWS, relmodel.ROWS + 1, 10 ** 6, 10 ** 18, 2 ** 63 - 1):
        for seed in range(5):
            batch = relmodel.simulate_batch(cfg, n, seed)
            assert len(batch) == n and not any(batch.histogram[c] for c in zero)
            assert zero.isdisjoint(batch.first)


def test_audit_counts_are_exact_at_the_largest_batch():
    # every count is an int sum, so the four pairs' qualifying runs, the
    # internal joint and the independence stats each add up to n exactly
    n = 2 ** 63 - 1
    batch = relmodel.simulate_batch(LFConfig(), n, 0)
    tables, _ = relmodel.observed_pair_checks(batch)
    checks, internal, independence = relmodel.audit(batch)
    assert sum(map(sum, tables)) == sum(internal) == n
    for wing in independence["stats"].values():
        assert sum(s["n"] for s in wing.values()) == n
    assert all(c["pass"] for c in checks)
    planted = batch.planted()
    assert len(planted) == n and sum(relmodel.audit(planted)[1]) == n


def test_planted_violation_remaps_every_run():
    batch = relmodel.simulate_batch(LFConfig(), 3 * relmodel.ROWS, 1)
    planted = batch.planted()
    assert planted.first == tuple(relmodel.PLANTED[c] for c in batch.first)
    assert planted.histogram == remapped(batch, relmodel.PLANTED).histogram
    assert len(planted) == len(batch)
    assert_int_tuple(planted.first)
    assert_int_tuple(planted.histogram)


# stacks of 1-4 tables of 2-4 cells, each given as integer weights (some 0)
# and a shift of its last positive cell by -3 to +3 units in the last place,
# so that a table sums to 1 give or take a few ulps
WEIGHTED_TABLES = st.integers(2, 4).flatmap(lambda cells: st.lists(st.tuples(
    st.lists(st.integers(0, 3), min_size=cells, max_size=cells).filter(any),
    st.integers(-3, 3)), min_size=1, max_size=4))


def _tables(weighted) -> list[tuple[float, ...]]:
    tables = []
    for weights, ulps in weighted:
        probs = [w / sum(weights) for w in weights]
        j = max(i for i, p in enumerate(probs) if p)
        for _ in range(abs(ulps)):
            probs[j] = math.nextafter(probs[j], 2.0 if ulps > 0 else 0.0)
        tables.append(tuple(probs))
    return tables


# derandomized so the suite's run time and outcome do not vary between runs
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(WEIGHTED_TABLES, st.sampled_from([1, 7, 10 ** 6, 10 ** 18, 2 ** 63 - 1]),
       st.integers(0, 2 ** 32 - 1))
def test_draw_counts_gives_the_round_off_tail_to_a_positive_cell(weighted, n, seed):
    # tables that sum to 1 give or take a few ulps, at batch sizes up to 2**63 - 1
    rng = np.random.default_rng(seed)
    for table in _tables(weighted):
        counts = relmodel.draw_counts(table, n, rng)
        assert_int_tuple(counts)
        assert sum(counts) == n
        assert not any(c for c, p in zip(counts, table, strict=True) if p == 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(WEIGHTED_TABLES, st.sampled_from([1, 7, 10 ** 6, 10 ** 18, 2 ** 63 - 1]),
       st.integers(0, 2 ** 32 - 1))
def test_multinomial_gives_the_round_off_tail_to_a_positive_cell(weighted, n, seed):
    # draw_counts' rules, for the standard-library sampler of the sequential runs
    rng = random.Random(seed)
    for table in _tables(weighted):
        counts = relmodel.multinomial(rng, n, table)
        assert_int_tuple(counts)
        assert sum(counts) == n
        assert not any(c for c, p in zip(counts, table, strict=True) if p == 0)


# --- the standard-library samplers -------------------------------------------

def test_sampler_streams_are_pinned():
    assert pins.sampler_draws() == pins.SAMPLER_PINS


def chi2_tail(x, df):
    """P(X > x) for X chi-squared with df degrees of freedom, in closed form:
    the regularized upper incomplete gamma Q(df/2, x/2) as a finite sum."""
    h = x / 2
    if df % 2 == 0:
        total, term = 0.0, 1.0
        for j in range(df // 2):
            total, term = total + term, term * h / (j + 1)
        return math.exp(-h) * total
    total, term = 0.0, 2 * math.sqrt(h / math.pi)
    for j in range((df - 1) // 2):
        total, term = total + term, term * h / (j + 1.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def test_chi2_tail_matches_statlab_and_the_even_closed_form():
    for df in (1, 2, 3):
        x = statlab.chi2_critical(1e-3, df)
        assert chi2_tail(x, df) == pytest.approx(1e-3, rel=1e-9)
    # df = 4: exp(-x/2) (1 + x/2); df = 5 from df = 3 by the recurrence
    # Q(a + 1, h) = Q(a, h) + h^a exp(-h) / Gamma(a + 1)
    assert chi2_tail(6.0, 4) == pytest.approx(math.exp(-3) * 4)
    assert chi2_tail(6.0, 5) == pytest.approx(
        chi2_tail(6.0, 3) + 3 ** 1.5 * math.exp(-3) / math.gamma(2.5))


def test_the_stirling_test_is_the_log_pmf_ratio():
    # BTRS accepts k by log(f(k) / f(m)) in Stirling's form; near the mode it
    # must equal the telescoped sum of log f(i) / f(i - 1), each an exact
    # ratio rounded once, from n = 20 to 2**63 - 1
    for n in (20, 200, 5000, 10 ** 12, 2 ** 63 - 1):
        for p in (0.1, 0.5):
            m = math.floor((n + 1) * p)
            q = Fraction(p) / (1 - Fraction(p))
            for k in range(max(0, m - 40), min(n, m + 40) + 1):
                steps = (math.log((n - i + 1) * q / i) for i in range(min(k, m) + 1, max(k, m) + 1))
                exact = math.fsum(steps) * (1 if k >= m else -1)
                assert relmodel._log_pmf_ratio(n, p, m, k) == pytest.approx(exact, abs=1e-9)


# (n, p) on both sides of n p = 10, and past 1/2 through symmetry
BINOMIAL_LAW_CASES = [(20, 0.25), (39, 0.25), (40, 0.25), (41, 0.25), (200, 0.5),
                      (1000, 0.004), (60, 0.85), (80, 0.85)]


def test_binomial_draws_follow_the_exact_pmf():
    # Pearson's goodness of fit of 20000 draws per case against the exact
    # pmf, cells merged until each expects at least 20 draws; the family's
    # false-alarm rate is fixed before drawing at 1e-3, split over the cases
    alpha, draws, rng = 1e-3 / len(BINOMIAL_LAW_CASES), 20000, random.Random(7)
    for n, p in BINOMIAL_LAW_CASES:
        counts = [0] * (n + 1)
        for _ in range(draws):
            counts[relmodel.binomial(rng, n, p)] += 1
        cells, observed, expected = [], 0, 0.0
        for k in range(n + 1):
            observed += counts[k]
            expected += draws * math.comb(n, k) * p ** k * (1 - p) ** (n - k)
            if expected >= 20:
                cells.append((observed, expected))
                observed, expected = 0, 0.0
        last = cells.pop()  # the upper tail joins the last full cell
        cells.append((last[0] + observed, last[1] + expected))
        statistic = sum((o - e) ** 2 / e for o, e in cells)
        assert chi2_tail(statistic, len(cells) - 1) > alpha, (n, p, statistic, len(cells))


def bernstein(variance, alpha):
    """The t with P(|T - E T| >= t) <= alpha by Bernstein's inequality, for T
    a sum of independent Bernoulli variables whose variances add to `variance`."""
    log = math.log(2 / alpha)
    return log / 3 + math.sqrt(log * log / 9 + 2 * log * variance)


@pytest.mark.parametrize("n", [10, 10 ** 6, 10 ** 12, 2 ** 63 - 1])
def test_binomial_mean_and_variance_from_10_to_2_63(n):
    # S draws per p.  Their sum is Binomial(S n, p), so it lies within
    # Bernstein's bound of S n p.  Where S n p q >= 100 their sample variance
    # lies within K standard errors of n p q, from its fourth central moment.
    # Below that a draw off its nearer end (0 for p near 0, n near 1) is rare,
    # and one more than 1 off it rarer than alpha (Markov on the factorial
    # moment), so every draw is within 1 of that end and the sample variance
    # is fixed by the sum.  Each bounded check, a mean and a variance per
    # (n, p), has its false-alarm rate fixed before drawing at 1e-3 / 32.
    alpha, S, rng = 1e-3 / 32, SEEDS, random.Random(n)
    for p in (2 ** -60, 2 ** -20, 0.5, 1 - 2 ** -53):
        var, small = n * p * (1 - p), min(p, 1 - p)
        normal = S * var >= 100
        assert normal or S * n * (n - 1) * small * small / 2 < alpha
        draws = [relmodel.binomial(rng, n, p) for _ in range(S)]
        assert all(type(k) is int and 0 <= k <= n for k in draws)
        deviation = abs(Fraction(sum(draws)) - S * n * Fraction(p))
        assert deviation <= bernstein(S * var, alpha), (p, float(deviation))
        if normal:
            mean = Fraction(sum(draws), S)
            sample_var = sum((k - mean) ** 2 for k in draws) / (S - 1)
            se = math.sqrt((var * (1 - 6 * p * (1 - p)) + 2 * var * var) / S)
            assert abs(sample_var - var) <= K * se, (p, float(sample_var), var)
        else:
            end = 0 if p < 0.5 else n
            assert all(abs(k - end) <= 1 for k in draws), p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 63 - 1) | st.sampled_from([0, 1, 10, 2 ** 63 - 1]),
       st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 2 ** -1074, 0.5, 1 - 2 ** -53]),
       st.integers(0, 2 ** 32 - 1))
def test_binomial_is_an_int_from_0_to_n_and_exact_at_p_0_and_1(n, p, seed):
    rng = random.Random(seed)
    k = relmodel.binomial(rng, n, p)
    assert type(k) is int and 0 <= k <= n
    state = rng.getstate()  # p = 0 and p = 1 draw nothing
    assert relmodel.binomial(rng, n, 0.0) == 0 and relmodel.binomial(rng, n, 1.0) == n
    assert rng.getstate() == state


class Uniforms:
    """A stand-in for random.Random that returns the given floats in order."""

    def __init__(self, *values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_a_zero_uniform_is_drawn_again():
    # the geometric method takes log(u), and BTRS divides by 1/2 - |u - 1/2|;
    # each redraws on u = 0.0 instead of raising
    assert relmodel.binomial(Uniforms(0.0, 0.5, 0.5), 10, 0.1) == 1
    # u = 1/2 puts k at the centre c = 50.5, and v = 0.5 passes the squeeze
    assert relmodel.binomial(Uniforms(0.0, 0.5, 0.5), 100, 0.5) == 50


def test_simulate_rovelli_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        relmodel.simulate_rovelli(RovelliConfig(), 10, -1)


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
        counts = np.array([relmodel.simulate_rovelli(cfg, n, seed)
                           for seed in range(S)]).reshape(S, 18)
        assert (counts.sum(axis=1) == n).all()
        assert not counts[:, p == 0].any()  # a zero cell never gets a run
        mean, cov = n * p, n * (np.diag(p) - np.outer(p, p))
        assert (abs(counts.mean(axis=0) - mean) <= K * np.sqrt(np.diag(cov) / S)).all()
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / S)
        assert (abs(np.cov(counts, rowvar=False) - cov) <= K * se).all()


def test_a_zero_record_cell_never_gets_a_count_at_any_n():
    # PP's record row is (0.9999999999999998, 0, 0): a multinomial over all
    # three cells would hand its round-off tail to noM2 and report an
    # inconsistent run; draw_counts and multinomial give it to PP, the last
    # positive cell
    pp = scenarios.rovelli_states(RovelliConfig())[PP][0]
    assert pp[0] < 1.0 and not any(pp[1:])
    for draw in (lambda born, n, rng=np.random.default_rng(0): relmodel.draw_counts(born, n, rng),
                 lambda born, n, rng=random.Random(0): relmodel.multinomial(rng, n, born)):
        assert draw(pp, 10 ** 18) == (10 ** 18, 0, 0)
        assert draw((0.0, 0.5, 0.0, 0.5 - 2 ** -53), 10 ** 18)[0::2] == (0, 0)
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger)
        for seed in range(3):
            _, _, runs = relmodel.rovelli_audit(cfg, 10 ** 18, seed)
            table = np.array(relmodel.simulate_rovelli(cfg, 10 ** 18, seed))
            assert runs["consistent"] == 10 ** 18 == table.sum()
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


def one_run_moved(cell):
    """A stand-in for `simulate_rovelli` at trigger +1: of its n runs, a
    quarter end in each of PP's and PA's cells and the rest with no second
    outcome and record noM2, all consistent, but one run ends in `cell`
    (first outcome, second outcome, record) instead."""
    def table(cfg, n, seed):
        assert cfg.trigger == 1
        counts = [[[0] * 3 for _ in range(3)] for _ in range(2)]
        counts[0][0][PP] = counts[0][1][PA] = n // 4
        counts[1][2][NO_M2] = n - 2 * (n // 4) - 1
        first, second, record = cell
        counts[first][second][record] += 1
        return tuple(tuple(map(tuple, rows)) for rows in counts)
    return table


def test_one_inconsistent_run_in_10_18_fails_rovelli(monkeypatch, capsys):
    # a run with first outcome -1 and no second measurement whose record says
    # PP: the rate (10^18 - 1) / 10^18 rounds to the float 1.0, but the audit
    # counts the inconsistent runs as an int
    monkeypatch.setattr(relmodel, "simulate_rovelli", one_run_moved((1, 2, PP)))
    code = cli.main(["rovelli", "--trials", str(10 ** 18), "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["consistency_rate"] == 1.0 and rep["second_iff_trigger"] is True
    assert code == cli.EXIT_FAIL and rep["pass"] is False
    # the report's checks say which count failed, and by how many runs
    assert [(c["name"], c["observed"]) for c in rep["checks"] if not c["pass"]] == [
        ("inconsistent reports", 1.0)]


def test_a_second_outcome_off_the_trigger_fails_rovelli_and_criterion_5(monkeypatch, capsys):
    # a run with first outcome -1 that still has a second outcome: its record
    # noM2 is consistent with the first outcome, but the scenario never
    # measures twice after the other outcome
    monkeypatch.setattr(relmodel, "simulate_rovelli", one_run_moved((1, 0, NO_M2)))
    code = cli.main(["rovelli", "--trials", "1000", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["consistency_rate"] == 1.0 and rep["second_iff_trigger"] is False
    assert code == cli.EXIT_FAIL and rep["pass"] is False
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == [
        "second outcome iff trigger violations"]
    result = acceptance.criterion_5(0)
    failed = [c["name"] for c in result["checks"] if not c["pass"]]
    assert failed == ["second outcome iff trigger violations"] and result["pass"] is False


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
