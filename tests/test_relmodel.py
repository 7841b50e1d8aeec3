import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friendlab import cli, hilbert, relmodel, scenarios, statlab
from friendlab.relmodel import InsufficientDataError, RunRecord
from friendlab.scenarios import PAIR_CHOICES, LFConfig, RovelliConfig
from friendlab.statlab import PAIR_IDS

COS45 = math.cos(math.radians(45.0))


def with_columns(batch, **columns):
    return dataclasses.replace(batch, columns={**batch.columns, **columns})


def runs_of_pair(pair, n, seed):
    """The runs that measure `pair` in a batch of 5n runs at `seed`: at least
    n of them, so a test on one pair keeps at least n qualifying runs."""
    batch = relmodel.simulate_batch(LFConfig(), 5 * n, seed)
    mine = batch.choice == PAIR_IDS.index(pair)
    assert mine.sum() >= n
    return dataclasses.replace(batch, choice=batch.choice[mine],
                               columns={v: col[mine] for v, col in batch.columns.items()})


def reference_row(batch, i) -> dict:
    """Run i as a report row, built one variable at a time."""
    b_choice, d_choice = PAIR_CHOICES[PAIR_IDS[batch.choice[i]]]
    v = {name: int(col[i]) for name, col in batch.columns.items()}
    return dataclasses.asdict(RunRecord(v["Ai"], v["Ci"], b_choice, d_choice,
                                        *(v[name] or None
                                          for name in ("B", "D", "A", "C", "Ar", "Cr"))))


def same_runs(b1, b2, stop=None) -> bool:
    """Do the first `stop` runs (all when None) of b1 equal b2's runs?"""
    return (np.array_equal(b1.choice[:stop], b2.choice)
            and b1.columns.keys() == b2.columns.keys()
            and all(np.array_equal(col[:stop], b2.columns[v]) for v, col in b1.columns.items()))


def test_run_trial_presence_discipline_per_choice_pair():
    for pair in PAIR_IDS:
        b_choice, d_choice = PAIR_CHOICES[pair]
        batch = runs_of_pair(pair, 50, 0)
        col = batch.columns
        assert all(v.dtype == np.int8 for v in (batch.choice, *col.values()))
        assert set(np.abs(col["Ai"])) == set(np.abs(col["Ci"])) == {1}
        for r in batch.rows(len(batch)):
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
    b_asks = np.array([PAIR_CHOICES[p][0] == "ask" for p in PAIR_IDS])[batch.choice]
    d_asks = np.array([PAIR_CHOICES[p][1] == "ask" for p in PAIR_IDS])[batch.choice]
    broken = [("Ar", b_asks, lambda v: -v),                   # relation flipped
              ("A", ~b_asks, lambda v: 1),                    # supermeasured wing with A
              ("Ci", np.ones(len(batch), bool), lambda v: 0),  # internal value of 0
              ("D", d_asks, lambda v: -1)]                    # asked wing with a super outcome
    runs, columns = [], {}
    for name, where, edit in broken:
        i = next(int(k) for k in np.flatnonzero(where) if k not in runs)
        runs.append(i)
        single = batch.columns[name].copy()
        single[i] = edit(single[i])
        assert relmodel.audit(with_columns(batch, **{name: single}))[0][0]["observed"] == 1.0
        columns[name] = single
    checks = relmodel.audit(with_columns(batch, **columns))[0]
    assert checks[0]["observed"] == len(broken) and not checks[0]["pass"]


def test_born_target_table_matches_cosine_correlators():
    cfg = LFConfig()
    expected = {"AC": COS45, "AD": -COS45, "BC": COS45, "BD": COS45}
    for pair, e_want in expected.items():
        table = scenarios.born_pair_table(cfg, pair)
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


def test_supermeasured_pair_matches_born_correlator():
    batch = runs_of_pair("BD", 10 ** 5, 3)
    table, n = relmodel.empirical_pair_table(batch, ("B", "D"))
    assert n == len(batch) >= 10 ** 5
    e, stderr = statlab.correlation_estimate(table)
    assert abs(e - COS45) < 0.02
    assert abs(e - COS45) < 5 * stderr


def test_batch_cell_counts_within_binomial_band():
    cfg = LFConfig()
    batch = runs_of_pair("AC", 10 ** 5, 8)
    table, n = relmodel.empirical_pair_table(batch, ("A", "C"))
    assert n == len(batch) >= 10 ** 5
    for freq, p in zip(table.freqs(), scenarios.born_pair_table(cfg, "AC"), strict=True):
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= band + 1e-12


def test_empirical_pair_table_errors():
    batch = runs_of_pair("BD", 100, 1)
    with pytest.raises(InsufficientDataError):
        relmodel.empirical_pair_table(batch, ("A", "C"))  # never asked
    with pytest.raises(ValueError):
        relmodel.empirical_pair_table(batch, ("B", "Z"))


SIGNED = st.sampled_from((-1, 0, 1))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(SIGNED, SIGNED), min_size=1, max_size=300))
@example([(0, 1), (-1, 0), (0, 0)])
def test_empirical_pair_table_is_a_plain_count(runs):
    x, y = (np.array(v, dtype=np.int8) for v in zip(*runs))
    batch = relmodel.TrialBatch(LFConfig(), 0, np.zeros(len(runs), np.int8), {"Ai": x, "Ci": y})
    counts = tuple(runs.count(cell) for cell in statlab.PAIR_CELLS)
    if sum(counts) == 0:
        with pytest.raises(InsufficientDataError):
            relmodel.empirical_pair_table(batch, ("Ai", "Ci"))
    else:
        table, n = relmodel.empirical_pair_table(batch, ("Ai", "Ci"))
        assert table.counts == counts and n == sum(counts)


def test_choice_independence_clean_on_fair_batch():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 10 ** 5, 0)
    report = relmodel.check_choice_independence(batch)
    assert not report.flags
    assert set(report.stats) == {"alice", "chidi"}
    assert sum(n for n, _ in report.stats["alice"].values()) == 10 ** 5


def test_choice_independence_flags_planted_dependence():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, 20000, 4)
    # force the internal outcome to +1 on asked runs, keeping the product identity
    a_external = batch.columns["A"]
    bad = with_columns(batch, Ai=np.where(a_external != 0, 1, batch.columns["Ai"]).astype(np.int8),
                       Ar=a_external)
    assert relmodel.audit(bad)[0][0]["observed"] == 0.0
    report = relmodel.check_choice_independence(bad)
    assert report.flags
    assert any(f["wing"] == "alice" for f in report.flags)


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
        # 0 in a column is null in the row; every other value is the column's
        for field, name in (("a_external", "A"), ("b_outcome", "B"), ("c_relation", "Cr")):
            value = int(batch.columns[name][i])
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
    assert internal.total == 20000 and not independence.flags
    # flip one asked relation: the product identity breaks on that run only
    i = int(np.flatnonzero(batch.columns["Ar"])[0])
    relation = batch.columns["Ar"].copy()
    relation[i] = -relation[i]
    checks, _, _ = relmodel.audit(with_columns(batch, Ar=relation))
    assert checks[0]["observed"] == 1.0 and not checks[0]["pass"]


NO_M2 = scenarios.ROVELLI_RECORDS.index("noM2")


def test_rovelli_run_bookkeeping():
    cfg = RovelliConfig()
    runs = relmodel.simulate_rovelli(cfg, 200, 0)
    assert set(runs) == {"first", "performed", "second", "record"}
    for col in runs.values():
        assert col.dtype == np.int8 and len(col) == 200 and not col.flags.writeable
    performed = runs["performed"] == 1
    assert np.array_equal(performed, runs["first"] == cfg.trigger)
    assert np.array_equal(runs["second"] == 0, ~performed)
    assert set(runs["second"][performed].tolist()) <= {+1, -1}
    assert np.array_equal(runs["record"] != NO_M2, performed)


def test_rovelli_run_reports_consistent_when_asked():
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger=trigger)
        n = 2000
        _, runs, consistent = relmodel.rovelli_audit(cfg, n, 1)
        assert consistent == n
        # the record also tells whether the second outcome agreed with the
        # first (PP) or not (PA), for either trigger
        performed = runs["performed"] == 1
        assert np.array_equal(runs["record"][performed],
                              np.where(runs["second"][performed] == runs["first"][performed],
                                       scenarios.ROVELLI_RECORDS.index("PP"),
                                       scenarios.ROVELLI_RECORDS.index("PA")))


def test_rovelli_first_outcome_balanced():
    n = 20000
    plus = int((relmodel.simulate_rovelli(RovelliConfig(), n, 6)["first"] == +1).sum())
    assert abs(plus / n - 0.5) < 0.02


class _EdgeUniforms:
    """A generator stand-in whose uniforms are the two ends of [0, 1)."""

    def random(self, n):
        return np.array([0.0, 1 - 2 ** -53])[:n]


def test_rovelli_record_is_drawn_from_the_final_state(monkeypatch, capsys):
    # the noM2 state gives PP, the first record label, probability 0; u = 0.0
    # would pick it with side="left", and 1 - 2**-53 lies past the float sum
    # of the probabilities, in the round-off tail
    no_m2 = scenarios.build_rovelli_states(RovelliConfig())[NO_M2]
    spec = scenarios.record_spec(scenarios.ROVELLI_LAYOUT, labels=scenarios.ROVELLI_RECORDS)
    probs = [pr for _, pr in hilbert.born_distribution(no_m2, spec)]
    assert probs[0] == 0.0 and sum(probs) < 1 - 2 ** -53
    assert hilbert.sample_outcomes(no_m2, spec, 2, _EdgeUniforms()).tolist() == [NO_M2, NO_M2]
    # swap the PP and noM2 final states: a record read from the state now
    # disagrees with the run, which a record copied from the run would hide
    build = scenarios.build_rovelli_states

    def swapped(cfg):
        pp, pa, no_m2 = build(cfg)
        return [no_m2, pa, pp]

    monkeypatch.setattr(scenarios, "build_rovelli_states", swapped)
    code = cli.main(["rovelli", "--trials", "500", "--seed", "0", "--format", "json"])
    assert code == cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["consistency_rate"] < 1.0
