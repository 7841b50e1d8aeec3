import dataclasses
import json
import math

import numpy as np
import pytest

from friendlab import relmodel, scenarios, statlab
from friendlab.relmodel import CHOICE_PAIRS, Choice, InsufficientDataError, RunRecord
from friendlab.scenarios import LFConfig, RovelliConfig

COS45 = math.cos(math.radians(45.0))


def test_run_trial_presence_discipline_per_choice_pair():
    cfg = LFConfig()
    for b_choice, d_choice in CHOICE_PAIRS:
        batch = relmodel.simulate_batch(cfg, {(b_choice, d_choice): 1.0}, 50, 0)
        for r in batch.records:
            r.validate()
            assert (r.b_choice, r.d_choice) == (b_choice, d_choice)
            if b_choice is Choice.ASK:
                assert r.b_outcome is None
                assert r.a_external == r.a_internal * r.a_relation
            else:
                assert r.b_outcome in (+1, -1)
                assert r.a_external is None and r.a_relation is None
            if d_choice is Choice.ASK:
                assert r.d_outcome is None
                assert r.c_external == r.c_internal * r.c_relation
            else:
                assert r.d_outcome in (+1, -1)
                assert r.c_external is None and r.c_relation is None


def test_record_validation_catches_broken_invariants():
    good = RunRecord(+1, -1, Choice.ASK, Choice.SUPER, None, -1, +1, None, +1, None)
    good.validate()
    with pytest.raises(ValueError):
        RunRecord(+1, -1, Choice.ASK, Choice.SUPER, None, -1, +1, None, -1, None).validate()
    with pytest.raises(ValueError):
        RunRecord(+1, -1, Choice.SUPER, Choice.SUPER, +1, -1, +1, None, None, None).validate()
    with pytest.raises(ValueError):
        RunRecord(0, -1, Choice.SUPER, Choice.SUPER, +1, -1, None, None, None, None).validate()


def test_born_target_table_matches_cosine_correlators():
    cfg = LFConfig()
    expected = {"AC": COS45, "AD": -COS45, "BC": COS45, "BD": COS45}
    for pair, e_want in expected.items():
        table = scenarios.born_pair_table(cfg, pair)
        assert tuple(table) == statlab.PAIR_CELLS
        e = sum(x * y * p for (x, y), p in table.items())
        assert e == pytest.approx(e_want, abs=1e-12)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_simulate_batch_same_seed_identical():
    cfg = LFConfig()
    b1 = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 3000, 17)
    b2 = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 3000, 17)
    assert b1.records == b2.records
    b3 = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 3000, 18)
    assert b1.records != b3.records


def test_simulate_batch_chunk_aligned_prefix_stability():
    # full chunks are seeded independently of the total size, so a
    # chunk-aligned shorter run is an exact prefix of a longer one
    cfg = LFConfig()
    small = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), relmodel.CHUNK, 5)
    large = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), relmodel.CHUNK + 4000, 5)
    assert large.records[:relmodel.CHUNK] == small.records


def test_simulate_batch_rejects_bad_inputs():
    cfg = LFConfig()
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 0, 1)
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, [0.5, 0.5, 0.5, 0.5], 10, 1)
    with pytest.raises(ValueError):
        relmodel.simulate_batch(cfg, [1.0, 0.0, 0.0, -0.0001], 10, 1)


def test_supermeasured_pair_matches_born_correlator():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, {(Choice.SUPER, Choice.SUPER): 1.0}, 10 ** 5, 3)
    table, n = relmodel.empirical_pair_table(batch, ("B", "D"))
    assert n == 10 ** 5
    e, stderr = statlab.correlation_estimate(table)
    assert abs(e - COS45) < 0.02
    assert abs(e - COS45) < 5 * stderr


def test_batch_cell_counts_within_binomial_band():
    cfg = LFConfig()
    n = 10 ** 5
    batch = relmodel.simulate_batch(cfg, {(Choice.ASK, Choice.ASK): 1.0}, n, 8)
    table, _ = relmodel.empirical_pair_table(batch, ("A", "C"))
    target = scenarios.born_pair_table(cfg, "AC")
    for cell, p in target.items():
        band = 4 * math.sqrt(p * (1 - p) / n)
        assert abs(table.freq(cell) - p) <= band + 1e-12


def test_empirical_pair_table_errors():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, {(Choice.SUPER, Choice.SUPER): 1.0}, 100, 1)
    with pytest.raises(InsufficientDataError):
        relmodel.empirical_pair_table(batch, ("A", "C"))  # never asked
    with pytest.raises(ValueError):
        relmodel.empirical_pair_table(batch, ("B", "Z"))


def test_choice_independence_clean_on_fair_batch():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 10 ** 5, 0)
    report = relmodel.check_choice_independence(batch)
    assert not report.flags
    assert set(report.stats) == {"alice", "chidi"}
    assert sum(n for n, _ in report.stats["alice"].values()) == 10 ** 5


def test_choice_independence_flags_planted_dependence():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 20000, 4)
    # force the internal outcome to track the choice on asked runs
    bad = dataclasses.replace(batch, records=tuple(
        dataclasses.replace(r, a_internal=+1, a_relation=r.a_external)
        if r.b_choice is Choice.ASK else r for r in batch.records))
    report = relmodel.check_choice_independence(bad)
    assert report.flags
    assert any(f["wing"] == "alice" for f in report.flags)


def test_choice_independence_needs_variation():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, {(Choice.ASK, Choice.ASK): 1.0}, 1000, 2)
    with pytest.raises(InsufficientDataError):
        relmodel.check_choice_independence(batch)


def test_jsonl_serialization_round_trips_values():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 20, 9)
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in batch.records]
    for line, record in zip(lines, batch.records):
        obj = json.loads(line)
        assert obj == record.to_json_dict()
        assert obj["b_choice"] in ("ask", "super")


def test_audit_checks_in_order_and_catches_broken_records():
    cfg = LFConfig()
    batch = relmodel.simulate_batch(cfg, relmodel.uniform_policy(), 20000, 9)
    checks, internal, independence = relmodel.audit(batch)
    assert [c["name"] for c in checks] == (
        ["presence/product violations"]
        + [f"observed pair {p} vs Born" for p in statlab.PAIR_IDS]
        + ["internal joint cells vs 1/4", "choice-independence flags"])
    assert all(c["pass"] for c in checks)
    assert internal.total == 20000 and not independence.flags
    # flip one asked relation: the product identity breaks on that run only
    i = next(k for k, r in enumerate(batch.records) if r.b_choice is Choice.ASK)
    broken = list(batch.records)
    broken[i] = dataclasses.replace(broken[i], a_relation=-broken[i].a_relation)
    checks, _, _ = relmodel.audit(dataclasses.replace(batch, records=tuple(broken)))
    assert checks[0]["observed"] == 1.0 and not checks[0]["pass"]


def test_rovelli_run_bookkeeping():
    cfg = RovelliConfig()
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = relmodel.rovelli_run(cfg, ask=False, rng=rng)
        assert r.performed_second == (r.first == cfg.trigger)
        assert (r.second is None) == (not r.performed_second)
        assert r.report_consistent


def test_rovelli_run_reports_consistent_when_asked():
    rng = np.random.default_rng(1)
    for trigger in (+1, -1):
        cfg = RovelliConfig(trigger=trigger)
        n = 2000
        inconsistent = sum(
            1 for _ in range(n)
            if not relmodel.rovelli_run(cfg, ask=True, rng=rng).report_consistent)
        assert inconsistent == 0


def test_rovelli_first_outcome_balanced():
    cfg = RovelliConfig()
    rng = np.random.default_rng(6)
    n = 20000
    plus = sum(1 for _ in range(n) if relmodel.rovelli_run(cfg, ask=False, rng=rng).first == +1)
    assert abs(plus / n - 0.5) < 0.02
