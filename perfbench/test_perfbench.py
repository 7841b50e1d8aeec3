"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import run
import workloads
from workloads import FeasBoundary, FeasGrid, MonteCarlo, Sequential

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FL = run.import_friendlab()
TINY = [(FeasGrid(), 0.3), (FeasBoundary(), 0.5), (MonteCarlo(40_000), 0.1),
        (Sequential(20), 0.2)]


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload,seconds", TINY, ids=[w.name for w, _ in TINY])
def test_untraced_run_reports_every_end_to_end_metric(workload, seconds):
    result, record = run.run(workload, 3, seconds, False, FL, setup_repeats=1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("end_to_end")
    assert result["correct"] and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = run.describe(result, record, workload)
    assert any(line.startswith("fail_frac") for line in lines)
    alias = "targets_per_s" if workload.name.startswith("feas_") else "runs_per_s"
    assert any(line.startswith(alias) for line in lines)
    if workload.name == "feas_grid":
        assert set(record["p50_ms_by_verdict"]) == {"feasible", "infeasible"}


@pytest.mark.parametrize("workload,seconds", TINY, ids=[w.name for w, _ in TINY])
def test_traced_run_matches_untraced_output(workload, seconds):
    result, record = run.run(workload, 4, seconds, True, FL)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    assert record["output_sha256"] == record["traced_output_sha256"]
    assert record["wrappers_removed"] and record["missing_targets"] == []
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload.name.startswith("feas_"):
        mp = "marginal_polytope.solve_nonnegative"
        assert (m[f"{mp}.rows_lp4"], m[f"{mp}.cols_lp4"]) == (17, 16)
        assert (m[f"{mp}.rows_lp6"], m[f"{mp}.cols_lp6"]) == (17, 64)
    if workload.name == "feas_grid":
        assert m["marginal_polytope.solve_nonnegative.calls"] == 2
    if workload.name == "montecarlo":
        assert m["relmodel.records"] == workload.trials
        assert m["relmodel.validate.calls"] == workload.trials
    if workload.name == "sequential":
        assert m["scenarios.build_rovelli_states.calls_per_run"] == 1
        assert m["scenarios.record_spec.calls_per_run"] == 1
        assert m["hilbert.factor_basis_spec.calls_per_run"] == 2
    spans = (run.ROOT / record["spans"]).read_text().splitlines()
    assert {"id", "name", "start", "end", "parent", "item"} <= set(json.loads(spans[0]))


def test_planted_wrong_verdict_is_counted(monkeypatch):
    real = run.call_cli

    def flip_first_item(cli, argv):
        rc, out, elapsed = real(cli, argv)
        if Path(argv[argv.index("--targets") + 1]).name == "0.json":
            rep = json.loads(out)
            rep["joint_4"]["feasible"] = not rep["joint_4"]["feasible"]
            out = json.dumps(rep)
        return rc, out, elapsed

    monkeypatch.setattr(run, "call_cli", flip_first_item)
    result, record = run.run(FeasGrid(), 5, 0.2, False, FL, setup_repeats=1)
    assert not result["correct"] and result["failed"] == 1
    assert record["failure_reasons"] == {"wrong joint_4 verdict": 1}


def test_a_seed_gives_the_same_items_and_outcomes_on_every_run():
    # A run serves a count of items, not a deadline: attempted, failed and
    # the output bytes depend only on the seed and --seconds.
    first, rec1 = run.run(FeasBoundary(), 6, 0.5, False, FL, setup_repeats=1)
    second, rec2 = run.run(FeasBoundary(), 6, 0.5, False, FL, setup_repeats=1)
    assert first["attempted"] == second["attempted"] == FeasBoundary().items_for(0.5)
    assert first["failed"] == second["failed"]
    assert rec1["output_sha256"] == rec2["output_sha256"]


def test_latencies_are_scaled_by_the_probes_around_them(monkeypatch):
    probes = iter([0.002, 0.004, 0.003, 0.005])
    monkeypatch.setattr(hostspeed, "probe_seconds", lambda: next(probes))
    speed = hostspeed.HostSpeed(warmup=0)
    assert speed.scale() == hostspeed.NOMINAL_S / 0.003
    assert speed.scale() == hostspeed.NOMINAL_S / 0.0035
    assert speed.scale() == hostspeed.NOMINAL_S / 0.004
    assert speed.samples == [0.002, 0.004, 0.003, 0.005]


def test_tail_is_never_below_the_median():
    assert run.tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert run.tail([float(x) for x in range(11)]) == (5.0, 50.0)
    assert run.tail([float(x) for x in range(101)]) == (90.0, 90.0)


def test_traffic_is_a_function_of_the_seed():
    for w in (FeasGrid(), FeasBoundary(), MonteCarlo(), Sequential()):
        assert w.item(7, 3) == w.item(7, 3)
        assert w.item(7, 3) != w.item(8, 3)


def test_boundary_targets_sit_within_one_over_q_of_two():
    w = FeasBoundary()
    for i in range(20):
        item = w.item(11, i)
        if item.tables is None:
            assert "--from-angles" in item.argv
            continue
        top = max(workloads.variant_values(item.tables))
        assert abs(top - 2) <= Fraction(1, 1000)
        if i % 10 in (6, 7):
            cells = [c for row in json.loads(item.targets).values() for r in row for c in r]
            assert all("." in c and "/" not in c for c in cells)


def test_grid_traffic_serves_a_fixed_verdict_mix():
    w = FeasGrid()
    for i in range(10):
        item = w.item(1, i)
        assert item.infeasible == workloads.is_infeasible(item.tables) == (i % 5 < 3)
    assert run.infeasible_share(w, 1) == 0.6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "feas_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
