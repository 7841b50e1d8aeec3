"""friendlab benchmark: four workloads driven through the CLI, in process.

    python3 perfbench/run.py --workload feas_grid --seed 1 --seconds 15 --trace 0

One client calls `friendlab.cli.main(argv)` in a closed loop, one item at a
time.  A run serves a fixed number of items, --seconds times the workload's
nominal rate, so the same seed and --seconds serve the same items and give
the same outcomes.  Every input is generated here from --seed, and every
output is checked here.  Latencies are read at a nominal host speed (see
hostspeed.py).  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` -- the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A traced run first serves the items untraced, then serves
the same items again with spans around each layer, and compares the output
digests of the two passes.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from clicall import SRC, call_cli, import_friendlab
from hostspeed import HostSpeed
from workloads import FAILED, FLAGGED, OK, TARGETS_FILE, WORKLOADS, WRONG

ROOT = SRC.parent
READY = Path(__file__).with_name("ready.py")
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5       # fresh processes timed for setup_s
SHARE_SAMPLE = 200      # traffic prefix that fixes marginal_polytope.infeasible_share
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile


class Pass:
    """Serves items in a closed loop and keeps what the metrics need."""

    def __init__(self, workload, seed: int, workdir: Path, cli, speed: HostSpeed,
                 tracer=None):
        self.workload, self.seed, self.workdir, self.cli = workload, seed, workdir, cli
        self.speed, self.tracer = speed, tracer
        # Latencies and busy time are in nominal seconds (hostspeed.py);
        # raw_* keep the wall-clock figures for the record.
        self.latencies: list[float] = []   # per completed (OK or FLAGGED) item
        self.by_verdict: dict[str, list[float]] = {}  # the same, by expected verdict
        self.busy = 0.0                    # summed call time, failed items too
        self.raw_latencies: list[float] = []
        self.raw_busy = 0.0
        self.counts = {OK: 0, FLAGGED: 0, FAILED: 0, WRONG: 0}
        self.reasons: dict[str, int] = {}
        self.facts: list[dict] = []
        self.traffic = hashlib.sha256()
        self.output = hashlib.sha256()

    def serve(self, index: int) -> None:
        item = self.workload.item(self.seed, index)
        argv = list(item.argv)
        self.traffic.update(json.dumps([argv, item.targets]).encode())
        if item.targets is not None:
            path = self.workdir / f"{index}.json"
            path.write_text(item.targets)
            argv[argv.index(TARGETS_FILE)] = str(path)
        if self.tracer is not None:
            self.tracer.item = index
        rc, out, raw = call_cli(self.cli, argv)
        elapsed = raw * self.speed.scale()
        self.output.update(f"{index}\t{rc}\n".encode() + out.encode())
        outcome = self.workload.check(item, rc, out)
        self.busy += elapsed
        self.raw_busy += raw
        self.counts[outcome.status] += 1
        if outcome.status in (OK, FLAGGED):
            self.latencies.append(elapsed)
            self.raw_latencies.append(raw)
            if item.infeasible is not None:
                verdict = "infeasible" if item.infeasible else "feasible"
                self.by_verdict.setdefault(verdict, []).append(elapsed)
        if outcome.status != OK:
            self.reasons[outcome.reason] = self.reasons.get(outcome.reason, 0) + 1
        self.facts.append(outcome.facts)

    def serve_items(self, n: int) -> None:
        gc.collect()
        self.speed.mark()
        for index in range(n):
            self.serve(index)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; the median when that percentile would lie below the median
    (fewer than 2 * TAIL_BEYOND + 1 samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return (statistics.median(xs) if xs else 0.0), 50.0
    rank = n - 1 - TAIL_BEYOND
    return xs[rank], 100.0 * rank / (n - 1)


def measure_setup(warmup_argv: list[str], repeats: int, speed: HostSpeed) -> list[float]:
    """Process start to ready, in fresh processes: interpreter start, imports
    and one warm-up CLI call; in nominal seconds."""
    times = []
    for _ in range(repeats):
        speed.mark()
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(READY), json.dumps(warmup_argv)],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            rc = child.wait(timeout=120)
        times.append(elapsed * speed.scale())
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"perfbench: setup process failed (exit {rc})")
    return times


def environment(fl, seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       "")
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "friendlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": git_commit(), "src_sha256": src.hexdigest(), "seed": seed,
            "friendlab": fl.__version__}


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.splitlines()
    # A checkout that sits inside another repository is not that repository.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT.resolve():
        return None
    return lines[1]


def infeasible_share(workload, seed: int) -> float:
    """Share of infeasible verdicts over a fixed prefix of the traffic; a
    property of the inputs alone, so equal on every commit."""
    verdicts = [workload.item(seed, i).infeasible for i in range(SHARE_SAMPLE)]
    decided = [v for v in verdicts if v is not None]
    return sum(decided) / len(decided) if decided else 0.0


def run(workload, seed: int, seconds: float, trace: bool, fl,
        setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result line, record)."""
    cli = fl.cli
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        warm = workload.warmup()
        warm_argv = list(warm.argv)
        if warm.targets is not None:
            warm_path = workdir / "warmup.json"
            warm_path.write_text(warm.targets)
            warm_argv[warm_argv.index(TARGETS_FILE)] = str(warm_path)
        call_cli(cli, warm_argv)
        speed = HostSpeed()
        setup = [] if trace else measure_setup(warm_argv, setup_repeats, speed)

        n = workload.items_for(seconds)
        plain = Pass(workload, seed, workdir, cli, speed)
        plain.serve_items(n)
        record = {"workload": workload.name, "environment": environment(fl, seed),
                  "items": n, "outcomes": plain.counts, "failure_reasons": plain.reasons,
                  "traffic_sha256": plain.traffic.hexdigest(),
                  "output_sha256": plain.output.hexdigest()}
        correct = plain.counts[WRONG] == 0
        if trace:
            tracer = tracing.Tracer()
            traced = Pass(workload, seed, workdir, cli, speed, tracer)
            try:
                tracing.install(tracer, fl)
                traced.serve_items(n)
            finally:
                restored = tracer.unpatch()
            spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_path)
            record.update(traced_output_sha256=traced.output.hexdigest(),
                          wrappers_removed=restored, missing_targets=tracer.missing,
                          spans=str(spans_path.relative_to(ROOT)))
            correct = (correct and restored and traced.counts[WRONG] == 0
                       and traced.output.digest() == plain.output.digest())
            facts = [f for f in traced.facts if f]
            metrics = tracing.layer_metrics(tracer, {
                "witness_bits_max": max((f.get("witness_bits", 0) for f in facts), default=0),
                "infeasible_share": infeasible_share(workload, seed),
                "qualifying_runs_min": min((f["qualifying_runs"] for f in facts
                                            if "qualifying_runs" in f), default=0),
                "tv_margin": min((f["tv_margin"] for f in facts if "tv_margin" in f),
                                 default=0.0),
                "independence_flags": sum(f.get("independence_flags", 0) for f in facts),
            }, traced.busy / plain.busy - 1.0)
        else:
            tail_value, tail_pct = tail(plain.latencies)
            metrics = {
                "items_per_s": (len(plain.latencies) / plain.busy, "1/s"),
                "item_p50_ms": (statistics.median(plain.latencies) * 1e3
                                if plain.latencies else 0.0, "ms"),
                "item_tail_ms": (tail_value * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
            }
            record["tail_percentile"] = tail_pct
            record["latency_samples"] = len(plain.latencies)
            record["p50_ms_by_verdict"] = {v: statistics.median(xs) * 1e3
                                           for v, xs in sorted(plain.by_verdict.items())}
            record["setup_samples_s"] = setup
            record["raw"] = {
                "items_per_s": len(plain.raw_latencies) / plain.raw_busy,
                "item_p50_ms": (statistics.median(plain.raw_latencies) * 1e3
                                if plain.raw_latencies else 0.0)}
        record["probe_ms_median"] = statistics.median(speed.samples) * 1e3
        result = {"correct": correct, "attempted": plain.attempted,
                  "failed": plain.attempted - plain.counts[OK],
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def describe(result: dict, record: dict, workload) -> list[str]:
    """Human-readable lines, with per-workload names alongside: targets on
    feas_*, simulated runs on montecarlo and sequential, and fail_frac."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    lines = [f"{k:48s} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if "items_per_s" in m:
        fail_frac = result["failed"] / result["attempted"]
        lines.append(f"{'fail_frac':48s} {fail_frac:.6g} frac")
        if workload.name.startswith("feas_"):
            n = record["latency_samples"]
            lines += [f"{'targets_per_s':48s} {m['items_per_s']:.6g} 1/s",
                      f"{'target_p50_ms':48s} {m['item_p50_ms']:.6g} ms",
                      f"{'target_tail_ms':48s} {m['item_tail_ms']:.6g} ms "
                      f"(p{record['tail_percentile']:.1f} of {n} samples)"]
        else:
            lines.append(f"{'runs_per_s':48s} {m['items_per_s'] * workload.trials:.6g} 1/s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fl = import_friendlab()
    workload = WORKLOADS[args.workload]()
    result, record = run(workload, args.seed, args.seconds, bool(args.trace), fl)
    for line in describe(result, record, workload):
        print(line)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
