"""Same-process A/B timing of two friendlab source trees on one workload.

    python tests/tools/interleave.py PARENT/src CHANGE/src --workload feas_boundary \
        --seed 5 --items 300 [--layer scenarios.born_tables]

Copies each tree's `friendlab` package under its own name into a temporary
directory, imports both into this one process and serves one workload's
items (perfbench/workloads.py) to both through `cli.main`, alternating the
two sides item by item, with a seeded coin choosing which goes first.  Two
processes timed apart also time the host's state at each; one process
serving both sides in turn does not.  Prints, per item kind (the argv's
first flag), each side's median and mean milliseconds per item, their
ratios change/parent and the median of the items' own ratios, and whether
every exit code and output byte was equal; exits 1 where one differs, 0
otherwise.  A tree run against itself shows the spread of these ratios that
no code causes.  --layer MODULE.NAME (or MODULE.CLASS.NAME) times the calls
of that function inside each call instead, patched where the name is looked
up in that module (or class); items that never call it are left out.
Standard library only; the workloads import numpy.
"""

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from clicall import call_cli  # noqa: E402
from workloads import TARGETS_FILE, WORKLOADS  # noqa: E402


def load(src: str, name: str, tmp: Path, layer: str | None, spent: list):
    shutil.copytree(Path(src) / "friendlab", tmp / name)
    cli = importlib.import_module(f"{name}.cli")
    if layer:  # MODULE.NAME or MODULE.CLASS.NAME
        module, *path, attr = layer.split(".")
        owner = importlib.import_module(f"{name}.{module}")
        for part in path:
            owner = getattr(owner, part)
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[0] += perf_counter() - start
        setattr(owner, attr, timed)
    return cli


def serve(workload, opts, tmp: Path) -> tuple[dict, bool]:
    """Each side's time per item ({item kind: [[parent ms, change ms], ...]})
    and whether the two sides' exit codes and outputs were all equal."""
    sys.path.insert(0, str(tmp))
    spent = [0.0]
    sides = [load(src, f"friendlab_{k}", tmp, opts.layer, spent)
             for k, src in zip("ab", (opts.parent, opts.change))]
    # which side goes first, by a seeded coin: an order tied to the index
    # would follow the workload's own cycles of item kinds
    times, equal, coin = {}, True, random.Random(0)
    for index in [-1, *range(opts.items)]:  # -1: the warm-up item, not timed
        item = workload.warmup() if index < 0 else workload.item(opts.seed, index)
        argv = list(item.argv)
        if item.targets is not None:
            (tmp / "targets.json").write_text(item.targets)
            argv[argv.index(TARGETS_FILE)] = str(tmp / "targets.json")
        results = [None, None]
        for side in (0, 1) if coin.random() < 0.5 else (1, 0):
            spent[0] = 0.0
            rc, out, elapsed = call_cli(sides[side], argv)
            results[side] = (rc, out, spent[0] if opts.layer else elapsed)
        equal &= results[0][:2] == results[1][:2]
        if index >= 0 and all(r[2] for r in results):
            times.setdefault(argv[1], []).append([r[2] * 1e3 for r in results])
    return times, equal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent"), ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--items", type=int, default=200)
    ap.add_argument("--layer")
    opts = ap.parse_args()
    workload = WORKLOADS[opts.workload]()
    with tempfile.TemporaryDirectory() as tmp:
        times, equal = serve(workload, opts, Path(tmp))
    print(f"{opts.workload} seed {opts.seed}, {opts.items} items, {opts.layer or 'cli.main'}")
    for kind, rows in times.items():
        parent, change = zip(*rows)
        p50 = [statistics.median(side) for side in (parent, change)]
        mean = [statistics.fmean(side) for side in (parent, change)]
        paired = statistics.median(b / a for a, b in rows)
        print(f"  {kind} ({len(rows)} items): median {p50[0]:.4f} -> {p50[1]:.4f} ms "
              f"(x{p50[1] / p50[0]:.3f}), mean {mean[0]:.4f} -> {mean[1]:.4f} ms "
              f"(x{mean[1] / mean[0]:.3f}), median item ratio x{paired:.3f}")
    print(f"  every exit code and output byte equal: {equal}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
