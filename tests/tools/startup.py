"""Fresh-process A/B timing of one friendlab command from two source trees.

    python tests/tools/startup.py PARENT/src CHANGE/src [--rounds 30] -- \
        rovelli --trials 10 --format json

Copies each tree's `friendlab` package, without its __pycache__, into a
temporary directory of its own, then runs the argv after "--" as the
console script does (`cli.main` in a fresh interpreter, the tree first on
PYTHONPATH, PYTHONDONTWRITEBYTECODE=1, so every process compiles
friendlab's source anew, as a first run after an install without bytecode
does).  Each round starts one process per side, parent, change and a bare
interpreter that imports nothing as the control, and the side that goes
first rotates from round to round; an untimed round goes first.  Prints
each side's quartiles of wall milliseconds from start to exit, the change's
median over the parent's, the median of the rounds' own ratios, and the
medians less the control's, friendlab's own share; exits 1 where the two
trees' stdout bytes or exit codes differ in any round, 0 otherwise.  A tree
run against itself shows the spread that no code causes.  Standard library
only.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CLI = "import sys; from friendlab.cli import main; sys.exit(main(sys.argv[1:]))"


def timed(command: list[str], env: dict) -> tuple[float, int, bytes]:
    start = perf_counter()
    child = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return (perf_counter() - start) * 1e3, child.returncode, child.stdout


def main() -> int:
    args = sys.argv[1:]
    if "--" not in args:
        sys.exit("usage: startup.py PARENT/src CHANGE/src [--rounds N] -- ARGV...")
    split = args.index("--")
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent"), ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=20)
    opts, argv = ap.parse_args(args[:split]), args[split + 1:]
    if opts.rounds < 2 or not argv:
        sys.exit("startup.py: need at least 2 rounds and a command after --")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"control": [sys.executable, "-c", ""]}
        envs = {"control": {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}}
        for side in ("parent", "change"):
            shutil.copytree(Path(getattr(opts, side)) / "friendlab", Path(tmp, side, "friendlab"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides[side] = [sys.executable, "-c", CLI, *argv]
            envs[side] = {**envs["control"], "PYTHONPATH": os.pathsep.join(
                filter(None, [str(Path(tmp, side)), os.environ.get("PYTHONPATH")]))}
        names, times, equal = list(sides), {side: [] for side in sides}, True
        for r in range(-1, opts.rounds):  # -1: the untimed round
            order = names[r % 3:] + names[:r % 3]
            results = {side: timed(sides[side], envs[side]) for side in order}
            equal &= results["parent"][1:] == results["change"][1:]
            if r >= 0:
                for side, (ms, _, _) in results.items():
                    times[side].append(ms)
    print(f"{' '.join(argv)}: {opts.rounds} rounds of fresh interpreters, "
          f"PYTHONDONTWRITEBYTECODE=1")
    for side in names:
        q1, q2, q3 = statistics.quantiles(times[side], n=4)
        print(f"  {side:<8} quartiles {q1:.1f} / {q2:.1f} / {q3:.1f} ms")
    p50 = {side: statistics.median(times[side]) for side in names}
    paired = statistics.median(b / a for a, b in zip(times["parent"], times["change"]))
    own = [p50[side] - p50["control"] for side in ("parent", "change")]
    print(f"  change: median x{p50['change'] / p50['parent']:.3f}, median round ratio "
          f"x{paired:.3f}; less the control {own[0]:.1f} -> {own[1]:.1f} ms")
    print(f"  every exit code and stdout byte equal: {equal}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
