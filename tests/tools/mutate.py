"""Mutation probe: which small faults in one src module the tests catch.

    python tests/tools/mutate.py [--module marginal_polytope] [--jobs 2] [--out RECORD.json]

Each mutant is one edit of the module's syntax tree: a comparison swapped
(< and <=, > and >=, == and !=, is and is not, in and not in), + and -
swapped, a small int constant (at most SMALL in size) plus or minus 1, or
`and` and `or` swapped.  The module is written back with `ast.unparse`, so
a run first checks that the unmutated module, unparsed, passes.  Each
worker copies src once into a temporary directory; each mutant overwrites
the module there and runs tier-1 with -x on that copy (PYTHONPATH), the
tests of the module first.  A mutant is killed if pytest fails or runs past
TIMEOUT seconds, and survives if it passes.  Prints each mutant's outcome
as it goes and writes the mutants killed and survived per function, each
survivor and the run's wall time to --out as JSON.  Standard library only; not collected by pytest
and not run in CI.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SMALL = 16
TIMEOUT = 300
COMPARISONS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
               ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
               ast.In: ast.NotIn, ast.NotIn: ast.In}
SIGNS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
BOOLS = {ast.And: ast.Or, ast.Or: ast.And}


def _edits(node):
    """Each mutation of `node` itself, as a function that applies it in place."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARISONS:
                yield lambda i=i: node.ops.__setitem__(i, COMPARISONS[type(node.ops[i])]())
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SIGNS:
        yield lambda: setattr(node, "op", SIGNS[type(node.op)]())
    elif isinstance(node, ast.BoolOp):
        yield lambda: setattr(node, "op", BOOLS[type(node.op)]())
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          and abs(node.value) <= SMALL):
        for step in (1, -1):
            yield lambda step=step: setattr(node, "value", node.value + step)


def sites(tree):
    """(function, node, edit) for every mutation in `tree`, in a fixed order;
    `function` is the enclosing def's qualified name ("" at module level)."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        for edit in _edits(node):
            yield where, node, edit
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    return list(visit(tree, ""))


def mutant(source: str, k: int) -> tuple[str, dict]:
    """The module with mutation k applied, and where and what it is."""
    tree = ast.parse(source)
    where, node, edit = sites(tree)[k]
    before = ast.unparse(node)
    edit()
    fragment = f"{before} -> {ast.unparse(node)}"
    return ast.unparse(tree), {"function": where, "line": node.lineno,
                               "mutation": fragment if len(fragment) <= 160
                               else fragment[:157] + "..."}


def run_tests(copy: Path, module: str) -> bool:
    """Whether tier-1, run with -x on the src in `copy`, passes."""
    first = [f"tests/test_{module}.py"] if (ROOT / f"tests/test_{module}.py").exists() else []
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *first, "tests"]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return child.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:  # the tests' own children go with it
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", default="marginal_polytope")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", help="write the record here as JSON")
    opts = parser.parse_args(argv)
    path = ROOT / "src" / "friendlab" / f"{opts.module}.py"
    source = path.read_text()
    count = len(sites(ast.parse(source)))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="friendlab-mutate-") as work:
        copies = [Path(work) / str(j) for j in range(opts.jobs)]
        for copy in copies:
            shutil.copytree(ROOT / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        (copies[0] / "src" / "friendlab" / path.name).write_text(
            ast.unparse(ast.parse(source)))
        if not run_tests(copies[0], opts.module):
            print("the unmutated module, unparsed, fails the tests", file=sys.stderr)
            return 2

        def worker(j: int) -> list[dict]:
            results = []
            for k in range(j, count, opts.jobs):
                text, about = mutant(source, k)
                (copies[j] / "src" / "friendlab" / path.name).write_text(text)
                results.append({**about, "killed": not run_tests(copies[j], opts.module)})
                print(f"{'killed  ' if results[-1]['killed'] else 'SURVIVED'} "
                      f"{about['function']}:{about['line']}: {about['mutation']}", flush=True)
            return results

        with ThreadPoolExecutor(opts.jobs) as pool:
            results = [r for rs in pool.map(worker, range(opts.jobs)) for r in rs]
    results.sort(key=lambda r: (r["line"], r["mutation"]))
    functions = {}
    for r in results:
        counts = functions.setdefault(r["function"], {"killed": 0, "survived": 0})
        counts["killed" if r["killed"] else "survived"] += 1
    record = {"module": f"src/friendlab/{path.name}", "mutants": len(results),
              "killed": sum(r["killed"] for r in results),
              "seconds": round(time.perf_counter() - start), "jobs": opts.jobs,
              "functions": functions,
              "survivors": [{k: r[k] for k in ("function", "line", "mutation")}
                            for r in results if not r["killed"]]}
    print(json.dumps({k: record[k] for k in ("mutants", "killed", "seconds")}))
    if opts.out:
        Path(opts.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
