"""How the benchmark calls friendlab: imported from this checkout's src/,
driven through `friendlab.cli.main(argv)` with output captured.  Standard
library only, so that the set-up probe (ready.py) imports nothing but
friendlab on top of the interpreter."""

from __future__ import annotations

import importlib
import io
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def import_friendlab():
    """Import friendlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        fl = importlib.import_module("friendlab")
        importlib.import_module("friendlab.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import friendlab from {SRC}: {exc}") from None
    if not Path(fl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: friendlab came from {fl.__file__}, not {SRC}")
    return fl


def call_cli(cli, argv: list[str]):
    """One CLI call with stdout and stderr captured: (exit code, stdout,
    seconds).  A crash or SystemExit is an exit code, not a benchmark error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the item fails; the loop goes on
            rc = "crash: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        elapsed = perf_counter() - start
    return rc, out.getvalue(), elapsed
