"""In-process time of each acceptance criterion, first call and warm.

    PYTHONPATH=src python tests/tools/criteria.py

Imports `friendlab.acceptance` and calls each criterion in turn with the
sub-seed that `accept --seed 42` (the pinned run) gives it: once (the first
call, which also fills the memos that later calls share), then WARM more
times.  Prints one line per criterion: whether it passed, the first call's
milliseconds and the median of the warm calls'.  A record, not a gate;
tier-1 checks the verdicts.  Standard library only, besides friendlab.
"""

import statistics
import sys
from time import perf_counter

from friendlab import acceptance

SEED = 42
WARM = 3


def main() -> int:
    for k in range(1, 7):
        criterion, seed = getattr(acceptance, f"criterion_{k}"), acceptance._sub_seed(SEED, k)
        times = []
        for _ in range(1 + WARM):
            start = perf_counter()
            result = criterion(seed)
            times.append((perf_counter() - start) * 1e3)
        print(f"criterion {k} ({'PASS' if result['pass'] else 'FAIL'}): first {times[0]:.1f} ms, "
              f"warm {statistics.median(times[1:]):.1f} ms (median of {WARM})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
