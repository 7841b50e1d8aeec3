"""The pair vocabulary and the statistics on it.

A pair is one of PAIR_IDS.  A pair table is a 4-sequence in PAIR_CELLS
order, whether it holds counts, float probabilities or exact Fractions;
`correlator` and `chsh` are the one definition of E and of S for all of
them.  Also: empirical pair tables, total variation distance, correlation
estimators and pass/fail check dicts."""

from __future__ import annotations

import math
from dataclasses import dataclass

# The four observed pairs: A (Bob asks) or B (Bob supermeasures) on Alice's
# wing, with C (Divya asks) or D (Divya supermeasures) on Chidi's.
PAIR_IDS = ("AC", "AD", "BC", "BD")
PAIR_CELLS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def correlator(t):
    """E(xy) = P(++) - P(+-) - P(-+) + P(--) of a pair table; n*E for counts."""
    return t[0] - t[1] - t[2] + t[3]


def chsh(e):
    """S = E_AC + E_BC + E_BD - E_AD from the correlators in PAIR_IDS order."""
    ac, ad, bc, bd = e
    return ac + bc + bd - ad


@dataclass(frozen=True)
class EmpiricalDist:
    """Counts of a pair table, in PAIR_CELLS order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(PAIR_CELLS):
            raise ValueError(f"a pair table has {len(PAIR_CELLS)} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def freqs(self) -> tuple[float, ...]:
        total = self.total
        if total == 0:
            raise ValueError("empty distribution has no frequencies")
        return tuple(c / total for c in self.counts)


def total_variation(p, q) -> float:
    """(1/2) sum |p_i - q_i| over two pair tables of probabilities."""
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q, strict=True))


def correlation_estimate(table: EmpiricalDist) -> tuple[float, float]:
    """Correlator E and its binomial-delta-method standard error."""
    n = table.total
    if n < 2:
        raise ValueError("need at least 2 samples")
    e = correlator(table.counts) / n
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / n)
    return e, stderr


def chsh_estimate(tables) -> tuple[float, float]:
    """S from the four tables in PAIR_IDS order, with root-sum-square
    standard error."""
    e, se = zip(*(correlation_estimate(t) for t in tables))
    ac, ad, bc, bd = se
    return chsh(e), math.sqrt(ac * ac + bc * bc + bd * bd + ad * ad)


def check(name: str, observed: float, threshold: float, n: int = 0,
          metric: str = "abs-diff") -> dict:
    """One pass/fail check as a report dict; it passes when observed <= threshold.
    `metric` is "TV" or "abs-diff"; `n` is the sample size behind `observed`."""
    observed = float(observed)
    return {"name": name, "metric": metric, "observed": observed,
            "threshold": threshold, "pass": observed <= threshold, "n": n}
