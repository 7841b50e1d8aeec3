"""Empirical distributions, total variation distance, correlation estimators
and pass/fail check dicts."""

from __future__ import annotations

import math
from dataclasses import dataclass

# The four observed pairs: A (Bob asks) or B (Bob supermeasures) on Alice's
# wing, with C (Divya asks) or D (Divya supermeasures) on Chidi's.
PAIR_IDS = ("AC", "AD", "BC", "BD")
PAIR_CELLS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


@dataclass(frozen=True)
class EmpiricalDist:
    support: tuple[object, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.counts):
            raise ValueError("support and counts must have equal length")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support labels must be distinct")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def freq(self, label: object) -> float:
        if self.total == 0:
            raise ValueError("empty distribution has no frequencies")
        return self.counts[self.support.index(label)] / self.total

    def freqs(self) -> dict[object, float]:
        return {label: self.freq(label) for label in self.support}


def _as_probs(dist, support: tuple[object, ...]) -> dict[object, float]:
    if isinstance(dist, EmpiricalDist):
        if tuple(dist.support) != tuple(support):
            raise ValueError("support mismatch")
        return dist.freqs()
    probs = dict(dist)
    if set(probs) != set(support):
        raise ValueError("support mismatch")
    return {label: float(probs[label]) for label in support}


def total_variation(p, q) -> float:
    """(1/2) sum |p_i - q_i| over a shared support.  Accepts EmpiricalDists
    or mappings label -> probability."""
    support = tuple(p.support) if isinstance(p, EmpiricalDist) else tuple(dict(p))
    pp = _as_probs(p, support)
    qq = _as_probs(q, support)
    return 0.5 * sum(abs(pp[label] - qq[label]) for label in support)


def correlation_estimate(table: EmpiricalDist) -> tuple[float, float]:
    """Correlator E and its binomial-delta-method standard error from a 2x2
    table over ((+1,+1), (+1,-1), (-1,+1), (-1,-1))."""
    if tuple(table.support) != PAIR_CELLS:
        raise ValueError(f"table support must be {PAIR_CELLS}")
    n = table.total
    if n < 2:
        raise ValueError("need at least 2 samples")
    e = sum(x * y * c for (x, y), c in zip(table.support, table.counts)) / n
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / n)
    return e, stderr


def chsh_estimate(tables: dict[str, EmpiricalDist]) -> tuple[float, float]:
    """S = E_AC + E_BC + E_BD - E_AD with root-sum-square standard error."""
    needed = ("AC", "BC", "BD", "AD")
    if set(tables) < set(needed):
        raise ValueError(f"need tables for {needed}")
    est = {pair: correlation_estimate(tables[pair]) for pair in needed}
    s = est["AC"][0] + est["BC"][0] + est["BD"][0] - est["AD"][0]
    stderr = math.sqrt(sum(se * se for _, se in est.values()))
    return s, stderr


def check(name: str, observed: float, threshold: float, n: int = 0,
          metric: str = "abs-diff") -> dict:
    """One pass/fail check as a report dict; it passes when observed <= threshold.
    `metric` is "TV" or "abs-diff"; `n` is the sample size behind `observed`."""
    observed = float(observed)
    return {"name": name, "metric": metric, "observed": observed,
            "threshold": threshold, "pass": observed <= threshold, "n": n}
