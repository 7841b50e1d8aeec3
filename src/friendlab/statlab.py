"""The pair vocabulary and the statistics on it.

A pair is one of PAIR_IDS.  A pair table is a 4-sequence in PAIR_CELLS
order, whether it holds int counts or float probabilities; `correlator`,
`chsh` and `sign_variants` are the one definition of E, of S and of the
CHSH sign variants for both.  A variable is named by its letter; CHOICE
spells the measurement behind each.  Also: frequencies of count tables,
total variation distance, correlation estimators, a chi-squared homogeneity
test and pass/fail check dicts."""

from __future__ import annotations

import functools
import itertools
import math

# The four observed pairs: A (Bob asks) or B (Bob supermeasures) on Alice's
# wing, with C (Divya asks) or D (Divya supermeasures) on Chidi's.
PAIR_IDS = ("AC", "AD", "BC", "BD")
# each variable's measurement as reports spell it: ask the friend or
# supermeasure her lab
CHOICE = {"A": "ask", "B": "super", "C": "ask", "D": "super"}
PAIR_CELLS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
ODD_SIGNS = tuple(s for s in itertools.product((+1, -1), repeat=4) if math.prod(s) == -1)
CHSH_SIGNS = (+1, -1, +1, +1)  # the sign variant that is S, `chsh`'s signs


def _sum(terms):
    """`terms` added left to right from 0, where the builtin sum() compensates
    float rounding from Python 3.12 on and so can differ in the last bit."""
    acc = 0
    for term in terms:
        acc += term
    return acc


def correlator(t):
    """E(xy) = P(++) - P(+-) - P(-+) + P(--) of a pair table; n*E for counts."""
    return t[0] - t[1] - t[2] + t[3]


def chsh(e):
    """S = E_AC + E_BC + E_BD - E_AD from the correlators in PAIR_IDS order."""
    ac, ad, bc, bd = e
    return ac + bc + bd - ad


def sign_variants(e) -> dict:
    """sum(s * E) of the correlators in PAIR_IDS order for each of ODD_SIGNS (an
    odd number of -1); under a joint distribution each is at most 2 (Fine 1982)."""
    ac, ad, bc, bd = e  # added left to right from 0, as _sum adds
    return {(a, b, c, d): 0 + a * ac + b * ad + c * bc + d * bd for a, b, c, d in ODD_SIGNS}


def freqs(counts) -> tuple[float, ...]:
    """The frequencies of a count table."""
    total = sum(counts)
    if total == 0:
        raise ValueError("empty distribution has no frequencies")
    return tuple(c / total for c in counts)


def total_variation(p, q) -> float:
    """(1/2) sum |p_i - q_i| over two pair tables of probabilities."""
    return 0.5 * _sum(abs(a - b) for a, b in zip(p, q, strict=True))


def correlation_estimate(counts) -> tuple[float, float]:
    """Correlator E of a count table and its binomial-delta-method standard
    error."""
    n = sum(counts)
    if n < 2:
        raise ValueError("need at least 2 samples")
    e = correlator(counts) / n
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / n)
    return e, stderr


def chsh_estimate(tables) -> tuple[float, float]:
    """S from the four count tables in PAIR_IDS order, with root-sum-square
    standard error."""
    e, se = zip(*(correlation_estimate(t) for t in tables))
    ac, ad, bc, bd = se
    return chsh(e), math.sqrt(ac * ac + bc * bc + bd * bd + ad * ad)


# P(X > x) for X chi-squared with 1, 2 or 3 degrees of freedom, in closed form
_CHI2_TAIL = {1: lambda x: math.erfc(math.sqrt(x / 2)),
              2: lambda x: math.exp(-x / 2),
              3: lambda x: (math.erfc(math.sqrt(x / 2))
                            + math.sqrt(2 * x / math.pi) * math.exp(-x / 2))}


@functools.cache
def chi2_critical(alpha: float, df: int) -> float:
    """The least float x with P(X > x) <= alpha for X chi-squared with df
    degrees of freedom, by bisection (each tail is below 1e-200 at 1000)."""
    tail, lo, hi = _CHI2_TAIL[df], 0.0, 1000.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if tail(mid) > alpha else (lo, mid)
    return hi


def homogeneity(columns, alpha: float) -> dict:
    """Pearson's chi-squared test that the columns (a, b) of a 2 x m table of
    ints, none empty, share one proportion: the statistic, df = m - 1 and the
    critical value at false-alarm rate alpha.  With row sums r and s, column
    (a, b) adds (a s - b r)^2 / ((a + b) r s), one exact int ratio."""
    r, s = (sum(col[i] for col in columns) for i in (0, 1))
    statistic = (_sum((a * s - b * r) ** 2 / ((a + b) * r * s) for a, b in columns)
                 if r and s else 0.0)
    df = len(columns) - 1
    return {"statistic": statistic, "df": df, "critical": chi2_critical(alpha, df)}


def check(name: str, observed: float, threshold: float, n: int = 0,
          metric: str = "abs-diff") -> dict:
    """One pass/fail check as a report dict; it passes when observed <= threshold.
    `metric` is "TV" or "abs-diff"; `n` is the sample size behind `observed`."""
    observed = float(observed)
    return {"name": name, "metric": metric, "observed": observed,
            "threshold": threshold, "pass": observed <= threshold, "n": n}
