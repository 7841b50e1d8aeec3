"""Pair targets built from plain Fraction tables: the reference that the
engine's integer constructors are compared with, the pair tables of a joint
summed in plain Fractions, and the PR box and convex mixing that the tests
build targets from."""

import itertools
import math
from fractions import Fraction

from friendlab import marginal_polytope as mp


def from_tables(tables: dict) -> mp.PairTargets:
    """Targets from tables of Fractions (or ints) in PAIR_CELLS order, put
    over the lcm of their denominators; the constructor checks the rest."""
    scale = math.lcm(*(Fraction(v).denominator for cells in tables.values() for v in cells))
    return mp.PairTargets(scale, {pair: tuple(int(v * scale) for v in cells)
                                  for pair, cells in tables.items()})


def reference_marginals(variables, probs) -> dict:
    """Each pair table of a joint over +/-1 atoms (lexicographic, +1 first),
    summed in plain Fractions; A and C are Ai*Ar and Ci*Cr when six-variable."""
    sums = {pair: [Fraction(0)] * 4 for pair in mp.PAIR_IDS}
    for atom, p in zip(itertools.product((+1, -1), repeat=len(variables)), probs):
        value = dict(zip(variables, atom))
        if "Ai" in value:
            value["A"], value["C"] = value["Ai"] * value["Ar"], value["Ci"] * value["Cr"]
        for pair in mp.PAIR_IDS:
            sums[pair][mp.PAIR_CELLS.index((value[pair[0]], value[pair[1]]))] += p
    return {pair: tuple(cells) for pair, cells in sums.items()}


def pr_box() -> mp.PairTargets:
    """Perfect correlation on AC, BC, BD, perfect anti-correlation on AD."""
    half, zero = Fraction(1, 2), Fraction(0)
    corr, anti = (half, zero, zero, half), (zero, half, half, zero)
    return from_tables({"AC": corr, "BC": corr, "BD": corr, "AD": anti})


def mix(t: mp.PairTargets, other: mp.PairTargets, lam) -> mp.PairTargets:
    """Cell-wise convex combination lam*t + (1-lam)*other."""
    lam = Fraction(lam)
    return from_tables({pair: tuple(lam * a + (1 - lam) * b
                                    for a, b in zip(t.tables[pair], other.tables[pair]))
                        for pair in mp.PAIR_IDS})
