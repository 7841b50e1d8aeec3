"""Pair targets and witnesses as plain Fractions: targets built from
Fraction tables (the reference that the engine's integer constructors are
compared with) and their tables read back, a verdict's witness as atom
probabilities and Fraction probabilities as counts, the pair tables of a
joint summed in plain Fractions, and the PR box and convex mixing that the
tests build targets from."""

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


def fraction_tables(t: mp.PairTargets) -> dict:
    """Each table's cells as Fractions, in PAIR_CELLS order."""
    return {pair: tuple(Fraction(n, t.scale) for n in cells) for pair, cells in t.counts.items()}


def probabilities(verdict: mp.FeasibilityVerdict) -> tuple:
    """A feasible verdict's witness as atom probabilities."""
    return tuple(Fraction(n, verdict.scale) for n in verdict.witness)


def as_counts(probs) -> tuple[list, int]:
    """Fractions (or ints) as int counts over the lcm of their denominators,
    and that lcm: the arguments `reproduces` takes after the variables."""
    scale = math.lcm(*(Fraction(p).denominator for p in probs))
    return [int(p * scale) for p in probs], scale


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
    lam, mine, theirs = Fraction(lam), fraction_tables(t), fraction_tables(other)
    return from_tables({pair: tuple(lam * a + (1 - lam) * b
                                    for a, b in zip(mine[pair], theirs[pair]))
                        for pair in mp.PAIR_IDS})
