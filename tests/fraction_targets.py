"""Pair targets and witnesses as plain Fractions: targets built from
Fraction tables (the reference that the engine's integer constructors are
compared with) and their tables read back, a verdict's witness as atom
probabilities, the pair tables of a joint summed in plain Fractions, the
PR box and convex mixing that the tests build targets from, and the
feasibility report written with str(Fraction): the oracle of the report
the CLI splices."""

import itertools
import json
import math
from fractions import Fraction

from friendlab import marginal_polytope as mp
from friendlab import statlab


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


def targets_json(t: mp.PairTargets) -> dict:
    """The targets as a report and a targets file write them: each table as
    rows [[++, +-], [-+, --]] of str(Fraction)."""
    return {pair: [[str(v) for v in cells[:2]], [str(v) for v in cells[2:]]]
            for pair, cells in fraction_tables(t).items()}


def verdict_json(verdict: mp.FeasibilityVerdict) -> dict:
    """A verdict as a report writes it, each exact number str(Fraction)."""
    return {"feasible": verdict.feasible,
            "witness": None if verdict.witness is None else list(map(str, probabilities(verdict))),
            "max_violation": (None if verdict.max_violation is None
                              else str(Fraction(verdict.max_violation, verdict.scale)))}


def feasibility_report(t: mp.PairTargets, resolution) -> str:
    """The JSON `feasibility` report on `t` as the encoder writes it from
    the dict forms above."""
    v4, v6, fine, agree = mp.decide(t)
    s = t.variants[statlab.CHSH_SIGNS]
    report = {"command": "feasibility", "targets": targets_json(t),
              "chsh_value": str(Fraction(s, t.scale)), "chsh_value_float": s / t.scale,
              "joint_4": verdict_json(v4), "joint_6": verdict_json(v6),
              "fine_criterion": fine, "methods_agree": agree,
              **({"resolution": resolution} if resolution else {})}
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
