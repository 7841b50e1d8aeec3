"""Exact feasibility of a joint distribution behind the pair tables.

Given the four 2x2 pair tables, does any joint distribution over all the
variables reproduce them as marginals?  The answer is decided three ways in
exact rational arithmetic: a 4-variable linear program, a 6-variable one
that splits each asked wing into internal and relation parts, and a closed
form criterion on the eight CHSH sign variants.  They always agree."""

from fractions import Fraction

from friendlab import marginal_polytope as mp
from friendlab.scenarios import LFConfig

tsirelson = mp.PairTargets.from_angles(LFConfig())
print(f"quantum targets: S = {mp.chsh_value(tsirelson)} "
      f"~ {float(mp.chsh_value(tsirelson)):.6f}")
v = mp.feasible_joint_4(tsirelson)
print(f"  4-variable joint feasible: {v.feasible}, "
      f"max violation over 2: {v.max_violation}")
print(f"  6-variable joint feasible: {mp.feasible_joint_6(tsirelson).feasible}")
print(f"  closed-form criterion: {mp.fine_criterion(tsirelson)}")

half = Fraction(1, 2)
shrunk = mp.PairTargets.from_correlators(
    {v_: half for v_ in mp.VARS_4},
    {"AC": half, "BC": half, "BD": half, "AD": -half})
v = mp.feasible_joint_4(shrunk)
print(f"shrunk targets: S = {mp.chsh_value(shrunk)}, feasible: {v.feasible}")
print("  witness atom probabilities:", [str(p) for p in v.witness])
