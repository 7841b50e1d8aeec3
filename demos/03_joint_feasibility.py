"""Exact feasibility of a joint distribution behind the pair tables.

Given the four 2x2 pair tables, does any joint distribution over all the
variables reproduce them as marginals?  The answer is decided in integer
counts by Fine's gluing of the triples (A, C, D) and (B, C, D) along (C, D)
and cross-checked by a closed form criterion on the eight CHSH sign
variants.  Splitting each asked wing into internal and relation parts gives
6 variables but no new constraint: that verdict is lifted from the
4-variable one, and a lifted witness is checked against the 6-variable cell
system.  The circuit's Born
tables become exact targets in `scenarios`; the decision itself needs only
`marginal_polytope`, which loads no numpy."""

from friendlab import marginal_polytope as mp
from friendlab import scenarios, statlab
from friendlab.scenarios import LFConfig

def chsh_text(t: mp.PairTargets) -> str:
    """S of the targets, an int over their scale, as the report writes it."""
    s = t.variants[statlab.CHSH_SIGNS]
    return f"{mp.rational_texts([s], t.scale)[0]} ~ {s / t.scale:.6f}"


tsirelson = scenarios.circuit_targets(LFConfig())
print(f"quantum targets: S = {chsh_text(tsirelson)}")
v = mp.feasible_joint_4(tsirelson)
print(f"  4-variable joint feasible: {v.feasible}, "
      f"max violation over 2: {mp.rational_texts([v.max_violation], v.scale)[0]}")
print(f"  6-variable joint feasible: {mp.feasible_joint_6(v).feasible}")
print(f"  closed-form criterion: {mp.fine_criterion(tsirelson)}")

shrunk = mp.PairTargets.from_correlators(
    {v_: "1/2" for v_ in mp.VARS_4},
    {"AC": "1/2", "BC": "1/2", "BD": "1/2", "AD": "-1/2"})
v = mp.feasible_joint_4(shrunk)
print(f"shrunk targets: S = {chsh_text(shrunk)}, feasible: {v.feasible}")
print("  witness atom probabilities:", mp.rational_texts(v.witness, v.scale))
