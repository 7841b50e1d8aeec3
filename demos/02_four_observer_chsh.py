"""The four-observer circuit and its CHSH value.

Two friends each measure one half of a Bell pair; two outside observers
either ask their friend (reading the memory) or supermeasure the whole wing
along a rotated basis.  At the standard angles the four pair correlators are
+-cos(45 degrees) and S reaches 2*sqrt(2)."""

import math

from friendlab import relmodel, scenarios, statlab
from friendlab.scenarios import LFConfig

cfg = LFConfig()
analytic = scenarios.pair_correlations(cfg)
for pair in scenarios.PAIR_IDS:
    print(f"E({pair}) = {analytic[pair]:+.9f}")
s = statlab.chsh(analytic.values())
print(f"S = {s:.9f}  (2*sqrt(2) = {2 * math.sqrt(2):.9f})")

batch = relmodel.simulate_batch(cfg, 4 * 10 ** 5, seed=0)
_, _, mc = relmodel.circuit_audit(batch)  # the `lf` command's audit
print(f"Monte Carlo over {len(batch)} runs (about 1e5 per pair): "
      f"S = {mc['estimate']:.4f} +/- {mc['stderr']:.4f}")
