"""A sealed lab from inside and outside.

The friend measures a qubit in the z basis and stores the result in a memory.
From outside, nothing has collapsed: the lab is a two-factor entangled state
a|00> + b|11>.  With equal weights we can also build the frame-relational
form, where the friend's record is definite in every branch yet an
interference witness on the whole lab still reads 1.
"""

import numpy as np

from friendlab import scenarios
from friendlab.hilbert import born_distribution, factor_basis_spec

a, b = 0.6, 0.8
state = scenarios.build_basic_wf_state(a, b)
print(f"entangled lab state for a={a}, b={b}:")
print(" ", np.round(state.amps, 6))

spec = factor_basis_spec(scenarios.BASIC_LAYOUT, "S", labels=(+1, -1))
print("Born distribution of the system qubit:", dict(born_distribution(state, spec)))

for outcome in (+1, -1):
    frame = scenarios.build_frame_relational_state(outcome)
    w = scenarios.interference_witness(frame, *scenarios.orientation_branches(frame))
    rec = dict(born_distribution(frame, scenarios.record_spec(scenarios.FRAME_LAYOUT)))
    print(f"frame-relational state, outcome {outcome:+d}: "
          f"record distribution {rec}, witness {w:.6f}")
