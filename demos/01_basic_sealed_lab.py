"""A sealed lab from inside and outside.

The friend measures a qubit in the z basis and stores the result in a memory.
From outside, nothing has collapsed: the lab is a two-factor entangled state
a|00> + b|11>.  With equal weights we can also build the frame-relational
form, where the friend's record is definite in every branch yet an
interference witness on the whole lab still reads 1.
"""

from friendlab import scenarios
from friendlab.hilbert import born_distribution

a, b = 0.6, 0.8
state = scenarios.build_basic_wf_state(a, b)
print(f"entangled lab state for a={a}, b={b}:")
print(" ", *(f"{amp:.6f}" for amp in state.amps))

# the reading of S, value 0 labelled +1 and value 1 labelled -1
print("Born distribution of the system qubit:",
      dict(zip((+1, -1), born_distribution(state, ("S",)))))

for outcome in (+1, -1):
    frame = scenarios.build_frame_relational_state(outcome)
    w = scenarios.interference_witness(frame, *scenarios.orientation_branches(frame))
    rec = dict(enumerate(born_distribution(frame, ("record",))))
    print(f"frame-relational state, outcome {outcome:+d}: "
          f"record distribution {rec}, witness {w:.6f}")
