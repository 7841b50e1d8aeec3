"""The sequential scenario: a record of whether a second measurement ran.

The friend measures once; only if the outcome equals the trigger does a
second measurement happen.  The three possible final states carry a
three-valued record register that is perfectly definite, and an outside
observer who asks always gets a report consistent with the run."""

from friendlab import relmodel
from friendlab.scenarios import RovelliConfig

n = 10000
_, states, runs = relmodel.rovelli_audit(RovelliConfig(), n, 0)
for sr in states:
    probs = {k: round(v, 10) for k, v in sr["record_probabilities"].items()}
    print(f"state {sr['record']}: record probabilities {probs}, "
          f"witness {sr['interference_witness']:.6f}")

print(f"{n} asked runs: consistency rate {runs['consistent'] / n}, "
      f"second measurement iff trigger: {runs['second_iff_trigger']}")
