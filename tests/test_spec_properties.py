"""Property tests of the measurement specs that skip the constructor's checks
because they are valid by construction: the circuit's observable and pair
specs pass the full check at random angles, and the Born pair tables built
from them match the circuit's closed form."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from friendlab.hilbert import MeasurementSpec
from friendlab.scenarios import LFConfig, born_pair_table, observable_spec, pair_spec
from friendlab.statlab import PAIR_CELLS, PAIR_IDS

# derandomized so the suite's run time and outcome do not vary between runs
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ANGLE = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)
CONFIGS = st.builds(LFConfig, ANGLE, ANGLE, ANGLE, ANGLE)

# each variable's measurement angle in LFConfig
ANGLE_OF = {"A": "ask_a", "B": "super_a", "C": "ask_c", "D": "super_c"}


def _full_check(spec: MeasurementSpec):
    """The constructor's checks on the spec's projectors; it raises if any fails."""
    checked = MeasurementSpec(spec.layout, spec.outcomes)
    assert checked.labels == spec.labels
    assert not any(p.flags.writeable for _, p in spec.outcomes)


@PROPERTY
@given(CONFIGS)
def test_circuit_specs_pass_the_full_check(cfg):
    for var in "ABCD":
        _full_check(observable_spec(cfg, var))
    for pair in PAIR_IDS:
        _full_check(pair_spec(cfg, pair))


@PROPERTY
@given(CONFIGS)
def test_born_pair_tables_match_the_closed_form(cfg):
    # every single is 1/2 and E(xy) = cos(theta_x - theta_y): the friend copies
    # the wing value and the supermeasurement undoes the copy, so each pair
    # measures the Bell state Phi+ along its two angles
    for pair in PAIR_IDS:
        theta = [math.radians(getattr(cfg, ANGLE_OF[v])) for v in pair]
        e = math.cos(theta[0] - theta[1])
        closed = [(1 + x * y * e) / 4 for x, y in PAIR_CELLS]
        assert all(abs(b - c) <= 1e-12 for b, c in zip(born_pair_table(cfg, pair), closed))
