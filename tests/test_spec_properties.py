"""Property tests of what the circuit takes as valid by construction, with no
runtime check: the friend unitaries are unitary and the two wings' commute,
the circuit's observable and pair specs pass the full check at random
angles, and the Born pair tables built from them match the closed form."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlab.hilbert import MeasurementSpec, lift
from friendlab.scenarios import (
    LF_LAYOUT,
    LFConfig,
    _friend_unitary,
    born_pair_table,
    lf_circuit,
    observable_spec,
    pair_spec,
)
from friendlab.statlab import PAIR_CELLS, PAIR_IDS

# derandomized so the suite's run time and outcome do not vary between runs
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ANGLE = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)
CONFIGS = st.builds(LFConfig, ANGLE, ANGLE, ANGLE, ANGLE)

# each variable's measurement angle in LFConfig
ANGLE_OF = {"A": "ask_a", "B": "super_a", "C": "ask_c", "D": "super_c"}


@PROPERTY
@given(ANGLE, ANGLE)
def test_friend_unitaries_are_unitary_and_the_wings_commute(theta_a, theta_c):
    for theta in (theta_a, theta_c):
        u = _friend_unitary(theta)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        assert not u.flags.writeable
    alice = lift(_friend_unitary(theta_a), LF_LAYOUT, ("X", "MA"))
    chidi = lift(_friend_unitary(theta_c), LF_LAYOUT, ("Y", "MC"))
    assert np.abs(alice @ chidi - chidi @ alice).max() <= 1e-12


def test_a_fresh_config_builds_one_friend_unitary_per_ask_angle():
    # ask_a and ask_c differ in the first config and are equal in the second
    for cfg, ask_angles in ((LFConfig(12.5, 97.25, 51.0, 173.75), 2),
                            (LFConfig(30.0, 60.0, 30.0, 120.0), 1)):
        for cache in (born_pair_table, lf_circuit, observable_spec, _friend_unitary):
            cache.cache_clear()
        for pair in PAIR_IDS:
            born_pair_table(cfg, pair)
        assert _friend_unitary.cache_info().misses == ask_angles


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
