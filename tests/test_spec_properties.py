"""Property tests of what the circuit takes as valid by construction, with no
runtime check: the friend unitaries are unitary and the two wings' commute,
and at random angles the Born pair tables, read after each wing's frame
change, match both the conjugated projectors a supermeasurement stands for
and the closed form."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from kron_oracle import embed

from friendlab import scenarios
from friendlab.hilbert import rotation_matrix
from friendlab.scenarios import (
    LF_LAYOUT,
    LFConfig,
    _friend_unitary,
    born_tables,
    lf_circuit,
)
from friendlab.statlab import CHOICE, PAIR_CELLS, PAIR_IDS

PROPERTY = settings(max_examples=40)

ANGLE = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)
CONFIGS = st.builds(LFConfig, ANGLE, ANGLE, ANGLE, ANGLE)

# each variable's measurement angle in LFConfig
ANGLE_OF = {"A": "ask_A", "B": "super_A", "C": "ask_C", "D": "super_C"}


@PROPERTY
@given(ANGLE, ANGLE)
def test_friend_unitaries_are_unitary_and_the_wings_commute(theta_a, theta_c):
    for theta in (theta_a, theta_c):
        u = _friend_unitary(theta)
        assert isinstance(u, tuple) and all(isinstance(row, tuple) for row in u)
        u = np.array(u)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
    alice = embed(_friend_unitary(theta_a), LF_LAYOUT, ("X", "MA"))
    chidi = embed(_friend_unitary(theta_c), LF_LAYOUT, ("Y", "MC"))
    assert np.abs(alice @ chidi - chidi @ alice).max() <= 1e-12


def _bits(matrix):
    """Each entry's float64 bits as hex, a zero's sign included."""
    return [[float(x).hex() for x in row] for row in matrix]


@PROPERTY
@given(ANGLE)
def test_frame_changes_are_undone_by_exact_transposes(theta):
    # born_tables undoes a friend unitary by applying it again and R(theta) by
    # applying R(-theta): the one is exactly symmetric and squares to the
    # identity, the other is exactly the transpose
    u = _friend_unitary(theta)
    assert _bits(u) == _bits(zip(*u))
    assert np.abs(np.array(u) @ np.array(u) - np.eye(4)).max() <= 1e-15
    assert _bits(rotation_matrix(-theta)) == _bits(zip(*rotation_matrix(theta)))


def test_a_fresh_config_builds_one_friend_unitary_per_ask_angle():
    # ask_A and ask_C differ in the first config and are equal in the second
    for cfg, ask_angles in ((LFConfig(12.5, 97.25, 51.0, 173.75), 2),
                            (LFConfig(30.0, 60.0, 30.0, 120.0), 1)):
        for cache in (born_tables, _friend_unitary):
            cache.cache_clear()
        born_tables(cfg)
        assert _friend_unitary.cache_info().misses == ask_angles


@PROPERTY
@given(CONFIGS)
def test_a_fresh_config_takes_eight_frame_changes(cfg):
    # the two friend unitaries of the circuit, then one supermeasurement frame
    # change (2 applies) each for B on the circuit, D on the circuit and D on
    # B's state; a repeated config takes none
    born_tables.cache_clear()
    with mock.patch.object(scenarios, "apply", wraps=scenarios.apply) as counted:
        born_tables(cfg)
        born_tables(cfg)
    assert counted.call_count == 8


# each variable's wing: the friend's (particle, memory) factors and her ask angle
WING_OF = {"A": ("X", "MA", "ask_A"), "B": ("X", "MA", "ask_A"),
           "C": ("Y", "MC", "ask_C"), "D": ("Y", "MC", "ask_C")}


def _projectors(cfg, var):
    """The (+1, -1) projectors of one variable on the 16-dim layout: the
    friend's memory for A and C, and for B and D the wing particle along the
    super angle, conjugated by the friend unitary."""
    particle, memory, ask = WING_OF[var]
    if CHOICE[var] == "ask":
        return [embed(np.diag(np.eye(2)[k]), LF_LAYOUT, (memory,)) for k in (0, 1)]
    u = np.array(_friend_unitary(getattr(cfg, ask)))
    r = np.array(rotation_matrix(getattr(cfg, ANGLE_OF[var])))
    return [embed(u @ np.kron(np.outer(r[:, k], r[:, k].conj()), np.eye(2)) @ u.conj().T,
                  LF_LAYOUT, (particle, memory)) for k in (0, 1)]


@PROPERTY
@given(CONFIGS)
def test_born_pair_tables_match_the_conjugated_projectors(cfg):
    amps = np.array(lf_circuit(cfg).amps)
    projectors = {var: _projectors(cfg, var) for var in "ABCD"}
    for ps in projectors.values():  # the reference is itself a complete rank-8 measurement
        assert [np.linalg.matrix_rank(p) for p in ps] == [8, 8]
        assert np.abs(ps[0] + ps[1] - np.eye(16)).max() <= 1e-12
    for pair in PAIR_IDS:
        pa, pc = projectors[pair[0]], projectors[pair[1]]
        want = [np.vdot(amps, pa[i] @ pc[j] @ amps).real for i in (0, 1) for j in (0, 1)]
        assert all(abs(b - w) <= 1e-15 for b, w in zip(born_tables(cfg)[pair], want))


@PROPERTY
@given(CONFIGS)
def test_every_circuit_pair_table_is_a_complete_measurement(cfg):
    # a supermeasurement's frame change is unitary, so every pair table is a
    # complete measurement: four non-negative cells that sum to 1
    for var in "BD":
        _, _, ask = WING_OF[var]
        r = np.array(rotation_matrix(getattr(cfg, ANGLE_OF[var])))
        u = np.array(_friend_unitary(getattr(cfg, ask)))
        frame = np.kron(r.conj().T, np.eye(2)) @ u.conj().T
        assert np.abs(frame.conj().T @ frame - np.eye(4)).max() <= 1e-12
    for pair in PAIR_IDS:
        table = born_tables(cfg)[pair]
        assert len(table) == len(PAIR_CELLS) and min(table) >= 0.0
        assert abs(sum(table) - 1.0) <= 1e-12


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
        assert all(abs(b - c) <= 1e-12 for b, c in zip(born_tables(cfg)[pair], closed))
