import itertools
import math

import numpy as np
import pytest

from friendlab import scenarios, statlab
from friendlab.hilbert import (
    LayoutError,
    StateVector,
    born_distribution,
    factor_basis_spec,
)
from friendlab.scenarios import (
    LFConfig,
    RovelliConfig,
    apply_global_rotation,
    build_basic_wf_state,
    build_frame_relational_state,
    build_rovelli_states,
    interference_witness,
    lf_circuit,
    observable_spec,
    orientation_branches,
    pair_correlations,
    pair_spec,
)

COS45 = math.cos(math.radians(45.0))


def expectation(s, matrix):
    """<s|M|s> for a Hermitian matrix M."""
    return float(np.vdot(s.amps, matrix @ s.amps).real)


def random_unitary(rng, d=2):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# --- basic sealed-lab state -------------------------------------------------

def test_basic_product_state():
    s = build_basic_wf_state(1.0, 0.0)
    np.testing.assert_allclose(s.amps, [1, 0, 0, 0])


def test_basic_bell_type_correlation():
    s = build_basic_wf_state(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert expectation(s, np.diag([1.0, -1.0, -1.0, 1.0])) == pytest.approx(1.0)


def test_basic_biased_born_table():
    s = build_basic_wf_state(0.6, 0.8)
    spec = factor_basis_spec(scenarios.BASIC_LAYOUT, "S", labels=(+1, -1))
    dist = dict(born_distribution(s, spec))
    assert dist[+1] == pytest.approx(0.36)
    assert dist[-1] == pytest.approx(0.64)


def test_basic_rejects_unnormalized():
    with pytest.raises(ValueError):
        build_basic_wf_state(0.9, 0.9)


# --- frame-relational states ------------------------------------------------

def record_expectation(s):
    dist = dict(born_distribution(s, scenarios.record_spec(s.layout)))
    return dist[0] - dist[1]


def test_frame_relational_record_is_definite():
    assert record_expectation(build_frame_relational_state(+1)) == pytest.approx(1.0)
    assert record_expectation(build_frame_relational_state(-1)) == pytest.approx(-1.0)


def test_frame_relational_orientation_is_balanced():
    s = build_frame_relational_state(+1)
    spec = factor_basis_spec(scenarios.FRAME_LAYOUT, "orientation")
    dist = dict(born_distribution(s, spec))
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_frame_relational_rejects_bad_outcome():
    with pytest.raises(ValueError):
        build_frame_relational_state(0)


def test_interference_witness_cases():
    coherent = build_frame_relational_state(+1)
    ba, bb = orientation_branches(coherent)
    assert interference_witness(coherent, ba, bb) == pytest.approx(1.0)
    assert interference_witness(ba, ba, bb) == pytest.approx(0.5)
    minus = StateVector(scenarios.FRAME_LAYOUT, (ba.amps - bb.amps) / math.sqrt(2))
    assert interference_witness(minus, ba, bb) == pytest.approx(0.0, abs=1e-12)


def test_interference_witness_rejects_state_outside_span():
    ba, bb = orientation_branches(build_frame_relational_state(+1))
    outside = build_frame_relational_state(-1)
    with pytest.raises(ValueError):
        interference_witness(outside, ba, bb)


# --- four-observer circuit --------------------------------------------------

def test_lf_circuit_zero_angles_state():
    s = lf_circuit(LFConfig(0.0, 90.0, 0.0, 135.0))
    want = {(0, 0, 0, 0): 1 / math.sqrt(2), (1, 1, 1, 1): 1 / math.sqrt(2)}
    got = StateVector.from_terms(scenarios.LF_LAYOUT, want)
    assert abs(abs(s.inner(got)) - 1.0) < 1e-12
    # memory-memory correlation is +1
    e = memory_correlation(LFConfig(0.0, 90.0, 0.0, 135.0))
    assert e == pytest.approx(1.0)


def memory_correlation(cfg):
    s = lf_circuit(cfg)
    spec = pair_spec(cfg, "AC")
    return sum(x * y * p for (x, y), p in born_distribution(s, spec))


def test_lf_circuit_norm_any_angles():
    for cfg in (LFConfig(), LFConfig(10.0, 20.0, 30.0, 40.0), LFConfig(359.0, 1.0, 180.0, 90.0)):
        assert abs(np.linalg.norm(lf_circuit(cfg).amps) - 1.0) < 1e-12


def test_lf_ask_ask_correlation_cos_angle_difference():
    assert memory_correlation(LFConfig(0.0, 90.0, 45.0, 135.0)) == pytest.approx(COS45)


def brute_force_pair_correlation(cfg, bob_choice, divya_choice):
    """Independent oracle: rebuild the 16-dim state and all projectors with
    raw numpy kron products, then enumerate <s|Pa (x) Pc|s>."""
    def rot(deg):
        t = math.radians(deg) / 2
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    eye2 = np.eye(2)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    cnot = np.block([[eye2, np.zeros((2, 2))], [np.zeros((2, 2)), flip]])

    def friend(theta):
        return np.kron(rot(theta), eye2) @ cnot @ np.kron(rot(theta).T, eye2)

    # order (X, MA, Y, MC) here, unlike the library's (X, Y, MA, MC)
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    # kron of the (X,Y) matrix with the (MA,MC) matrix flattens to (X, MA, Y, MC)
    state = np.kron(phi.reshape(2, 2), np.outer([1, 0], [1, 0])).reshape(-1)
    u = np.kron(friend(cfg.ask_a), np.kron(eye2, eye2))
    u = np.kron(np.kron(eye2, eye2), friend(cfg.ask_c)) @ u
    state = u @ state

    def wing_projs(choice, ask_theta, super_theta):
        out = []
        for label, k in ((+1, 0), (-1, 1)):
            if choice == "ask":
                p = np.diag([1.0 - k, float(k)])
                out.append((label, np.kron(eye2, p)))
            else:
                v = rot(super_theta)[:, k].reshape(2, 1)
                p4 = friend(ask_theta) @ np.kron(v @ v.T, eye2) @ friend(ask_theta).T
                out.append((label, p4))
        return out

    e = 0.0
    for la, pa in wing_projs(bob_choice, cfg.ask_a, cfg.super_a):
        for lc, pc in wing_projs(divya_choice, cfg.ask_c, cfg.super_c):
            e += la * lc * float(state @ np.kron(pa, pc) @ state)
    return e


@pytest.mark.parametrize("cfg", [LFConfig(), LFConfig(10.0, 70.0, 25.0, 200.0)])
def test_pair_correlations_match_brute_force_oracle(cfg):
    choice = {"AC": ("ask", "ask"), "AD": ("ask", "super"),
              "BC": ("super", "ask"), "BD": ("super", "super")}
    e = pair_correlations(cfg)
    for pair, (b, d) in choice.items():
        assert e[pair] == pytest.approx(brute_force_pair_correlation(cfg, b, d), abs=1e-9)


def test_pair_correlations_follow_effective_angles():
    cfg = LFConfig(20.0, 80.0, 50.0, 170.0)
    e = pair_correlations(cfg)
    assert e["AC"] == pytest.approx(math.cos(math.radians(20.0 - 50.0)), abs=1e-9)
    assert e["AD"] == pytest.approx(math.cos(math.radians(20.0 - 170.0)), abs=1e-9)
    assert e["BC"] == pytest.approx(math.cos(math.radians(80.0 - 50.0)), abs=1e-9)
    assert e["BD"] == pytest.approx(math.cos(math.radians(80.0 - 170.0)), abs=1e-9)


def test_default_angles_hit_tsirelson():
    s = statlab.chsh(pair_correlations(LFConfig()).values())
    assert s == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_super_projectors_are_rank_two_and_complete():
    spec = observable_spec(LFConfig(), "B")
    total = np.zeros((16, 16), dtype=complex)
    for _, p in spec.outcomes:
        assert np.linalg.matrix_rank(p) == 8  # rank 2 in the wing, times dim-4 identity
        total += p
    np.testing.assert_allclose(total, np.eye(16), atol=1e-10)


def test_memoized_circuit_specs_and_states_are_shared_and_read_only():
    # equal configs (ints and floats spell the same angles) share one value,
    # so no caller may be able to write into it
    a, b = LFConfig(0, 90, 45, 135), LFConfig(0.0, 90.0, 45.0, 135.0)
    circuit = lf_circuit(a)
    assert circuit is lf_circuit(b)
    with pytest.raises(ValueError):
        circuit.amps[0] = 0.0
    for var in "ABCD":
        spec = observable_spec(a, var)
        assert spec is observable_spec(b, var)
        assert not any(p.flags.writeable for _, p in spec.outcomes)
    states = build_rovelli_states(RovelliConfig(-1))
    assert isinstance(states, tuple) and states is build_rovelli_states(RovelliConfig(-1))
    assert not any(s.amps.flags.writeable for s in states)


# --- sequential scenario ----------------------------------------------------

def test_rovelli_records_are_definite():
    states = build_rovelli_states(RovelliConfig())
    spec = scenarios.record_spec(scenarios.ROVELLI_LAYOUT, labels=scenarios.ROVELLI_RECORDS)
    for i, s in enumerate(states):
        dist = dict(born_distribution(s, spec))
        assert dist[scenarios.ROVELLI_RECORDS[i]] == pytest.approx(1.0)


def test_rovelli_ready_state_untouched_in_no_measurement_branch():
    states = build_rovelli_states(RovelliConfig())
    from friendlab.hilbert import factor_angle_spec
    dist = dict(born_distribution(states[2], factor_angle_spec(scenarios.ROVELLI_LAYOUT, "Y", 90.0)))
    assert dist[+1] == pytest.approx(1.0)


def test_rovelli_witness_is_coherent():
    for s in build_rovelli_states(RovelliConfig()):
        b0, b1 = orientation_branches(s)
        assert interference_witness(s, b0, b1) == pytest.approx(1.0)


def lab_relative_s(assignment, layout):
    s_bit = assignment[layout.axis("S")]
    o_bit = assignment[layout.axis("orientation")]
    return s_bit if o_bit == 0 else 1 - s_bit


@pytest.mark.parametrize("trigger", [+1, -1])
def test_rovelli_structural_consistency(trigger):
    # in every branch, the record reads noM2 exactly when S relative to the
    # lab's own frame is the non-trigger outcome
    layout = scenarios.ROVELLI_LAYOUT
    t_bit = 1 if trigger == +1 else 0
    for s in build_rovelli_states(RovelliConfig(trigger)):
        for flat, amp in enumerate(s.amps):
            if abs(amp) < 1e-12:
                continue
            assignment = list(np.unravel_index(flat, layout.dims))
            rec = assignment[layout.axis("record")]
            rel = lab_relative_s(assignment, layout)
            if rec == 2:
                assert rel == 1 - t_bit
            else:
                assert rel == t_bit


def test_rovelli_rejects_bad_trigger():
    with pytest.raises(ValueError):
        RovelliConfig(trigger=0)


# --- orientation invariance -------------------------------------------------

def test_global_rotation_identity_and_flip():
    s = build_frame_relational_state(+1)
    np.testing.assert_allclose(apply_global_rotation(s, np.eye(2)).amps, s.amps)
    flip = np.array([[0, 1], [1, 0]])
    assert record_expectation(apply_global_rotation(s, flip)) == pytest.approx(1.0)


def test_global_rotation_needs_an_orientation_factor():
    s = build_basic_wf_state(1.0, 0.0)  # layout (S, A)
    with pytest.raises(LayoutError):
        apply_global_rotation(s, np.eye(2))


def all_states_with_orientation():
    yield build_frame_relational_state(+1)
    yield build_frame_relational_state(-1)
    yield from build_rovelli_states(RovelliConfig())


def test_record_statistics_invariant_under_orientation_unitaries():
    rng = np.random.default_rng(20)
    for s in all_states_with_orientation():
        spec = scenarios.record_spec(s.layout)
        base = dict(born_distribution(s, spec))
        for _ in range(100):
            u = random_unitary(rng)
            after = dict(born_distribution(apply_global_rotation(s, u), spec))
            assert all(abs(after[k] - base[k]) < 1e-10 for k in base)


def test_config_json_round_trip():
    cfg = LFConfig(1.0, 2.0, 3.0, 4.0)
    assert LFConfig.from_json_dict(cfg.to_json_dict()) == cfg
    assert RovelliConfig(-1).to_json_dict() == {"rovelli": {"trigger": -1}}


def test_lf_config_rejects_out_of_range():
    with pytest.raises(ValueError):
        LFConfig(ask_a=360.0)
