import itertools
import math

import numpy as np
import pytest
from kron_oracle import embed

from friendlab import scenarios, statlab
from friendlab.hilbert import (
    LayoutError,
    StateVector,
    apply,
    born_distribution,
    rotation_matrix,
)
from friendlab.scenarios import (
    LFConfig,
    RovelliConfig,
    born_tables,
    build_basic_wf_state,
    build_frame_relational_state,
    build_rovelli_states,
    circuit_verdict,
    interference_witness,
    lf_circuit,
    orientation_branches,
    pair_correlations,
    rovelli_states,
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
    plus, minus = born_distribution(s, ("S",))
    assert plus == pytest.approx(0.36)
    assert minus == pytest.approx(0.64)


def test_basic_rejects_unnormalized():
    with pytest.raises(ValueError):
        build_basic_wf_state(0.9, 0.9)


# --- frame-relational states ------------------------------------------------

def record_expectation(s):
    dist = born_distribution(s, ("record",))
    return dist[0] - dist[1]


def test_frame_relational_record_is_definite():
    assert record_expectation(build_frame_relational_state(+1)) == pytest.approx(1.0)
    assert record_expectation(build_frame_relational_state(-1)) == pytest.approx(-1.0)


def test_frame_relational_orientation_is_balanced():
    s = build_frame_relational_state(+1)
    dist = born_distribution(s, ("orientation",))
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
    minus = StateVector(scenarios.FRAME_LAYOUT, (np.array(ba.amps) - bb.amps) / math.sqrt(2))
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
    dist = born_distribution(lf_circuit(cfg), ("MA", "MC"))
    return sum(x * y * p for (x, y), p in zip(statlab.PAIR_CELLS, dist))


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
    u = np.kron(friend(cfg.ask_A), np.kron(eye2, eye2))
    u = np.kron(np.kron(eye2, eye2), friend(cfg.ask_C)) @ u
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
    for la, pa in wing_projs(bob_choice, cfg.ask_A, cfg.super_A):
        for lc, pc in wing_projs(divya_choice, cfg.ask_C, cfg.super_C):
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
    # the supermeasurement B is a frame change on Alice's wing, then a reading
    # of the particle: its projectors F^dagger|k><k|F are rank 2 in the wing,
    # times the dim-4 identity, complete, and give what the reading gives
    cfg = LFConfig()
    frame = (np.kron(np.array(rotation_matrix(cfg.super_A)).conj().T, np.eye(2))
             @ np.array(scenarios._friend_unitary(cfg.ask_A)).conj().T)
    amps = np.array(lf_circuit(cfg).amps)
    framed = apply(frame, lf_circuit(cfg), ("X", "MA"))
    dist = born_distribution(framed, ("X",))
    total = np.zeros((16, 16), dtype=complex)
    for k, prob in enumerate(dist):
        wing = frame.conj().T @ np.kron(np.diag(np.eye(2)[k]), np.eye(2)) @ frame
        p = embed(wing, scenarios.LF_LAYOUT, ("X", "MA"))
        assert np.linalg.matrix_rank(p) == 8
        assert abs(prob - np.vdot(amps, p @ amps).real) <= 1e-15
        total += p
    np.testing.assert_allclose(total, np.eye(16), atol=1e-10)


def test_memoized_circuit_and_sequential_values_are_shared_and_read_only():
    # equal configs (ints and floats spell the same angles) share one value,
    # so no caller may be able to write into it: each is immutable by type
    a, b = LFConfig(0, 90, 45, 135), LFConfig(0.0, 90.0, 45.0, 135.0)
    tables = born_tables(a)
    assert tables is born_tables(b) and tuple(tables) == statlab.PAIR_IDS
    assert all(isinstance(table, tuple) for table in tables.values())
    with pytest.raises(TypeError):
        tables["AC"] = (0.25,) * 4
    assert isinstance(lf_circuit(a).amps, tuple)
    with pytest.raises(TypeError):
        lf_circuit(a).amps[0] = 0.0
    verdict = circuit_verdict(a)
    assert verdict is circuit_verdict(b) and isinstance(verdict, tuple)
    targets, decided, top = verdict
    assert isinstance(decided, tuple) and top is None
    with pytest.raises(AttributeError):
        decided[0].feasible = True
    with pytest.raises(TypeError):
        targets.counts["AC"] = (1, 0, 0, 0)
    with pytest.raises(TypeError):
        targets.variants[statlab.CHSH_SIGNS] = 0
    states = rovelli_states(RovelliConfig(-1))
    assert isinstance(states, tuple) and states is rovelli_states(RovelliConfig(-1))
    assert all(isinstance(born, tuple) for born, _ in states)
    assert all(isinstance(s.amps, tuple) for s in build_rovelli_states(RovelliConfig(-1)))


# --- sequential scenario ----------------------------------------------------

def test_rovelli_records_are_definite():
    for k, (born, _) in enumerate(rovelli_states(RovelliConfig())):
        assert born[k] == pytest.approx(1.0)  # the k-th of ROVELLI_RECORDS


def test_rovelli_ready_state_untouched_in_no_measurement_branch():
    no_m2 = build_rovelli_states(RovelliConfig())[2]
    # Y along 90 degrees: rotate Y by R(90)^dagger, then read it
    y_90 = apply(np.array(rotation_matrix(90.0)).conj().T, no_m2, ("Y",))
    assert born_distribution(y_90, ("Y",))[0] == pytest.approx(1.0)  # cell 0 reads +1


def test_rovelli_witness_is_coherent():
    for s, (_, witness) in zip(build_rovelli_states(RovelliConfig()),
                               rovelli_states(RovelliConfig())):
        b0, b1 = orientation_branches(s)
        assert interference_witness(s, b0, b1) == witness == pytest.approx(1.0)


def test_orientation_branches_split_on_the_orientation_digit():
    # branch o keeps the amplitudes whose orientation digit is o, times sqrt(2)
    for s in (*build_rovelli_states(RovelliConfig()), *build_rovelli_states(RovelliConfig(-1)),
              build_frame_relational_state(+1), build_frame_relational_state(-1)):
        axis = s.layout.axis("orientation")
        digits = [values[axis] for values in itertools.product(*map(range, s.layout.dims))]
        assert orientation_branches(s) == tuple(
            StateVector(s.layout, [math.sqrt(2.0) * a if d == o else 0.0
                                   for a, d in zip(s.amps, digits)]) for o in (0, 1))


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


@pytest.mark.parametrize("side", [-1, 1])
def test_the_snap_caveat_covers_the_band_of_half_width_2_over_snap(monkeypatch, side):
    # the top CHSH variant put 0.5*ATOL inside, 0.5*ATOL outside and exactly
    # on the edge of the band 2 +/- 2/SNAP plus ATOL; the memo is cleared
    # around each call
    edge = 2 / 10 ** 6 + scenarios.ATOL

    def caveat(top, atol=scenarios.ATOL):
        monkeypatch.setattr(scenarios, "pair_correlations", lambda cfg: {
            "AC": top, "AD": 0.0, "BC": 0.0, "BD": 0.0})
        monkeypatch.setattr(scenarios, "ATOL", atol)
        circuit_verdict.cache_clear()
        try:
            return circuit_verdict(LFConfig())[2]
        finally:
            circuit_verdict.cache_clear()

    inside = 2 + side * (edge - scenarios.ATOL / 2)
    outside = 2 + side * (edge + scenarios.ATOL / 2)
    assert caveat(inside) == inside and caveat(outside) is None
    # at 2 + 2**-18 the edge is exact when ATOL = 2**-18 - 2/SNAP
    on_edge = 2 + side * 2 ** -18
    assert caveat(on_edge, 2 ** -18 - 2 / 10 ** 6) == on_edge
    assert caveat(on_edge, 2 ** -18 - 2 / 10 ** 6 - 2 ** -60) is None


def test_rovelli_rejects_bad_trigger():
    with pytest.raises(ValueError):
        RovelliConfig(trigger=0)
    with pytest.raises(ValueError):  # True == 1, but JSON true is no trigger
        RovelliConfig(True)
    with pytest.raises(ValueError):  # 1.0 == 1, but no run can index by it
        RovelliConfig(1.0)


# --- orientation invariance -------------------------------------------------
# a global rotation is a 2x2 unitary on the orientation factor only

def test_global_rotation_identity_and_flip():
    s = build_frame_relational_state(+1)
    np.testing.assert_allclose(apply(np.eye(2), s, ("orientation",)).amps, s.amps)
    flip = np.array([[0, 1], [1, 0]])
    assert record_expectation(apply(flip, s, ("orientation",))) == pytest.approx(1.0)


def test_global_rotation_needs_an_orientation_factor():
    s = build_basic_wf_state(1.0, 0.0)  # layout (S, A)
    with pytest.raises(LayoutError):
        apply(np.eye(2), s, ("orientation",))


def all_states_with_orientation():
    yield build_frame_relational_state(+1)
    yield build_frame_relational_state(-1)
    yield from build_rovelli_states(RovelliConfig())


def test_record_statistics_invariant_under_orientation_unitaries():
    rng = np.random.default_rng(20)
    for s in all_states_with_orientation():
        base = born_distribution(s, ("record",))
        for _ in range(100):
            u = random_unitary(rng)
            after = born_distribution(apply(u, s, ("orientation",)), ("record",))
            assert all(abs(a - b) < 1e-10 for a, b in zip(after, base))


def test_config_json_round_trip():
    cfg = LFConfig(1.0, 2.0, 3.0, 4.0)
    assert LFConfig.from_json_dict(cfg.to_json_dict()) == cfg
    assert RovelliConfig(-1).to_json_dict() == {"rovelli": {"trigger": -1}}


def test_lf_config_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^ask_A must lie in \[0, 360\), got 360.0$"):
        LFConfig(ask_A=360.0)


def test_lf_config_stores_minus_0_as_0():
    cfg = LFConfig(-0.0, 90, 45, 135)
    assert cfg == LFConfig() and all(math.copysign(1.0, a) == 1.0 for a in cfg)
    assert cfg.to_json_dict() == {"angles": {"ask_A": 0.0, "super_A": 90.0, "ask_C": 45.0,
                                             "super_C": 135.0}}
