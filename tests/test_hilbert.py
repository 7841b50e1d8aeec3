import functools
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kron_oracle import embed

from friendlab import acceptance, scenarios
from friendlab.hilbert import (
    ATOL,
    FactorLayout,
    LayoutError,
    StateVector,
    _blocks,
    apply,
    born_distribution,
    rotation_matrix,
)
from friendlab.relmodel import draw_counts

Q = FactorLayout((("q", 2),))


def ket(layout, *assignment):
    return StateVector.from_terms(layout, {tuple(assignment): 1.0})


def test_layout_rejects_duplicates_and_empty_factors():
    with pytest.raises(LayoutError):
        FactorLayout((("a", 2), ("a", 2)))
    with pytest.raises(LayoutError):
        FactorLayout((("a", 0), ("b", 2)))


def test_state_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(Q, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(Q, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan),
                                 complex(-math.inf, 0.0)])
def test_state_refuses_a_non_finite_amplitude(bad):
    layout = FactorLayout((("a", 2), ("b", 2)))
    for k in range(layout.dim):
        amps = [0j] * layout.dim
        amps[k] = bad
        amps[(k + 1) % layout.dim] = 1.0
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector(layout, amps)


@pytest.mark.parametrize("off", [-1, 1])
def test_state_refuses_a_norm_two_atol_off(off):
    r = 1.0 + 2 * off * ATOL
    for amps in ([r, 0.0], [r * math.sqrt(0.5), 1j * r * math.sqrt(0.5)]):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(Q, amps)
    # a norm within ATOL of 1 is taken
    assert StateVector(Q, [1.0 + off * ATOL / 2, 0.0]).amps[0] == 1.0 + off * ATOL / 2


def test_from_terms_refuses_a_basis_state_outside_the_layout():
    layout = FactorLayout((("a", 2), ("b", 3)))
    assert StateVector.from_terms(layout, {(1, 2): 1.0}).amps == (0, 0, 0, 0, 0, 1)
    for assignment in ((1,), (0, 1, 0), (0, 3), (-1, 0)):
        with pytest.raises(LayoutError):
            StateVector.from_terms(layout, {assignment: 1.0})


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, layout):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def test_apply_identity_and_flip():
    s = StateVector(Q, np.array([0.6, 0.8]))
    np.testing.assert_allclose(apply(np.eye(2), s, ("q",)).amps, s.amps)
    np.testing.assert_allclose(apply(np.array([[0, 1], [1, 0]]), ket(Q, 0), ("q",)).amps, [0, 1])


def test_apply_rotation_twice_is_flip():
    # R(90) @ R(90) = [[0,-1],[1,0]]: |0> -> |1> exactly, no phase needed
    r = rotation_matrix(90.0)
    np.testing.assert_allclose(apply(r, apply(r, ket(Q, 0), ("q",)), ("q",)).amps, [0, 1],
                               atol=1e-12)


def test_apply_rejects_nonunitary_and_mismatch():
    # the norm check of the resulting state refuses a non-unitary's output
    with pytest.raises(ValueError, match="not normalized"):
        apply(np.array([[1, 0], [0, 2]]), ket(Q, 1), ("q",))
    layout = FactorLayout((("a", 2), ("b", 2)))
    s = ket(layout, 0, 0)
    with pytest.raises(LayoutError):
        apply(np.eye(2), s, ("a", "b"))  # a 2x2 matrix on a 4-dim pair of factors
    with pytest.raises(LayoutError):
        apply(np.eye(2), s, ("q",))  # no such factor
    with pytest.raises(LayoutError):
        apply(np.eye(4), s, ("a", "a"))  # one factor twice


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_apply_refuses_a_non_finite_entry_and_a_non_unitary_beside_zero_blocks(bad):
    # |0>_a |0>_b: the block b = 1 holds only zeros and is skipped, and the
    # bad entry meets only a zero amplitude, yet the output is refused
    layout = FactorLayout((("a", 2), ("b", 2)))
    s = ket(layout, 0, 0)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        apply([[1.0, bad], [0.0, 1.0]], s, ("a",))
    with pytest.raises(ValueError, match="not normalized"):
        apply([[2.0, 0.0], [0.0, 1.0]], s, ("a",))


def full_loop_apply(matrix, state, on):
    """`apply` with every block summed, none skipped: the reference."""
    layout = state.layout
    m = [[complex(x) for x in row] for row in matrix]
    out = [0j] * layout.dim
    for block in _blocks(layout.dims, tuple(layout.axis(n) for n in on)):
        t = [state.amps[k] for k in block]
        for k, row in zip(block, m):
            acc = 0j
            for mij, tj in zip(row, t):
                acc += mij * tj
            out[k] = acc
    return out


def float_bytes(amps) -> bytes:
    return b"".join(struct.pack("<dd", a.real, a.imag) for a in amps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([("a",), ("b",), ("c", "a"), ("b", "c")]))
def test_skipping_zero_blocks_keeps_the_bytes_of_the_full_loop(seed, on):
    # states with exact zeros of either sign, often filling whole blocks, and
    # matrices with negative entries, so a zero's sign would show if it moved,
    # in each example: a complex unitary on a complex state; the circuit's
    # real matrices (a rotation, a friend unitary) on a real state, which
    # stays real; and criterion 4's Haar unitary on one factor of a real state
    for kind in ("complex", "real", "haar"):
        rng = np.random.default_rng(seed)
        layout = FactorLayout((("a", 2), ("b", 2), ("c", 2)))
        amps = rng.standard_normal(8)
        if kind == "complex":
            amps = amps + 1j * rng.standard_normal(8)
        amps[rng.random(8) < 0.5] = 0.0
        if not amps.any():
            amps[0] = 1.0
        number = complex if kind == "complex" else float
        amps = [number(x) if x else number(*rng.choice([-0.0, 0.0], 1 + (kind == "complex")))
                for x in amps]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        s = StateVector(layout, [a / norm for a in amps])
        factors = on
        if kind == "complex":
            u = random_unitary(rng, 2 ** len(on))
        elif kind == "real":
            # angle 0 gives rotation and friend-unitary entries of exactly -0.0
            angle = 0.0 if rng.random() < 0.25 else 360.0 * rng.random()
            u = rotation_matrix(angle) if len(on) == 1 else scenarios._friend_unitary(angle)
            assert all(type(a) is float for a in apply(u, s, on).amps)
            circuit = scenarios.lf_circuit(scenarios.LFConfig(angle, 0.0, angle, 0.0))
            assert all(type(a) is float for a in circuit.amps)
        else:
            u, factors = acceptance._random_orientation_unitary(rng), on[:1]
        assert (float_bytes(apply(u, s, factors).amps)
                == float_bytes(full_loop_apply(u, s, factors))), kind


def test_apply_on_subset_matches_kron():
    layout = FactorLayout((("a", 2), ("b", 2), ("c", 2)))
    s = random_state(np.random.default_rng(5), layout)
    u = rotation_matrix(37.0)
    want = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ s.amps
    np.testing.assert_allclose(apply(u, s, ("b",)).amps, want, atol=1e-12)


LAYOUT3 = FactorLayout((("a", 2), ("b", 3), ("c", 2)))


def unit(i, j):
    """The 2x2 matrix unit |i><j|."""
    return np.outer(np.eye(2)[i], np.eye(2)[j])


@pytest.mark.parametrize("on, kron_of", [
    (("a",), lambda m: np.kron(m, np.eye(6))),
    (("b",), lambda m: np.kron(np.kron(np.eye(2), m), np.eye(2))),
    (("c",), lambda m: np.kron(np.eye(6), m)),
    # m on (c, a), c the more significant: the sum over |i><j| on c of
    # m's (i, j) block, which acts on a
    (("c", "a"), lambda m: sum(np.kron(np.kron(m[2 * i:2 * i + 2, 2 * j:2 * j + 2], np.eye(3)),
                                       unit(i, j)) for i in range(2) for j in range(2))),
], ids=["a", "b", "c", "c,a"])
def test_apply_matches_kron_order(on, kron_of):
    d = math.prod(dict(LAYOUT3.factors)[n] for n in on)
    rng = np.random.default_rng(d)
    m = random_unitary(rng, d)
    # the oracle the other tests use builds the same matrix
    np.testing.assert_allclose(embed(m, LAYOUT3, on), kron_of(m), atol=1e-14)
    for _ in range(5):
        s = random_state(rng, LAYOUT3)
        out = apply(m, s, on)
        assert out.layout == LAYOUT3 and isinstance(out.amps, tuple)
        np.testing.assert_allclose(out.amps, kron_of(m) @ s.amps, atol=1e-14)


def test_born_computational_basis():
    assert born_distribution(ket(Q, 0), ("q",)) == (1.0, 0.0)
    plus = StateVector(Q, np.array([1, 1]) / math.sqrt(2))
    p0, p1 = born_distribution(plus, ("q",))
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_born_bell_state_angle_correlation():
    # Oracle: direct 4-dim enumeration of <phi+| Pa (x) Pc |phi+> with
    # explicitly written projectors, independent of the library's reading
    # machinery.
    layout = FactorLayout((("a", 2), ("c", 2)))
    phi = StateVector(layout, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def proj(theta_deg, k):
        t = math.radians(theta_deg) / 2
        col = np.array([[math.cos(t)], [math.sin(t)]]) if k == 0 else \
            np.array([[-math.sin(t)], [math.cos(t)]])
        return col @ col.T

    oracle = 0.0
    for ka, label_a in ((0, +1), (1, -1)):
        for kc, label_c in ((0, +1), (1, -1)):
            p = np.kron(proj(0.0, ka), proj(45.0, kc))
            oracle += label_a * label_c * float((phi.amps @ p @ phi.amps).real)
    assert abs(oracle - math.cos(math.radians(45.0))) < 1e-12

    # rotate each qubit to its angle's frame, then read both
    frame = np.kron(rotation_matrix(0.0), rotation_matrix(45.0)).conj().T
    rotated = apply(frame, phi, ("a", "c"))
    e = sum(la * lc * p for (la, lc), p in zip(itertools.product((+1, -1), repeat=2),
                                                 born_distribution(rotated, ("a", "c"))))
    assert abs(e - oracle) < 1e-12


# --- sampling a reading ------------------------------------------------------
# hilbert draws no random numbers; relmodel.draw_counts samples its readings

def sample(probs, n, rng):
    """How many of n draws of one reading's outcome land in each cell."""
    return draw_counts(probs, n, rng)


def test_sampling_deterministic():
    zero = born_distribution(ket(Q, 0), ("q",))
    assert sample(zero, 1, np.random.default_rng(0)) == (1, 0)
    plus = born_distribution(StateVector(Q, np.array([1, 1]) / math.sqrt(2)), ("q",))
    seq1 = sample(plus, 20, np.random.default_rng(123))
    seq2 = sample(plus, 20, np.random.default_rng(123))
    assert seq1 == seq2 and all(type(c) is int for c in seq1)


def _loop_sample(dist, n, rng):
    """Reference: walk the positive-probability outcomes, each taking its
    binomial share of the draws left, the last one the rest."""
    counts, left, mass = [0] * len(dist), n, 1.0
    positive = [i for i, pr in enumerate(dist) if pr > 0]
    for i in positive[:-1]:
        counts[i] = int(rng.binomial(left, dist[i] / mass))
        left, mass = left - counts[i], mass - dist[i]
        if left == 0:
            return counts
    counts[positive[-1]] = left
    return counts


def test_sampling_matches_the_per_sample_loop():
    layout = FactorLayout((("a", 2), ("b", 3)))
    rng = np.random.default_rng(5)
    for k in range(20):
        amps = (rng.standard_normal(6) + 1j * rng.standard_normal(6)).reshape(2, 3)
        amps[:, k % 3] *= k % 2  # every other state gives one outcome probability 0
        s = StateVector(layout, (amps / np.linalg.norm(amps)).ravel())
        dist = born_distribution(s, ("b",))
        batched = sample(dist, 1000, np.random.default_rng(k))
        assert batched == tuple(_loop_sample(dist, 1000, np.random.default_rng(k)))


def test_sampling_concentration():
    plus = born_distribution(StateVector(Q, np.array([1, 1]) / math.sqrt(2)), ("q",))
    rng = np.random.default_rng(77)
    n = 10 ** 5
    hits = int(sample(plus, n, rng)[0])  # cell 0 reads +1
    assert abs(hits / n - 0.5) < 0.01


def test_sampling_total_variation_soundness():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps /= np.linalg.norm(amps)
    s = StateVector(Q, amps)
    born = born_distribution(s, ("q",))
    n = 10 ** 5
    counts = sample(born, n, rng)
    tv = 0.5 * sum(abs(c / n - p) for c, p in zip(counts, born))
    assert tv < 0.01


def test_norm_preserved_under_random_unitaries():
    rng = np.random.default_rng(11)
    layout = FactorLayout((("a", 2), ("b", 3)))
    for _ in range(50):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        out = apply(u, random_state(rng, layout), layout.names)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_reading_validation():
    layout = FactorLayout((("a", 2), ("b", 3)))
    s = ket(layout, 1, 0)
    with pytest.raises(LayoutError, match="no factor named 'q'"):
        born_distribution(s, ("q",))
    with pytest.raises(LayoutError, match="distinct factors"):
        born_distribution(s, ())
    with pytest.raises(LayoutError, match="distinct factors"):
        born_distribution(s, ("a", "b", "a"))
    # one probability per joint value, the first factor read the most significant
    assert born_distribution(s, ("b", "a")) == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert born_distribution(s, ("a", "b")) == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert born_distribution(s, ("b",)) == (1.0, 0.0, 0.0)


def test_product_spec_refuses_non_commuting_specs():
    # two angles on one qubit do not commute, so they are never one reading:
    # a reading names each factor once, and only factors of its state
    with pytest.raises(LayoutError, match="distinct factors"):
        born_distribution(ket(Q, 0), ("q", "q"))
    with pytest.raises(LayoutError):
        born_distribution(ket(Q, 0), ("r",))
    # readings of distinct factors commute, and their product is the joint reading
    layout = FactorLayout((("a", 2), ("c", 2)))
    pa = [np.kron(np.diag(np.eye(2)[k]), np.eye(2)) for k in (0, 1)]
    pc = [np.kron(np.eye(2), np.diag(np.eye(2)[k])) for k in (0, 1)]
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = StateVector(layout, amps / np.linalg.norm(amps))
    joint = born_distribution(s, ("a", "c"))
    for p, (i, j) in zip(joint, itertools.product((0, 1), (0, 1))):
        assert np.abs(pa[i] @ pc[j] - pc[j] @ pa[i]).max() == 0.0
        assert abs(p - np.vdot(s.amps, pa[i] @ pc[j] @ s.amps).real) <= 1e-15


def test_product_spec_keeps_zero_products():
    # on Phi+ the two cross outcomes of reading both qubits have probability
    # zero; they are kept, so that every joint value is an outcome
    layout = FactorLayout((("a", 2), ("c", 2)))
    phi = StateVector(layout, np.array([1, 0, 0, 1]) / math.sqrt(2))
    dist = born_distribution(phi, ("a", "c"))
    assert dist == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-15)
    assert dist[1] == 0.0 and dist[2] == 0.0


def test_angle_projectors_complete():
    # measuring along theta is rotate-then-read: its projectors R|k><k|R^dagger
    # are complete, and reading the rotated state gives their Born weights
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s = StateVector(Q, amps / np.linalg.norm(amps))
    for theta in (0.0, 30.0, 45.0, 90.0, 217.0):
        r = np.array(rotation_matrix(theta))
        ps = [np.outer(r[:, k], r[:, k].conj()) for k in (0, 1)]
        np.testing.assert_allclose(sum(ps), np.eye(2), atol=1e-12)
        rotated = apply(r.conj().T, s, ("q",))
        dist = born_distribution(rotated, ("q",))
        for p, proj in zip(dist, ps):
            assert abs(p - np.vdot(s.amps, proj @ s.amps).real) <= 1e-15


# derandomized so the suite's run time and outcome do not vary between runs
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.permutations(LAYOUT3.names).flatmap(
           lambda names: st.integers(1, 3).map(lambda k: tuple(names[:k]))),
       st.integers(0, 2 ** 32 - 1))
def test_reading_matches_the_kron_projectors(read, seed):
    # reference: the projector onto each joint value of the factors read, in
    # read order, built with np.kron over the layout's own factor order
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    s = StateVector(LAYOUT3, amps / np.linalg.norm(amps))
    dims = [dict(LAYOUT3.factors)[n] for n in read]
    dist = born_distribution(s, read)
    assert len(dist) == math.prod(dims)
    for p, values in zip(dist, itertools.product(*map(range, dims))):
        value_of = dict(zip(read, values))
        proj = functools.reduce(np.kron, [
            np.diag(np.eye(d)[value_of[n]]) if n in value_of else np.eye(d)
            for n, d in LAYOUT3.factors])
        assert abs(p - np.vdot(s.amps, proj @ s.amps).real) <= 1e-15
