import math

import numpy as np
import pytest

from friendlab.hilbert import (
    FactorLayout,
    LayoutError,
    MeasurementError,
    MeasurementSpec,
    Operator,
    OperatorError,
    StateVector,
    angle_projectors,
    apply,
    born_distribution,
    embed,
    factor_angle_spec,
    factor_basis_spec,
    product_spec,
    rotation_matrix,
    sample_outcomes,
)

Q = FactorLayout((("q", 2),))
R = FactorLayout((("r", 2),))


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


def test_apply_identity_and_flip():
    s = StateVector(Q, np.array([0.6, 0.8]))
    eye = Operator(Q, np.eye(2))
    np.testing.assert_allclose(apply(eye, s).amps, s.amps)
    flip = Operator(Q, np.array([[0, 1], [1, 0]]))
    np.testing.assert_allclose(apply(flip, ket(Q, 0)).amps, [0, 1])


def test_apply_rotation_twice_is_flip():
    # R(90) @ R(90) = [[0,-1],[1,0]]: |0> -> |1> exactly, no phase needed
    r = Operator(Q, rotation_matrix(90.0))
    s = apply(r, apply(r, ket(Q, 0)))
    np.testing.assert_allclose(s.amps, [0, 1], atol=1e-12)


def test_apply_rejects_nonunitary_and_mismatch():
    with pytest.raises(OperatorError):
        apply(Operator(Q, np.array([[1, 0], [0, 2]])), ket(Q, 0))
    layout = FactorLayout((("a", 2), ("b", 2)))
    with pytest.raises(LayoutError):
        apply(Operator(Q, np.eye(2)), ket(layout, 0, 0), on=("a", "b"))


def test_apply_on_subset_matches_kron():
    layout = FactorLayout((("a", 2), ("b", 2), ("c", 2)))
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    s = StateVector(layout, amps)
    u = rotation_matrix(37.0)
    got = apply(Operator(FactorLayout((("b", 2),)), u), s, on=("b",))
    want = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ amps
    np.testing.assert_allclose(got.amps, want, atol=1e-12)


def test_embed_matches_kron_order():
    layout = FactorLayout((("a", 2), ("b", 2)))
    u = rotation_matrix(63.0)
    full = embed(Operator(FactorLayout((("b", 2),)), u), layout, ("b",))
    np.testing.assert_allclose(full.matrix, np.kron(np.eye(2), u), atol=1e-14)


def z_spec():
    return factor_basis_spec(Q, "q", labels=(+1, -1))


def test_born_computational_basis():
    dist = dict(born_distribution(ket(Q, 0), z_spec()))
    assert dist == {+1: 1.0, -1: 0.0}
    plus = StateVector(Q, np.array([1, 1]) / math.sqrt(2))
    dist = dict(born_distribution(plus, z_spec()))
    assert abs(dist[+1] - 0.5) < 1e-12 and abs(dist[-1] - 0.5) < 1e-12


def test_born_bell_state_angle_correlation():
    # Oracle: direct 4-dim enumeration of <phi+| Pa (x) Pc |phi+> with
    # explicitly written projectors, independent of the library's spec
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

    spec = product_spec(factor_angle_spec(layout, "a", 0.0),
                        factor_angle_spec(layout, "c", 45.0))
    e = sum(la * lc * p for (la, lc), p in born_distribution(phi, spec))
    assert abs(e - oracle) < 1e-12


def test_sampling_deterministic():
    assert sample_outcomes(ket(Q, 0), z_spec(), 1, np.random.default_rng(0)).tolist() == [0]
    plus = StateVector(Q, np.array([1, 1]) / math.sqrt(2))
    seq1 = sample_outcomes(plus, z_spec(), 20, np.random.default_rng(123))
    seq2 = sample_outcomes(plus, z_spec(), 20, np.random.default_rng(123))
    assert seq1.tolist() == seq2.tolist()


def _loop_sample(dist, u):
    """Reference: walk the positive-probability outcomes, accumulating."""
    acc, last = 0.0, None
    for i, (_, pr) in enumerate(dist):
        if pr > 0:
            acc, last = acc + pr, i
            if u < acc:
                return i
    return last


def test_sampling_matches_the_per_sample_loop():
    layout = FactorLayout((("a", 2), ("b", 3)))
    spec = factor_basis_spec(layout, "b")
    rng = np.random.default_rng(5)
    for k in range(20):
        amps = (rng.standard_normal(6) + 1j * rng.standard_normal(6)).reshape(2, 3)
        amps[:, k % 3] *= k % 2  # every other state gives one outcome probability 0
        s = StateVector(layout, amps / np.linalg.norm(amps))
        dist = born_distribution(s, spec)
        u = np.random.default_rng(k).random(1000)
        batched = sample_outcomes(s, spec, 1000, np.random.default_rng(k))
        assert batched.tolist() == [_loop_sample(dist, x) for x in u]


def test_sampling_concentration():
    plus = StateVector(Q, np.array([1, 1]) / math.sqrt(2))
    rng = np.random.default_rng(77)
    n = 10 ** 5
    hits = int((sample_outcomes(plus, z_spec(), n, rng) == z_spec().labels.index(+1)).sum())
    assert abs(hits / n - 0.5) < 0.01


def test_sampling_total_variation_soundness():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps /= np.linalg.norm(amps)
    s = StateVector(Q, amps)
    dist = dict(born_distribution(s, z_spec()))
    n = 10 ** 5
    counts = dict(zip(z_spec().labels, np.bincount(sample_outcomes(s, z_spec(), n, rng),
                                                   minlength=2)))
    tv = 0.5 * sum(abs(counts[k] / n - dist[k]) for k in dist)
    assert tv < 0.01


def test_norm_preserved_under_random_unitaries():
    rng = np.random.default_rng(11)
    layout = FactorLayout((("a", 2), ("b", 3)))
    for _ in range(50):
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        u = Operator(layout, v @ np.diag(np.exp(1j * w)) @ v.conj().T)
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        amps /= np.linalg.norm(amps)
        out = apply(u, StateVector(layout, amps))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_measurement_spec_validation():
    p0 = np.diag([1.0, 0.0])
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, p0),))  # incomplete
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, p0), (1, p0)))  # not orthogonal
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, np.array([[0.5, 0.5], [0.5, 0.5]]) * 2),))


def test_angle_projectors_complete():
    for theta in (0.0, 30.0, 45.0, 90.0, 217.0):
        ps = angle_projectors(theta)
        total = sum(p for _, p in ps)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

