import math

import numpy as np
import pytest

from friendlab.hilbert import (
    FactorLayout,
    LayoutError,
    MeasurementError,
    MeasurementSpec,
    StateVector,
    angle_projectors,
    born_distribution,
    factor_angle_spec,
    factor_basis_spec,
    lift,
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


def transform(u, s, on=None):
    """The state `u` makes of `s`, acting on the factors `on` (all if None)."""
    return StateVector(s.layout, lift(u, s.layout, on or s.layout.names) @ s.amps)


def test_apply_identity_and_flip():
    s = StateVector(Q, np.array([0.6, 0.8]))
    np.testing.assert_allclose(transform(np.eye(2), s).amps, s.amps)
    np.testing.assert_allclose(transform(np.array([[0, 1], [1, 0]]), ket(Q, 0)).amps, [0, 1])


def test_apply_rotation_twice_is_flip():
    # R(90) @ R(90) = [[0,-1],[1,0]]: |0> -> |1> exactly, no phase needed
    r = rotation_matrix(90.0)
    np.testing.assert_allclose(transform(r, transform(r, ket(Q, 0))).amps, [0, 1], atol=1e-12)


def test_apply_rejects_nonunitary_and_mismatch():
    # the norm check of the resulting state refuses a non-unitary's output
    with pytest.raises(ValueError, match="not normalized"):
        transform(np.array([[1, 0], [0, 2]]), ket(Q, 1))
    layout = FactorLayout((("a", 2), ("b", 2)))
    with pytest.raises(LayoutError):
        lift(np.eye(2), layout, ("a", "b"))
    with pytest.raises(LayoutError):
        lift(np.eye(2), layout, ("q",))


def test_apply_on_subset_matches_kron():
    layout = FactorLayout((("a", 2), ("b", 2), ("c", 2)))
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    u = rotation_matrix(37.0)
    got = transform(u, StateVector(layout, amps), on=("b",))
    want = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ amps
    np.testing.assert_allclose(got.amps, want, atol=1e-12)


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
def test_lift_matches_kron_order(on, kron_of):
    d = math.prod(LAYOUT3.dim_of(n) for n in on)
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    full = lift(m, LAYOUT3, on)
    np.testing.assert_allclose(full, kron_of(m), atol=1e-14)
    assert full.shape == (12, 12) and not full.flags.writeable


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
        u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        amps /= np.linalg.norm(amps)
        out = transform(u, StateVector(layout, amps))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_measurement_spec_validation():
    p0 = np.diag([1.0, 0.0])
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, p0),))  # incomplete
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, p0), (1, p0)))  # not orthogonal
    with pytest.raises(MeasurementError):
        MeasurementSpec(Q, ((0, np.array([[0.5, 0.5], [0.5, 0.5]]) * 2),))
    p1 = np.diag([0.0, 1.0])
    with pytest.raises(MeasurementError, match="not Hermitian"):
        MeasurementSpec(Q, ((0, np.array([[1.0, 1.0], [0.0, 0.0]])), (1, p1)))
    with pytest.raises(MeasurementError, match="distinct"):
        MeasurementSpec(Q, ((0, p0), (0, p1)))
    with pytest.raises(LayoutError):
        MeasurementSpec(Q, ((0, np.eye(3)),))
    spec = MeasurementSpec(Q, ((0, p0), (1, p1)))
    assert spec.labels == (0, 1) and not spec.outcomes[0][1].flags.writeable


def test_product_spec_refuses_non_commuting_specs():
    # 0 and 45 degrees on the same qubit: the projectors do not commute
    with pytest.raises(MeasurementError, match="do not commute"):
        product_spec(factor_angle_spec(Q, "q", 0.0), factor_angle_spec(Q, "q", 45.0))
    with pytest.raises(LayoutError):
        product_spec(factor_angle_spec(Q, "q", 0.0), factor_angle_spec(R, "r", 0.0))


def test_product_spec_keeps_zero_products():
    # a spec with itself commutes; its two cross products are zero projectors,
    # kept so that every (label_a, label_b) pair is an outcome
    spec = product_spec(z_spec(), z_spec())
    assert spec.labels == ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
    assert [float(np.abs(p).max()) for _, p in spec.outcomes] == [1.0, 0.0, 0.0, 1.0]
    assert not any(p.flags.writeable for _, p in spec.outcomes)
    MeasurementSpec(spec.layout, spec.outcomes)  # the full check passes


def test_angle_projectors_complete():
    for theta in (0.0, 30.0, 45.0, 90.0, 217.0):
        ps = angle_projectors(theta)
        total = sum(p for _, p in ps)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

