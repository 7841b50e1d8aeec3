import math

import numpy as np
import pytest

from friendlab.statlab import (
    PAIR_CELLS,
    EmpiricalDist,
    check,
    chsh_estimate,
    correlation_estimate,
    total_variation,
)


def table(*counts):
    return EmpiricalDist(PAIR_CELLS, counts)


def test_empirical_dist_validation():
    with pytest.raises(ValueError):
        EmpiricalDist(("a", "b"), (1,))
    with pytest.raises(ValueError):
        EmpiricalDist(("a", "b"), (1, -1))
    with pytest.raises(ValueError):
        EmpiricalDist(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        EmpiricalDist(("a", "b"), (0, 0)).freq("a")


def test_empirical_dist_freqs_and_total():
    d = EmpiricalDist(("x", "y", "z"), (3, 1, 0))
    assert d.total == 4
    assert d.freq("y") == 0.25
    assert d.freqs() == {"x": 0.75, "y": 0.25, "z": 0.0}


def test_total_variation_examples():
    p = {"a": 0.5, "b": 0.5}
    assert total_variation(p, p) == 0.0
    assert total_variation(p, {"a": 1.0, "b": 0.0}) == pytest.approx(0.5)
    assert total_variation({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}) == pytest.approx(1.0)


def test_total_variation_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    support = ("a", "b", "c", "d")
    for _ in range(50):
        ps = [dict(zip(support, v / v.sum())) for v in rng.random((3, 4))]
        assert total_variation(ps[0], ps[1]) == pytest.approx(total_variation(ps[1], ps[0]))
        assert total_variation(ps[0], ps[2]) <= (
            total_variation(ps[0], ps[1]) + total_variation(ps[1], ps[2]) + 1e-12)


def test_total_variation_mixed_argument_types():
    d = table(1, 1, 1, 1)
    target = {cell: 0.25 for cell in PAIR_CELLS}
    assert total_variation(d, target) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        total_variation(d, {"a": 1.0})


def test_correlation_estimate_frozen_example():
    # 2000 samples, 854 in each agreeing cell and 146 in each disagreeing one:
    # E = (1708 - 292) / 2000 = 0.708, stderr = sqrt((1 - 0.708^2)/2000)
    d = table(854, 146, 146, 854)
    e, stderr = correlation_estimate(d)
    assert e == pytest.approx(0.708)
    assert stderr == pytest.approx(math.sqrt((1 - 0.708 ** 2) / 2000), abs=1e-12)


def test_correlation_estimate_extremes():
    assert correlation_estimate(table(5, 0, 0, 5)) == (1.0, 0.0)
    e, _ = correlation_estimate(table(0, 5, 5, 0))
    assert e == -1.0
    with pytest.raises(ValueError):
        correlation_estimate(table(1, 0, 0, 0))
    with pytest.raises(ValueError):
        correlation_estimate(EmpiricalDist(("a", "b"), (1, 1)))


def test_chsh_estimate_perfect_tables():
    aligned = table(500, 0, 0, 500)
    anti = table(0, 500, 500, 0)
    s, stderr = chsh_estimate({"AC": aligned, "BC": aligned, "BD": aligned, "AD": anti})
    assert s == pytest.approx(4.0)
    assert stderr == pytest.approx(0.0)
    with pytest.raises(ValueError):
        chsh_estimate({"AC": aligned})


def test_estimator_consistency_under_growing_samples():
    # soundness of the stderr: the estimate converges to the truth at the
    # advertised rate
    rng = np.random.default_rng(42)
    e_true = math.cos(math.radians(45.0))
    probs = np.array([(1 + x * y * e_true) / 4 for x, y in PAIR_CELLS])
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        counts = rng.multinomial(n, probs)
        e, stderr = correlation_estimate(table(*(int(c) for c in counts)))
        assert abs(e - e_true) < 4 * stderr + 1e-12
        assert stderr == pytest.approx(math.sqrt((1 - e * e) / n))


def test_tolerance_report():
    assert check("demo", 0.01, 0.05, n=100) == {"name": "demo", "metric": "abs-diff",
                                                "observed": 0.01, "threshold": 0.05,
                                                "pass": True, "n": 100}
    assert check("edge", 0.05, 0.05, n=10, metric="TV")["pass"]
    assert not check("over", 0.051, 0.05, n=10, metric="TV")["pass"]
    # integer counts are reported as floats, so JSON reports keep one type
    assert check("count", 3, 0.0) == {"name": "count", "metric": "abs-diff",
                                      "observed": 3.0, "threshold": 0.0,
                                      "pass": False, "n": 0}
