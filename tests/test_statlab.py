import math
from fractions import Fraction

import numpy as np
import pytest

from friendlab.statlab import (
    PAIR_CELLS,
    check,
    chsh,
    chsh_estimate,
    correlation_estimate,
    correlator,
    freqs,
    total_variation,
)


def test_freqs_of_a_count_table():
    assert freqs((3, 1, 0, 0)) == (0.75, 0.25, 0.0, 0.0)
    with pytest.raises(ValueError):
        freqs((0, 0, 0, 0))


def test_correlator_and_chsh_on_counts_floats_and_fractions():
    assert correlator((3, 1, 2, 5)) == 5
    assert correlator((Fraction(1, 2), 0, 0, Fraction(1, 2))) == 1
    assert correlator((0.25, 0.25, 0.25, 0.25)) == 0.0
    # correlators in PAIR_IDS order AC, AD, BC, BD: S = AC + BC + BD - AD
    assert chsh((1, 2, 4, 8)) == 11
    assert chsh((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2))) == 2
    with pytest.raises(ValueError):
        chsh((1, 2, 3))


def test_correlator_matches_the_signed_cell_sum_bit_for_bit():
    # E is written once, as t[0] - t[1] - t[2] + t[3]; on float tables it
    # must give the bits of the signed sum over the cells that it replaces
    rng = np.random.default_rng(1)
    for v in rng.random((300, 4)):
        t = tuple(float(p) for p in v / v.sum())
        assert correlator(t) == sum(x * y * p for (x, y), p in zip(PAIR_CELLS, t))


def test_total_variation_examples():
    p = (0.5, 0.5, 0.0, 0.0)
    assert total_variation(p, p) == 0.0
    assert total_variation(p, (1.0, 0.0, 0.0, 0.0)) == pytest.approx(0.5)
    assert total_variation((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert total_variation(freqs((1, 1, 1, 1)), (0.25,) * 4) == 0.0
    with pytest.raises(ValueError):
        total_variation(p, (1.0,))


def test_total_variation_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ps = [tuple(v / v.sum()) for v in rng.random((3, 4))]
        assert total_variation(ps[0], ps[1]) == pytest.approx(total_variation(ps[1], ps[0]))
        assert total_variation(ps[0], ps[2]) <= (
            total_variation(ps[0], ps[1]) + total_variation(ps[1], ps[2]) + 1e-12)


def test_total_variation_mixed_argument_types():
    # float frequencies against an exact Fraction table or a list of ints
    d = (1, 1, 1, 1)
    assert total_variation(freqs(d), (Fraction(1, 4),) * 4) == pytest.approx(0.0)
    assert total_variation(freqs((1, 0, 0, 0)), [0, 1, 0, 0]) == pytest.approx(1.0)
    assert total_variation((Fraction(1, 2), Fraction(1, 2), 0, 0),
                           (Fraction(1, 4),) * 4) == Fraction(1, 2)
    with pytest.raises(ValueError):
        total_variation(freqs(d), (1.0,))


def test_correlation_estimate_frozen_example():
    # 2000 samples, 854 in each agreeing cell and 146 in each disagreeing one:
    # E = (1708 - 292) / 2000 = 0.708, stderr = sqrt((1 - 0.708^2)/2000)
    d = (854, 146, 146, 854)
    e, stderr = correlation_estimate(d)
    assert e == pytest.approx(0.708)
    assert stderr == pytest.approx(math.sqrt((1 - 0.708 ** 2) / 2000), abs=1e-12)


def test_correlation_estimate_extremes():
    assert correlation_estimate((5, 0, 0, 5)) == (1.0, 0.0)
    e, _ = correlation_estimate((0, 5, 5, 0))
    assert e == -1.0
    with pytest.raises(ValueError):
        correlation_estimate((1, 0, 0, 0))


def test_chsh_estimate_perfect_tables():
    aligned = (500, 0, 0, 500)
    anti = (0, 500, 500, 0)
    # tables in PAIR_IDS order AC, AD, BC, BD
    s, stderr = chsh_estimate((aligned, anti, aligned, aligned))
    assert s == pytest.approx(4.0)
    assert stderr == pytest.approx(0.0)
    # a missing or an extra table is an error
    for tables in ((aligned,), (aligned, anti, aligned), (aligned, anti, aligned, aligned, anti)):
        with pytest.raises(ValueError):
            chsh_estimate(tables)


def test_estimator_consistency_under_growing_samples():
    # soundness of the stderr: the estimate converges to the truth at the
    # advertised rate
    rng = np.random.default_rng(42)
    e_true = math.cos(math.radians(45.0))
    probs = np.array([(1 + x * y * e_true) / 4 for x, y in PAIR_CELLS])
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        counts = rng.multinomial(n, probs)
        e, stderr = correlation_estimate(tuple(int(c) for c in counts))
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
