import math
from fractions import Fraction

import numpy as np
import pins
import pytest

from friendlab import statlab
from friendlab.statlab import (
    PAIR_CELLS,
    check,
    chi2_critical,
    chsh,
    chsh_estimate,
    correlation_estimate,
    correlator,
    freqs,
    homogeneity,
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


def test_correlation_estimate_takes_two_samples():
    # the least sample it takes: two runs give E and its standard error
    assert correlation_estimate((1, 0, 0, 1)) == (1.0, 0.0)
    assert correlation_estimate((1, 1, 0, 0)) == (0.0, math.sqrt(0.5))


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


# chi-squared critical values (upper quantiles) from the standard tables:
# {df: {alpha: x with P(X > x) = alpha}}
CHI2_TABLE = {1: {0.05: 3.8415, 0.01: 6.6349, 0.001: 10.8276},
              2: {0.05: 5.9915, 0.01: 9.2103, 0.001: 13.8155},
              3: {0.05: 7.8147, 0.01: 11.3449, 0.001: 16.2662}}


def test_chi2_critical_matches_tabulated_values():
    for df, row in CHI2_TABLE.items():
        for alpha, x in row.items():
            assert chi2_critical(alpha, df) == pytest.approx(x, abs=5e-5)
    # df = 2 has the closed form -2 ln(alpha)
    assert chi2_critical(5e-4, 2) == pytest.approx(-2 * math.log(5e-4), rel=1e-14)
    with pytest.raises(KeyError):  # closed forms for 1 to 3 degrees of freedom only
        chi2_critical(0.05, 4)


@pytest.mark.parametrize("df", [1, 2, 3])
def test_chi2_critical_is_the_least_float_whose_tail_is_at_most_alpha(df):
    # alpha is the tail at a float, so some float's tail equals alpha exactly:
    # the critical value admits it, and the float just below it has a larger tail
    tail = statlab._CHI2_TAIL[df]
    for x0 in (1.0, 7.5, 20.0):
        alpha = tail(x0)
        x = chi2_critical(alpha, df)
        assert x <= x0 and tail(x) <= alpha < tail(math.nextafter(x, 0.0))


def test_homogeneity_statistic():
    # 2 x 2: rows (15, 25) over columns of 20 give expected 7.5 and 12.5, and
    # each cell is off by 2.5: 2 * 2.5^2 / 7.5 + 2 * 2.5^2 / 12.5 = 8/3
    test = homogeneity([(10, 10), (5, 15)], 0.05)
    assert test["statistic"] == pytest.approx(8 / 3, rel=1e-15)
    assert test["df"] == 1 and test["critical"] == chi2_critical(0.05, 1)
    # equal proportions give 0, and so does an empty row
    assert homogeneity([(3, 9), (1, 3), (5, 15)], 0.05)["statistic"] == 0.0
    assert homogeneity([(4, 0), (7, 0)], 0.05)["statistic"] == 0.0
    assert homogeneity([(1, 2)] * 4, 0.01)["df"] == 3


def test_homogeneity_is_exact_at_any_total():
    # the statistic grows with the total at fixed proportions; each term is an
    # int ratio, so columns scaled by 2**60 (past any float64 count) give the
    # scaled statistic to the last few ulps
    rng = np.random.default_rng(4)
    for _ in range(50):
        columns = [tuple(int(c) for c in rng.integers(1, 1000, 2)) for _ in range(4)]
        small = homogeneity(columns, 0.01)["statistic"]
        big = homogeneity([(a << 60, b << 60) for a, b in columns], 0.01)["statistic"]
        assert big == pytest.approx(small * 2 ** 60, rel=1e-14)
        # and it is Pearson's sum of (O - E)^2 / E over the eight cells
        rows = [sum(c[i] for c in columns) for i in (0, 1)]
        total = sum(rows)
        pearson = sum((o - r * sum(c) / total) ** 2 / (r * sum(c) / total)
                      for c in columns for o, r in zip(c, rows))
        assert small == pytest.approx(pearson, rel=1e-12)


def test_float_sums_are_the_same_on_every_python():
    assert pins.float_sums() == pins.FLOAT_SUM_PINS["values"]
