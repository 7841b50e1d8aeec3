import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from friendlab import marginal_polytope as mp
from friendlab.scenarios import LFConfig
from friendlab.statlab import correlator

UNIFORM = mp.PairTargets({pair: (Fraction(1, 4),) * 4 for pair in mp.PAIR_IDS})


def product_targets(pa, pb, pc, pd):
    """Targets of four independent biased coins P(var=+1)."""
    singles = {"A": pa, "B": pb, "C": pc, "D": pd}
    p = {v: Fraction(s) for v, s in singles.items()}
    tables = {}
    for pair in mp.PAIR_IDS:
        v, w = pair[0], pair[1]
        tables[pair] = tuple((p[v] if x == 1 else 1 - p[v]) * (p[w] if y == 1 else 1 - p[w])
                             for x, y in mp.PAIR_CELLS)
    return mp.PairTargets(tables)


def test_targets_validation():
    bad = {pair: (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
           for pair in mp.PAIR_IDS}
    bad["AC"] = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(mp.TargetError):
        mp.PairTargets(bad)
    bad["AC"] = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    with pytest.raises(mp.TargetError):
        mp.PairTargets(bad)


def test_targets_inconsistent_singles_is_input_error():
    tables = {pair: (Fraction(1, 4),) * 4 for pair in mp.PAIR_IDS}
    # A-marginal is 1/2 in AC but 3/4 in AD
    tables["AD"] = (Fraction(3, 8), Fraction(3, 8), Fraction(1, 8), Fraction(1, 8))
    with pytest.raises(mp.TargetError):
        mp.PairTargets(tables)


def test_chsh_uniform_is_zero():
    assert mp.chsh_value(UNIFORM) == 0


def test_chsh_extreme_box_is_four():
    assert mp.chsh_value(mp.PairTargets.pr_box()) == 4


def test_chsh_tsirelson_from_angles():
    t = mp.PairTargets.from_angles(LFConfig())
    assert abs(float(mp.chsh_value(t)) - 2 * 2 ** 0.5) < 1e-5
    # every cell is rationalized with bounded denominator
    for pair in mp.PAIR_IDS:
        assert all(v.denominator <= 4 * 10 ** 6 for v in t.tables[pair])


def test_chsh_variants_count_and_default():
    t = mp.PairTargets.from_angles(LFConfig())
    variants = {signs: Fraction(v, t.scale) for signs, v in t.variants.items()}
    assert len(variants) == 8
    assert variants[(+1, -1, +1, +1)] == mp.chsh_value(t)


def test_product_targets_feasible_with_exact_witness():
    t = product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))
    verdict = mp.feasible_joint_4(t)
    assert verdict.feasible
    assert mp.reproduces(mp.VARS_4, verdict.witness, t)


def test_tsirelson_infeasible_with_enumeration_oracle():
    # Oracle: every deterministic assignment of (A,B,C,D) has |S| <= 2, so no
    # convex combination can reach the quantum value above 2.
    for a, b, c, d in itertools.product((+1, -1), repeat=4):
        s = a * c + b * c + b * d - a * d
        assert abs(s) <= 2
    t = mp.PairTargets.from_angles(LFConfig())
    assert mp.chsh_value(t) > 2
    verdict = mp.feasible_joint_4(t)
    assert not verdict.feasible
    assert verdict.max_violation > 0
    assert float(verdict.max_violation) == pytest.approx(2 * 2 ** 0.5 - 2, abs=1e-5)


def shrunk_targets():
    half = Fraction(1, 2)
    return mp.PairTargets.from_correlators(
        {v: half for v in mp.VARS_4},
        {"AC": half, "BC": half, "BD": half, "AD": -half})


def test_shrunk_targets_feasible_at_boundary():
    t = shrunk_targets()
    assert mp.chsh_value(t) == 2
    verdict = mp.feasible_joint_4(t)
    assert verdict.feasible
    assert mp.reproduces(mp.VARS_4, verdict.witness, t)


def test_six_variable_matches_four_variable_on_examples():
    for t in (UNIFORM, shrunk_targets(),
              mp.PairTargets.from_angles(LFConfig()),
              product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))):
        assert mp.feasible_joint_6(t).feasible == mp.feasible_joint_4(t).feasible


def test_six_variable_witness_reproduces_composites():
    t = product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))
    verdict = mp.feasible_joint_6(t)
    assert verdict.feasible
    assert mp.reproduces(mp.VARS_6, verdict.witness, t)


def test_constructive_six_variable_witness_from_four():
    # split each four-variable atom by a uniform internal coin and the
    # relation forced by A = Ai * Ar; the induced pair marginals must match
    t = shrunk_targets()
    w4 = mp.feasible_joint_4(t).witness
    probs = {assign: Fraction(0) for assign in itertools.product((+1, -1), repeat=6)}
    for (a, b, c, d), p in zip(itertools.product((+1, -1), repeat=4), w4):
        for ai in (+1, -1):
            for ci in (+1, -1):
                probs[(ai, a * ai, b, ci, c * ci, d)] += p / 4
    w6 = [probs[assign] for assign in itertools.product((+1, -1), repeat=6)]
    assert mp.reproduces(mp.VARS_6, w6, t)


def test_fine_criterion_examples():
    assert mp.fine_criterion(UNIFORM)
    assert mp.fine_criterion(shrunk_targets())
    assert not mp.fine_criterion(mp.PairTargets.from_angles(LFConfig()))
    assert not mp.fine_criterion(mp.PairTargets.pr_box())


def test_fine_criterion_agrees_with_both_lps_on_random_targets():
    rng = np.random.default_rng(100)
    saw_feasible = saw_infeasible = 0
    for _ in range(200):
        t = mp.random_pair_targets(rng)
        fine = mp.fine_criterion(t)
        v4 = mp.feasible_joint_4(t)
        v6 = mp.feasible_joint_6(t)
        assert fine == v4.feasible == v6.feasible
        if v4.feasible:
            saw_feasible += 1
            assert mp.reproduces(mp.VARS_4, v4.witness, t)
            assert mp.reproduces(mp.VARS_6, v6.witness, t)
        else:
            saw_infeasible += 1
            assert v4.max_violation > 0
    assert saw_feasible > 10 and saw_infeasible > 10


def single(t, var):
    """P(var = +1) from the first table that holds var."""
    pair = next(p for p in mp.PAIR_IDS if var in p)
    table = t.tables[pair]
    return table[0] + (table[1] if pair[0] == var else table[2])


def moment_form_feasible(t):
    """Reference LP over the same 16 atoms, constrained by normalization, the
    4 single-variable expectations and the 4 pair correlators instead of the
    17 cell equations."""
    atoms = list(itertools.product((+1, -1), repeat=4))
    index = {v: k for k, v in enumerate(mp.VARS_4)}
    rows = [[1] * len(atoms)] + [[a[k] for a in atoms] for k in range(4)]
    rhs = [Fraction(1)] + [2 * single(t, v) - 1 for v in mp.VARS_4]
    for pair in mp.PAIR_IDS:
        i, j = index[pair[0]], index[pair[1]]
        rows.append([a[i] * a[j] for a in atoms])
        rhs.append(correlator(t.tables[pair]))
    return mp.solve_nonnegative(rows, rhs) is not None


def test_moment_form_cross_check():
    rng = np.random.default_rng(200)
    for _ in range(100):
        t = mp.random_pair_targets(rng)
        assert moment_form_feasible(t) == mp.feasible_joint_4(t).feasible


def test_monotone_mix_toward_uniform_preserves_feasibility():
    t = shrunk_targets()
    for lam in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        mixed = t.mix(UNIFORM, lam)
        assert mp.feasible_joint_4(mixed).feasible


def test_infeasible_mix_becomes_feasible_below_boundary():
    tsirelson = mp.PairTargets.from_angles(LFConfig())
    assert not mp.feasible_joint_4(tsirelson.mix(UNIFORM, Fraction(9, 10))).feasible
    assert mp.feasible_joint_4(tsirelson.mix(UNIFORM, Fraction(1, 2))).feasible


def test_verdict_invariants():
    with pytest.raises(ValueError):
        mp.FeasibilityVerdict(True, None, None)
    with pytest.raises(ValueError):
        mp.FeasibilityVerdict(False, None, Fraction(0))


def test_targets_json_round_trip():
    t = mp.PairTargets.from_angles(LFConfig())
    back = mp.PairTargets.from_json_dict(t.to_json_dict())
    assert back.tables == t.tables


def test_targets_json_accepts_decimals():
    obj = {pair: [[0.25, 0.25], [0.25, 0.25]] for pair in mp.PAIR_IDS}
    t = mp.PairTargets.from_json_dict(obj)
    assert t.tables["AC"] == (Fraction(1, 4),) * 4
    # exponents are taken as written up to MAX_EXPONENT, and refused beyond
    singles = dict.fromkeys(mp.VARS_4, "5E-1")
    zero = dict.fromkeys(mp.PAIR_IDS, f"0e{mp.MAX_EXPONENT}")
    assert mp.PairTargets.from_correlators(singles, zero) == UNIFORM
    with pytest.raises(mp.TargetError):
        mp.PairTargets.from_correlators(singles, dict.fromkeys(mp.PAIR_IDS,
                                                               f"0e-{mp.MAX_EXPONENT + 1}"))


def test_decimal_and_fraction_spellings_get_the_same_verdict():
    # AC = 0.5000001 puts S at 2 + 1e-7: infeasible however it is written
    verdicts = set()
    for ac in ("0.5000001", "5000001/10000000"):
        t = mp.PairTargets.from_correlators(
            {v: "1/2" for v in mp.VARS_4}, {"AC": ac, "BC": "1/2", "BD": "1/2", "AD": "-1/2"})
        assert mp.chsh_value(t) == Fraction(20000001, 10 ** 7)
        verdicts.add(mp.feasible_joint_4(t).feasible)
        # the same cells written as exact decimals parse to the same targets
        decimal = {pair: [[str(Decimal(Fraction(v).numerator) / Decimal(Fraction(v).denominator))
                           for v in row] for row in rows]
                   for pair, rows in t.to_json_dict().items()}
        assert decimal["AC"][0][0] == "0.375000025"
        assert mp.PairTargets.from_json_dict(decimal).tables == t.tables
    assert verdicts == {False}


def test_simplex_rejects_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert mp.solve_nonnegative(rows, [Fraction(1), Fraction(2)]) is None


def test_simplex_finds_degenerate_solution():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    x = mp.solve_nonnegative(rows, [Fraction(0), Fraction(1)])
    assert x == [Fraction(0), Fraction(1)]
