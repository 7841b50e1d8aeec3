import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import simplex_oracle

from fraction_targets import (fraction_tables, from_tables, mix, pr_box, reference_marginals,
                              targets_json)
from friendlab import marginal_polytope as mp
from friendlab.scenarios import LFConfig, circuit_targets
from friendlab.statlab import CHSH_SIGNS, correlator

UNIFORM = from_tables({pair: (Fraction(1, 4),) * 4 for pair in mp.PAIR_IDS})


def product_targets(pa, pb, pc, pd):
    """Targets of four independent biased coins P(var=+1)."""
    singles = {"A": pa, "B": pb, "C": pc, "D": pd}
    p = {v: Fraction(s) for v, s in singles.items()}
    tables = {}
    for pair in mp.PAIR_IDS:
        v, w = pair[0], pair[1]
        tables[pair] = tuple((p[v] if x == 1 else 1 - p[v]) * (p[w] if y == 1 else 1 - p[w])
                             for x, y in mp.PAIR_CELLS)
    return from_tables(tables)


def chsh_value(t):
    """S, the engine's CHSH_SIGNS variant, an int over t.scale, as a Fraction."""
    return Fraction(t.variants[CHSH_SIGNS], t.scale)


def violation(verdict, t):
    """An infeasible verdict's max_violation, an int over t.scale, as a Fraction."""
    return Fraction(verdict.max_violation, t.scale)


def test_targets_validation():
    bad = {pair: (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
           for pair in mp.PAIR_IDS}
    bad["AC"] = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(mp.TargetError):
        from_tables(bad)
    bad["AC"] = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    with pytest.raises(mp.TargetError):
        from_tables(bad)


def test_targets_inconsistent_singles_is_input_error():
    tables = {pair: (Fraction(1, 4),) * 4 for pair in mp.PAIR_IDS}
    # A-marginal is 1/2 in AC but 3/4 in AD
    tables["AD"] = (Fraction(3, 8), Fraction(3, 8), Fraction(1, 8), Fraction(1, 8))
    with pytest.raises(mp.TargetError):
        from_tables(tables)


UNIFORM_COUNTS = {pair: (1, 1, 1, 1) for pair in mp.PAIR_IDS}
DOUBLED_COUNTS = {pair: (2, 2, 2, 2) for pair in mp.PAIR_IDS}


@pytest.mark.parametrize("scale, counts, message", [
    (4, {"AC": (1, 1, 1, 1), "AD": (1, 1, 1, 1), "BC": (1, 1, 1, 1)},
     "need tables for exactly ('AC', 'AD', 'BC', 'BD'), got ['AC', 'AD', 'BC']"),
    (4, {**UNIFORM_COUNTS, "DA": (1, 1, 1, 1)},
     "need tables for exactly ('AC', 'AD', 'BC', 'BD'), got ['AC', 'AD', 'BC', 'BD', 'DA']"),
    (4, {**UNIFORM_COUNTS, "AD": (2, 1, 1)}, "table AD must have 4 cells"),
    (4, {**UNIFORM_COUNTS, "BC": (2, 3, -1, 0)}, "table BC has a negative cell"),
    (4, {**UNIFORM_COUNTS, "BD": (1, 1, 1, 2)}, "table BD does not sum to 1"),
    (0, {pair: (0, 0, 0, 0) for pair in mp.PAIR_IDS}, "table AC does not sum to 1"),
    # one table at a time moves one marginal, the earlier ones in A, B, C, D
    # order still agreeing; common factors do not change which disagrees
    (4, {**UNIFORM_COUNTS, "AD": (2, 1, 0, 1)},
     "single-variable marginal of A disagrees between AC and AD"),
    (4, {**UNIFORM_COUNTS, "BD": (2, 1, 0, 1)},
     "single-variable marginal of B disagrees between BC and BD"),
    (4, {**UNIFORM_COUNTS, "BC": (2, 0, 1, 1)},
     "single-variable marginal of C disagrees between AC and BC"),
    (4, {**UNIFORM_COUNTS, "BD": (2, 0, 1, 1)},
     "single-variable marginal of D disagrees between AD and BD"),
    (8, {**DOUBLED_COUNTS, "BD": (4, 0, 2, 2)},
     "single-variable marginal of D disagrees between AD and BD"),
])
def test_each_validation_names_its_fault(scale, counts, message):
    with pytest.raises(mp.TargetError) as refused:
        mp.PairTargets(scale, counts)
    assert str(refused.value) == message


def test_counts_are_reduced_to_lowest_terms():
    doubled = mp.PairTargets(8, {pair: (2, 2, 2, 2) for pair in mp.PAIR_IDS})
    assert doubled.scale == 4 and doubled.counts == {pair: (1, 1, 1, 1) for pair in mp.PAIR_IDS}
    assert doubled == UNIFORM


def test_random_targets_match_the_fraction_mix_of_the_same_draws():
    for seed in range(250):
        rng = np.random.default_rng(seed)
        weights = [int(w) for w in rng.integers(0, mp.RANDOM_GRID, size=16)]
        if not any(weights):
            weights[0] = 1
        lam = Fraction(int(rng.integers(0, mp.RANDOM_GRID + 1)), mp.RANDOM_GRID)
        local = reference_marginals(mp.VARS_4, [Fraction(w, sum(weights)) for w in weights])
        expected = mix(pr_box(), from_tables(local), lam)
        t = mp.random_pair_targets(np.random.default_rng(seed))
        assert (t.scale, t.counts) == (expected.scale, expected.counts)


def test_random_targets_put_an_all_zero_draw_on_the_first_atom():
    # 16 zero weights (odds 64^-16) become weight 1 on A = B = C = D = +1
    class Zeros:  # every draw at its lower bound
        def integers(self, low, high, size=None):
            return [0] * size if size else 0
    t = mp.random_pair_targets(Zeros())
    assert (t.scale, t.counts) == (1, {pair: (1, 0, 0, 0) for pair in mp.PAIR_IDS})


def test_chsh_uniform_is_zero():
    assert chsh_value(UNIFORM) == 0


def test_chsh_extreme_box_is_four():
    assert chsh_value(pr_box()) == 4


def test_chsh_tsirelson_circuit_targets():
    t = circuit_targets(LFConfig())
    assert abs(float(chsh_value(t)) - 2 * 2 ** 0.5) < 1e-5
    # every cell is rationalized with bounded denominator
    for pair in mp.PAIR_IDS:
        assert all(v.denominator <= 4 * 10 ** 6 for v in fraction_tables(t)[pair])


def test_chsh_variants_count_and_default():
    t = circuit_targets(LFConfig())
    variants = {signs: Fraction(v, t.scale) for signs, v in t.variants.items()}
    assert len(variants) == 8
    tables = fraction_tables(t)
    e = {pair: correlator(tables[pair]) for pair in mp.PAIR_IDS}
    assert variants[CHSH_SIGNS] == chsh_value(t) == e["AC"] + e["BC"] + e["BD"] - e["AD"]


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
    t = circuit_targets(LFConfig())
    assert chsh_value(t) > 2
    verdict = mp.feasible_joint_4(t)
    assert not verdict.feasible
    assert verdict.max_violation > 0
    assert float(violation(verdict, t)) == pytest.approx(2 * 2 ** 0.5 - 2, abs=1e-5)
    assert violation(verdict, t) == chsh_value(t) - 2


def shrunk_targets():
    return mp.PairTargets.from_correlators(
        {v: "1/2" for v in mp.VARS_4},
        {"AC": "1/2", "BC": "1/2", "BD": "1/2", "AD": "-1/2"})


def test_shrunk_targets_feasible_at_boundary():
    t = shrunk_targets()
    assert chsh_value(t) == 2
    verdict = mp.feasible_joint_4(t)
    assert verdict.feasible
    assert mp.reproduces(mp.VARS_4, verdict.witness, t)


def test_six_variable_matches_four_variable_on_examples():
    for t in (UNIFORM, shrunk_targets(),
              circuit_targets(LFConfig()),
              product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))):
        v4 = mp.feasible_joint_4(t)
        v6 = mp.feasible_joint_6(v4)
        solved = simplex_oracle.solve_nonnegative(mp._cell_rows(mp.VARS_6), t.cell_counts)
        assert v6.feasible == v4.feasible == (solved is not None)
        assert v6.max_violation == v4.max_violation


def test_six_variable_witness_reproduces_composites():
    t = product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))
    verdict = mp.feasible_joint_6(mp.feasible_joint_4(t))
    assert verdict.feasible
    assert mp.reproduces(mp.VARS_6, verdict.witness, t)


def test_constructive_six_variable_witness_from_four():
    # split each four-variable atom's count over the internal coins (Ai, Ci)
    # as evenly as ints allow, with the relations forced by A = Ai * Ar and
    # C = Ci * Cr; the induced pair marginals must match
    t = product_targets(Fraction(3, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))
    w6 = dict.fromkeys(itertools.product((+1, -1), repeat=6), 0)
    for (a, b, c, d), n in zip(itertools.product((+1, -1), repeat=4),
                               mp.feasible_joint_4(t).witness):
        for k, (ai, ci) in enumerate(itertools.product((+1, -1), repeat=2)):
            w6[(ai, a * ai, b, ci, c * ci, d)] += (n + k) // 4
    assert mp.reproduces(mp.VARS_6, list(w6.values()), t)


def test_fine_criterion_examples():
    assert mp.fine_criterion(UNIFORM)
    assert mp.fine_criterion(shrunk_targets())
    assert not mp.fine_criterion(circuit_targets(LFConfig()))
    assert not mp.fine_criterion(pr_box())


def test_fine_criterion_agrees_with_both_lps_on_random_targets():
    rng = np.random.default_rng(100)
    saw_feasible = saw_infeasible = 0
    for _ in range(200):
        t = mp.random_pair_targets(rng)
        fine = mp.fine_criterion(t)
        v4 = mp.feasible_joint_4(t)
        v6 = mp.feasible_joint_6(v4)
        assert fine == v4.feasible == v6.feasible
        if v4.feasible:
            saw_feasible += 1
            assert mp.reproduces(mp.VARS_4, v4.witness, t)
            assert mp.reproduces(mp.VARS_6, v6.witness, t)
        else:
            saw_infeasible += 1
            assert v4.max_violation > 0
    assert saw_feasible > 10 and saw_infeasible > 10


def test_decide_requires_a_valid_certificate_for_an_infeasible_verdict(monkeypatch):
    assert mp.decide(pr_box())[3]
    real = mp.certificate
    # the last pair's cells dropped: some atom then breaks A^T y <= 0
    monkeypatch.setattr(mp, "certificate", lambda signs: (*real(signs)[:13], 0, 0, 0, 0))
    v4, v6, fine, agree = mp.decide(pr_box())
    assert not (v4.feasible or v6.feasible or fine or agree)
    assert mp.decide(UNIFORM)[3]  # a feasible verdict is checked by its witness


def single(t, var):
    """P(var = +1) from the first table that holds var."""
    pair = next(p for p in mp.PAIR_IDS if var in p)
    table = fraction_tables(t)[pair]
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
        rhs.append(correlator(fraction_tables(t)[pair]))
    return simplex_oracle.solve_nonnegative(rows, rhs) is not None


def test_moment_form_cross_check():
    rng = np.random.default_rng(200)
    for _ in range(100):
        t = mp.random_pair_targets(rng)
        assert moment_form_feasible(t) == mp.feasible_joint_4(t).feasible


def test_monotone_mix_toward_uniform_preserves_feasibility():
    t = shrunk_targets()
    for lam in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        mixed = mix(t, UNIFORM, lam)
        assert mp.feasible_joint_4(mixed).feasible


def test_infeasible_mix_becomes_feasible_below_boundary():
    tsirelson = circuit_targets(LFConfig())
    assert not mp.feasible_joint_4(mix(tsirelson, UNIFORM, Fraction(9, 10))).feasible
    assert mp.feasible_joint_4(mix(tsirelson, UNIFORM, Fraction(1, 2))).feasible


def test_verdict_invariants():
    with pytest.raises(ValueError):
        mp.FeasibilityVerdict(True, None, None)
    with pytest.raises(ValueError):
        mp.FeasibilityVerdict(False, None, 0)
    # no scale: a verdict's numbers are counts over its targets' scale
    assert mp.FeasibilityVerdict._fields == ("feasible", "witness", "max_violation")
    assert mp.FeasibilityVerdict(False, None, 1).max_violation == 1  # the least one


def test_refutes_takes_a_farkas_certificate_with_b_y_equal_to_1():
    # 2/3 of the PR box and 1/3 of A = B = C = D = +1 are counts over 3 with
    # S = 10/3; the CHSH certificate with one more -1 on normalization keeps
    # A^T y <= 0 and leaves b^T y = 4 - 3 = 1, the least positive value
    t = mix(pr_box(), from_tables({pair: (1, 0, 0, 0) for pair in mp.PAIR_IDS}), Fraction(2, 3))
    y = [mp.certificate(CHSH_SIGNS)[0] - 1, *mp.certificate(CHSH_SIGNS)[1:]]
    assert t.scale == 3 and sum(a * b for a, b in zip(y, t.cell_counts)) == 1
    assert mp.refutes(mp.VARS_4, y, t) and mp.refutes(mp.VARS_6, y, t)


def test_targets_json_reads_an_int_cell_as_that_int():
    # JSON gives 1 and 0 as ints: deterministic tables, A = B = C = D = +1
    t = mp.PairTargets.from_json_dict({pair: [[1, 0], [0, 0]] for pair in mp.PAIR_IDS})
    assert (t.scale, t.counts) == (1, {pair: (1, 0, 0, 0) for pair in mp.PAIR_IDS})


def test_targets_json_round_trip():
    t = circuit_targets(LFConfig())
    back = mp.PairTargets.from_json_dict(targets_json(t))
    assert fraction_tables(back) == fraction_tables(t)


def test_targets_json_accepts_decimals():
    # the CLI reads a JSON number as the string written, so 0.25 is "0.25"
    obj = {pair: [["0.25", "0.25"], ["0.25", "0.25"]] for pair in mp.PAIR_IDS}
    t = mp.PairTargets.from_json_dict(obj)
    assert fraction_tables(t)["AC"] == (Fraction(1, 4),) * 4
    # exponents are taken as written up to MAX_EXPONENT, and refused beyond
    singles = dict.fromkeys(mp.VARS_4, "5E-1")
    zero = dict.fromkeys(mp.PAIR_IDS, f"0e{mp.MAX_EXPONENT}")
    assert mp.PairTargets.from_correlators(singles, zero) == UNIFORM
    with pytest.raises(mp.TargetError):
        mp.PairTargets.from_correlators(singles, dict.fromkeys(mp.PAIR_IDS,
                                                               f"0e-{mp.MAX_EXPONENT + 1}"))


def test_underscores_and_bare_points_parse_on_every_python():
    # Python 3.10's Fraction refuses "1_000/3_000"; targets keep 3.11's grammar
    assert Fraction(*mp._ratio("1_000/3_000")) == Fraction(1, 3)
    assert Fraction(*mp._ratio(" +.5e-0 ")) == Fraction(1, 2)


def test_decimal_and_fraction_spellings_get_the_same_verdict():
    # AC = 0.5000001 puts S at 2 + 1e-7: infeasible however it is written
    verdicts = set()
    for ac in ("0.5000001", "5000001/10000000"):
        t = mp.PairTargets.from_correlators(
            {v: "1/2" for v in mp.VARS_4}, {"AC": ac, "BC": "1/2", "BD": "1/2", "AD": "-1/2"})
        assert chsh_value(t) == Fraction(20000001, 10 ** 7)
        verdicts.add(mp.feasible_joint_4(t).feasible)
        # the same cells written as exact decimals parse to the same targets
        decimal = {pair: [[str(Decimal(Fraction(v).numerator) / Decimal(Fraction(v).denominator))
                           for v in row] for row in rows]
                   for pair, rows in targets_json(t).items()}
        assert decimal["AC"][0][0] == "0.375000025"
        assert fraction_tables(mp.PairTargets.from_json_dict(decimal)) == fraction_tables(t)
    assert verdicts == {False}


def test_simplex_rejects_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert simplex_oracle.solve_nonnegative(rows, [Fraction(1), Fraction(2)]) is None


def test_simplex_finds_degenerate_solution():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    x = simplex_oracle.solve_nonnegative(rows, [Fraction(0), Fraction(1)])
    assert x == [Fraction(0), Fraction(1)]
