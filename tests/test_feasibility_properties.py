"""Property tests of the exact feasibility engine: verdicts about the input as
written, agreement of the three methods next to the S = 2 boundary, and
witnesses that reproduce their targets."""

import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlab import marginal_polytope as mp

# derandomized so the suite's run time and outcome do not vary between runs
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

ODD_SIGNS = [s for s in itertools.product((+1, -1), repeat=4) if s[0] * s[1] * s[2] * s[3] == -1]


@st.composite
def decimal_targets(draw):
    """A local joint with weights on a 1/10^d grid mixed with the PR box at a
    weight on a 1/10^e grid: every cell is a terminating decimal, and both
    verdicts occur."""
    scale = 10 ** draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=15, max_size=15)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [scale])]
    local = mp.JointAtomVector(mp.VARS_4, tuple(Fraction(w, scale) for w in weights))
    local_targets = mp.PairTargets({pair: local.pair_marginal(pair) for pair in mp.PAIR_IDS})
    mix_scale = 10 ** draw(st.integers(1, 9))
    lam = Fraction(draw(st.integers(0, mix_scale)), mix_scale)
    return mp.PairTargets.pr_box().mix(local_targets, lam)


def _decimal_text(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60  # ample for denominators up to 2 * 10^13
        text = str(Decimal(x.numerator) / Decimal(x.denominator))
    assert Fraction(text) == x
    return text


def _not_in_lowest_terms(t: mp.PairTargets, k: int) -> dict:
    """The targets as JSON with each cell written p*k/q*k."""
    return {pair: [[f"{v.numerator * k}/{v.denominator * k}" for v in row]
                   for row in (cells[:2], cells[2:])] for pair, cells in t.tables.items()}


def _spellings(t: mp.PairTargets, k: int) -> list[dict]:
    as_fraction = t.to_json_dict()

    def written(fmt):
        return {pair: [[fmt(Fraction(v)) for v in row] for row in rows]
                for pair, rows in as_fraction.items()}
    return [
        as_fraction,
        written(_decimal_text),
        _not_in_lowest_terms(t, k),
        json.loads(json.dumps(as_fraction)),
        json.loads(json.dumps(written(_decimal_text))),
    ]


@PROPERTY
@given(decimal_targets(), st.integers(2, 10 ** 6))
def test_verdict_does_not_depend_on_how_targets_are_written(t, k):
    expected = mp.feasible_joint_4(t)
    for obj in _spellings(t, k):
        parsed = mp.PairTargets.from_json_dict(obj)
        assert parsed.tables == t.tables
        assert mp.feasible_joint_4(parsed).to_json_dict() == expected.to_json_dict()


@st.composite
def boundary_targets(draw):
    """Targets with one CHSH sign variant at 2 - 1/q, 2 or 2 + 1/q and random
    singles.  Every correlator is its sign times about 1/2, so the chosen
    variant is the largest, and the bounds on singles and offsets keep every
    cell non-negative."""
    q = draw(st.integers(2, 10 ** 9))
    delta = Fraction(draw(st.sampled_from((-1, 0, +1))), q)
    signs = draw(st.sampled_from(ODD_SIGNS))
    small = st.fractions(Fraction(-1, 16), Fraction(1, 16), max_denominator=10 ** 9)
    offsets = [draw(small) for _ in range(3)]
    offsets.append(-sum(offsets))
    base = (2 + delta) / 4
    correlators = {pair: s * (base + d) for pair, s, d in zip(mp.PAIR_IDS, signs, offsets)}
    singles = {v: (1 + draw(small)) / 2 for v in mp.VARS_4}
    t = mp.PairTargets.from_correlators(singles, correlators)
    assert Fraction(t.variants[signs], t.scale) == 2 + delta
    return t, delta


@PROPERTY
@given(boundary_targets())
def test_three_methods_agree_next_to_the_boundary(case):
    t, delta = case
    v4, v6 = mp.feasible_joint_4(t), mp.feasible_joint_6(t)
    assert mp.fine_criterion(t) == v4.feasible == v6.feasible == (delta <= 0)
    if not v4.feasible:
        assert v4.max_violation == v6.max_violation == delta


@PROPERTY
@given(st.one_of(decimal_targets(), boundary_targets().map(lambda case: case[0])))
def test_every_feasible_witness_reproduces_its_targets(t):
    for verdict in (mp.feasible_joint_4(t), mp.feasible_joint_6(t)):
        assert verdict.feasible == (verdict.witness is not None)
        if verdict.feasible:
            assert verdict.witness.reproduces(t)


def _reference_marginals(variables, probs) -> dict:
    """Each pair table of a joint over +/-1 atoms (lexicographic, +1 first),
    summed in plain Fractions; A and C are Ai*Ar and Ci*Cr when six-variable."""
    sums = {pair: [Fraction(0)] * 4 for pair in mp.PAIR_IDS}
    for atom, p in zip(itertools.product((+1, -1), repeat=len(variables)), probs):
        value = dict(zip(variables, atom))
        if "Ai" in value:
            value["A"], value["C"] = value["Ai"] * value["Ar"], value["Ci"] * value["Cr"]
        for pair in mp.PAIR_IDS:
            sums[pair][mp.PAIR_CELLS.index((value[pair[0]], value[pair[1]]))] += p
    return {pair: tuple(cells) for pair, cells in sums.items()}


def _reference_variants(t) -> dict:
    """The eight CHSH sign variants of the Fraction tables, in plain Fractions."""
    e = [a - b - c + d for a, b, c, d in (t.tables[pair] for pair in mp.PAIR_IDS)]
    return {signs: sum(s * x for s, x in zip(signs, e)) for signs in ODD_SIGNS}


@PROPERTY
@given(boundary_targets(), st.integers(2, 10 ** 6))
def test_integer_engine_matches_a_plain_fraction_reference(case, k):
    # singles and correlators carry unrelated denominators up to 1e9, and
    # every cell is written with numerator and denominator k times too large
    t, delta = case
    t = mp.PairTargets.from_json_dict(_not_in_lowest_terms(t, k))
    variants = _reference_variants(t)
    assert {signs: Fraction(v, t.scale) for signs, v in t.variants.items()} == variants
    assert mp.fine_criterion(t) == all(v <= 2 for v in variants.values()) == (delta <= 0)
    for verdict in (mp.feasible_joint_4(t), mp.feasible_joint_6(t)):
        if verdict.feasible:
            witness = verdict.witness
            assert _reference_marginals(witness.variables, witness.probs) == t.tables
            assert witness.reproduces(t)
        else:
            assert verdict.max_violation == max(variants.values()) - 2


@PROPERTY
@given(boundary_targets().filter(lambda case: case[1] <= 0), st.data())
def test_reproduces_rejects_one_count_moved_to_another_atom(case, data):
    # distinct atoms of A, B, C, D differ in some variable, so in the cell of
    # some pair: moving 1/scale of mass changes that pair's table
    t, _ = case
    witness = mp.feasible_joint_4(t).witness
    source = data.draw(st.sampled_from([i for i, n in enumerate(witness.counts) if n > 0]))
    target = data.draw(st.sampled_from([i for i in range(16) if i != source]))
    probs = list(witness.probs)
    probs[source] -= Fraction(1, witness.scale)
    probs[target] += Fraction(1, witness.scale)
    assert _reference_marginals(mp.VARS_4, probs) != t.tables
    assert not mp.JointAtomVector(mp.VARS_4, tuple(probs)).reproduces(t)


def test_joint_atom_vector_refuses_a_sum_off_by_1e_minus_30():
    uniform = [Fraction(1, 16)] * 16
    for off in (Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30)):
        with pytest.raises(ValueError, match="sum to 1"):
            mp.JointAtomVector(mp.VARS_4, tuple([uniform[0] + off, *uniform[1:]]))


@st.composite
def planted_systems(draw):
    """A small integer system A (entries -2..3, so negative right-hand sides
    and pivots other than 1 occur) with b = A x0 for a planted rational
    x0 >= 0."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(st.integers(-2, 3)) for _ in range(n)] for _ in range(m)]
    x0 = [Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in range(n)]
    return rows, [sum(a * x for a, x in zip(row, x0)) for row in rows]


@PROPERTY
@given(planted_systems())
def test_simplex_solves_planted_systems_exactly(system):
    rows, rhs = system
    x = mp.solve_nonnegative(rows, rhs)
    assert x is not None and all(v >= 0 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs


@PROPERTY
@given(planted_systems(), st.fractions(-3, 3).filter(bool))
def test_simplex_refuses_one_row_with_two_right_hand_sides(system, delta):
    rows, rhs = system
    assert mp.solve_nonnegative(rows + [rows[0]], rhs + [rhs[0] + delta]) is None


@PROPERTY
@given(planted_systems(), st.integers(2, 10 ** 6))
def test_simplex_solution_scales_with_the_right_hand_side(system, k):
    rows, rhs = system
    x = mp.solve_nonnegative(rows, rhs)
    assert mp.solve_nonnegative(rows, [k * b for b in rhs]) == [k * v for v in x]
