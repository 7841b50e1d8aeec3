"""Property tests of the exact feasibility engine: verdicts about the input as
written, agreement of the three methods next to the S = 2 boundary, and
witnesses that reproduce their targets."""

import contextlib
import io
import itertools
import json
import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import simplex_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_targets import (feasibility_report, fraction_tables, from_tables, mix, pr_box,
                              probabilities, reference_marginals, targets_json)
from friendlab import cli, scenarios, statlab
from friendlab import marginal_polytope as mp

PROPERTY = settings(max_examples=25)

ODD_SIGNS = [s for s in itertools.product((+1, -1), repeat=4) if s[0] * s[1] * s[2] * s[3] == -1]


@st.composite
def decimal_targets(draw):
    """A local joint with weights on a 1/10^d grid mixed with the PR box at a
    weight on a 1/10^e grid: every cell is a terminating decimal, and both
    verdicts occur."""
    scale = 10 ** draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=15, max_size=15)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [scale])]
    local_targets = from_tables(
        reference_marginals(mp.VARS_4, [Fraction(w, scale) for w in weights]))
    mix_scale = 10 ** draw(st.integers(1, 9))
    lam = Fraction(draw(st.integers(0, mix_scale)), mix_scale)
    return mix(pr_box(), local_targets, lam)


def _decimal_text(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60  # ample for denominators up to 2 * 10^13
        text = str(Decimal(x.numerator) / Decimal(x.denominator))
    assert Fraction(text) == x
    return text


def _not_in_lowest_terms(t: mp.PairTargets, k: int) -> dict:
    """The targets as JSON with each cell written p*k/q*k."""
    return {pair: [[f"{v.numerator * k}/{v.denominator * k}" for v in row]
                   for row in (cells[:2], cells[2:])]
            for pair, cells in fraction_tables(t).items()}


def _spellings(t: mp.PairTargets, k: int) -> list[dict]:
    as_fraction = targets_json(t)

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
        assert fraction_tables(parsed) == fraction_tables(t)
        assert mp.feasible_joint_4(parsed) == expected


# digits: ASCII, ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGIT FIVE, and "_"
# where this Python's Fraction knows it (3.11 on), so underscores land
# between, before, after and next to digits
_DIGITS = "0159\u0663\uff15" + "_" * (sys.version_info >= (3, 11))
_SPACES = st.sampled_from(["", " ", "\t\n", "\u2003"])  # U+2003 is an em space
_SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def number_texts(draw):
    """Strings in and next to the grammar of a target entry: a sign and
    digits, then a slash (with or without spaces around it) and digits, or a
    point with digits on either side or neither and an exponent, or both."""
    text = draw(_SPACES) + draw(_SIGNS) + draw(st.text(_DIGITS, max_size=4))
    form = draw(st.sampled_from(["", "/", " / ", "/ ", ".", "e", ".e"]))
    if "/" in form:
        text += form + draw(st.text(_DIGITS, max_size=4))
    if "." in form:
        text += "." + draw(st.text(_DIGITS, max_size=4))
    if "e" in form:  # at most 3 characters, so every exponent is within MAX_EXPONENT
        text += draw(st.sampled_from("eE")) + draw(_SIGNS) + draw(st.text(_DIGITS, max_size=3))
    return text + draw(_SPACES)


# plain ASCII "digits/digits" and "digits.digits": _ratio splits these
# without the _NUMBER regex
PLAIN_TEXTS = ["1/2", "0/7", "007/0040", "12.345", "0.0", "007.250", "1" * 4298 + "/7",
               "1" * 4298 + ".5"]
# the spellings the grammar turns on, beside what number_texts draws; each of
# these goes through _NUMBER: a sign, "_", whitespace, other digits, an
# exponent, "5.", ".5", a zero denominator, or more than 4300 characters
EDGE_TEXTS = ["1 / 2", "1/0", "0/0", "00/000", "-0/5", "+1/2", "1/2 ", ".", ".5", "5.",
              "-.5e-1", "+5.E+2", "1e-0", "1.5e3", "\u0663/\uff15", "1/\uff15", "5.d", "1__0",
              "_1", "1_", "1_0/3", "1._5", "1" * 4300 + "/7", "1" * 4300 + ".5"]


def _worth_what_fraction_reads(text):
    """Fraction(str) of this Python is the oracle: the same value, or a
    TargetError wherever it raises."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(mp.TargetError):
            mp._ratio(text)
        return
    n, d = mp._ratio(text)
    assert d > 0 and Fraction(n, d) == expected


# a digit run one longer than CPython reads as an int, in each place a run
# stands: Fraction(str) raises ValueError on each
OVERLONG_TEXTS = {"long numerator": "1" * 4301 + "/3", "long denominator": "1/" + "3" * 4301,
                  "long fraction digits": "0." + "1" * 4301, "long integer": "1" * 4301}


@pytest.mark.parametrize("text", [*(t for t in PLAIN_TEXTS + EDGE_TEXTS
                                    if "_" not in t or sys.version_info >= (3, 11)),
                                  *(pytest.param(t, id=name) for name, t in OVERLONG_TEXTS.items())],
                         ids=lambda t: t if len(t) < 99 else f"{t[-2:]} after {len(t) - 2} 1s")
def test_an_edge_spelling_is_worth_what_fraction_reads(text):
    _worth_what_fraction_reads(text)


@pytest.mark.parametrize("text", OVERLONG_TEXTS.values(), ids=OVERLONG_TEXTS.keys())
def test_an_overlong_digit_run_is_a_target_error_naming_the_entry(text):
    named = re.escape(f"{text[:20]!r}... ({len(text)} characters)")
    with pytest.raises(mp.TargetError, match=named):
        mp._ratio(text)
    with pytest.raises(mp.TargetError, match=named):
        mp.PairTargets.from_correlators(dict.fromkeys(mp.VARS_4, text),
                                        dict.fromkeys(mp.PAIR_IDS, "0"))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
@pytest.mark.parametrize("text", ["1" * 1000 + "/3", "3/" + "1" * 1000, "0." + "1" * 1000],
                         ids=["numerator", "denominator", "fraction digits"])
def test_a_plain_spelling_over_a_lowered_int_limit_is_a_target_error(text):
    # the split of plain spellings reads ints too, so a limit set below its
    # 4300 characters refuses them as it refuses the others
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            Fraction(text)
        with pytest.raises(mp.TargetError, match="digit run longer"):
            mp._ratio(text)
    finally:
        sys.set_int_max_str_digits(limit)


class _NoRegex:
    def fullmatch(self, text):
        raise AssertionError(f"{text!r} went through _NUMBER")


def test_plain_spellings_skip_the_regex_and_the_others_take_it(monkeypatch):
    expected = {text: mp._ratio(text) for text in PLAIN_TEXTS}
    monkeypatch.setattr(mp, "_NUMBER", _NoRegex())
    assert {text: mp._ratio(text) for text in PLAIN_TEXTS} == expected
    for text in EDGE_TEXTS:
        with pytest.raises(AssertionError, match="went through _NUMBER"):
            mp._ratio(text)


@settings(max_examples=400)
@given(number_texts())
def test_a_target_string_is_worth_what_fraction_reads(text):
    _worth_what_fraction_reads(text)


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
    t = mp.PairTargets.from_correlators({v: str(p) for v, p in singles.items()},
                                        {pair: str(e) for pair, e in correlators.items()})
    assert Fraction(t.variants[signs], t.scale) == 2 + delta
    return t, delta


@PROPERTY
@given(st.lists(st.integers(0, 20), min_size=16, max_size=16).filter(any))
def test_from_correlators_gives_each_table_the_singles_and_correlators_asked_for(weights):
    # a joint over A, B, C, D (lexicographic, +1 first) gives valid singles,
    # seldom 1/2, and correlators; each table is read back in plain Fractions
    atoms = list(itertools.product((+1, -1), repeat=4))
    probs = [Fraction(w, sum(weights)) for w in weights]
    column = dict(zip(mp.VARS_4, range(4)))
    singles = {v: sum(p for a, p in zip(atoms, probs) if a[column[v]] == 1) for v in mp.VARS_4}
    correlators = {pair: sum(p * a[column[pair[0]]] * a[column[pair[1]]]
                             for a, p in zip(atoms, probs)) for pair in mp.PAIR_IDS}
    t = mp.PairTargets.from_correlators({v: str(p) for v, p in singles.items()},
                                        {pair: str(e) for pair, e in correlators.items()})
    for pair, (pp, pm, mp_, mm) in fraction_tables(t).items():
        assert (pp + pm, pp + mp_) == (singles[pair[0]], singles[pair[1]])
        assert pp - pm - mp_ + mm == correlators[pair]


@PROPERTY
@given(boundary_targets())
def test_three_methods_agree_next_to_the_boundary(case):
    t, delta = case
    v4 = mp.feasible_joint_4(t)
    v6 = mp.feasible_joint_6(v4)
    assert mp.fine_criterion(t) == v4.feasible == v6.feasible == (delta <= 0)
    if not v4.feasible:
        assert Fraction(v4.max_violation, t.scale) == Fraction(v6.max_violation, t.scale) == delta


@PROPERTY
@given(st.one_of(decimal_targets(), boundary_targets().map(lambda case: case[0])))
def test_every_feasible_witness_reproduces_its_targets(t):
    for variables, verdict in _both_verdicts(t):
        assert verdict.feasible == (verdict.witness is not None)
        if verdict.feasible:
            assert mp.reproduces(variables, verdict.witness, t)


@PROPERTY
@given(st.one_of(decimal_targets(), boundary_targets().map(lambda case: case[0])))
def test_lifted_six_variable_verdict_matches_the_64_column_solve(t):
    # the simplex on the six-variable cell system is the reference the lift
    # stands in for: the same verdict, and a witness that solves the same
    # 64-column system exactly, though not always at the simplex's vertex
    rows, counts = mp._cell_rows(mp.VARS_6), t.cell_counts
    x = simplex_oracle.solve_nonnegative(rows, counts)
    lifted = mp.feasible_joint_6(mp.feasible_joint_4(t))
    assert lifted.feasible == (x is not None)
    if lifted.feasible:
        assert min(lifted.witness) >= 0
        assert [sum(a * n for a, n in zip(row, lifted.witness)) for row in rows] == list(counts)
    else:
        assert Fraction(lifted.max_violation, t.scale) == Fraction(max(t.variants.values()),
                                                                   t.scale) - 2


def _both_verdicts(t) -> list:
    v4 = mp.feasible_joint_4(t)
    return [(mp.VARS_4, v4), (mp.VARS_6, mp.feasible_joint_6(v4))]


def _reference_variants(t) -> dict:
    """The eight CHSH sign variants of the Fraction tables, in plain Fractions."""
    tables = fraction_tables(t)
    e = [a - b - c + d for a, b, c, d in (tables[pair] for pair in mp.PAIR_IDS)]
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
    for variables, verdict in _both_verdicts(t):
        if verdict.feasible:
            probs = probabilities(verdict, t.scale)
            assert reference_marginals(variables, probs) == fraction_tables(t)
            assert mp.reproduces(variables, verdict.witness, t)
        else:
            assert Fraction(verdict.max_violation, t.scale) == max(variants.values()) - 2


@PROPERTY
@given(boundary_targets().filter(lambda case: case[1] <= 0), st.data())
def test_reproduces_rejects_one_count_moved_to_another_atom(case, data):
    # distinct atoms of A, B, C, D differ in some variable, so in the cell of
    # some pair: moving one count of the witness's denominator changes that
    # pair's table
    t, _ = case
    verdict = mp.feasible_joint_4(t)
    counts = list(verdict.witness)
    source = data.draw(st.sampled_from([i for i, n in enumerate(counts) if n > 0]))
    target = data.draw(st.sampled_from([i for i in range(16) if i != source]))
    counts[source] -= 1
    counts[target] += 1
    moved = [Fraction(n, t.scale) for n in counts]
    assert reference_marginals(mp.VARS_4, moved) != fraction_tables(t)
    assert not mp.reproduces(mp.VARS_4, counts, t)


def shifted_along_parity(variables, witness) -> list[int]:
    """`witness`, counts, plus a multiple of the parity vector A*B*C*D (over
    six variables Ai*Ar*B*Ci*Cr*D), just large enough to send atom 0 to -1.
    The vector lies in the kernel of the cell system: a pair cell fixes two of
    A, B, C, D, and the product of the other two sums to zero over its atoms."""
    parity = [math.prod(atom) for atom in itertools.product((+1, -1), repeat=len(variables))]
    c = -parity[0] * (witness[0] + 1)
    return [n + c * s for n, s in zip(witness, parity)]


@PROPERTY
@given(boundary_targets().filter(lambda case: case[1] <= 0))
def test_reproduces_refuses_a_witness_shifted_along_the_parity_vector(case):
    # every pair table and the normalization still hold; one atom is negative
    t, _ = case
    for variables, verdict in _both_verdicts(t):
        shifted = shifted_along_parity(variables, verdict.witness)
        assert reference_marginals(variables, [Fraction(n, t.scale) for n in shifted]) == \
            fraction_tables(t)
        assert sum(shifted) == t.scale and shifted[0] < 0
        assert not mp.reproduces(variables, shifted, t)


def test_reproduces_refuses_a_sum_off_by_1e_minus_30():
    # a joint 1e-30 off uniform gives targets over 10^30: its witness over
    # them is accepted, and refused with one count more or less on atom 0
    off = Fraction(1, 10 ** 30)
    joint = [Fraction(1, 16) + off, Fraction(1, 16) - off, *[Fraction(1, 16)] * 14]
    targets = from_tables(reference_marginals(mp.VARS_4, joint))
    assert targets.scale == 10 ** 30
    counts = [int(p * targets.scale) for p in joint]
    assert mp.reproduces(mp.VARS_4, counts, targets)
    for n in (1, -1):
        assert not mp.reproduces(mp.VARS_4, [counts[0] + n, *counts[1:]], targets)


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
    x = simplex_oracle.solve_nonnegative(rows, rhs)
    assert x is not None and all(v >= 0 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs


@PROPERTY
@given(planted_systems(), st.fractions(-3, 3).filter(bool))
def test_simplex_refuses_one_row_with_two_right_hand_sides(system, delta):
    rows, rhs = system
    assert simplex_oracle.solve_nonnegative(rows + [rows[0]], rhs + [rhs[0] + delta]) is None


@PROPERTY
@given(planted_systems(), st.integers(2, 10 ** 6))
def test_simplex_solution_scales_with_the_right_hand_side(system, k):
    rows, rhs = system
    x = simplex_oracle.solve_nonnegative(rows, rhs)
    assert simplex_oracle.solve_nonnegative(rows, [k * b for b in rhs]) == [k * v for v in x]


def _random_targets(seed: int) -> mp.PairTargets:
    return mp.random_pair_targets(np.random.default_rng(seed))


ANY_TARGETS = st.one_of(decimal_targets(), boundary_targets().map(lambda case: case[0]),
                        st.integers(0, 2 ** 32).map(_random_targets))


@PROPERTY
@given(ANY_TARGETS)
def test_simplex_matches_the_oracle_on_the_cell_systems(t):
    # the cell systems are decided by Fine's gluing and its lift, not by a
    # simplex; the simplex oracle solves the same 16- and 64-column systems
    # and must reach the same verdict, and a witness is counts over the
    # targets' own scale
    for variables, verdict in _both_verdicts(t):
        x = simplex_oracle.solve_nonnegative(mp._cell_rows(variables), t.cell_counts)
        assert verdict.feasible == (x is not None) == mp.fine_criterion(t)
        if verdict.feasible:
            assert sum(verdict.witness) == t.scale and all(type(n) is int for n in verdict.witness)


def _violated(t) -> tuple:
    return max(t.variants, key=t.variants.get)


@PROPERTY
@given(ANY_TARGETS)
def test_the_violated_variant_certifies_every_infeasible_verdict(t):
    # and no variant's certificate is accepted for feasible targets
    for variables, verdict in _both_verdicts(t):
        certified = [signs for signs in ODD_SIGNS
                     if mp.refutes(variables, mp.certificate(signs), t)]
        assert bool(certified) == (not verdict.feasible)
        assert not certified or _violated(t) in certified


@PROPERTY
@given(boundary_targets().filter(lambda case: case[1] > 0), st.integers(0, 3))
def test_refutes_refuses_a_broken_certificate(case, k):
    # a flipped sign makes the variant even, and a dropped pair leaves three
    # terms that reach 3 on some atom: either way A^T y <= 0 fails
    t, _ = case
    y = list(mp.certificate(_violated(t)))
    cells = slice(1 + 4 * k, 5 + 4 * k)
    flipped, dropped = y.copy(), y.copy()
    flipped[cells] = [-v for v in y[cells]]
    dropped[cells] = [0] * 4
    for variables in (mp.VARS_4, mp.VARS_6):
        assert mp.refutes(variables, y, t)
        assert not mp.refutes(variables, flipped, t)
        assert not mp.refutes(variables, dropped, t)


def _rhs(t) -> list[int]:
    return [t.scale, *(n for pair in mp.PAIR_IDS for n in t.counts[pair])]


def _restated_reproduces(variables, counts, t) -> bool:
    """The witness check written out: the right length, no negative count,
    and each row's sum over its 1 columns equal to the target count."""
    rows = mp._cell_rows(variables)
    return (len(counts) == len(rows[0]) and min(counts) >= 0
            and all(sum(itertools.compress(counts, row)) == b for row, b in zip(rows, _rhs(t))))


def _restated_refutes(variables, y, t) -> bool:
    """Farkas' lemma written out: A^T y <= 0 on every column and b^T y > 0."""
    rows = mp._cell_rows(variables)
    return (all(sum(itertools.compress(y, col)) <= 0 for col in zip(*rows))
            and sum(a * b for a, b in zip(y, _rhs(t))) > 0)


@st.composite
def witness_checks(draw):
    """(variables, counts, targets): a verdict's witness as given, times k,
    with up to 2 counts moved from one atom to another or one count changed,
    shifted along the parity vector to one negative atom, the other variable
    set's witness (16 entries for six variables, 64 for four), or random
    counts of either length."""
    t = draw(ANY_TARGETS)
    (variables, verdict), (_, other) = draw(st.permutations(_both_verdicts(t)))
    kind = draw(st.sampled_from(["witness", "scaled", "moved", "changed", "shifted", "other's",
                                 "random"]))
    if verdict.feasible and kind != "random":
        counts = list((other if kind == "other's" else verdict).witness)
        atoms = st.integers(0, len(counts) - 1)
        if kind == "scaled":
            counts = [draw(st.integers(2, 5)) * n for n in counts]
        if kind == "moved":
            n = draw(st.integers(1, 2))
            counts[draw(atoms)] -= n
            counts[draw(atoms)] += n
        if kind == "changed":
            counts[draw(atoms)] += draw(st.integers(-2, 2))
        if kind == "shifted":
            counts = shifted_along_parity(variables, verdict.witness)
    else:
        size = draw(st.sampled_from([16, 64]))
        counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    return variables, counts, t


@settings(max_examples=300)
@given(witness_checks())
def test_reproduces_is_the_row_sum_check_written_out(case):
    assert mp.reproduces(*case) == _restated_reproduces(*case)


@settings(max_examples=300)
@given(ANY_TARGETS, st.sampled_from([mp.VARS_4, mp.VARS_6]),
       st.one_of(st.none(), st.sampled_from(ODD_SIGNS)),
       st.lists(st.tuples(st.integers(0, 16), st.integers(-2, 2)), max_size=3))
def test_refutes_is_farkas_lemma_written_out(t, variables, signs, edits):
    # the violated variant's certificate (signs None) or another's, as given
    # or with a few entries moved, so both answers occur: the violated
    # variant refutes infeasible targets, and most edits break A^T y <= 0
    y = list(mp.certificate(signs or _violated(t)))
    for k, delta in edits:
        y[k] += delta
    assert mp.refutes(variables, y, t) == _restated_refutes(variables, y, t)


@PROPERTY
@given(st.one_of(st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 200, 2 ** 256),
                 st.integers(-2 ** 256, -2 ** 200)),
       st.one_of(st.integers(1, 16), st.integers(1, 2 ** 256)))
@example(0, 1)
@example(0, 10 ** 9)
@example(-3, 1)
@example(2 ** 200 + 1, 1)
def test_rational_texts_writes_what_fraction_writes(n, d):
    # one call with repeated, zero and negative counts, as the report's one
    # call holds them: each place gets its own count's text
    counts = [n, 0, -n, n, 2 * n, 0, -n, 1, -1]
    assert mp.rational_texts(counts, d) == [str(Fraction(c, d)) for c in counts]


def _cli_json(*argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["feasibility", *argv, "--format", "json"]) == cli.EXIT_PASS
    return out.getvalue()


@PROPERTY
@given(st.one_of(decimal_targets(), boundary_targets().map(lambda case: case[0])))
@example(pr_box())
@example(from_tables(reference_marginals(mp.VARS_4, [Fraction(1, 16)] * 16)))
def test_the_spliced_targets_report_is_the_encoding_of_the_dict_report(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("targets") / "targets.json"
    path.write_text(json.dumps(targets_json(t)))
    assert _cli_json("--targets", str(path)) == feasibility_report(t, None)


# outside the snap band, infeasible and feasible; inside it, feasible and infeasible
@pytest.mark.parametrize("angles, in_band", [("0,90,45,135", False), ("10,20,30,40", False),
                                             ("0,0,0,0", True), ("0,90,110.53019,135", True)])
def test_the_spliced_from_angles_report_is_the_encoding_of_the_dict_report(angles, in_band):
    cfg = scenarios.LFConfig(*map(float, angles.split(",")))
    targets, _, top = scenarios.circuit_verdict(cfg)
    assert (top is not None) == in_band
    expected = feasibility_report(targets, top)
    assert _cli_json("--from-angles", "--angles", angles) == expected


@settings(max_examples=400)
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70), st.integers(1, 10 ** 30))
@example(0, 1, 10 ** 9)
@example(-6, 4, 1)
@example(-2 ** 70, 3, 2 ** 64)
def test_an_int_over_a_scale_is_written_and_rounded_as_its_fraction(n, d, g):
    # an exact number is an int count over a scale, not always in lowest
    # terms: the report's text is str(Fraction) and its float is the
    # correctly rounded int / int, which is float(Fraction)
    n, d = n * g, d * g
    assert mp.rational_texts([n], d)[0] == str(Fraction(n, d))
    assert n / d == float(Fraction(n, d))


def _from_born_through_fractions(tables, snap):
    """`PairTargets.from_born` as it was written before it built ints: each
    single and correlator a Fraction over snap, then `from_correlators`."""
    def rounded(x):
        return str(Fraction(round(x * snap), snap))

    singles = {v: rounded(mp._plus(tables[p], v, p)) for v, (p, _) in mp._SINGLE_SOURCES.items()}
    return mp.PairTargets.from_correlators(singles, {p: rounded(statlab.correlator(t))
                                                     for p, t in tables.items()})


@st.composite
def float_tables(draw):
    """Four float pair tables and a snap: the pair tables of a random joint
    over (A, B, C, D); tables whose singles and correlators lie on the
    1/(2 snap) grid, so with a power-of-two snap they land exactly on a half
    over snap, where round() goes to even; or any floats in [0, 1], which
    mostly snap to a negative cell."""
    snap = draw(st.sampled_from([1, 2, 4, 64, 10, 10 ** 6]))
    kind = draw(st.sampled_from(["joint", "halves", "floats"]))
    if kind == "joint":
        weights = draw(st.lists(st.floats(0, 1), min_size=16, max_size=16).filter(any))
        total = sum(weights)
        rows = mp._cell_rows(mp.VARS_4)[1:]
        cells = [sum(w for w, a in zip(weights, row) if a) / total for row in rows]
        return {pair: tuple(cells[4 * k:4 * k + 4]) for k, pair in enumerate(mp.PAIR_IDS)}, snap
    if kind == "halves":
        # |m| <= 1/4 and |E| <= 1/2 keep every cell at least 0 before the snap
        m = {v: draw(st.integers(-(snap // 2), snap // 2)) / (2 * snap) for v in mp.VARS_4}
        e = {p: draw(st.integers(-snap, snap)) / (2 * snap) for p in mp.PAIR_IDS}
        return {p: tuple((1 + x * m[p[0]] + y * m[p[1]] + x * y * e[p]) / 4
                         for x, y in mp.PAIR_CELLS) for p in mp.PAIR_IDS}, snap
    return {pair: tuple(draw(st.floats(0, 1)) for _ in range(4)) for pair in mp.PAIR_IDS}, snap


@settings(max_examples=400)
@given(float_tables())
@example(({pair: (0.375, 0.125, 0.125, 0.375) for pair in mp.PAIR_IDS}, 4))  # E * 4 = 2 exactly
@example(({pair: (0.9, 0.0, 0.0, 0.1) for pair in mp.PAIR_IDS}, 10 ** 6))
@example(({"AC": (0.5, 0.5, 0.0, 0.0), "AD": (0.0, 0.0, 0.5, 0.5), "BC": (0.25,) * 4,
           "BD": (0.25,) * 4}, 10 ** 6))
def test_from_born_makes_the_targets_the_fraction_route_makes(case):
    tables, snap = case
    try:
        expected = _from_born_through_fractions(tables, snap)
    except mp.TargetError as exc:
        with pytest.raises(mp.TargetError) as refused:
            mp.PairTargets.from_born(tables, snap)
        assert str(refused.value) == str(exc)
        return
    got = mp.PairTargets.from_born(tables, snap)
    assert (got.scale, got.counts) == (expected.scale, expected.counts)
