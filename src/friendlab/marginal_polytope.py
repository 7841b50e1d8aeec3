"""Joint-distribution feasibility for pairwise outcome targets.

Given 2x2 probability tables for the four observed pairs (A,C), (A,D),
(B,C), (B,D), decide whether a single joint distribution over all four
+/-1 variables reproduces every table, and likewise for the six-variable
refinement in which A and C split into an internal outcome and a frame
relation (A = A_internal * A_relation, same for C).

All arithmetic is exact: a verdict is a theorem about the input, never a
tolerance call.  Targets are integer count tables over one common
denominator, so validation and Fine's criterion (all eight CHSH sign
variants at most 2) compare ints.  Every exact number (a count, a CHSH
variant such as S, a witness atom, a violation) is an int over the targets'
scale, and `rational_texts` prints it.  The four-variable verdict is Fine's
gluing of the triples (A, C, D) and (B, C, D) along (C, D) in counts over
the targets' denominator, with no division, so a witness is ints over that
denominator.  The 17-row 0/1 cell system `_cell_rows`, the targets' counts
its right-hand side, checks every verdict: `reproduces` a witness by one
itemgetter per row (`_row_getters`), `refutes` the Farkas certificate of
the violated CHSH variant.  Over six variables the system only repeats
columns, so that verdict is lifted and its witness checked on all 64
columns.  The module imports only `statlab`: deciding loads no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

from .statlab import PAIR_CELLS, PAIR_IDS, correlator, sign_variants

VARS_4 = ("A", "B", "C", "D")
VARS_6 = ("Ai", "Ar", "B", "Ci", "Cr", "D")
RANDOM_GRID = 64  # random_pair_targets draws weights and mixing on this grid
# largest decimal exponent a target entry may carry: the exponent builds a
# power of ten as long as itself, and CPython limits int strings to 4300 digits
MAX_EXPONENT = 4300

# A target string, in the grammar of Fraction(str) on Python 3.11, kept on
# every version (3.10's takes no "_" between digits): a sign, then p/q or a
# decimal (integer digits, fractional digits or both, and an optional
# exponent), with whitespace around.  \d is any Unicode decimal digit.
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(rf"""\s*(?P<sign>[-+]?)(?=\.?\d)(?P<whole>(?:{_DIGITS})?)
    (?:/(?P<den>{_DIGITS})|(?:\.(?P<frac>{_DIGITS})?)?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)\s*""",
                     re.VERBOSE)

_SINGLE_SOURCES = {"A": ("AC", "AD"), "B": ("BC", "BD"),
                   "C": ("AC", "BC"), "D": ("AD", "BD")}


class TargetError(ValueError):
    """Malformed or internally inconsistent pair targets (distinct from
    infeasibility: the marginal problem is never posed)."""


def _ratio(x) -> tuple[int, int]:
    """The exact value of a target entry, a string or an int as JSON gives
    it, as ints (numerator, denominator), denominator positive, not always
    in lowest terms: a string as written (`_NUMBER`; a decimal is its digits
    over 10^k, the exponent folded into k), an int as is.  A plain ASCII
    "digits/digits" or "digits.digits" string is split without `_NUMBER`,
    to the same ints; every other string (a sign, "_", whitespace, other
    digits, an exponent, "5.", ".5", "1/0", or one longer than any int
    string CPython reads) goes through it."""
    if isinstance(x, str):
        try:  # each digit run is one int, as in Fraction, so CPython's limit
            # on int string length refuses the same strings
            if x.isascii() and len(x) <= MAX_EXPONENT:
                whole, slash, den = x.partition("/")
                if slash and whole.isdigit() and den.isdigit() and (d := int(den)):
                    return int(whole), d
                whole, point, frac = x.partition(".")
                if point and whole.isdigit() and frac.isdigit():
                    return int(whole + frac), 10 ** len(frac)
            if (m := _NUMBER.fullmatch(x)) is not None:
                sign, whole, den, frac, exp = m.groups()
                frac = (frac or "").replace("_", "")
                n = int(whole or 0) * 10 ** len(frac) + int(frac or 0)
                d, e = int(den or 1), int(exp or 0)
        except ValueError as exc:
            raise TargetError(f"a target entry has a digit run longer than CPython reads as an "
                              f"int: {x[:20]!r}... ({len(x)} characters)") from exc
        if m is None:
            raise TargetError(f"a target entry must be a number, got {x!r}")
        if not d:
            raise TargetError(f"a target entry has denominator 0: {x!r}")
        if abs(e) > MAX_EXPONENT:
            raise TargetError(f"a target entry's exponent exceeds {MAX_EXPONENT}: {x!r}")
        k = len(frac) - e  # 0 for p/q
        n, d = (n, d * 10 ** k) if k >= 0 else (n * 10 ** -k, d)
        return (-n if sign == "-" else n), d
    if isinstance(x, int) and not isinstance(x, bool):  # JSON true is no probability
        return x, 1
    raise TargetError(f"a target entry must be a number, got {x!r}")


def _over_lcm(ratios) -> tuple[int, list[int]]:
    """The lcm of the denominators of (numerator, denominator) `ratios` and
    each numerator scaled to it: the values as counts over one denominator."""
    scale = math.lcm(*(d for _, d in ratios))
    return scale, [n * (scale // d) for n, d in ratios]


def rational_texts(counts, d: int) -> list[str]:
    """Each n/d of `counts` over d >= 1 in lowest terms, as
    `str(Fraction(n, d))` writes it, without building the Fraction; each
    distinct n is written once."""
    texts = {n: "0" if not n else str(n // g) if (g := math.gcd(n, d)) == d
             else f"{n // g}/{d // g}" for n in set(counts)}
    return [texts[n] for n in counts]


def _plus(table, var: str, pair: str):
    """P(var = +1), or its count, from the pair table of `pair`."""
    return table[0] + (table[1] if pair[0] == var else table[2])


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise tables as int `counts`, 4-tuples in PAIR_CELLS
    order, over one common denominator `scale`, in lowest terms: counts
    given over a larger scale are reduced."""

    scale: int
    counts: dict[str, tuple[int, ...]]

    def __post_init__(self):
        if set(self.counts) != set(PAIR_IDS):
            raise TargetError(f"need tables for exactly {PAIR_IDS}, got {sorted(self.counts)}")
        ac, ad, bc, bd = tables = [self.counts[pair] for pair in PAIR_IDS]
        for pair, cells in zip(PAIR_IDS, tables):
            if len(cells) != len(PAIR_CELLS):
                raise TargetError(f"table {pair} must have {len(PAIR_CELLS)} cells")
            if min(cells) < 0:
                raise TargetError(f"table {pair} has a negative cell")
            if self.scale <= 0 or sum(cells) != self.scale:
                raise TargetError(f"table {pair} does not sum to 1")
        g = math.gcd(self.scale, *ac, *ad, *bc, *bd)
        if g > 1:
            object.__setattr__(self, "scale", self.scale // g)
            object.__setattr__(self, "counts", {pair: tuple(n // g for n in cells)
                                                for pair, cells in zip(PAIR_IDS, tables)})
        for var, (p1, p2) in _SINGLE_SOURCES.items():
            if _plus(self.counts[p1], var, p1) != _plus(self.counts[p2], var, p2):
                raise TargetError(
                    f"single-variable marginal of {var} disagrees between {p1} and {p2}")

    @functools.cached_property
    def variants(self) -> dict[tuple[int, int, int, int], int]:
        """scale times each CHSH sign variant (statlab.sign_variants)."""
        return sign_variants([correlator(self.counts[pair]) for pair in PAIR_IDS])

    @functools.cached_property
    def cell_counts(self) -> tuple[int, ...]:
        """The right-hand side of the cell system `_cell_rows` in counts over scale."""
        return (self.scale, *(n for pair in PAIR_IDS for n in self.counts[pair]))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_ints(cls, d: int, m: dict[str, int], e: dict[str, int]) -> "PairTargets":
        """The tables of m = 2 P(var=+1) - 1 per variable and E per pair,
        each an int count over d: a cell (1 + x m_v + y m_w + x y E(v, w)) / 4
        is a count over 4 d."""
        return cls(4 * d, {p: tuple(d + x * m[p[0]] + y * m[p[1]] + x * y * e[p]
                                    for x, y in PAIR_CELLS) for p in PAIR_IDS})

    @classmethod
    def from_correlators(cls, singles: dict[str, str | int],
                         correlators: dict[str, str | int]) -> "PairTargets":
        """Build tables from P(var=+1) marginals and pair correlators; the
        shared singles make cross-table consistency exact by construction.
        Every m and E goes over their common denominator D."""
        plus = [_ratio(singles[v]) for v in VARS_4]
        d, ints = _over_lcm([*((2 * n - q, q) for n, q in plus),  # m = 2 P(var=+1) - 1
                             *(_ratio(correlators[pair]) for pair in PAIR_IDS)])
        return cls._from_ints(d, dict(zip(VARS_4, ints)), dict(zip(PAIR_IDS, ints[4:])))

    @classmethod
    def from_born(cls, tables, snap: int) -> "PairTargets":
        """Float pair tables, keyed by pair id, with their singles and
        correlators (not raw cells) rounded to multiples of 1/snap, so the
        cross-table consistency of valid targets survives rounding exactly.
        Each rounds to an int count over snap, so the counts are made over
        4 snap with no parse and no lcm, and the constructor reduces and
        checks them."""
        m = {v: 2 * round(_plus(tables[p], v, p) * snap) - snap
             for v, (p, _) in _SINGLE_SOURCES.items()}
        return cls._from_ints(snap, m, {p: round(correlator(tables[p]) * snap) for p in PAIR_IDS})

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PairTargets":
        """Targets from a JSON object of tables, each an array of 2 arrays of 2
        cells, as nested rows [[++, +-], [-+, --]]."""
        try:
            if not isinstance(obj, dict):
                raise TypeError("targets must be an object of tables")
            for pair, table in obj.items():
                if not (isinstance(table, list) and len(table) == 2
                        and all(isinstance(row, list) and len(row) == 2 for row in table)):
                    raise TypeError(f"table {pair} must be an array of 2 arrays of 2 cells")
            scale, flat = _over_lcm([_ratio(v) for table in obj.values() for row in table
                                     for v in row])
        except (TypeError, ValueError) as exc:
            raise TargetError(f"malformed targets: {exc}") from exc
        # the constructor refuses a missing table and one that no pair id names
        return cls(scale, {pair: tuple(flat[4 * k:4 * k + 4]) for k, pair in enumerate(obj)})


# --- verdicts ---------------------------------------------------------------

def fine_criterion(t: PairTargets) -> bool:
    """Analytic feasibility oracle: true iff every CHSH sign variant is at
    most 2.  Independent of the gluing; the two must agree on every input."""
    return max(t.variants.values()) <= 2 * t.scale


@dataclass(frozen=True)
class FeasibilityVerdict:
    """`witness`: the glued joint's atom probabilities, or their six-variable
    lift, in `_cell_rows` column order, and `max_violation`: the largest CHSH
    sign variant minus 2, each an int count over the denominator `scale`, the
    targets' own."""

    feasible: bool
    witness: tuple[int, ...] | None
    max_violation: int | None
    scale: int

    def __post_init__(self):
        if self.feasible and self.witness is None:
            raise ValueError("feasible verdict requires a witness")
        if not self.feasible and (self.max_violation is None or self.max_violation <= 0):
            raise ValueError("infeasible verdict requires a positive violation")


@functools.cache
def _cell_rows(variables: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The 0/1 cell system over the atoms of `variables` (+/-1 assignments,
    lexicographic, +1 first; six variables give the composites A = Ai*Ar and
    C = Ci*Cr): normalization, then each pair's cells in PAIR_IDS order."""
    atoms = []
    for assignment in itertools.product((+1, -1), repeat=len(variables)):
        values = dict(zip(variables, assignment))
        if "Ai" in values:
            values["A"] = values["Ai"] * values["Ar"]
            values["C"] = values["Ci"] * values["Cr"]
        atoms.append(values)
    rows = [(1,) * len(atoms)]
    for pair in PAIR_IDS:
        v, w = pair[0], pair[1]
        for cell in PAIR_CELLS:
            rows.append(tuple(int((a[v], a[w]) == cell) for a in atoms))
    return tuple(rows)


@functools.cache
def _row_getters(variables: tuple[str, ...]) -> tuple[operator.itemgetter, ...]:
    """Per row of `_cell_rows(variables)`, the getter of the columns where it is 1."""
    return tuple(operator.itemgetter(*(j for j, a in enumerate(row) if a))
                 for row in _cell_rows(variables))


def reproduces(variables: tuple[str, ...], counts, t: PairTargets) -> bool:
    """The witness check: `counts` (in `_cell_rows` order) over t.scale, as
    every witness of `decide` is, are non-negative and every row sum equals
    that row's target count."""
    if len(counts) != 2 ** len(variables) or min(counts) < 0:
        return False
    return all(sum(get(counts)) == b for get, b in zip(_row_getters(variables), t.cell_counts))


@functools.cache
def _dual_feasible(variables: tuple[str, ...], y: tuple[int, ...]) -> bool:
    """A^T y <= 0 over the columns of the cell system of `variables`."""
    return all(sum(itertools.compress(y, col)) <= 0 for col in zip(*_cell_rows(variables)))


def refutes(variables: tuple[str, ...], y, t: PairTargets) -> bool:
    """The certificate check (Farkas' lemma): y, an int per row of the cell
    system, with A^T y <= 0 and b^T y > 0 proves no joint reproduces `t`."""
    return _dual_feasible(variables, tuple(y)) and sum(map(operator.mul, y, t.cell_counts)) > 0


def certificate(signs) -> tuple[int, ...]:
    """y of CHSH sign variant `signs`: -2 on normalization and s * a * b on each
    pair's cell (a, b), so b^T y = t.variants[signs] - 2 * t.scale."""
    return (-2, *(s * a * b for s in signs for a, b in PAIR_CELLS))


def feasible_joint_4(t: PairTargets) -> FeasibilityVerdict:
    """Does a joint distribution over (A, B, C, D) in {+1,-1}^4 reproduce all
    four pair tables exactly?  Fine's gluing, in counts over t.scale: for X in
    (A, B) the triple (X, C, D) has a joint exactly when q = N(C+, D+) lies in
    an interval; take the least q in both, the least N(X+, C+, D+) it allows,
    and couple A and B on each (C, D) cell by the min coupling."""
    n = t.scale
    ac, ad, bc, bd = (t.counts[pair] for pair in PAIR_IDS)
    c, d = ac[0] + ac[2], ad[0] + ad[2]
    sides = [(xc[0], xd[0], xc[0] + xc[1]) for xc, xd in ((ac, ad), (bc, bd))]
    q = max(0, c + d - n, *(max(xc + xd - x, c + d + x - n - xc - xd) for xc, xd, x in sides))
    if q > min(c, d, *(min(c + xd - xc, d + xc - xd) for xc, xd, _ in sides)):
        return FeasibilityVerdict(False, None, max(t.variants.values()) - 2 * n, n)
    plus = []  # N(X+, c, d) on the (C, D) cells in PAIR_CELLS order
    for xc, xd, x in sides:
        r = max(0, xc + xd - x, xc + q - c, xd + q - d)
        plus.append((r, xc - r, xd - r, x - xc - xd + r))
    a, b = plus
    both = list(map(min, a, b))
    # (A, B) = (+, +), (+, -), (-, +), (-, -) in turn, each over the (C, D) cells
    witness = (*both, *map(operator.sub, a, both), *map(operator.sub, b, both),
               *(k - max(x, y) for k, x, y in zip((q, c - q, d - q, n - c - d + q), a, b)))
    return FeasibilityVerdict(True, witness, None, n)


def feasible_joint_6(v4: FeasibilityVerdict) -> FeasibilityVerdict:
    """The six-variable verdict, lifted from the four-variable verdict `v4`.
    Each column of the six-variable cell system is the four-variable column
    of its (A, B, C, D) = (Ai*Ar, B, Ci*Cr, D), and duplicated columns keep
    feasibility either way.  A feasible witness goes on the atoms with
    Ai = Ci = +1; `decide` checks it against the 64-column system."""
    if not v4.feasible:
        return v4
    witness = [0] * 2 ** len(VARS_6)
    for k, n in enumerate(v4.witness):  # atom bits (A, B, C, D) -> (Ar, B, Cr, D)
        witness[((k & 12) << 1) | (k & 3)] = n
    return FeasibilityVerdict(True, tuple(witness), None, v4.scale)


def decide(t: PairTargets) -> tuple[FeasibilityVerdict, FeasibilityVerdict, bool, bool]:
    """The one feasibility pipeline of the CLI and the acceptance suite: the
    four- and six-variable verdicts on `t`, Fine's criterion, and whether the
    three agree, every feasible witness reproduces the targets and the
    violated variant's certificate refutes every infeasible verdict."""
    v4, fine = feasible_joint_4(t), fine_criterion(t)
    v6 = feasible_joint_6(v4)
    agree = (v4.feasible == v6.feasible == fine
             and all(reproduces(variables, v.witness, t) if v.feasible
                     else refutes(variables, certificate(max(t.variants, key=t.variants.get)), t)
                     for variables, v in ((VARS_4, v4), (VARS_6, v6))))
    return v4, v6, fine, agree


def random_pair_targets(rng) -> PairTargets:
    """Random valid targets: a local joint with integer atom weights below
    RANDOM_GRID, over their sum W, mixed at weight lam/RANDOM_GRID with the
    extremal nonlocal box, so both feasible and infeasible inputs occur.
    Every cell is a count over 2 * RANDOM_GRID * W."""
    weights = [int(w) for w in rng.integers(0, RANDOM_GRID, size=16)]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    lam = int(rng.integers(0, RANDOM_GRID + 1))
    local = [sum(get(weights)) for get in _row_getters(VARS_4)[1:]]
    box = [int(x * y == (-1 if pair == "AD" else 1)) for pair in PAIR_IDS for x, y in PAIR_CELLS]
    counts = [lam * total * b + 2 * (RANDOM_GRID - lam) * n for b, n in zip(box, local)]
    return PairTargets(2 * RANDOM_GRID * total,
                       {pair: tuple(counts[4 * k:4 * k + 4]) for k, pair in enumerate(PAIR_IDS)})
