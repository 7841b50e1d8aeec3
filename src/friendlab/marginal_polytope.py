"""Joint-distribution feasibility for pairwise outcome targets.

Given 2x2 probability tables for the four observed pairs (A,C), (A,D),
(B,C), (B,D), decide whether a single joint distribution over all four
+/-1 variables reproduces every table, and likewise for the six-variable
refinement in which A and C split into an internal outcome and a frame
relation (A = A_internal * A_relation, same for C).

All arithmetic is exact: a verdict is a theorem about the input, never a
tolerance call.  Targets and witnesses are integer count tables over one
common denominator each, so validation, Fine's criterion (all eight CHSH
sign variants at most 2, independent of the solver) and the witness check
compare ints.  The solver, a phase-1 simplex with Bland's rule, runs on an
integer tableau whose 17-row 0/1 cell systems are built once.  Fraction
appears only at a pivot other than 1 and in the values a report prints.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from . import scenarios
from .hilbert import ATOL
from .statlab import PAIR_CELLS, PAIR_IDS, chsh, correlator, sign_variants

VARS_4 = ("A", "B", "C", "D")
VARS_6 = ("Ai", "Ar", "B", "Ci", "Cr", "D")
SNAP = 10 ** 6    # largest denominator a float target or a Born probability snaps to
RANDOM_GRID = 64  # random_pair_targets draws weights and mixing on this grid
# largest decimal exponent a target entry may carry: Fraction("1e-N") builds
# 10**N before any check, and CPython already limits int strings to 4300 digits
MAX_EXPONENT = 4300

_SINGLE_SOURCES = {"A": ("AC", "AD"), "B": ("BC", "BD"),
                   "C": ("AC", "BC"), "D": ("AD", "BD")}


class TargetError(ValueError):
    """Malformed or internally inconsistent pair targets (distinct from
    infeasibility: the marginal problem is never posed)."""


def _frac(x) -> Fraction:
    """The exact value of a target entry.  Strings ("0.375", "3/8") and
    rationals are taken as written; a float is snapped to the nearest
    fraction with denominator at most SNAP, since a binary float is rarely
    the decimal its writer meant.  A Fraction is immutable and returned as is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # an int to Python, but JSON true is no probability
        raise TargetError(f"a target entry must be a number, got {x!r}")
    if isinstance(x, float):
        return Fraction(x).limit_denominator(SNAP)
    if isinstance(x, str) and "e" in x.lower():
        if abs(int(x.lower().partition("e")[2])) > MAX_EXPONENT:
            raise TargetError(f"a target entry's exponent exceeds {MAX_EXPONENT}: {x!r}")
    return Fraction(x)


def _over_one_denominator(values) -> tuple[int, tuple[int, ...]]:
    """The lcm of the denominators of `values` (ints or Fractions) and each
    value times it: the values as a count table over that denominator."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def _plus(table, var: str, pair: str):
    """P(var = +1), or its count, from the pair table of `pair`."""
    return table[0] + (table[1] if pair[0] == var else table[2])


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise tables as 4-tuples of Fractions in PAIR_CELLS order,
    and as int `counts` over `scale`, the lcm of all sixteen denominators."""

    tables: dict[str, tuple[Fraction, ...]]
    scale: int = field(init=False, repr=False, compare=False)
    counts: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.tables) != set(PAIR_IDS):
            raise TargetError(f"need tables for exactly {PAIR_IDS}, got {sorted(self.tables)}")
        norm = {pair: tuple(_frac(v) for v in self.tables[pair]) for pair in PAIR_IDS}
        for pair, cells in norm.items():
            if len(cells) != len(PAIR_CELLS):
                raise TargetError(f"table {pair} must have {len(PAIR_CELLS)} cells")
        scale, flat = _over_one_denominator([v for pair in PAIR_IDS for v in norm[pair]])
        counts = {pair: flat[4 * k:4 * k + 4] for k, pair in enumerate(PAIR_IDS)}
        for pair, cells in counts.items():
            if any(n < 0 for n in cells):
                raise TargetError(f"table {pair} has a negative cell")
            if sum(cells) != scale:
                raise TargetError(f"table {pair} does not sum to 1")
        object.__setattr__(self, "tables", norm)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "counts", counts)
        for var, (p1, p2) in _SINGLE_SOURCES.items():
            if _plus(counts[p1], var, p1) != _plus(counts[p2], var, p2):
                raise TargetError(
                    f"single-variable marginal of {var} disagrees between {p1} and {p2}")

    @functools.cached_property
    def variants(self) -> dict[tuple[int, int, int, int], int]:
        """scale times each CHSH sign variant (statlab.sign_variants)."""
        return sign_variants([correlator(self.counts[pair]) for pair in PAIR_IDS])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_correlators(cls, singles: dict[str, object],
                         correlators: dict[str, object]) -> "PairTargets":
        """Build tables from P(var=+1) marginals and pair correlators; the
        shared singles make cross-table consistency exact by construction."""
        m = {v: 2 * _frac(singles[v]) - 1 for v in VARS_4}
        e = {pair: _frac(correlators[pair]) for pair in PAIR_IDS}
        return cls({p: tuple(Fraction(1 + x * m[p[0]] + y * m[p[1]] + x * y * e[p]) / 4
                             for x, y in PAIR_CELLS) for p in PAIR_IDS})

    @classmethod
    def from_angles(cls, cfg) -> "PairTargets":
        """Rationalize the Born targets of a circuit configuration to
        multiples of 1/SNAP.  Singles and correlators (not raw cells) are
        rounded, so the cross-table consistency required of valid targets
        survives rounding exactly."""

        def snap(x: float) -> Fraction:
            return Fraction(round(x * SNAP), SNAP)

        born = {pair: scenarios.born_pair_table(cfg, pair) for pair in PAIR_IDS}
        singles = {v: snap(_plus(born[p], v, p)) for v, (p, _) in _SINGLE_SOURCES.items()}
        return cls.from_correlators(singles, {p: snap(correlator(t)) for p, t in born.items()})

    @classmethod
    def pr_box(cls) -> "PairTargets":
        """Perfect correlation on AC, BC, BD, perfect anti-correlation on AD."""
        half = Fraction(1, 2)
        zero = Fraction(0)
        corr = (half, zero, zero, half)
        anti = (zero, half, half, zero)
        return cls({"AC": corr, "BC": corr, "BD": corr, "AD": anti})

    def mix(self, other: "PairTargets", lam: object) -> "PairTargets":
        """Cell-wise convex combination lam*self + (1-lam)*other."""
        lam = _frac(lam)
        if not 0 <= lam <= 1:
            raise TargetError("mixing weight must lie in [0, 1]")
        return PairTargets({pair: tuple(lam * a + (1 - lam) * b
                                        for a, b in zip(self.tables[pair], other.tables[pair]))
                            for pair in PAIR_IDS})

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Each table as nested rows [[++, +-], [-+, --]]."""
        return {pair: [[str(v) for v in t[:2]], [str(v) for v in t[2:]]]
                for pair, t in self.tables.items()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PairTargets":
        """Inverse of to_json_dict: each table must be an array of 2 arrays of 2 cells."""
        try:
            tables = {pair: obj[pair] for pair in PAIR_IDS}
            for pair, table in tables.items():
                if not (isinstance(table, list) and len(table) == 2
                        and all(isinstance(row, list) and len(row) == 2 for row in table)):
                    raise TypeError(f"table {pair} must be an array of 2 arrays of 2 cells")
            cells = {pair: tuple(_frac(v) for row in table for v in row)
                     for pair, table in tables.items()}
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise TargetError(f"malformed targets: {exc}") from exc
        return cls(cells)


# --- CHSH combinations ------------------------------------------------------

def chsh_value(t: PairTargets) -> Fraction:
    """S = E(A,C) + E(B,C) + E(B,D) - E(A,D)."""
    return Fraction(chsh([correlator(t.counts[pair]) for pair in PAIR_IDS]), t.scale)


def fine_criterion(t: PairTargets) -> bool:
    """Analytic feasibility oracle: true iff every CHSH sign variant is at
    most 2.  Independent of the simplex; the two must agree on every input."""
    return max(t.variants.values()) <= 2 * t.scale


def snap_resolution(cfg) -> dict | None:
    """None, or the report's "resolution" entry when the largest float Born
    CHSH variant lies within 2/SNAP (plus round-off) of 2: the snap moves
    each of the four correlators by at most 1/(2*SNAP), so a verdict on
    `PairTargets.from_angles(cfg)` then holds for the snapped targets only."""
    top = max(sign_variants(scenarios.pair_correlations(cfg).values()).values())
    if abs(top - 2) > 2 / SNAP + ATOL:
        return None
    return {"snap": f"1/{SNAP}", "undecided_band": f"2 +/- 2/{SNAP}",
            "largest_born_variant": top}


# --- joint atoms and verdicts ----------------------------------------------

@functools.cache
def atom_table(variables: tuple[str, ...]) -> tuple[MappingProxyType, ...]:
    """For each atom of `variables` (deterministic +/-1 assignments in
    lexicographic order, +1 before -1), a read-only map from every variable
    to its value; the six-variable form also maps the composites A = Ai*Ar
    and C = Ci*Cr."""
    table = []
    for assignment in itertools.product((+1, -1), repeat=len(variables)):
        values = dict(zip(variables, assignment))
        if "Ai" in values:
            values["A"] = values["Ai"] * values["Ar"]
            values["C"] = values["Ci"] * values["Cr"]
        table.append(MappingProxyType(values))
    return tuple(table)


@dataclass(frozen=True)
class JointAtomVector:
    """Exact probability vector over the atoms of `variables`, in the order
    of `atom_table`, and as int `counts` over `scale`, its lcm denominator."""

    variables: tuple[str, ...]
    probs: tuple[Fraction, ...]
    scale: int = field(init=False, repr=False, compare=False)
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.probs) != 2 ** len(self.variables):
            raise ValueError("probability vector length does not match arity")
        scale, counts = _over_one_denominator(self.probs)
        if any(n < 0 for n in counts):
            raise ValueError("atom probabilities must be non-negative")
        if sum(counts) != scale:
            raise ValueError("atom probabilities must sum to 1")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "counts", counts)

    def _marginal_counts(self, pair: str) -> tuple[int, ...]:
        """scale times the induced table of a pair id such as 'AC'; A and C
        are the composites Ai*Ar and Ci*Cr when the vector is six-variable."""
        v, w = pair[0], pair[1]
        out = dict.fromkeys(PAIR_CELLS, 0)
        for values, n in zip(atom_table(self.variables), self.counts):
            out[values[v], values[w]] += n
        return tuple(out.values())

    def pair_marginal(self, pair: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.scale) for n in self._marginal_counts(pair))

    def reproduces(self, t: PairTargets) -> bool:
        """Every induced pair table equals its target (counts cross-multiplied)."""
        return all(m * t.scale == k * self.scale for pair in PAIR_IDS
                   for m, k in zip(self._marginal_counts(pair), t.counts[pair]))


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: JointAtomVector | None
    max_violation: Fraction | None

    def __post_init__(self):
        if self.feasible and self.witness is None:
            raise ValueError("feasible verdict requires a witness")
        if not self.feasible and (self.max_violation is None or self.max_violation <= 0):
            raise ValueError("infeasible verdict requires a positive violation")

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": None if self.witness is None else [str(p) for p in self.witness.probs],
            "max_violation": None if self.max_violation is None else str(self.max_violation),
        }


# --- exact phase-1 simplex --------------------------------------------------

def solve_nonnegative(rows, rhs) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly (ints or Fractions), or prove none
    exists.

    Phase-1 simplex minimizing the sum of artificial variables, with Bland's
    rule (lowest-index entering column, lowest-index basic tie-break) so
    termination is guaranteed.  The tableau is integer: b is scaled once by
    the lcm of its denominators (which changes no pivot), the ratio test
    cross-multiplies, only a pivot other than 1 divides its row into
    Fractions, and a pivot updates only the columns where its row is nonzero.
    Returns the solution (Fractions) on the original columns, or None when
    the system is infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    scale, b_scaled = _over_one_denominator(rhs)
    tab = []
    for i, (row, b) in enumerate(zip(rows, b_scaled)):
        sign = -1 if b < 0 else 1
        tab.append([sign * v for v in row] + [1 if j == i else 0 for j in range(m)] + [sign * b])
    basis = [n + i for i in range(m)]
    # reduced-cost row of the artificial sum for the all-artificial basis:
    # z_j - c_j = column sum (of at least a zero row), minus 1 on artificials
    z = [sum(col) for col in zip([0] * (n + m + 1), *tab)]
    for j in range(n, n + m):
        z[j] -= 1

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:  # b_i / a < b_leave / a_leave, cross-multiplied
                d = -1 if leave is None else tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # cannot happen: phase-1 objective is bounded below
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        pivot_row = tab[leave]
        piv = pivot_row[enter]
        if piv != 1:
            pivot_row = tab[leave] = [Fraction(v, piv) for v in pivot_row]
        cols = [(j, w) for j, w in enumerate(pivot_row) if w != 0]
        for row in (*tab, z):
            f = row[enter]
            if f != 0 and row is not pivot_row:
                for j, w in cols:
                    row[j] -= f * w
        basis[leave] = enter

    if z[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[i][-1], scale)
    return x


@functools.cache
def _cell_rows(variables: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The constant 0/1 rows over the atoms of `variables`: normalization,
    then one row per pair cell, in the order `_feasibility` writes the rhs."""
    atoms = atom_table(variables)
    rows = [(1,) * len(atoms)]
    for pair in PAIR_IDS:
        v, w = pair[0], pair[1]
        for cell in PAIR_CELLS:
            rows.append(tuple(int((a[v], a[w]) == cell) for a in atoms))
    return tuple(rows)


def _feasibility(t: PairTargets, variables: tuple[str, ...]) -> FeasibilityVerdict:
    rhs = [1, *(v for pair in PAIR_IDS for v in t.tables[pair])]
    x = solve_nonnegative(_cell_rows(variables), rhs)
    if x is None:
        top = max(t.variants.values())  # Fine's criterion gives the violation
        return FeasibilityVerdict(False, None, Fraction(top - 2 * t.scale, t.scale))
    return FeasibilityVerdict(True, JointAtomVector(variables, tuple(x)), None)


def feasible_joint_4(t: PairTargets) -> FeasibilityVerdict:
    """Does a joint distribution over (A, B, C, D) in {+1,-1}^4 reproduce all
    four pair tables exactly?"""
    return _feasibility(t, VARS_4)


def feasible_joint_6(t: PairTargets) -> FeasibilityVerdict:
    """Six-variable refinement: the targets constrain the composites
    A = Ai*Ar and C = Ci*Cr together with B and D.  Provably equivalent to
    the four-variable question; implemented separately so the equivalence is
    a tested theorem, not an assumption."""
    return _feasibility(t, VARS_6)


def methods_agree(t: PairTargets, v4: FeasibilityVerdict, v6: FeasibilityVerdict,
                  fine: bool) -> bool:
    """The two LPs and Fine's criterion give one verdict, and every feasible
    witness reproduces the targets."""
    return (v4.feasible == v6.feasible == fine
            and all(v.witness.reproduces(t) for v in (v4, v6) if v.feasible))


def random_pair_targets(rng) -> PairTargets:
    """Random valid targets: an exact-rational random local joint mixed with
    the extremal nonlocal box, so both feasible and infeasible inputs occur."""
    weights = [int(w) for w in rng.integers(0, RANDOM_GRID, size=16)]
    total = sum(weights) or 1
    local = JointAtomVector(VARS_4, tuple(Fraction(w, total) for w in weights)
                            if sum(weights) else (Fraction(1),) + (Fraction(0),) * 15)
    local_targets = PairTargets({pair: local.pair_marginal(pair) for pair in PAIR_IDS})
    lam = Fraction(int(rng.integers(0, RANDOM_GRID + 1)), RANDOM_GRID)
    return PairTargets.pr_box().mix(local_targets, lam)
