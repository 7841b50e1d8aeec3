"""Joint-distribution feasibility for pairwise outcome targets.

Given 2x2 probability tables for the four observed pairs (A,C), (A,D),
(B,C), (B,D), decide whether a single joint distribution over all four
+/-1 variables reproduces every table, and likewise for the six-variable
refinement in which A and C split into an internal outcome and a frame
relation (A = A_internal * A_relation, same for C).

All arithmetic is exact rational: a verdict is a theorem about the input,
never a tolerance call.  The solver is a phase-1 simplex with Bland's rule
over the atom probabilities.  Its 17-row cell systems are constant, built
once; a call supplies only the right-hand side.  An analytic cross-check
(all eight CHSH-type sign variants at most 2) is kept independent of it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import scenarios
from .statlab import PAIR_CELLS, PAIR_IDS

VARS_4 = ("A", "B", "C", "D")
VARS_6 = ("Ai", "Ar", "B", "Ci", "Cr", "D")
SNAP = 10 ** 6    # largest denominator a float target or a Born probability snaps to
RANDOM_GRID = 64  # random_pair_targets draws weights and mixing on this grid

_SINGLE_SOURCES = {"A": ("AC", "AD"), "B": ("BC", "BD"),
                   "C": ("AC", "BC"), "D": ("AD", "BD")}


class TargetError(ValueError):
    """Malformed or internally inconsistent pair targets (distinct from
    infeasibility: the marginal problem is never posed)."""


def _frac(x) -> Fraction:
    """The exact value of a target entry.  Strings ("0.375", "3/8") and
    rationals are taken as written; a float is snapped to the nearest
    fraction with denominator at most SNAP, since a binary float is rarely
    the decimal its writer meant."""
    if isinstance(x, float):
        return Fraction(x).limit_denominator(SNAP)
    return Fraction(x)


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise 2x2 tables, rows indexed by the first variable's
    value (+1 then -1), columns by the second's."""

    tables: dict[str, tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]

    def __post_init__(self):
        if set(self.tables) != set(PAIR_IDS):
            raise TargetError(f"need tables for exactly {PAIR_IDS}, got {sorted(self.tables)}")
        norm = {}
        for pair in PAIR_IDS:
            rows = self.tables[pair]
            cells = tuple(tuple(_frac(v) for v in row) for row in rows)
            if len(cells) != 2 or any(len(r) != 2 for r in cells):
                raise TargetError(f"table {pair} must be 2x2")
            if any(v < 0 for row in cells for v in row):
                raise TargetError(f"table {pair} has a negative cell")
            if sum(v for row in cells for v in row) != 1:
                raise TargetError(f"table {pair} does not sum to 1")
            norm[pair] = cells
        object.__setattr__(self, "tables", norm)
        for var, (p1, p2) in _SINGLE_SOURCES.items():
            if self.single(var, source=p1) != self.single(var, source=p2):
                raise TargetError(
                    f"single-variable marginal of {var} disagrees between {p1} and {p2}")

    def cell(self, pair: str, x: int, y: int) -> Fraction:
        return self.tables[pair][0 if x == +1 else 1][0 if y == +1 else 1]

    def single(self, var: str, source: str | None = None) -> Fraction:
        """P(var = +1), computed from one of the tables containing it."""
        pair = source or _SINGLE_SOURCES[var][0]
        if var not in pair:
            raise TargetError(f"variable {var} does not occur in pair {pair}")
        t = self.tables[pair]
        if pair[0] == var:
            return t[0][0] + t[0][1]
        return t[0][0] + t[1][0]

    def correlator(self, pair: str) -> Fraction:
        return sum(Fraction(x * y) * self.cell(pair, x, y) for x, y in PAIR_CELLS)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_correlators(cls, singles: dict[str, object],
                         correlators: dict[str, object]) -> "PairTargets":
        """Build tables from P(var=+1) marginals and pair correlators; the
        shared singles make cross-table consistency exact by construction."""
        m = {v: 2 * _frac(singles[v]) - 1 for v in VARS_4}
        tables = {}
        for pair in PAIR_IDS:
            v, w = pair[0], pair[1]
            e = _frac(correlators[pair])
            tables[pair] = tuple(
                tuple(Fraction(1 + x * m[v] + y * m[w] + x * y * e) / 4 for y in (+1, -1))
                for x in (+1, -1))
        return cls(tables)

    @classmethod
    def from_angles(cls, cfg) -> "PairTargets":
        """Rationalize the Born targets of a circuit configuration to
        multiples of 1/SNAP.  Singles and correlators (not raw cells) are
        rounded, so the cross-table consistency required of valid targets
        survives rounding exactly."""

        def snap(x: float) -> Fraction:
            return Fraction(round(x * SNAP), SNAP)

        singles, correlators = {}, {}
        for pair in PAIR_IDS:
            table = scenarios.born_pair_table(cfg, pair)
            correlators[pair] = snap(sum(x * y * p for (x, y), p in table.items()))
            v, w = pair[0], pair[1]
            if v not in singles:
                singles[v] = snap(table[(+1, +1)] + table[(+1, -1)])
            if w not in singles:
                singles[w] = snap(table[(+1, +1)] + table[(-1, +1)])
        return cls.from_correlators(singles, correlators)

    @classmethod
    def uniform(cls) -> "PairTargets":
        quarter = Fraction(1, 4)
        return cls({p: ((quarter, quarter), (quarter, quarter)) for p in PAIR_IDS})

    @classmethod
    def pr_box(cls) -> "PairTargets":
        """Perfect correlation on AC, BC, BD, perfect anti-correlation on AD."""
        half = Fraction(1, 2)
        zero = Fraction(0)
        corr = ((half, zero), (zero, half))
        anti = ((zero, half), (half, zero))
        return cls({"AC": corr, "BC": corr, "BD": corr, "AD": anti})

    def mix(self, other: "PairTargets", lam: object) -> "PairTargets":
        """Cell-wise convex combination lam*self + (1-lam)*other."""
        lam = _frac(lam)
        if not 0 <= lam <= 1:
            raise TargetError("mixing weight must lie in [0, 1]")
        tables = {}
        for pair in PAIR_IDS:
            a, b = self.tables[pair], other.tables[pair]
            tables[pair] = tuple(
                tuple(lam * a[i][j] + (1 - lam) * b[i][j] for j in range(2))
                for i in range(2))
        return PairTargets(tables)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {pair: [[str(v) for v in row] for row in self.tables[pair]]
                for pair in PAIR_IDS}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PairTargets":
        try:
            tables = {pair: tuple(tuple(_frac(v) for v in row) for row in obj[pair])
                      for pair in PAIR_IDS}
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise TargetError(f"malformed targets: {exc}") from exc
        return cls(tables)


# --- CHSH combinations ------------------------------------------------------

def chsh_value(t: PairTargets) -> Fraction:
    """S = E(A,C) + E(B,C) + E(B,D) - E(A,D)."""
    return (t.correlator("AC") + t.correlator("BC")
            + t.correlator("BD") - t.correlator("AD"))


def chsh_variants(t: PairTargets) -> dict[tuple[int, int, int, int], Fraction]:
    """All eight sign variants (s_AC, s_AD, s_BC, s_BD) with an odd number of
    minus signs; each is at most 2 for any joint distribution."""
    e = {pair: t.correlator(pair) for pair in PAIR_IDS}
    out = {}
    for signs in itertools.product((+1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] != -1:
            continue
        out[signs] = sum(Fraction(s) * e[p] for s, p in zip(signs, PAIR_IDS))
    return out


def fine_criterion(t: PairTargets) -> bool:
    """Analytic feasibility oracle: true iff every CHSH sign variant is at
    most 2.  Independent of the simplex; the two must agree on every input."""
    return all(v <= 2 for v in chsh_variants(t).values())


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
    of `atom_table`."""

    variables: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.probs) != 2 ** len(self.variables):
            raise ValueError("probability vector length does not match arity")
        if any(p < 0 for p in self.probs):
            raise ValueError("atom probabilities must be non-negative")
        if sum(self.probs) != 1:
            raise ValueError("atom probabilities must sum to 1")

    def pair_marginal(self, pair: str) -> dict[tuple[int, int], Fraction]:
        """Exact induced 2x2 marginal for a pair id such as 'AC'; composite
        A and C are products of internal and relation variables when the
        vector is six-variable."""
        v, w = pair[0], pair[1]
        out = {cell: Fraction(0) for cell in PAIR_CELLS}
        for values, p in zip(atom_table(self.variables), self.probs):
            out[(values[v], values[w])] += p
        return out

    def reproduces(self, t: PairTargets) -> bool:
        return all(self.pair_marginal(pair) ==
                   {(x, y): t.cell(pair, x, y) for x, y in PAIR_CELLS}
                   for pair in PAIR_IDS)


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
    termination is guaranteed.  Returns the solution restricted to the
    original columns, or None when the system is infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab.append(row + [1 if j == i else 0 for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    width = n + m + 1
    # reduced-cost row for minimizing the artificial sum, given the all-
    # artificial starting basis: z_j - c_j = column sum, minus 1 on artificials
    z = [sum(tab[i][j] for i in range(m)) for j in range(width)]
    for j in range(n, n + m):
        z[j] -= 1

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a  # the last column holds Fractions only
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:  # cannot happen: phase-1 objective is bounded below
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        piv = Fraction(tab[leave][enter])
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [v - f * w for v, w in zip(z, tab[leave])]
        basis[leave] = enter

    if z[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i][-1]
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


def _max_violation(t: PairTargets) -> Fraction:
    return max(v - 2 for v in chsh_variants(t).values())


def _feasibility(t: PairTargets, variables: tuple[str, ...]) -> FeasibilityVerdict:
    rhs = [1] + [t.cell(pair, x, y) for pair in PAIR_IDS for x, y in PAIR_CELLS]
    x = solve_nonnegative(_cell_rows(variables), rhs)
    if x is None:
        return FeasibilityVerdict(False, None, _max_violation(t))
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
    local_targets = PairTargets({
        pair: tuple(tuple(local.pair_marginal(pair)[(x, y)] for y in (+1, -1))
                    for x in (+1, -1))
        for pair in PAIR_IDS})
    lam = Fraction(int(rng.integers(0, RANDOM_GRID + 1)), RANDOM_GRID)
    return PairTargets.pr_box().mix(local_targets, lam)
