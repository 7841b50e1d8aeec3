"""Joint-distribution feasibility for pairwise outcome targets.

Given 2x2 probability tables for the four observed pairs (A,C), (A,D),
(B,C), (B,D), decide whether a single joint distribution over all four
+/-1 variables reproduces every table, and likewise for the six-variable
refinement in which A and C split into an internal outcome and a frame
relation (A = A_internal * A_relation, same for C).

All arithmetic is exact rational: a verdict is a theorem about the input,
never a tolerance call.  The solver is a phase-1 simplex with Bland's rule
over the atom probabilities, on a tableau that is integer over a common
denominator: Fraction appears only at a pivot other than 1 and in the
returned witness.  Its 17-row cell systems are constant 0/1 ints, built
once; a call supplies only the right-hand side.  An analytic cross-check
(all eight CHSH-type sign variants at most 2) is kept independent of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import scenarios
from .statlab import PAIR_CELLS, PAIR_IDS, chsh, correlator

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
    the decimal its writer meant."""
    if isinstance(x, bool):  # an int to Python, but JSON true is no probability
        raise TargetError(f"a target entry must be a number, got {x!r}")
    if isinstance(x, float):
        return Fraction(x).limit_denominator(SNAP)
    if isinstance(x, str) and "e" in x.lower():
        if abs(int(x.lower().partition("e")[2])) > MAX_EXPONENT:
            raise TargetError(f"a target entry's exponent exceeds {MAX_EXPONENT}: {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise tables, each a 4-tuple of Fractions in PAIR_CELLS
    order."""

    tables: dict[str, tuple[Fraction, ...]]

    def __post_init__(self):
        if set(self.tables) != set(PAIR_IDS):
            raise TargetError(f"need tables for exactly {PAIR_IDS}, got {sorted(self.tables)}")
        norm = {}
        for pair in PAIR_IDS:
            cells = tuple(_frac(v) for v in self.tables[pair])
            if len(cells) != len(PAIR_CELLS):
                raise TargetError(f"table {pair} must have {len(PAIR_CELLS)} cells")
            if any(v < 0 for v in cells):
                raise TargetError(f"table {pair} has a negative cell")
            if sum(cells) != 1:
                raise TargetError(f"table {pair} does not sum to 1")
            norm[pair] = cells
        object.__setattr__(self, "tables", norm)
        for var, (p1, p2) in _SINGLE_SOURCES.items():
            if self.single(var, source=p1) != self.single(var, source=p2):
                raise TargetError(
                    f"single-variable marginal of {var} disagrees between {p1} and {p2}")

    def single(self, var: str, source: str | None = None) -> Fraction:
        """P(var = +1), computed from one of the tables containing it."""
        pair = source or _SINGLE_SOURCES[var][0]
        if var not in pair:
            raise TargetError(f"variable {var} does not occur in pair {pair}")
        t = self.tables[pair]
        return t[0] + (t[1] if pair[0] == var else t[2])

    def correlators(self) -> tuple[Fraction, ...]:
        """E(pair) for each pair, in PAIR_IDS order."""
        return tuple(correlator(self.tables[pair]) for pair in PAIR_IDS)

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
            tables[pair] = tuple(Fraction(1 + x * m[v] + y * m[w] + x * y * e) / 4
                                 for x, y in PAIR_CELLS)
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
            correlators[pair] = snap(correlator(table))
            v, w = pair[0], pair[1]
            if v not in singles:
                singles[v] = snap(table[0] + table[1])
            if w not in singles:
                singles[w] = snap(table[0] + table[2])
        return cls.from_correlators(singles, correlators)

    @classmethod
    def uniform(cls) -> "PairTargets":
        return cls({p: (Fraction(1, 4),) * 4 for p in PAIR_IDS})

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
        """Inverse of to_json_dict: each table must be 2 rows of 2 cells."""
        try:
            rows = {pair: [[_frac(v) for v in row] for row in obj[pair]] for pair in PAIR_IDS}
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise TargetError(f"malformed targets: {exc}") from exc
        for pair, table in rows.items():
            if len(table) != 2 or any(len(row) != 2 for row in table):
                raise TargetError(f"table {pair} must be 2x2")
        return cls({pair: (*table[0], *table[1]) for pair, table in rows.items()})


# --- CHSH combinations ------------------------------------------------------

def chsh_value(t: PairTargets) -> Fraction:
    """S = E(A,C) + E(B,C) + E(B,D) - E(A,D)."""
    return chsh(t.correlators())


def chsh_variants(t: PairTargets) -> dict[tuple[int, int, int, int], Fraction]:
    """All eight sign variants (s_AC, s_AD, s_BC, s_BD) with an odd number of
    minus signs; each is at most 2 for any joint distribution."""
    e = t.correlators()
    out = {}
    for signs in itertools.product((+1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] != -1:
            continue
        out[signs] = sum(x if s > 0 else -x for s, x in zip(signs, e))
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

    def pair_marginal(self, pair: str) -> tuple[Fraction, ...]:
        """Exact induced pair table, in PAIR_CELLS order, for a pair id such
        as 'AC'; composite A and C are products of internal and relation
        variables when the vector is six-variable."""
        v, w = pair[0], pair[1]
        out = dict.fromkeys(PAIR_CELLS, Fraction(0))
        for values, p in zip(atom_table(self.variables), self.probs):
            out[values[v], values[w]] += p
        return tuple(out.values())

    def reproduces(self, t: PairTargets) -> bool:
        return all(self.pair_marginal(pair) == t.tables[pair] for pair in PAIR_IDS)


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
    termination is guaranteed.  The tableau is integer over a common
    denominator: b is scaled once by the lcm of its denominators, the ratio
    test cross-multiplies, and only a pivot other than 1 divides its row
    into Fractions, so int rows such as the cell systems stay ints.  Scaling
    b changes no pivot.  Returns the solution (Fractions) restricted to the
    original columns, or None when the system is infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rhs = [Fraction(r) for r in rhs]
    scale = math.lcm(*(r.denominator for r in rhs))
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i].numerator * (scale // rhs[i].denominator)
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab.append(row + [1 if j == i else 0 for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    # reduced-cost row for minimizing the artificial sum, given the all-
    # artificial starting basis: z_j - c_j = column sum, minus 1 on artificials
    z = [sum(tab[i][j] for i in range(m)) for j in range(n + m + 1)]
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
        piv = tab[leave][enter]
        if piv != 1:
            tab[leave] = [Fraction(v, piv) for v in tab[leave]]
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


def _max_violation(t: PairTargets) -> Fraction:
    return max(v - 2 for v in chsh_variants(t).values())


def _feasibility(t: PairTargets, variables: tuple[str, ...]) -> FeasibilityVerdict:
    rhs = [1, *(v for pair in PAIR_IDS for v in t.tables[pair])]
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
    local_targets = PairTargets({pair: local.pair_marginal(pair) for pair in PAIR_IDS})
    lam = Fraction(int(rng.integers(0, RANDOM_GRID + 1)), RANDOM_GRID)
    return PairTargets.pr_box().mix(local_targets, lam)
