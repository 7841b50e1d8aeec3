"""Minimal dense state-vector engine over named tensor factors, in Python numbers.

Everything is immutable, and every operation returns a fresh value.  A
state's amplitudes and a unitary's matrix entries (rows on named factors)
are the Python numbers given: `apply(matrix, state, on)`, the state it
makes, is real for real rows on a real state and complex by Python's own
arithmetic otherwise.  Every sum that reaches a report is `acc += term` from
zero in index order (m[i][j] * t[j] over j in `apply`, a.real**2 + a.imag**2
per basis state in `born_distribution`, a.conjugate() * b in
`StateVector.inner`), never the float `sum()` that Python 3.12 made
compensated, so every report is the same bytes on every CPU.  `apply` skips
a block whose amplitudes are all exact zeros, whose sums would be exactly
zero, so the bytes are those of the full loop; every state still refuses a
non-finite amplitude and a norm more than ATOL from 1.  A measurement is a
frame change, which is such a unitary, followed by a computational-basis
reading of named factors; a reading of distinct factors is complete and
orthogonal by its type, so no projector is ever built or checked.  The
scenarios on this engine need at most 24 dimensions.  A reading's Born
probabilities come from `born_distribution(state, read)` alone, and this
module draws no random numbers: `relmodel` samples the outcomes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

ATOL = 1e-10


class LayoutError(ValueError):
    """Factor-name collision, unknown factor, dimension mismatch, or a
    reading of no factor or of one factor twice."""


@dataclass(frozen=True)
class FactorLayout:
    """Ordered, named tensor factors. The first factor is the most significant
    index digit: basis state |i0 i1 ...> maps to a single flat index."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(n), int(d)) for n, d in self.factors)
        object.__setattr__(self, "factors", factors)
        names = [n for n, _ in factors]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate factor names in {names}")
        if any(d < 1 for _, d in factors):
            raise LayoutError("factor dimensions must be positive")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.factors)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(d for _, d in self.factors)

    @functools.cached_property
    def _axes(self) -> dict[str, int]:
        return {n: i for i, (n, _) in enumerate(self.factors)}

    def axis(self, name: str) -> int:
        try:
            return self._axes[name]
        except KeyError:
            raise LayoutError(f"no factor named {name!r} in {self.names}") from None


@dataclass(frozen=True)
class StateVector:
    layout: FactorLayout
    amps: tuple[float | complex, ...] = field(repr=False)

    def __post_init__(self):
        amps = tuple(self.amps)
        if len(amps) != self.layout.dim:
            raise LayoutError("amplitude length does not match layout dimension")
        if not all(map(cmath.isfinite, amps)):
            raise ValueError("amplitudes must be finite")
        # a check only: this norm reaches no report
        norm = math.hypot(*map(abs, amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_terms(cls, layout: FactorLayout,
                   terms: dict[tuple[int, ...], float | complex]) -> "StateVector":
        basis = list(itertools.product(*map(range, layout.dims)))  # in index order
        outside = set(terms) - set(basis)
        if outside:
            raise LayoutError(f"basis states {outside} do not fit dims {layout.dims}")
        return cls(layout, [terms.get(values, 0.0) for values in basis])

    def inner(self, other: "StateVector") -> float | complex:
        if self.layout != other.layout:
            raise LayoutError("inner product requires identical layouts")
        acc = 0.0
        for a, b in zip(self.amps, other.amps):
            acc += a.conjugate() * b
        return acc


@functools.cache
def _blocks(dims: tuple[int, ...], axes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The basis-state indices grouped by the factors not in `axes`: one block
    per joint value of those, in index order, holding the index of each joint
    value of `axes`, in that order (the first axis the most significant
    digit).  Memoized: it is a pure function of its arguments."""
    rest = [a for a in range(len(dims)) if a not in axes]
    blocks: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for index, values in enumerate(itertools.product(*map(range, dims))):
        block = blocks.setdefault(tuple(values[a] for a in rest), {})
        block[tuple(values[a] for a in axes)] = index
    return tuple(tuple(block[key] for key in sorted(block)) for block in blocks.values())


def apply(matrix, state: StateVector, on: tuple[str, ...]) -> StateVector:
    """The state `matrix` makes of `state`, acting on the factors `on`, in
    that order, and as the identity elsewhere: in each block of `_blocks`,
    out[i] = sum_j m[i][j] * t[j], left 0.0 where t is all exact zeros: the
    sum's value there, zero signs included (+0.0 + -0.0 is +0.0).  The
    returned state's checks refuse a non-unitary's output and a non-finite
    entry, which makes a NaN even where it meets a zero amplitude."""
    layout = state.layout
    axes = tuple(layout.axis(n) for n in on)
    d = math.prod(layout.dims[a] for a in axes)
    if len(set(axes)) != len(axes) or len(matrix) != d or any(len(row) != d for row in matrix):
        raise LayoutError(f"a {len(matrix)}-row matrix does not fit factors {tuple(on)} (dim {d})")
    out = [0.0] * layout.dim
    for block in _blocks(layout.dims, axes):
        t = [state.amps[k] for k in block]
        if not any(t):  # its sums would all be exactly zero, as `out` holds
            continue
        for k, row in zip(block, matrix):
            acc = 0.0
            for mij, tj in zip(row, t):
                acc += mij * tj
            out[k] = acc
    return StateVector(layout, out)


def born_distribution(s: StateVector, read: tuple[str, ...]) -> tuple[float, ...]:
    """The Born probabilities of a computational-basis reading of the
    factors `read`, in that order (the first factor read is the most
    significant digit): the squared amplitudes summed over the factors not
    read."""
    axes = tuple(s.layout.axis(n) for n in read)
    if not read or len(set(read)) != len(read):
        raise LayoutError(f"a reading needs distinct factors, got {read}")
    blocks = _blocks(s.layout.dims, axes)
    probs = [0.0] * len(blocks[0])
    for block in blocks:
        for i, k in enumerate(block):
            a = s.amps[k]
            probs[i] += a.real * a.real + a.imag * a.imag
    return tuple(probs)


# --- qubit conveniences ----------------------------------------------------
#
# Measurement angles live in the real x-z plane:
#   R(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]
# and "measure along theta" means applying R(theta)^dagger = R(-theta) and
# reading the qubit, value 0 as +1 and 1 as -1.  Real rotations are enough to
# reach the Tsirelson point.

def rotation_matrix(theta_degrees: float) -> tuple[tuple[float, float], tuple[float, float]]:
    h = math.radians(theta_degrees) / 2.0
    c, s = math.cos(h), math.sin(h)
    return ((c, -s), (s, c))
