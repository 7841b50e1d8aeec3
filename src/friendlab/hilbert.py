"""Minimal dense state-vector engine over named tensor factors.

Everything is immutable: states are frozen after construction, and every
operation returns a fresh value.  A unitary is a plain matrix on named
factors, and `apply(matrix, state, on)` is the state it makes.  No float
that reaches a report passes through BLAS or LAPACK: `apply` and
`StateVector.inner` multiply split real and imaginary parts elementwise and
sum them with numpy in an order this module fixes, so every report is the
same bytes whichever kernels numpy and its BLAS pick for the CPU.  A
measurement is a frame change, which is such a unitary, followed by a
computational-basis reading of named factors; a reading of distinct factors
is complete and orthogonal by its type, so no projector is ever built or
checked.  The engine is deliberately dense and small; the scenarios built on
top of it never need more than 24 dimensions.  A reading's Born
probabilities come from `born_distribution(state, read)` alone, and this
module draws no random numbers: callers name the outcomes, and
`relmodel` samples them (`draw_counts`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.factors):
            if n == name:
                return i
        raise LayoutError(f"no factor named {name!r} in {self.names}")


@dataclass(frozen=True)
class StateVector:
    layout: FactorLayout
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1).copy()
        if amps.shape[0] != self.layout.dim:
            raise LayoutError("amplitude length does not match layout dimension")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm = math.sqrt(np.square(amps.view(np.float64)).sum())
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_terms(cls, layout: FactorLayout, terms: dict[tuple[int, ...], complex]) -> "StateVector":
        amps = np.zeros(layout.dims, dtype=np.complex128)
        for assignment, amp in terms.items():
            if len(assignment) != len(layout.dims) or not all(
                    0 <= v < d for v, d in zip(assignment, layout.dims)):
                raise LayoutError(f"basis state {assignment} does not fit dims {layout.dims}")
            amps[tuple(assignment)] = amp
        return cls(layout, amps)

    def inner(self, other: "StateVector") -> complex:
        if self.layout != other.layout:
            raise LayoutError("inner product requires identical layouts")
        # the four sums of split-part products [[rr, ri], [ir, ii]], in numpy
        (rr, ri), (ir, ii) = (self.amps.view(np.float64).reshape(-1, 2, 1)
                              * other.amps.view(np.float64).reshape(-1, 1, 2)).sum(axis=0).tolist()
        return complex(rr + ii, ri - ir)


def apply(matrix: np.ndarray, state: StateVector, on: tuple[str, ...]) -> StateVector:
    """The state `matrix` makes of `state`, acting on the factors `on`, in
    that order, and as the identity elsewhere: the `on` axes move to the
    front and out[i] = sum_j m[i, j] * t[j] is a broadcast multiply and a sum
    over j, in split real and imaginary float64 parts (no BLAS, and no SIMD
    complex multiply, which may fuse a multiply-add).  The returned state's
    norm check refuses a non-unitary's output."""
    layout = state.layout
    axes = tuple(layout.axis(n) for n in on)
    dims = layout.dims
    d = math.prod(dims[a] for a in axes)
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (d, d) or len(set(axes)) != len(axes):
        raise LayoutError(f"matrix shape {m.shape} does not fit factors {tuple(on)} (dim {d})")
    perm = axes + tuple(a for a in range(len(dims)) if a not in axes)
    t = state.amps.reshape(dims).transpose(perm).reshape(1, d, -1)
    m = m[:, :, None]
    out = np.empty((d, t.shape[2]), dtype=np.complex128)
    out.real = (m.real * t.real - m.imag * t.imag).sum(axis=1)
    out.imag = (m.real * t.imag + m.imag * t.real).sum(axis=1)
    moved = out.reshape(tuple(dims[a] for a in perm))
    return StateVector(layout, moved.transpose(tuple(perm.index(a) for a in range(len(dims)))))


@functools.cache
def _reading(layout: FactorLayout, read: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The axes of the squared amplitudes that a reading of `read` sums
    (every factor not read, and the real/imaginary axis last), and the order
    of the rest.  Memoized: a reading is a pure function of its layout."""
    axes = [layout.axis(n) for n in read]
    if not read or len(set(read)) != len(read):
        raise LayoutError(f"a reading needs distinct factors, got {read}")
    return (tuple(a for a in range(len(layout.factors) + 1) if a not in axes),
            tuple(sorted(axes).index(a) for a in axes))


def born_distribution(s: StateVector, read: tuple[str, ...]) -> tuple[float, ...]:
    """The Born probabilities of a computational-basis reading of the
    factors `read`, in that order (the first factor read is the most
    significant digit): the squared amplitudes summed over the factors not
    read."""
    summed, order = _reading(s.layout, read)
    sq = np.square(s.amps.view(np.float64)).reshape(s.layout.dims + (2,))
    return tuple(sq.sum(axis=summed).transpose(order).ravel().tolist())


# --- qubit conveniences ----------------------------------------------------
#
# Measurement angles live in the real x-z plane:
#   R(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]
# and "measure along theta" means applying R(theta)^dagger and reading the
# qubit, value 0 as +1 and 1 as -1.  Real rotations are enough to reach the
# Tsirelson point.

def rotation_matrix(theta_degrees: float) -> np.ndarray:
    h = math.radians(theta_degrees) / 2.0
    c, s = math.cos(h), math.sin(h)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)
