"""Minimal dense state-vector engine over named tensor factors.

Everything is immutable: states and measurement specs are frozen after
construction, and every operation returns a fresh value.  A unitary is a
plain matrix on named factors, and `apply(matrix, state, on)` is the state
it makes.  No float that reaches a report passes through BLAS or LAPACK:
`apply` and `StateVector.inner` multiply split real and imaginary parts
elementwise and sum them with numpy in an order this module fixes, so every
report is the same bytes whichever kernels numpy and its BLAS pick for the
CPU.  A measurement is a frame change, which is such a unitary, followed by
a computational-basis reading of named factors (`MeasurementSpec`); a
reading of distinct factors is complete and orthogonal by its type, so no
projector is ever built or checked.  The engine is deliberately dense and
small; the scenarios built on top of it never need more than 24 dimensions.
A reading's Born probabilities come from `born_distribution` alone;
`sample_outcomes` maps n uniforms onto one such distribution and returns
label indices, not post-measurement states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-10


class LayoutError(ValueError):
    """Factor-name collision, unknown factor, or dimension mismatch."""


class MeasurementError(ValueError):
    """A reading of no factor, of one factor twice, or with bad labels."""


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

    def dim_of(self, name: str) -> int:
        return self.factors[self.axis(name)][1]


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


@dataclass(frozen=True)
class MeasurementSpec:
    """A computational-basis reading of the named factors `read`, in that
    order, with one distinct label per joint basis value (the first factor
    read is the most significant digit).  Any other measurement is a basis
    change applied to the state with `apply`, then a reading."""

    layout: FactorLayout
    read: tuple[str, ...]
    labels: tuple[object, ...]
    # the axes of the squared amplitudes that a reading sums (every factor
    # not read, and the real/imaginary axis last), and the order of the rest
    _summed: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read, labels = tuple(self.read), tuple(self.labels)
        axes = [self.layout.axis(n) for n in read]
        if not read or len(set(read)) != len(read):
            raise MeasurementError(f"a reading needs distinct factors, got {read}")
        n = math.prod(self.layout.dims[a] for a in axes)
        if len(labels) != n:
            raise MeasurementError(f"reading {read} needs {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise MeasurementError("outcome labels must be distinct")
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_summed", tuple(
            a for a in range(len(self.layout.factors) + 1) if a not in axes))
        object.__setattr__(self, "_order", tuple(sorted(axes).index(a) for a in axes))


def born_distribution(s: StateVector, m: MeasurementSpec) -> list[tuple[object, float]]:
    """(label, probability) in read order: the squared amplitudes summed over
    the factors the spec does not read."""
    if s.layout != m.layout:
        raise LayoutError("measurement layout does not match state layout")
    sq = np.square(s.amps.view(np.float64)).reshape(s.layout.dims + (2,))
    return list(zip(m.labels, sq.sum(axis=m._summed).transpose(m._order).ravel().tolist()))


def sample_outcomes(born, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent samples of `born`, a `born_distribution` result, as
    indices into its (label, probability) pairs.

    One uniform per sample, in order, mapped to the first outcome whose
    cumulative probability exceeds it.  A zero-probability outcome has an
    empty interval, so it is never selected; a uniform in the float
    round-off tail goes to the last positive-probability outcome.
    """
    probs = np.array([pr for _, pr in born])
    idx = np.searchsorted(np.cumsum(probs), rng.random(n), side="right")
    return np.minimum(idx, np.flatnonzero(probs)[-1])


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


@functools.cache
def factor_basis_spec(layout: FactorLayout, name: str,
                      labels: tuple[object, ...] | None = None) -> MeasurementSpec:
    """Computational-basis reading of one factor, labelled 0..d-1 unless
    `labels` says otherwise.  Memoized: a spec is immutable, so one serves
    every caller."""
    return MeasurementSpec(layout, (name,),
                           tuple(range(layout.dim_of(name))) if labels is None else labels)
