"""Minimal dense state-vector engine over named tensor factors.

Everything is immutable: states, operators and measurement specs are frozen
after construction, and every operation returns a fresh value.  The engine is
deliberately dense and small; the scenarios built on top of it never need
more than 24 dimensions.  Sampling is batched: `sample_outcomes` computes one
Born distribution and maps n uniforms onto it.  It returns label indices,
not post-measurement states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-10


class LayoutError(ValueError):
    """Factor-name collision, unknown factor, or dimension mismatch."""


class OperatorError(ValueError):
    """Operator is malformed or fails a required property (unitarity)."""


class MeasurementError(ValueError):
    """Projector set is not a complete orthogonal measurement."""


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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(d for _, d in self.factors)

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.factors):
            if n == name:
                return i
        raise LayoutError(f"no factor named {name!r} in {self.names}")

    def dim_of(self, name: str) -> int:
        return self.factors[self.axis(name)][1]

    def flat_index(self, assignment: tuple[int, ...]) -> int:
        if len(assignment) != len(self.factors):
            raise LayoutError("assignment length does not match factor count")
        idx = 0
        for v, (_, d) in zip(assignment, self.factors):
            if not 0 <= v < d:
                raise LayoutError(f"basis value {v} out of range for dim {d}")
            idx = idx * d + v
        return idx


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
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_terms(cls, layout: FactorLayout, terms: dict[tuple[int, ...], complex]) -> "StateVector":
        amps = np.zeros(layout.dim, dtype=np.complex128)
        for assignment, amp in terms.items():
            amps[layout.flat_index(assignment)] = amp
        return cls(layout, amps)

    def inner(self, other: "StateVector") -> complex:
        if self.layout != other.layout:
            raise LayoutError("inner product requires identical layouts")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class Operator:
    layout: FactorLayout
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise OperatorError("operator matrix must be square")
        if m.shape[0] != self.layout.dim:
            raise LayoutError("operator dimension does not match layout")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise OperatorError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def is_unitary(self, atol: float = ATOL) -> bool:
        d = self.matrix.shape[0]
        return bool(np.allclose(self.matrix.conj().T @ self.matrix, np.eye(d), atol=atol))


def _apply_to_columns(matrix: np.ndarray, amps: np.ndarray,
                      layout: FactorLayout, on: tuple[str, ...]) -> np.ndarray:
    """Apply `matrix` to the factors named in `on`, identity elsewhere.
    `amps` has shape (layout.dim, k); each column is transformed."""
    k = amps.shape[1]
    axes = [layout.axis(n) for n in on]
    dims = layout.dims
    d_on = math.prod(dims[a] for a in axes)
    if matrix.shape != (d_on, d_on):
        raise LayoutError(
            f"operator dim {matrix.shape[0]} does not match factors {on} (dim {d_on})")
    t = amps.reshape(dims + (k,))
    t = np.moveaxis(t, axes, range(len(axes)))
    moved_shape = t.shape
    t = matrix @ t.reshape(d_on, -1)
    t = t.reshape(moved_shape)
    t = np.moveaxis(t, range(len(axes)), axes)
    return t.reshape(layout.dim, k)


def apply(u: Operator, s: StateVector, on: tuple[str, ...] | None = None) -> StateVector:
    """Apply a unitary to the designated factors of `s` (all factors if None)."""
    if not u.is_unitary():
        raise OperatorError("apply requires a unitary operator")
    names = tuple(on) if on is not None else s.layout.names
    out = _apply_to_columns(u.matrix, s.amps.reshape(-1, 1), s.layout, names)
    return StateVector(s.layout, out.reshape(-1))


def embed(u: Operator, layout: FactorLayout, on: tuple[str, ...]) -> Operator:
    """Lift an operator acting on the named factors to the full layout."""
    d = layout.dim
    full = _apply_to_columns(u.matrix, np.eye(d, dtype=np.complex128), layout, tuple(on))
    return Operator(layout, full)


@dataclass(frozen=True)
class MeasurementSpec:
    """A complete set of mutually orthogonal projectors with hashable labels."""

    layout: FactorLayout
    outcomes: tuple[tuple[object, np.ndarray], ...]

    def __post_init__(self):
        if not self.outcomes:
            raise MeasurementError("measurement needs at least one projector")
        d = self.layout.dim
        checked = []
        total = np.zeros((d, d), dtype=np.complex128)
        for label, p in self.outcomes:
            p = np.asarray(p, dtype=np.complex128).copy()
            if p.shape != (d, d):
                raise LayoutError(f"projector for {label!r} has shape {p.shape}, want {(d, d)}")
            if not np.allclose(p, p.conj().T, atol=ATOL):
                raise MeasurementError(f"projector for {label!r} is not Hermitian")
            if not np.allclose(p @ p, p, atol=ATOL):
                raise MeasurementError(f"projector for {label!r} is not idempotent")
            p.setflags(write=False)
            checked.append((label, p))
            total += p
        for i in range(len(checked)):
            for j in range(i + 1, len(checked)):
                if not np.allclose(checked[i][1] @ checked[j][1], 0.0, atol=ATOL):
                    raise MeasurementError(
                        f"projectors {checked[i][0]!r} and {checked[j][0]!r} are not orthogonal")
        if not np.allclose(total, np.eye(d), atol=ATOL):
            raise MeasurementError("projectors do not sum to the identity")
        labels = [label for label, _ in checked]
        if len(set(labels)) != len(labels):
            raise MeasurementError("outcome labels must be distinct")
        object.__setattr__(self, "outcomes", tuple(checked))

    @property
    def labels(self) -> tuple[object, ...]:
        return tuple(label for label, _ in self.outcomes)


def born_distribution(s: StateVector, m: MeasurementSpec) -> list[tuple[object, float]]:
    """Outcome probabilities <s|P|s> for each projector of the spec."""
    if s.layout != m.layout:
        raise LayoutError("measurement layout does not match state layout")
    probs = []
    for label, p in m.outcomes:
        pr = float(np.vdot(s.amps, p @ s.amps).real)
        probs.append((label, min(max(pr, 0.0), 1.0)))
    total = sum(pr for _, pr in probs)
    if abs(total - 1.0) > 1e-9:
        raise MeasurementError(f"probabilities sum to {total}, not 1")
    return probs


def sample_outcomes(s: StateVector, m: MeasurementSpec, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n independent Born samples, as indices into `m.labels`.

    One uniform per sample, in order, mapped to the first outcome whose
    cumulative probability exceeds it.  A zero-probability outcome has an
    empty interval, so it is never selected; a uniform in the float
    round-off tail goes to the last positive-probability outcome.
    """
    probs = np.array([pr for _, pr in born_distribution(s, m)])
    idx = np.searchsorted(np.cumsum(probs), rng.random(n), side="right")
    return np.minimum(idx, np.flatnonzero(probs)[-1])


# --- qubit conveniences ----------------------------------------------------
#
# Measurement angles live in the real x-z plane:
#   R(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]
# and "measure along theta" means projecting onto R(theta)|0>, R(theta)|1>
# with labels +1, -1.  Real rotations are enough to reach the Tsirelson point.

def rotation_matrix(theta_degrees: float) -> np.ndarray:
    h = math.radians(theta_degrees) / 2.0
    c, s = math.cos(h), math.sin(h)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def angle_projectors(theta_degrees: float) -> tuple[tuple[int, np.ndarray], ...]:
    """(+1, -1)-labelled 2x2 projectors for a measurement along theta."""
    r = rotation_matrix(theta_degrees)
    out = []
    for label, k in ((+1, 0), (-1, 1)):
        v = r[:, k].reshape(2, 1)
        out.append((label, v @ v.conj().T))
    return tuple(out)


@functools.cache
def factor_basis_spec(layout: FactorLayout, name: str,
                      labels: tuple[object, ...] | None = None) -> MeasurementSpec:
    """Computational-basis measurement of one factor, identity elsewhere.
    Memoized: a spec is immutable, so one serves every caller."""
    d = layout.dim_of(name)
    if labels is None:
        labels = tuple(range(d))
    if len(labels) != d:
        raise MeasurementError(f"need {d} labels for factor {name!r}")
    outcomes = []
    for k, label in enumerate(labels):
        p = np.zeros((d, d), dtype=np.complex128)
        p[k, k] = 1.0
        outcomes.append((label, embed(Operator(FactorLayout(((name, d),)), p), layout, (name,)).matrix))
    return MeasurementSpec(layout, tuple(outcomes))


def factor_angle_spec(layout: FactorLayout, name: str, theta_degrees: float) -> MeasurementSpec:
    """Measurement of a qubit factor along theta, identity elsewhere."""
    if layout.dim_of(name) != 2:
        raise LayoutError(f"factor {name!r} is not a qubit")
    sub = FactorLayout(((name, 2),))
    outcomes = [(label, embed(Operator(sub, p), layout, (name,)).matrix)
                for label, p in angle_projectors(theta_degrees)]
    return MeasurementSpec(layout, tuple(outcomes))


def product_spec(a: MeasurementSpec, b: MeasurementSpec) -> MeasurementSpec:
    """Joint measurement from two commuting specs on the same layout; labels
    become (label_a, label_b) pairs.  Zero products are dropped."""
    if a.layout != b.layout:
        raise LayoutError("product measurement requires identical layouts")
    outcomes = []
    for la, pa in a.outcomes:
        for lb, pb in b.outcomes:
            if not np.allclose(pa @ pb, pb @ pa, atol=ATOL):
                raise MeasurementError("projectors do not commute; no joint measurement")
            outcomes.append(((la, lb), pa @ pb))
    return MeasurementSpec(a.layout, tuple(outcomes))
