"""Builders for the experiments the toolkit studies.

Four families of states:

* the basic sealed-lab friend state a|down,down> + b|up,up>;
* frame-relational lab states, where the friend's lab is modelled as an
  orientation qubit (0 = aligned with the outside frame, 1 = anti-aligned)
  tensored with a record register that stores what she actually saw.  The
  primed/unprimed lab states of the narrative become orientation flips, so
  "internal facts are invariant" is a literal commutation statement;
* the four-observer circuit (two friends measure halves of a Bell pair; the
  two outside observers each choose between asking the friend and coherently
  supermeasuring the lab) with configurable measurement angles;
* the sequential scenario where the friend performs a second measurement only
  when the first gave the trigger outcome.

All builders are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    ATOL,
    FactorLayout,
    MeasurementSpec,
    StateVector,
    angle_projectors,
    born_distribution,
    factor_basis_spec,
    lift,
    product_spec,
    rotation_matrix,
)
from .statlab import PAIR_CELLS, PAIR_IDS, correlator

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Qubit value conventions: 0 = down / aligned, 1 = up / anti-aligned.
BASIC_LAYOUT = FactorLayout((("S", 2), ("A", 2)))
FRAME_LAYOUT = FactorLayout((("S", 2), ("orientation", 2), ("record", 2)))
LF_LAYOUT = FactorLayout((("X", 2), ("Y", 2), ("MA", 2), ("MC", 2)))
ROVELLI_LAYOUT = FactorLayout((("S", 2), ("Y", 2), ("orientation", 2), ("record", 3)))

ROVELLI_RECORDS = ("PP", "PA", "noM2")


# JSON key of each LFConfig angle, in report order
_ANGLE_KEYS = {"ask_A": "ask_a", "super_A": "super_a", "ask_C": "ask_c", "super_C": "super_c"}


@dataclass(frozen=True)
class LFConfig:
    """Measurement angles (degrees) for the four-observer circuit.

    ask_* is the angle of the friend's own measurement (read out by asking
    her); super_* is the angle of the outside observer's supermeasurement.
    The defaults hit the Tsirelson point S = 2*sqrt(2).
    """

    ask_a: float = 0.0
    super_a: float = 90.0
    ask_c: float = 45.0
    super_c: float = 135.0

    def __post_init__(self):
        for name in ("ask_a", "super_a", "ask_c", "super_c"):
            v = getattr(self, name)
            if isinstance(v, bool):  # float(True) is 1.0, but JSON true is no angle
                raise ValueError(f"{name} must be a number, got {v!r}")
            v = float(v)
            if not 0.0 <= v < 360.0:
                raise ValueError(f"{name} must lie in [0, 360), got {v}")
            object.__setattr__(self, name, v)

    def to_json_dict(self) -> dict:
        return {"angles": {key: getattr(self, name) for key, name in _ANGLE_KEYS.items()}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LFConfig":
        """The config of {"angles": {...}}; the angles object must hold
        exactly the four keys of `to_json_dict`, so a misspelt one is refused."""
        a = obj["angles"]
        if set(a) != set(_ANGLE_KEYS):
            raise ValueError(f"angles need exactly the keys {', '.join(_ANGLE_KEYS)}, "
                             f"got {', '.join(sorted(a))}")
        return cls(**{name: a[key] for key, name in _ANGLE_KEYS.items()})


@dataclass(frozen=True)
class RovelliConfig:
    """trigger: the first-measurement outcome (+1 parallel / -1 antiparallel)
    that makes the friend measure the second system."""

    trigger: int = +1

    def __post_init__(self):
        if self.trigger not in (+1, -1):
            raise ValueError("trigger must be +1 or -1")

    def to_json_dict(self) -> dict:
        return {"rovelli": {"trigger": self.trigger}}


def build_basic_wf_state(a: complex, b: complex) -> StateVector:
    """a|down>_S|down>_A + b|up>_S|up>_A over layout (S, A)."""
    norm = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm - 1.0) <= ATOL:  # also refuses NaN
        raise ValueError(f"amplitudes not normalized: |a|^2 + |b|^2 = {norm}")
    return StateVector.from_terms(BASIC_LAYOUT, {(0, 0): a, (1, 1): b})


def build_frame_relational_state(outcome: int) -> StateVector:
    """Equal superposition of the orientation branches (S up, lab aligned)
    and (S down, lab flipped), with the record register in the same definite
    basis state in both.  outcome=+1 writes 'parallel', -1 writes
    'antiparallel'."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    rec = 0 if outcome == +1 else 1
    return StateVector.from_terms(FRAME_LAYOUT, {(1, 0, rec): SQRT_HALF, (0, 1, rec): SQRT_HALF})


def interference_witness(s: StateVector, branch_a: StateVector,
                         branch_b: StateVector) -> float:
    """Probability of the '+' outcome for the measurement along
    (branch_a +/- branch_b)/sqrt(2).  Returns 1 for the coherent '+'
    superposition and 1/2 for either branch alone, which is the signature
    separating coherence from a decohered mixture."""
    ab = branch_a.inner(branch_b)
    if abs(ab) > 1e-8:
        raise ValueError("branches must be orthonormal")
    ca = branch_a.inner(s)
    cb = branch_b.inner(s)
    if abs(abs(ca) ** 2 + abs(cb) ** 2 - 1.0) > 1e-8:
        raise ValueError("state lies outside the span of the branches")
    plus_overlap = (ca + cb) * SQRT_HALF
    return min(max(abs(plus_overlap) ** 2, 0.0), 1.0)


@lru_cache(maxsize=8)
def _friend_unitary(theta_degrees: float) -> np.ndarray:
    """4x4 unitary on (wing particle, memory): rotate the wing by -theta,
    copy it into the memory with a controlled flip, rotate back.  The memory
    ends up holding the wing value in the theta-rotated basis.  Memoized and
    read-only: the circuit and the supermeasurement share one per ask angle."""
    r = rotation_matrix(theta_degrees)
    eye2 = np.eye(2, dtype=np.complex128)
    cnot = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]
    u = np.kron(r, eye2) @ cnot @ np.kron(r.conj().T, eye2)
    u.setflags(write=False)
    return u


# per variable, its wing: the friend's (particle, memory) qubits and the
# LFConfig fields of the wing's ask and super angles.  A and B are measured
# on Alice's wing, C and D on Chidi's.
_WINGS = {**dict.fromkeys("AB", (("X", "MA"), "ask_a", "super_a")),
          **dict.fromkeys("CD", (("Y", "MC"), "ask_c", "super_c"))}


@lru_cache(maxsize=8)
def lf_circuit(cfg: LFConfig) -> StateVector:
    """Both friend unitaries applied to Phi+_XY tensor |0>_MA |0>_MC;
    memoized on the frozen config."""
    amps = StateVector.from_terms(LF_LAYOUT, {
        (0, 0, 0, 0): SQRT_HALF,
        (1, 1, 0, 0): SQRT_HALF,
    }).amps
    for var in ("A", "C"):
        wing, ask, _ = _WINGS[var]
        amps = lift(_friend_unitary(getattr(cfg, ask)), LF_LAYOUT, wing) @ amps
    return StateVector(LF_LAYOUT, amps)


@lru_cache(maxsize=32)
def observable_spec(cfg: LFConfig, var: str) -> MeasurementSpec:
    """The measurement behind one of the variables A, B, C, D (memoized).

    A and C ask the friend: read her memory qubit in the computational basis
    (label +1 for 0, -1 for 1), i.e. learn what she recorded.  B and D
    supermeasure her lab: undo the friend unitary coherently, measure the
    wing particle along the super angle, redo the friend unitary.
    """
    wing, ask, super_angle = _WINGS[var]
    if var in ("A", "C"):
        return factor_basis_spec(LF_LAYOUT, wing[1], labels=(+1, -1))
    u = _friend_unitary(getattr(cfg, ask))
    eye2 = np.eye(2, dtype=np.complex128)
    outcomes = [(label, lift(u @ np.kron(p, eye2) @ u.conj().T, LF_LAYOUT, wing))
                for label, p in angle_projectors(getattr(cfg, super_angle))]
    return MeasurementSpec.by_construction(LF_LAYOUT, tuple(outcomes))  # conjugate of a valid spec


def pair_spec(cfg: LFConfig, pair: str) -> MeasurementSpec:
    """Joint 4-outcome measurement of one of the pairs AC, AD, BC, BD.
    Labels are (Alice-wing value, Chidi-wing value) pairs."""
    return product_spec(observable_spec(cfg, pair[0]), observable_spec(cfg, pair[1]))


@lru_cache(maxsize=32)
def born_pair_table(cfg: LFConfig, pair: str) -> tuple[float, ...]:
    """Exact Born joint table for one of the pairs AC, AD, BC, BD, in
    PAIR_CELLS order.  Memoized on the frozen config."""
    probs = dict(born_distribution(lf_circuit(cfg), pair_spec(cfg, pair)))
    return tuple(probs[cell] for cell in PAIR_CELLS)


def pair_correlations(cfg: LFConfig) -> dict[str, float]:
    """Analytic correlators E(pair) for all four pairs, in PAIR_IDS order."""
    return {pair: correlator(born_pair_table(cfg, pair)) for pair in PAIR_IDS}


@lru_cache(maxsize=2)
def build_rovelli_states(cfg: RovelliConfig) -> tuple[StateVector, ...]:
    """The three possible final states of the sequential scenario (memoized).

    Record values: PP (second measurement agreed with the first), PA (second
    disagreed), noM2 (first outcome was not the trigger, so no second
    measurement).  In each branch the value of S relative to the lab frame
    (S XOR orientation) equals the trigger for PP/PA and the non-trigger for
    noM2; the second system Y copies S for PP, opposes it for PA, and stays
    in the ready state (|up>+|down>)/sqrt(2) for noM2.
    """
    t = 1 if cfg.trigger == +1 else 0  # lab-relative S bit meaning "trigger seen"
    states = []
    for record in range(len(ROVELLI_RECORDS)):
        terms: dict[tuple[int, int, int, int], complex] = {}
        for orientation in (0, 1):
            s_bit = t ^ orientation ^ (record == 2)  # noM2 sees the non-trigger
            # Y copies S (PP), opposes it (PA) or stays ready (noM2)
            for y_bit in ((s_bit,), (1 - s_bit,), (0, 1))[record]:
                terms[(s_bit, y_bit, orientation, record)] = (
                    SQRT_HALF * SQRT_HALF if record == 2 else SQRT_HALF)
        states.append(StateVector.from_terms(ROVELLI_LAYOUT, terms))
    return tuple(states)


def orientation_branches(state: StateVector) -> tuple[StateVector, StateVector]:
    """Split a lab state into its two orientation branches (aligned, then
    flipped), each scaled by sqrt(2): orthonormal for the equal-weight
    frame-relational and sequential-scenario states."""
    t = state.amps.reshape(state.layout.dims)
    before = (slice(None),) * state.layout.axis("orientation")  # the factors before it
    branches = []
    for o in (0, 1):
        sel = np.zeros_like(t)
        sel[(*before, o)] = t[(*before, o)]
        branches.append(StateVector(state.layout, math.sqrt(2.0) * sel.reshape(-1)))
    return branches[0], branches[1]


def record_spec(layout: FactorLayout, labels: tuple[object, ...] | None = None) -> MeasurementSpec:
    """Computational-basis measurement of the record register."""
    return factor_basis_spec(layout, "record", labels=labels)


def apply_global_rotation(s: StateVector, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to the orientation factor only.  Record
    observables commute with it, so no record statistic can change."""
    return StateVector(s.layout, lift(u, s.layout, ("orientation",)) @ s.amps)
