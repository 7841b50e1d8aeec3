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
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .hilbert import (
    ATOL,
    FactorLayout,
    LayoutError,
    MeasurementSpec,
    Operator,
    StateVector,
    angle_projectors,
    apply,
    born_distribution,
    embed,
    factor_basis_spec,
    product_spec,
    rotation_matrix,
)
from .statlab import PAIR_IDS

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Qubit value conventions: 0 = down / aligned, 1 = up / anti-aligned.
BASIC_LAYOUT = FactorLayout((("S", 2), ("A", 2)))
FRAME_LAYOUT = FactorLayout((("S", 2), ("orientation", 2), ("record", 2)))
LF_LAYOUT = FactorLayout((("X", 2), ("Y", 2), ("MA", 2), ("MC", 2)))
ROVELLI_LAYOUT = FactorLayout((("S", 2), ("Y", 2), ("orientation", 2), ("record", 3)))

ROVELLI_RECORDS = ("PP", "PA", "noM2")


class Wing(Enum):
    ALICE = "alice"
    CHIDI = "chidi"


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
            v = float(getattr(self, name))
            if not 0.0 <= v < 360.0:
                raise ValueError(f"{name} must lie in [0, 360), got {v}")
            object.__setattr__(self, name, v)

    def to_json_dict(self) -> dict:
        return {"angles": {"ask_A": self.ask_a, "super_A": self.super_a,
                           "ask_C": self.ask_c, "super_C": self.super_c}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LFConfig":
        a = obj["angles"]
        return cls(ask_a=a["ask_A"], super_a=a["super_A"],
                   ask_c=a["ask_C"], super_c=a["super_C"])


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
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > ATOL:
        raise ValueError("amplitudes must satisfy |a|^2 + |b|^2 = 1")
    return StateVector.from_terms(BASIC_LAYOUT, {(0, 0): a, (1, 1): b})


def build_frame_relational_state(outcome: int) -> StateVector:
    """Equal superposition of (S up, lab aligned) and (S down, lab flipped),
    with the record register in the same definite basis state in both
    branches.  outcome=+1 writes 'parallel', -1 writes 'antiparallel'."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    rec = 0 if outcome == +1 else 1
    return StateVector.from_terms(FRAME_LAYOUT, {
        (1, 0, rec): SQRT_HALF,
        (0, 1, rec): SQRT_HALF,
    })


def frame_relational_branches(outcome: int) -> tuple[StateVector, StateVector]:
    """The two orthonormal orientation branches of the frame-relational state."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    rec = 0 if outcome == +1 else 1
    return (StateVector.from_terms(FRAME_LAYOUT, {(1, 0, rec): 1.0}),
            StateVector.from_terms(FRAME_LAYOUT, {(0, 1, rec): 1.0}))


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


def _friend_unitary(theta_degrees: float) -> np.ndarray:
    """4x4 unitary on (wing particle, memory): rotate the wing by -theta,
    copy it into the memory with a controlled flip, rotate back.  The memory
    ends up holding the wing value in the theta-rotated basis."""
    r = rotation_matrix(theta_degrees)
    eye2 = np.eye(2, dtype=np.complex128)
    flip = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    cnot = np.zeros((4, 4), dtype=np.complex128)
    cnot[0:2, 0:2] = eye2
    cnot[2:4, 2:4] = flip
    return np.kron(r, eye2) @ cnot @ np.kron(r.conj().T, eye2)


_WING_FACTORS = {Wing.ALICE: ("X", "MA"), Wing.CHIDI: ("Y", "MC")}


def _wing_unitary(cfg: LFConfig, wing: Wing) -> Operator:
    theta = cfg.ask_a if wing is Wing.ALICE else cfg.ask_c
    particle, memory = _WING_FACTORS[wing]
    sub = FactorLayout(((particle, 2), (memory, 2)))
    return Operator(sub, _friend_unitary(theta))


def lf_circuit(cfg: LFConfig) -> StateVector:
    """Both friend unitaries applied to Phi+_XY tensor |0>_MA |0>_MC."""
    s = StateVector.from_terms(LF_LAYOUT, {
        (0, 0, 0, 0): SQRT_HALF,
        (1, 1, 0, 0): SQRT_HALF,
    })
    for wing in (Wing.ALICE, Wing.CHIDI):
        u = _wing_unitary(cfg, wing)
        s = apply(u, s, on=_WING_FACTORS[wing])
    return s


def observable_spec(cfg: LFConfig, wing: Wing, which: str) -> MeasurementSpec:
    """The measurement the outside observer performs on one wing.

    which='ask': read the friend's memory qubit in the computational basis
    (label +1 for 0, -1 for 1), i.e. learn what she recorded.
    which='super': undo the friend unitary coherently, measure the wing
    particle along the super angle, redo the friend unitary.
    """
    particle, memory = _WING_FACTORS[wing]
    if which == "ask":
        return factor_basis_spec(LF_LAYOUT, memory, labels=(+1, -1))
    if which == "super":
        theta = cfg.super_a if wing is Wing.ALICE else cfg.super_c
        u = _wing_unitary(cfg, wing)
        sub = u.layout
        eye2 = np.eye(2, dtype=np.complex128)
        outcomes = []
        for label, p in angle_projectors(theta):
            conj = u.matrix @ np.kron(p, eye2) @ u.matrix.conj().T
            outcomes.append((label, embed(Operator(sub, conj), LF_LAYOUT,
                                          (particle, memory)).matrix))
        return MeasurementSpec(LF_LAYOUT, tuple(outcomes))
    raise ValueError(f"which must be 'ask' or 'super', got {which!r}")


def pair_spec(cfg: LFConfig, bob_choice: str, divya_choice: str) -> MeasurementSpec:
    """Joint 4-outcome measurement for one choice pair.  bob_choice selects
    ask (value A) or super (value B) on the Alice wing; divya_choice does the
    same for the Chidi wing.  Labels are (bob value, divya value) pairs."""
    return product_spec(observable_spec(cfg, Wing.ALICE, bob_choice),
                        observable_spec(cfg, Wing.CHIDI, divya_choice))


# pair id -> (bob_choice, divya_choice) that measures it
PAIR_CHOICES = {"AC": ("ask", "ask"), "AD": ("ask", "super"),
                "BC": ("super", "ask"), "BD": ("super", "super")}


@lru_cache(maxsize=32)
def born_pair_table(cfg: LFConfig, pair: str) -> MappingProxyType:
    """Exact Born joint table for one of the pairs AC, AD, BC, BD, keyed by
    (bob value, divya value) in PAIR_CELLS order.  Memoized on the frozen
    config, so the table is read-only."""
    bob_choice, divya_choice = PAIR_CHOICES[pair]
    state = lf_circuit(cfg)
    spec = pair_spec(cfg, bob_choice, divya_choice)
    return MappingProxyType(dict(born_distribution(state, spec)))


def pair_correlations(cfg: LFConfig) -> dict[str, float]:
    """Analytic correlators E(pair) for all four pairs."""
    out = {}
    for pair in PAIR_IDS:
        table = born_pair_table(cfg, pair)
        out[pair] = sum(x * y * pr for (x, y), pr in table.items())
    return out


def chsh_from_angles(cfg: LFConfig) -> float:
    e = pair_correlations(cfg)
    return e["AC"] + e["BC"] + e["BD"] - e["AD"]


def build_rovelli_states(cfg: RovelliConfig) -> list[StateVector]:
    """The three possible final states of the sequential scenario.

    Record values: PP (second measurement agreed with the first), PA (second
    disagreed), noM2 (first outcome was not the trigger, so no second
    measurement).  In each branch the value of S relative to the lab frame
    (S XOR orientation) equals the trigger for PP/PA and the non-trigger for
    noM2; the second system Y copies S for PP, opposes it for PA, and stays
    in the ready state (|up>+|down>)/sqrt(2) for noM2.
    """
    t = 1 if cfg.trigger == +1 else 0  # lab-relative S bit meaning "trigger seen"
    states = []
    for record, y_rule in ((0, "same"), (1, "opposite"), (2, "ready")):
        terms: dict[tuple[int, int, int, int], complex] = {}
        for orientation in (0, 1):
            if record == 2:
                s_bit = (1 - t) if orientation == 0 else t
            else:
                s_bit = t if orientation == 0 else (1 - t)
            if y_rule == "same":
                terms[(s_bit, s_bit, orientation, record)] = SQRT_HALF
            elif y_rule == "opposite":
                terms[(s_bit, 1 - s_bit, orientation, record)] = SQRT_HALF
            else:
                for y_bit in (0, 1):
                    terms[(s_bit, y_bit, orientation, record)] = SQRT_HALF * SQRT_HALF
        states.append(StateVector.from_terms(ROVELLI_LAYOUT, terms))
    return states


def rovelli_branches(state: StateVector) -> tuple[StateVector, StateVector]:
    """Split a sequential-scenario state into its two orientation branches."""
    dims = state.layout.dims
    axis = state.layout.axis("orientation")
    t = state.amps.reshape(dims)
    branches = []
    for o in (0, 1):
        sel = np.zeros_like(t)
        idx = [slice(None)] * len(dims)
        idx[axis] = o
        sel[tuple(idx)] = t[tuple(idx)]
        branches.append(StateVector(state.layout, math.sqrt(2.0) * sel.reshape(-1)))
    return branches[0], branches[1]


def record_spec(layout: FactorLayout, labels: tuple[object, ...] | None = None) -> MeasurementSpec:
    """Computational-basis measurement of the record register."""
    return factor_basis_spec(layout, "record", labels=labels)


def apply_global_rotation(s: StateVector, u: Operator) -> StateVector:
    """Apply a unitary acting on the orientation factor only.  Record
    observables commute with it, so no record statistic can change."""
    names = u.layout.names
    if set(names) != {"orientation"}:
        raise LayoutError("global rotations may act on the orientation factor only")
    return apply(u, s, on=names)
