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

All builders are pure functions of immutable inputs.  A scenario's Born data
is one memoized value of its frozen config: `born_tables` for the circuit,
`rovelli_states` for the sequential scenario; `circuit_targets` makes exact
targets of the circuit's Born tables, and `circuit_verdict` memoizes them,
their `decide` and the snap caveat: the two load `marginal_polytope` first.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from . import _submodule
from .hilbert import ATOL, FactorLayout, StateVector, apply, born_distribution, rotation_matrix
from .statlab import CHOICE, PAIR_IDS, correlator, sign_variants

SQRT_HALF = 1.0 / math.sqrt(2.0)
SNAP = 10 ** 6  # denominator a Born single or correlator snaps to

# Qubit value conventions: 0 = down / aligned, 1 = up / anti-aligned.
BASIC_LAYOUT = FactorLayout((("S", 2), ("A", 2)))
FRAME_LAYOUT = FactorLayout((("S", 2), ("orientation", 2), ("record", 2)))
LF_LAYOUT = FactorLayout((("X", 2), ("Y", 2), ("MA", 2), ("MC", 2)))
ROVELLI_LAYOUT = FactorLayout((("S", 2), ("Y", 2), ("orientation", 2), ("record", 3)))

ROVELLI_RECORDS = ("PP", "PA", "noM2")


# JSON key of each LFConfig angle, in report order
_ANGLE_KEYS = {"ask_A": "ask_a", "super_A": "super_a", "ask_C": "ask_c", "super_C": "super_c"}


class LFConfig(namedtuple("LFConfig", "ask_a super_a ask_c super_c")):
    """Measurement angles (degrees) for the four-observer circuit.

    ask_* is the angle of the friend's own measurement (read out by asking
    her); super_* is the angle of the outside observer's supermeasurement.
    The defaults hit the Tsirelson point S = 2*sqrt(2).
    """

    __slots__ = ()

    def __new__(cls, ask_a=0.0, super_a=90.0, ask_c=45.0, super_c=135.0):
        angles = []
        for name, v in zip(cls._fields, (ask_a, super_a, ask_c, super_c)):
            if isinstance(v, bool):  # float(True) is 1.0, but JSON true is no angle
                raise ValueError(f"{name} must be a number, got {v!r}")
            v = float(v)
            if not 0.0 <= v < 360.0:
                raise ValueError(f"{name} must lie in [0, 360), got {v}")
            angles.append(v)
        return super().__new__(cls, *angles)

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


class RovelliConfig(namedtuple("RovelliConfig", "trigger")):
    """trigger: the first-measurement outcome (+1 parallel / -1 antiparallel)
    that makes the friend measure the second system."""

    __slots__ = ()

    def __new__(cls, trigger: int = +1):
        if trigger not in (+1, -1):
            raise ValueError("trigger must be +1 or -1")
        return super().__new__(cls, trigger)

    def to_json_dict(self) -> dict:
        return {"rovelli": {"trigger": self.trigger}}


def build_basic_wf_state(a: float | complex, b: float | complex) -> StateVector:
    """a|down>_S|down>_A + b|up>_S|up>_A over layout (S, A), a and b as given."""
    try:
        norm = abs(a) ** 2 + abs(b) ** 2
    except OverflowError:  # a float amplitude above about 1e154
        norm = math.inf
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
def _friend_unitary(theta_degrees: float) -> tuple[tuple[float, ...], ...]:
    """4x4 unitary on (wing particle, memory): rotate the wing by -theta,
    copy it into the memory with a controlled flip, rotate back; that is
    P0 (x) I + P1 (x) X, with Pk the projector on column k of R(theta).  It
    is real and exactly symmetric, so it is its own inverse.  Memoized: the
    circuit and the supermeasurement share one per ask angle."""
    r = rotation_matrix(theta_degrees)
    # row (wing a, memory out), column (wing b, memory in): Pk[a][b], k = 0
    # where the memory is kept (the wing reads 0) and 1 where it is flipped
    return tuple(tuple(r[a][mo != mi] * r[b][mo != mi] for b in (0, 1) for mi in (0, 1))
                 for a in (0, 1) for mo in (0, 1))


# per variable, its wing: the friend's (particle, memory) qubits and the
# LFConfig fields of the wing's ask and super angles.  A and B are measured
# on Alice's wing, C and D on Chidi's.
_WINGS = {**dict.fromkeys("AB", (("X", "MA"), "ask_a", "super_a")),
          **dict.fromkeys("CD", (("Y", "MC"), "ask_c", "super_c"))}
# per variable, the factor read: asking a friend (A, C) reads her memory
# qubit, what she recorded, and a supermeasurement (B, D) the wing particle
_READS = {var: _WINGS[var][0][CHOICE[var] == "ask"] for var in _WINGS}
_PAIR_READS = {p: (_READS[p[0]], _READS[p[1]]) for p in PAIR_IDS}


# the circuit's ready state: Phi+_XY tensor |0>_MA |0>_MC
_LF_READY = StateVector.from_terms(LF_LAYOUT, {(0, 0, 0, 0): SQRT_HALF, (1, 1, 0, 0): SQRT_HALF})


def lf_circuit(cfg: LFConfig) -> StateVector:
    """Both friend unitaries applied to the ready state Phi+_XY tensor |0>_MA |0>_MC."""
    state = _LF_READY
    for var in ("A", "C"):
        wing, ask, _ = _WINGS[var]
        state = apply(_friend_unitary(getattr(cfg, ask)), state, wing)
    return state


@lru_cache(maxsize=8)
def born_tables(cfg: LFConfig) -> MappingProxyType[str, tuple[float, ...]]:
    """The exact Born joint table of each pair, keyed in PAIR_IDS order, in
    PAIR_CELLS order, value 0 reading as +1 and 1 as -1 (read-only; memoized
    on the frozen config).  BC and BD share Alice's supermeasured wing, so a
    fresh config takes 8 `apply` calls on the 16 amplitudes of LF_LAYOUT,
    from one ready state built at import, and 4 readings."""

    def supermeasured(state: StateVector, var: str) -> StateVector:
        # the friend unitary on the wing undone (applied again: it is its own
        # inverse), the particle rotated by -super
        (particle, memory), ask, super_angle = _WINGS[var]
        state = apply(_friend_unitary(getattr(cfg, ask)), state, (particle, memory))
        return apply(rotation_matrix(-getattr(cfg, super_angle)), state, (particle,))

    ac = lf_circuit(cfg)
    bc = supermeasured(ac, "B")
    states = {"AC": ac, "AD": supermeasured(ac, "D"), "BC": bc, "BD": supermeasured(bc, "D")}
    return MappingProxyType({pair: born_distribution(states[pair], read)
                             for pair, read in _PAIR_READS.items()})


def pair_correlations(cfg: LFConfig) -> dict[str, float]:
    """Analytic correlators E(pair) for all four pairs, in PAIR_IDS order."""
    return {pair: correlator(table) for pair, table in born_tables(cfg).items()}


def circuit_targets(cfg: LFConfig) -> marginal_polytope.PairTargets:
    """The circuit's Born tables as exact targets snapped to multiples of 1/SNAP."""
    return _submodule("marginal_polytope").PairTargets.from_born(born_tables(cfg), SNAP)


@lru_cache(maxsize=8)
def circuit_verdict(cfg: LFConfig) -> tuple[marginal_polytope.PairTargets, tuple, float | None]:
    """The circuit's exact verdict, memoized on the frozen config:
    `circuit_targets(cfg)`, `decide` of them, and the largest float Born CHSH
    variant when it is within 2/SNAP (plus round-off) of 2, else None.  The
    snap moves each correlator by at most 1/(2*SNAP), so there the verdict
    holds for the snapped targets, not the circuit."""
    targets = circuit_targets(cfg)
    top = max(sign_variants(pair_correlations(cfg).values()).values())
    return (targets, _submodule("marginal_polytope").decide(targets),
            None if abs(top - 2) > 2 / SNAP + ATOL else top)


def build_rovelli_states(cfg: RovelliConfig) -> tuple[StateVector, ...]:
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
    for record in range(len(ROVELLI_RECORDS)):
        terms: dict[tuple[int, int, int, int], float] = {}
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
    layout = state.layout
    stride = math.prod(layout.dims[layout.axis("orientation") + 1:])  # of the orientation digit
    aligned, flipped = ([math.sqrt(2.0) * a if k // stride % 2 == o else 0.0
                         for k, a in enumerate(state.amps)] for o in (0, 1))
    return StateVector(layout, aligned), StateVector(layout, flipped)


@lru_cache(maxsize=2)
def rovelli_states(cfg: RovelliConfig) -> tuple[tuple[tuple[float, ...], float], ...]:
    """Per final state of `build_rovelli_states`, in ROVELLI_RECORDS order:
    its record Born probabilities, also in ROVELLI_RECORDS order, and its
    interference witness (memoized on the frozen config)."""
    return tuple((born_distribution(s, ("record",)),
                  interference_witness(s, *orientation_branches(s)))
                 for s in build_rovelli_states(cfg))
