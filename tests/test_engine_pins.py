"""Bitwise pins on the state-vector engine beyond the pinned reports: sha256
digests of the float64 bytes of the circuit's Born tables and amplitudes at
many seeded configs, of criterion 4's rotated states and their record
distributions, and of the sequential scenario's Born data.  A change in the
last bit of any of these values, a zero's sign included, fails here."""

import hashlib
import random
import struct

import numpy as np

from friendlab import acceptance
from friendlab.hilbert import apply, born_distribution
from friendlab.scenarios import LFConfig, RovelliConfig, born_tables, lf_circuit, rovelli_states

CONFIGS = 500    # seeded random circuit configs
ROTATIONS = 500  # criterion-4 Haar rotations, taken in turn over its five states


def _digest(values) -> str:
    """sha256 of the little-endian float64 bytes of `values`."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _parts(state) -> list[float]:
    """A state's amplitudes as real then imaginary part, in index order."""
    return [float(x) for a in state.amps for x in (a.real, a.imag)]


def _configs():
    """The default config, one with every angle 0 (where the friend unitaries
    have exact zeros), and CONFIGS random ones: half continuous angles, half
    multiples of 1/64 degree."""
    rng = random.Random(29)
    yield LFConfig()
    yield LFConfig(0.0, 0.0, 0.0, 0.0)
    for i in range(CONFIGS):
        if i % 2:
            yield LFConfig(*(rng.randrange(360 * 64) / 64 for _ in range(4)))
        else:
            yield LFConfig(*((360.0 * rng.random()) % 360.0 for _ in range(4)))


ENGINE_SHA256 = {
    "born_tables": "697b4784551e46c55af64d5a2d8524476bc43ef088db6a9aef71744efd2fda1f",
    "lf_circuit": "60b8eaa4c24f87ea61edc012de2d04109c6bbd05d9a795a748f46038296ee247",
    "criterion 4 states":
        "2f1bd629b292472978236b699bdf8dd0ab5921012524a91ac8debe18b5eea768",
    "criterion 4 records":
        "e4b0ec7c7707707fad3a207df31154330d958a4927080bcee6c8a20fcb82eb7e",
    "rovelli_states": "caf7f7129c4e8bb87b6b43bacec334262f59c6e344614ce49f94ec7e567c9fc8",
}


def test_circuit_born_tables_and_amplitudes_are_pinned():
    tables, amps = [], []
    for cfg in _configs():
        tables += [p for table in born_tables(cfg).values() for p in table]
        amps += _parts(lf_circuit(cfg))
    assert _digest(tables) == ENGINE_SHA256["born_tables"]
    assert _digest(amps) == ENGINE_SHA256["lf_circuit"]


def test_criterion_4_rotations_are_pinned():
    states = [state for _, state in acceptance._scenario_states()]
    rng = np.random.default_rng(4)
    rotated, records = [], []
    for i in range(ROTATIONS):
        u = acceptance._random_orientation_unitary(rng)
        after = apply(u, states[i % len(states)], ("orientation",))
        rotated += _parts(after)
        records += born_distribution(after, ("record",))
    assert _digest(rotated) == ENGINE_SHA256["criterion 4 states"]
    assert _digest(records) == ENGINE_SHA256["criterion 4 records"]


def test_rovelli_states_are_pinned():
    values = [v for trigger in (+1, -1) for born, witness in rovelli_states(RovelliConfig(trigger))
              for v in (*born, witness)]
    assert _digest(values) == ENGINE_SHA256["rovelli_states"]
