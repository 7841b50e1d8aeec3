"""The engine's byte pins, one test per part; tests/pins.py holds their digests and code."""

import functools

import pins

digests = functools.cache(lambda: pins.engine_digests(True))


def test_circuit_born_tables_and_amplitudes_are_pinned():
    assert digests()["born_tables"] == pins.ENGINE_SHA256["born_tables"]
    assert digests()["lf_circuit"] == pins.ENGINE_SHA256["lf_circuit"]


def test_criterion_4_rotations_are_pinned():
    assert digests()["criterion 4 states"] == pins.ENGINE_SHA256["criterion 4 states"]
    assert digests()["criterion 4 records"] == pins.ENGINE_SHA256["criterion 4 records"]


def test_rovelli_states_are_pinned():
    assert digests()["rovelli_states"] == pins.ENGINE_SHA256["rovelli_states"]
