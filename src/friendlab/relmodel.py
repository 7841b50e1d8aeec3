"""Monte Carlo runs of the frame-relational model.

On every run both friends have definite internal outcomes, sampled uniformly
and independently of anything the outside observers later choose.  External
outcomes are drawn from the Born joint of whichever pair of measurements is
actually performed.  A frame relation comes into existence only on the wings
where the outside observer asks the friend: it is computed at reveal time as
external * internal, never pre-sampled.  Absence is a first-class value
(None, serialized as null): the whole content of the model is which
variables exist on which runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import scenarios, statlab
# born_distribution is unused here; it stays bound because perfbench/tracing.py
# wraps it in this namespace
from .hilbert import born_distribution, sample_outcome  # noqa: F401
from .scenarios import LFConfig, RovelliConfig
from .statlab import PAIR_CELLS, PAIR_IDS, EmpiricalDist

CHUNK = 1 << 16  # fixed shard size; merged batches never depend on it


class Choice(Enum):
    ASK = "ask"
    SUPER = "super"


# (b_choice, d_choice) per pair, in PAIR_IDS order
CHOICE_PAIRS = tuple((Choice(b), Choice(d))
                     for b, d in (scenarios.PAIR_CHOICES[p] for p in PAIR_IDS))
# pair id -> the two observed variables it tabulates
OBSERVED_PAIRS = {pair: (pair[0], pair[1]) for pair in PAIR_IDS}

TV_THRESHOLD = 0.02        # observed pair table vs its Born joint
INTERNAL_THRESHOLD = 0.02  # worst internal-joint cell vs 1/4
SIGMAS = 3.0               # choice-independence band, in binomial standard errors


class InsufficientDataError(ValueError):
    """Not enough qualifying runs to form the requested statistic."""


@dataclass(frozen=True, slots=True)
class RunRecord:
    a_internal: int
    c_internal: int
    b_choice: Choice
    d_choice: Choice
    b_outcome: int | None
    d_outcome: int | None
    a_external: int | None
    c_external: int | None
    a_relation: int | None
    c_relation: int | None

    def validate(self) -> None:
        if self.a_internal not in (+1, -1) or self.c_internal not in (+1, -1):
            raise ValueError("internal outcomes must be +1 or -1")
        for choice, outcome, external, relation, internal in (
                (self.b_choice, self.b_outcome, self.a_external, self.a_relation, self.a_internal),
                (self.d_choice, self.d_outcome, self.c_external, self.c_relation, self.c_internal)):
            if choice is Choice.SUPER:
                if outcome not in (+1, -1) or external is not None or relation is not None:
                    raise ValueError("supermeasured wing must have only the super outcome")
            else:
                if outcome is not None or external not in (+1, -1) or relation not in (+1, -1):
                    raise ValueError("asked wing must have external and relation only")
                if external != internal * relation:
                    raise ValueError("external must equal internal * relation")

    def to_json_dict(self) -> dict:
        return {"a_internal": self.a_internal, "c_internal": self.c_internal,
                "b_choice": self.b_choice.value, "d_choice": self.d_choice.value,
                "b_outcome": self.b_outcome, "d_outcome": self.d_outcome,
                "a_external": self.a_external, "c_external": self.c_external,
                "a_relation": self.a_relation, "c_relation": self.c_relation}


@dataclass(frozen=True)
class TrialBatch:
    config: LFConfig
    records: tuple[RunRecord, ...]
    seed: int


def _assemble(cfg: LFConfig, b_choice: Choice, d_choice: Choice,
              a_int: int, c_int: int, bob_value: int, divya_value: int) -> RunRecord:
    if b_choice is Choice.ASK:
        a_ext, a_rel, b_out = bob_value, bob_value * a_int, None
    else:
        a_ext, a_rel, b_out = None, None, bob_value
    if d_choice is Choice.ASK:
        c_ext, c_rel, d_out = divya_value, divya_value * c_int, None
    else:
        c_ext, c_rel, d_out = None, None, divya_value
    return RunRecord(a_int, c_int, b_choice, d_choice, b_out, d_out,
                     a_ext, c_ext, a_rel, c_rel)


def _normalize_policy(policy) -> np.ndarray:
    if isinstance(policy, dict):
        vec = [float(policy.get(cp, 0.0)) for cp in CHOICE_PAIRS]
    else:
        vec = [float(p) for p in policy]
    if len(vec) != 4 or any(p < 0 for p in vec) or abs(sum(vec) - 1.0) > 1e-9:
        raise ValueError("policy must be 4 non-negative probabilities summing to 1")
    return np.array(vec) / sum(vec)


def uniform_policy() -> dict:
    return {cp: 0.25 for cp in CHOICE_PAIRS}


def simulate_batch(cfg: LFConfig, policy, n: int, seed: int) -> TrialBatch:
    """n independent trials with choices drawn from `policy`.

    Trials are generated in fixed-size chunks of CHUNK, each with its own rng
    seeded from (seed, chunk index); sharding work across processes along
    chunk boundaries therefore reproduces the single-process batch exactly,
    independent of shard count and order.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be a non-negative 64-bit integer")
    pvec = _normalize_policy(policy)
    tables = np.array([[scenarios.born_pair_table(cfg, pair)[c] for c in PAIR_CELLS]
                       for pair in PAIR_IDS])
    cdfs = np.cumsum(tables, axis=1)
    records: list[RunRecord] = []
    for chunk_index in range(0, (n + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n - chunk_index * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        k = rng.choice(4, size=m, p=pvec)
        a_int = 1 - 2 * rng.integers(0, 2, size=m)
        c_int = 1 - 2 * rng.integers(0, 2, size=m)
        u = rng.random(m)
        cell_idx = (u[:, None] >= cdfs[k]).sum(axis=1)
        cell_idx = np.minimum(cell_idx, 3)  # guard against float round-off
        for i in range(m):
            bob_value, divya_value = PAIR_CELLS[cell_idx[i]]
            b_choice, d_choice = CHOICE_PAIRS[k[i]]
            records.append(_assemble(cfg, b_choice, d_choice,
                                     int(a_int[i]), int(c_int[i]),
                                     bob_value, divya_value))
    return TrialBatch(cfg, tuple(records), seed)


_VARIABLE_GETTERS = {
    "A": lambda r: r.a_external,
    "B": lambda r: r.b_outcome,
    "C": lambda r: r.c_external,
    "D": lambda r: r.d_outcome,
    "Ai": lambda r: r.a_internal,
    "Ci": lambda r: r.c_internal,
    "Ar": lambda r: r.a_relation,
    "Cr": lambda r: r.c_relation,
}


def empirical_pair_table(batch: TrialBatch, pair: tuple[str, str]) -> tuple[EmpiricalDist, int]:
    """2x2 frequency table over the runs where both variables are present,
    plus the qualifying-run count (so callers can judge statistical power)."""
    try:
        get_v, get_w = _VARIABLE_GETTERS[pair[0]], _VARIABLE_GETTERS[pair[1]]
    except KeyError as exc:
        raise ValueError(f"unknown variable in pair {pair}") from exc
    counts = {cell: 0 for cell in PAIR_CELLS}
    for r in batch.records:
        x, y = get_v(r), get_w(r)
        if x is not None and y is not None:
            counts[(x, y)] += 1
    n = sum(counts.values())
    if n == 0:
        raise InsufficientDataError(f"no runs where both of {pair} are present")
    return EmpiricalDist(PAIR_CELLS, tuple(counts[c] for c in PAIR_CELLS)), n


@dataclass(frozen=True)
class IndependenceReport:
    """Per-wing conditional distributions of the internal outcome given the
    choice pair, plus any pairs whose difference exceeds the 3-sigma band."""

    stats: dict[str, dict[tuple[Choice, Choice], tuple[int, int]]]  # wing -> pair -> (n, n_plus)
    flags: tuple[dict, ...]

    @property
    def clean(self) -> bool:
        return not self.flags

    def to_json_dict(self) -> dict:
        return {
            "stats": {wing: {f"{b.value},{d.value}": {"n": n, "n_plus": np_}
                             for (b, d), (n, np_) in pairs.items()}
                      for wing, pairs in self.stats.items()},
            "flags": list(self.flags),
        }


def check_choice_independence(batch: TrialBatch) -> IndependenceReport:
    """Flag any choice pair whose conditional internal-outcome frequency
    differs from another's by more than SIGMAS binomial standard errors."""
    stats: dict[str, dict] = {"alice": {}, "chidi": {}}
    for r in batch.records:
        key = (r.b_choice, r.d_choice)
        for wing, value in (("alice", r.a_internal), ("chidi", r.c_internal)):
            n, n_plus = stats[wing].get(key, (0, 0))
            stats[wing][key] = (n + 1, n_plus + (1 if value == +1 else 0))
    if len(stats["alice"]) < 2:
        raise InsufficientDataError("need at least two distinct choice pairs")
    flags = []
    for wing, pairs in stats.items():
        keys = sorted(pairs, key=lambda cp: (cp[0].value, cp[1].value))
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                n1, k1 = pairs[keys[i]]
                n2, k2 = pairs[keys[j]]
                p1, p2 = k1 / n1, k2 / n2
                pooled = (k1 + k2) / (n1 + n2)
                band = SIGMAS * (pooled * (1 - pooled) * (1 / n1 + 1 / n2)) ** 0.5
                if abs(p1 - p2) > band:
                    flags.append({
                        "wing": wing,
                        "pair_1": f"{keys[i][0].value},{keys[i][1].value}",
                        "pair_2": f"{keys[j][0].value},{keys[j][1].value}",
                        "difference": abs(p1 - p2),
                        "band": band,
                    })
    return IndependenceReport(stats, tuple(flags))


def observed_pair_checks(batch: TrialBatch) -> tuple[dict[str, EmpiricalDist], list[dict]]:
    """Each observed pair's table over the runs where both of its variables
    exist, and the check of its TV distance from the pair's Born joint."""
    tables, checks = {}, []
    for pair_id, pair in OBSERVED_PAIRS.items():
        table, n = empirical_pair_table(batch, pair)
        tv = statlab.total_variation(table, scenarios.born_pair_table(batch.config, pair_id))
        tables[pair_id] = table
        checks.append(statlab.check(f"observed pair {pair_id} vs Born", tv, TV_THRESHOLD,
                                    n=n, metric="TV"))
    return tables, checks


def audit(batch: TrialBatch) -> tuple[list[dict], EmpiricalDist, IndependenceReport]:
    """The frame-relational audit of a batch.  Returns seven check dicts (the
    presence discipline and product identity on every run, the four observed
    pairs against their Born joints, the internal joint against uniform,
    choice independence), the internal (Ai, Ci) table and the independence
    report."""
    invalid = 0
    for r in batch.records:
        try:
            r.validate()
        except ValueError:
            invalid += 1
    n = len(batch.records)
    checks = [statlab.check("presence/product violations", invalid, 0.0, n=n)]
    checks += observed_pair_checks(batch)[1]
    internal, n_int = empirical_pair_table(batch, ("Ai", "Ci"))
    worst = max(abs(internal.freq(c) - 0.25) for c in PAIR_CELLS)
    checks.append(statlab.check("internal joint cells vs 1/4", worst, INTERNAL_THRESHOLD,
                                n=n_int))
    independence = check_choice_independence(batch)
    checks.append(statlab.check("choice-independence flags", len(independence.flags), 0.0,
                                n=n))
    return checks, internal, independence


@dataclass(frozen=True)
class RovelliRunRecord:
    first: int
    performed_second: bool
    second: int | None
    report_consistent: bool

    def to_json_dict(self) -> dict:
        return {"first": self.first, "performed_second": self.performed_second,
                "second": self.second, "report_consistent": self.report_consistent}


def rovelli_run(cfg: RovelliConfig, ask: bool, rng: np.random.Generator) -> RovelliRunRecord:
    """One sequential run: the friend's first outcome is definite; the second
    measurement happens exactly when it equals the trigger.  With ask=True
    the outside observer reads the record register of the corresponding final
    state and the report is checked against the run's own bookkeeping."""
    ready = scenarios.StateVector(
        scenarios.FactorLayout((("q", 2),)),
        np.array([scenarios.SQRT_HALF, scenarios.SQRT_HALF]))
    z = scenarios.factor_basis_spec(ready.layout, "q", labels=(+1, -1))
    first, _ = sample_outcome(ready, z, rng)
    performed = first == cfg.trigger
    second = None
    if performed:
        second, _ = sample_outcome(ready, z, rng)
    if ask:
        states = scenarios.build_rovelli_states(cfg)
        if not performed:
            state = states[2]
        else:
            state = states[0] if second == +1 else states[1]
        spec = scenarios.record_spec(scenarios.ROVELLI_LAYOUT,
                                     labels=scenarios.ROVELLI_RECORDS)
        label, _ = sample_outcome(state, spec, rng)
        reported_performed = label != "noM2"
    else:
        reported_performed = performed
    consistent = reported_performed == (first == cfg.trigger)
    return RovelliRunRecord(first, performed, second, consistent)
