"""Monte Carlo runs of the frame-relational model.

On every run both friends have definite internal outcomes, sampled uniformly
and independently of anything the outside observers later choose.  External
outcomes are drawn from the Born joint of whichever pair of measurements is
actually performed.  A frame relation comes into existence only on the wings
where the outside observer asks the friend: it is computed at reveal time as
external * internal, never pre-sampled.  Absence is a first-class value,
because the whole content of the model is which variables exist on which
runs: a TrialBatch holds one int8 column per variable with 0 where it is
absent, and the RunRecord rows written to reports hold None (null in JSON,
an empty field in CSV).

The sequential scenario is a batch of the same kind: `simulate_rovelli`
returns int8 columns (first outcome, whether the second measurement ran, the
second outcome or 0, the record read from the final state), and
`rovelli_audit` is the one report on it that the `rovelli` command,
criterion 5 and the demo share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import scenarios, statlab
from .hilbert import born_distribution, sample_outcomes
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
# per CHOICE_PAIRS index: does Bob (Divya) ask?
_B_ASKS = np.array([b is Choice.ASK for b, _ in CHOICE_PAIRS])
_D_ASKS = np.array([d is Choice.ASK for _, d in CHOICE_PAIRS])
# per PAIR_CELLS index: the first (second) value of the cell
_FIRST, _SECOND = (np.array(v, dtype=np.int8) for v in zip(*PAIR_CELLS))

TV_THRESHOLD = 0.02        # observed pair table vs its Born joint
INTERNAL_THRESHOLD = 0.02  # worst internal-joint cell vs 1/4
SIGMAS = 3.0               # choice-independence band, in binomial standard errors


class InsufficientDataError(ValueError):
    """Not enough qualifying runs to form the requested statistic."""


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One run as a report row, with None where a variable does not exist."""

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

    def to_json_dict(self) -> dict:
        return {"a_internal": self.a_internal, "c_internal": self.c_internal,
                "b_choice": self.b_choice.value, "d_choice": self.d_choice.value,
                "b_outcome": self.b_outcome, "d_outcome": self.d_outcome,
                "a_external": self.a_external, "c_external": self.c_external,
                "a_relation": self.a_relation, "c_relation": self.c_relation}


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Runs as read-only int8 columns: `choice` indexes CHOICE_PAIRS and
    `columns` maps each variable (Ai, Ci, A, B, C, D, Ar, Cr) to its values,
    0 where the variable does not exist on that run."""

    config: LFConfig
    seed: int
    choice: np.ndarray
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.choice)

    def record(self, i: int) -> RunRecord:
        b_choice, d_choice = CHOICE_PAIRS[self.choice[i]]
        v = {name: int(col[i]) for name, col in self.columns.items()}
        return RunRecord(v["Ai"], v["Ci"], b_choice, d_choice,
                         *(v[name] or None for name in ("B", "D", "A", "C", "Ar", "Cr")))


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
    chunks = []
    for chunk_index in range(0, (n + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n - chunk_index * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        k = rng.choice(4, size=m, p=pvec)
        a_int = 1 - 2 * rng.integers(0, 2, size=m)
        c_int = 1 - 2 * rng.integers(0, 2, size=m)
        cell = (rng.random(m)[:, None] >= cdfs[k]).sum(axis=1)
        chunks.append((k, a_int, c_int, np.minimum(cell, 3)))  # guard against float round-off
    k, a_int, c_int, cell = (np.concatenate(parts).astype(np.int8) for parts in zip(*chunks))
    b_asks, d_asks = _B_ASKS[k], _D_ASKS[k]
    bob, divya = _FIRST[cell], _SECOND[cell]
    a_ext, c_ext = np.where(b_asks, bob, 0), np.where(d_asks, divya, 0)
    columns = {"Ai": a_int, "Ci": c_int, "A": a_ext, "B": np.where(b_asks, 0, bob),
               "C": c_ext, "D": np.where(d_asks, 0, divya),
               "Ar": a_ext * a_int, "Cr": c_ext * c_int}
    for col in (k, *columns.values()):
        col.setflags(write=False)
    return TrialBatch(cfg, seed, k, columns)


def empirical_pair_table(batch: TrialBatch, pair: tuple[str, str]) -> tuple[EmpiricalDist, int]:
    """2x2 frequency table over the runs where both variables are present,
    plus the qualifying-run count (so callers can judge statistical power)."""
    try:
        x, y = batch.columns[pair[0]], batch.columns[pair[1]]
    except KeyError as exc:
        raise ValueError(f"unknown variable in pair {pair}") from exc
    both = (x != 0) & (y != 0)
    n = int(both.sum())
    if n == 0:
        raise InsufficientDataError(f"no runs where both of {pair} are present")
    counts = np.bincount(2 * (x[both] < 0) + (y[both] < 0), minlength=4)  # PAIR_CELLS order
    return EmpiricalDist(PAIR_CELLS, tuple(counts.tolist())), n


@dataclass(frozen=True)
class IndependenceReport:
    """Per-wing conditional distributions of the internal outcome given the
    choice pair, plus any pairs whose difference exceeds the 3-sigma band."""

    stats: dict[str, dict[tuple[Choice, Choice], tuple[int, int]]]  # wing -> pair -> (n, n_plus)
    flags: tuple[dict, ...]

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
    n = np.bincount(batch.choice, minlength=4)
    present = np.flatnonzero(n)
    if len(present) < 2:
        raise InsufficientDataError("need at least two distinct choice pairs")
    stats: dict[str, dict] = {}
    for wing, internal in (("alice", batch.columns["Ai"]), ("chidi", batch.columns["Ci"])):
        plus = np.bincount(batch.choice[internal == 1], minlength=4)
        stats[wing] = {CHOICE_PAIRS[j]: (int(n[j]), int(plus[j])) for j in present}
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


def _unit(x: np.ndarray) -> np.ndarray:
    return (x == 1) | (x == -1)


def _wing_ok(asks, outcome, external, relation, internal) -> np.ndarray:
    """Per run: an asked wing has an external value and a relation whose
    product with the internal outcome is the external value, and no super
    outcome; a supermeasured wing has only its super outcome."""
    return np.where(asks, (outcome == 0) & _unit(relation) & (external == internal * relation),
                    _unit(outcome) & (external == 0) & (relation == 0))


def audit(batch: TrialBatch) -> tuple[list[dict], EmpiricalDist, IndependenceReport]:
    """The frame-relational audit of a batch.  Returns seven check dicts (the
    presence discipline and product identity on every run, the four observed
    pairs against their Born joints, the internal joint against uniform,
    choice independence), the internal (Ai, Ci) table and the independence
    report."""
    col = batch.columns
    ok = (_unit(col["Ai"]) & _unit(col["Ci"])
          & _wing_ok(_B_ASKS[batch.choice], col["B"], col["A"], col["Ar"], col["Ai"])
          & _wing_ok(_D_ASKS[batch.choice], col["D"], col["C"], col["Cr"], col["Ci"]))
    n = len(batch)
    invalid = n - int(ok.sum())
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


def simulate_rovelli(cfg: RovelliConfig, n: int, seed: int) -> dict[str, np.ndarray]:
    """n sequential runs as read-only int8 columns.  `first` is the friend's
    first outcome (+1/-1); `performed` is 1 exactly when it equals the
    trigger, and only then does `second` hold a second outcome (0
    otherwise).  `record` indexes ROVELLI_RECORDS: the label an outside
    observer reads from the record register, drawn from the Born
    distribution of the run's final state, never copied from `performed`.
    Draw order: n first outcomes, one second outcome per performed run, then
    the records of the runs ending in each final state, state by state."""
    rng = np.random.default_rng(seed)
    ready = scenarios.StateVector(scenarios.FactorLayout((("q", 2),)),
                                  np.array([scenarios.SQRT_HALF, scenarios.SQRT_HALF]))
    z = scenarios.factor_basis_spec(ready.layout, "q", labels=(+1, -1))
    z_labels = np.array(z.labels, dtype=np.int8)
    first = z_labels[sample_outcomes(ready, z, n, rng)]
    performed = first == cfg.trigger
    second = np.zeros(n, dtype=np.int8)
    second[performed] = z_labels[sample_outcomes(ready, z, int(performed.sum()), rng)]
    final = np.where(performed, np.where(second == first, 0, 1), 2)  # PP, PA, noM2 state
    spec = scenarios.record_spec(scenarios.ROVELLI_LAYOUT, labels=scenarios.ROVELLI_RECORDS)
    record = np.zeros(n, dtype=np.int8)
    for k, state in enumerate(scenarios.build_rovelli_states(cfg)):
        runs = final == k
        record[runs] = sample_outcomes(state, spec, int(runs.sum()), rng)
    columns = {"first": first, "performed": performed.astype(np.int8),
               "second": second, "record": record}
    for col in columns.values():
        col.setflags(write=False)
    return columns


def rovelli_audit(cfg: RovelliConfig, n: int,
                  seed: int) -> tuple[list[dict], dict[str, np.ndarray], int]:
    """The sequential scenario's report, shared by the `rovelli` command,
    criterion 5 and the demo.  Returns, per final state in ROVELLI_RECORDS
    order, its record probabilities and interference witness; the n runs of
    `simulate_rovelli`; and how many runs are consistent: the record read
    says a second measurement happened exactly when the first outcome was
    the trigger."""
    spec = scenarios.record_spec(scenarios.ROVELLI_LAYOUT, labels=scenarios.ROVELLI_RECORDS)
    states = [{"record": record,
               "record_probabilities": dict(born_distribution(state, spec)),
               "interference_witness": scenarios.interference_witness(
                   state, *scenarios.rovelli_branches(state))}
              for record, state in zip(scenarios.ROVELLI_RECORDS,
                                       scenarios.build_rovelli_states(cfg))]
    runs = simulate_rovelli(cfg, n, seed)
    reported = runs["record"] != scenarios.ROVELLI_RECORDS.index("noM2")
    consistent = int((reported == (runs["first"] == cfg.trigger)).sum())
    return states, runs, consistent
