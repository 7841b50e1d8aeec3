"""Monte Carlo runs of the frame-relational model.

On every run both friends have definite internal outcomes, sampled uniformly
and independently of anything the outside observers later choose.  External
outcomes are drawn from the Born joint of whichever pair of measurements is
actually performed.  A frame relation comes into existence only on the wings
where the outside observer asks the friend: it is computed at reveal time as
external * internal, never pre-sampled.  Which variables exist on a run, and
their values, follow from its pair k (a PAIR_IDS index), its internal bits
ia and ic (0 for +1, 1 for -1) and its Born cell (a PAIR_CELLS index), so a
run is one of 64 codes 16*k + 8*ia + 4*ic + cell.  A TrialBatch is a uint8
column of codes read through 64-entry tables of k and of each variable, 0
where it is absent; the audits read a batch as its histogram of codes.
Report rows hold None there (null in JSON, an empty field in CSV).

The sequential scenario is a columnar batch: `simulate_rovelli` returns
int8 columns (first outcome, whether the second measurement ran, the
second outcome or 0, the record read from the final state), and
`rovelli_audit` is the one report on it that the `rovelli` command,
criterion 5 and the demo share.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, fields

import numpy as np

from . import scenarios, statlab
from .hilbert import (FactorLayout, StateVector, born_distribution, factor_basis_spec,
                      sample_outcomes)
from .scenarios import SQRT_HALF, LFConfig, RovelliConfig
from .statlab import CHOICE, PAIR_CELLS, PAIR_IDS

CHUNK = 1 << 16  # fixed shard size; merged batches never depend on it
VARIABLES = ("Ai", "Ci", "A", "B", "C", "D", "Ar", "Cr")

# per PAIR_IDS index: does Bob (Divya) ask, measuring A (C)?
_B_ASKS, _D_ASKS = (np.array([p[w] in ("A", "C") for p in PAIR_IDS]) for w in (0, 1))
# per PAIR_CELLS index: its bin 3x + y + 4 in empirical_pair_table (8, 6, 2, 0)
_PRESENT_CELLS = [3 * x + y + 4 for x, y in PAIR_CELLS]

TV_THRESHOLD = 0.02        # observed pair table vs its Born joint
INTERNAL_THRESHOLD = 0.02  # worst internal-joint cell vs 1/4
SIGMAS = 3.0               # choice-independence band, in binomial standard errors

# the sequential scenario's ready qubit (|up>+|down>)/sqrt(2) and its z measurement
_READY = StateVector(FactorLayout((("q", 2),)), np.array([SQRT_HALF, SQRT_HALF]))
_Z = factor_basis_spec(_READY.layout, "q", labels=(+1, -1))
_Z_LABELS = np.array(_Z.labels, dtype=np.int8)


class InsufficientDataError(ValueError):
    """Not enough qualifying runs to form the requested statistic."""


@dataclass(frozen=True, slots=True)
class RunRecord:
    """The schema of a report row: one run, with None where a variable does
    not exist.  `TrialBatch.rows` builds the rows, keyed in this field order."""

    a_internal: int
    c_internal: int
    b_choice: str
    d_choice: str
    b_outcome: int | None
    d_outcome: int | None
    a_external: int | None
    c_external: int | None
    a_relation: int | None
    c_relation: int | None


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
# the variable behind each RunRecord field after the two choices; 0 becomes None
_OPTIONAL = ("B", "D", "A", "C", "Ar", "Cr")


def _decode(code: int) -> dict[str, int]:
    """k and each variable of a run with this code, 0 where it does not exist."""
    (bob, divya), (x, y) = PAIR_IDS[code >> 4], PAIR_CELLS[code & 3]
    v = {"k": code >> 4, "Ai": 1 - 2 * (code >> 3 & 1), "Ci": 1 - 2 * (code >> 2 & 1),
         "A": 0, "B": 0, "C": 0, "D": 0, bob: x, divya: y}
    return {**v, "Ar": v["A"] * v["Ai"], "Cr": v["C"] * v["Ci"]}


_DECODED = [_decode(code) for code in range(64)]
# per code: k and each variable (read-only once in a TrialBatch), its report row
# and the row as canonical JSON (sorted keys, no whitespace)
TABLES = {name: np.array([d[name] for d in _DECODED], np.int8) for name in ("k", *VARIABLES)}
_ROWS = [dict(zip(RECORD_FIELDS, (d["Ai"], d["Ci"], *(CHOICE[v] for v in PAIR_IDS[d["k"]]),
                                  *(d[v] or None for v in _OPTIONAL)))) for d in _DECODED]
_FRAGMENTS = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in _ROWS]
# --planted-violation: Alice's internal outcome is +1 exactly when Bob asks
PLANTED = np.array([c & ~8 if _B_ASKS[c >> 4] else c | 8 for c in range(64)], np.uint8)
PLANTED.setflags(write=False)


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Runs as a uint8 column of codes and the `tables` of k and each
    variable per code (TABLES, unless a test corrupts one), made read-only."""

    config: LFConfig
    code: np.ndarray
    tables: dict[str, np.ndarray]

    def __post_init__(self):
        for column in (self.code, *self.tables.values()):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.code)

    @functools.cached_property
    def histogram(self) -> np.ndarray:
        """The number of runs with each code."""
        return np.bincount(self.code, minlength=64)

    def rows(self, stop: int) -> list[dict]:
        """The first `stop` runs as dicts keyed by RECORD_FIELDS, None where absent."""
        return [dict(_ROWS[c]) for c in self.code[:stop].tolist()]

    def rows_json(self, stop: int) -> str:
        """`rows(stop)` as canonical JSON, joined from pre-encoded rows."""
        return "[" + ",".join([_FRAGMENTS[c] for c in self.code[:stop].tolist()]) + "]"


def simulate_batch(cfg: LFConfig, n: int, seed: int) -> TrialBatch:
    """n independent trials, each measuring a pair drawn uniformly.

    Trials are generated in fixed-size chunks of CHUNK, each with its own rng
    seeded from (seed, chunk index); sharding work across processes along
    chunk boundaries therefore reproduces the single-process batch exactly,
    independent of shard count and order.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be a non-negative 64-bit integer")
    tables = np.array([scenarios.born_pair_table(cfg, pair) for pair in PAIR_IDS])
    # row j: P(cell <= j) per pair; a uniform past the float sum of a table
    # lands in cell 3, since Born probabilities are non-negative
    cdf_rows = np.cumsum(tables, axis=1).T[:3].copy()
    chunks = []
    for chunk_index in range(0, (n + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n - chunk_index * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        # floor(4u): the draws and values of rng.choice(4, p=[1/4] * 4)
        k = (rng.random(m) * 4).astype(np.intp)
        code = 16 * k + 8 * rng.integers(0, 2, size=m)
        code = (code + 4 * rng.integers(0, 2, size=m)).astype(np.uint8)
        u = rng.random(m)
        for row in cdf_rows:
            code += u >= row.take(k)
        chunks.append(code)
    return TrialBatch(cfg, np.concatenate(chunks), TABLES)


def empirical_pair_table(batch: TrialBatch, pair) -> tuple[int, ...]:
    """2x2 count table, in PAIR_CELLS order, of two variables such as the
    pair id "AC" or ("Ai", "Ci"), over the runs where both are present.  Its
    sum is the qualifying-run count, by which callers judge statistical
    power."""
    if pair[0] not in VARIABLES or pair[1] not in VARIABLES:
        raise ValueError(f"unknown variable in pair {pair}")
    x, y = batch.tables[pair[0]], batch.tables[pair[1]]
    # each code's runs in the bin of its (x, y) in {-1, 0, 1}^2, 0 marking absent
    counts = np.bincount(3 * x + y + 4, weights=batch.histogram, minlength=9)[_PRESENT_CELLS]
    counts = tuple(int(c) for c in counts.tolist())
    if not any(counts):
        raise InsufficientDataError(f"no runs where both of {pair} are present")
    return counts


def check_choice_independence(batch: TrialBatch) -> dict:
    """The report's independence entry.  `stats` holds, per wing and per
    choice pair ("ask,super": Bob's and Divya's choice), the runs `n` and
    those whose internal outcome is +1 `n_plus`; `flags` lists each two
    choice pairs whose conditional frequencies differ by more than SIGMAS
    binomial standard errors."""
    runs, pair = batch.histogram, batch.tables["k"]
    n = np.bincount(pair, weights=runs, minlength=4)
    present = np.flatnonzero(n)
    if len(present) < 2:
        raise InsufficientDataError("need at least two distinct choice pairs")
    stats, flags = {}, []
    for wing, internal in (("alice", "Ai"), ("chidi", "Ci")):
        plus = np.bincount(pair, weights=runs * (batch.tables[internal] == 1), minlength=4)
        counts = {",".join(CHOICE[v] for v in PAIR_IDS[j]): (int(n[j]), int(plus[j]))
                  for j in present}
        stats[wing] = {key: {"n": m, "n_plus": k} for key, (m, k) in counts.items()}
        for (key1, (n1, k1)), (key2, (n2, k2)) in itertools.combinations(counts.items(), 2):
            p1, p2 = k1 / n1, k2 / n2
            pooled = (k1 + k2) / (n1 + n2)
            band = SIGMAS * (pooled * (1 - pooled) * (1 / n1 + 1 / n2)) ** 0.5
            if abs(p1 - p2) > band:
                flags.append({"wing": wing, "pair_1": key1, "pair_2": key2,
                              "difference": abs(p1 - p2), "band": band})
    return {"stats": stats, "flags": flags}


def observed_pair_checks(batch: TrialBatch) -> tuple[tuple[tuple[int, ...], ...], list[dict]]:
    """Each observed pair's count table over the runs where both of its
    variables exist, in PAIR_IDS order, and the check of its TV distance
    from the pair's Born joint."""
    tables, checks = [], []
    for pair in PAIR_IDS:
        table = empirical_pair_table(batch, pair)
        tv = statlab.total_variation(statlab.freqs(table),
                                     scenarios.born_pair_table(batch.config, pair))
        tables.append(table)
        checks.append(statlab.check(f"observed pair {pair} vs Born", tv, TV_THRESHOLD,
                                    n=sum(table), metric="TV"))
    return tuple(tables), checks


def audit(batch: TrialBatch) -> tuple[list[dict], tuple[int, ...], dict]:
    """The frame-relational audit of a batch.  Returns seven check dicts (the
    presence discipline and product identity on every run, the four observed
    pairs against their Born joints, the internal joint against uniform,
    choice independence), the internal (Ai, Ci) count table and the
    independence report of `check_choice_independence`."""
    t = batch.tables
    # per code: both internal outcomes exist; an asked wing has a relation and
    # external = internal * relation, a supermeasured wing only its super outcome
    ok = (abs(t["Ai"]) == 1) & (abs(t["Ci"]) == 1)
    for asks, outcome, external, relation, internal in (
            (_B_ASKS[t["k"]], t["B"], t["A"], t["Ar"], t["Ai"]),
            (_D_ASKS[t["k"]], t["D"], t["C"], t["Cr"], t["Ci"])):
        ok &= np.where(asks, (outcome == 0) & (abs(relation) == 1)
                       & (external == internal * relation),
                       (abs(outcome) == 1) & (external == 0) & (relation == 0))
    n = len(batch)
    invalid = int(batch.histogram[~ok].sum())
    checks = [statlab.check("presence/product violations", invalid, 0.0, n=n)]
    checks += observed_pair_checks(batch)[1]
    internal = empirical_pair_table(batch, ("Ai", "Ci"))
    worst = max(abs(f - 0.25) for f in statlab.freqs(internal))
    checks.append(statlab.check("internal joint cells vs 1/4", worst, INTERNAL_THRESHOLD,
                                n=sum(internal)))
    independence = check_choice_independence(batch)
    checks.append(statlab.check("choice-independence flags", len(independence["flags"]), 0.0,
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
    first = _Z_LABELS[sample_outcomes(_READY, _Z, n, rng)]
    performed = first == cfg.trigger
    second = np.zeros(n, dtype=np.int8)
    second[performed] = _Z_LABELS[sample_outcomes(_READY, _Z, int(performed.sum()), rng)]
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
                   state, *scenarios.orientation_branches(state))}
              for record, state in zip(scenarios.ROVELLI_RECORDS,
                                       scenarios.build_rovelli_states(cfg))]
    runs = simulate_rovelli(cfg, n, seed)
    reported = runs["record"] != scenarios.ROVELLI_RECORDS.index("noM2")
    consistent = int((reported == (runs["first"] == cfg.trigger)).sum())
    return states, runs, consistent
