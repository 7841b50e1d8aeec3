"""Monte Carlo runs of the frame-relational model.

On every run both friends have definite internal outcomes, sampled uniformly
and independently of anything the outside observers later choose.  External
outcomes are drawn from the Born joint of whichever pair of measurements is
actually performed.  A frame relation comes into existence only on the wings
where the outside observer asks the friend: it is computed at reveal time as
external * internal, never pre-sampled.  Absence is a first-class value,
because the whole content of the model is which variables exist on which
runs: a TrialBatch holds the pair each run measures (an index into
PAIR_IDS) and one int8 column per variable with 0 where it is absent, and
the RunRecord rows written to reports hold None (null in JSON, an empty
field in CSV).

The sequential scenario is a batch of the same kind: `simulate_rovelli`
returns int8 columns (first outcome, whether the second measurement ran, the
second outcome or 0, the record read from the final state), and
`rovelli_audit` is the one report on it that the `rovelli` command,
criterion 5 and the demo share.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import scenarios, statlab
from .hilbert import born_distribution, sample_outcomes
from .scenarios import LFConfig, RovelliConfig
from .statlab import PAIR_CELLS, PAIR_IDS, EmpiricalDist

CHUNK = 1 << 16  # fixed shard size; merged batches never depend on it

# per PAIR_IDS index: Bob's and Divya's choice, and does Bob (Divya) ask?
_CHOICES = tuple(scenarios.PAIR_CHOICES[p] for p in PAIR_IDS)
_B_ASKS, _D_ASKS = (np.array([c[w] == "ask" for c in _CHOICES]) for w in (0, 1))
_UNIFORM = np.full(len(PAIR_IDS), 0.25)  # every run picks its pair uniformly
# per PAIR_CELLS index: the first (second) value of the cell
_FIRST, _SECOND = (np.array(v, dtype=np.int8) for v in zip(*PAIR_CELLS))
# per PAIR_CELLS index: its bin 3x + y + 4 in empirical_pair_table (8, 6, 2, 0)
_PRESENT_CELLS = [3 * x + y + 4 for x, y in PAIR_CELLS]

TV_THRESHOLD = 0.02        # observed pair table vs its Born joint
INTERNAL_THRESHOLD = 0.02  # worst internal-joint cell vs 1/4
SIGMAS = 3.0               # choice-independence band, in binomial standard errors


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
# the column behind each RunRecord field after the two choices; 0 becomes None
_OPTIONAL = ("B", "D", "A", "C", "Ar", "Cr")


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Runs as read-only int8 columns: `choice` indexes PAIR_IDS and
    `columns` maps each variable (Ai, Ci, A, B, C, D, Ar, Cr) to its values,
    0 where the variable does not exist on that run."""

    config: LFConfig
    seed: int
    choice: np.ndarray
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.choice)

    def rows(self, stop: int) -> list[dict]:
        """The first `stop` runs as report rows: dicts keyed by RECORD_FIELDS,
        with None where a variable does not exist."""
        choices = zip(*(_CHOICES[k] for k in self.choice[:stop].tolist()))  # Bob's, Divya's
        values = [self.columns["Ai"][:stop].tolist(), self.columns["Ci"][:stop].tolist(),
                  *choices, *([v or None for v in self.columns[name][:stop].tolist()]
                              for name in _OPTIONAL)]
        return [dict(zip(RECORD_FIELDS, row)) for row in zip(*values)]


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
    cdf_rows = np.cumsum(tables, axis=1).T.copy()  # row j: P(cell <= j) per pair
    chunks = []
    for chunk_index in range(0, (n + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n - chunk_index * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        k = rng.choice(4, size=m, p=_UNIFORM)
        a_int = 1 - 2 * rng.integers(0, 2, size=m)
        c_int = 1 - 2 * rng.integers(0, 2, size=m)
        u = rng.random(m)
        cell = sum(u >= row[k] for row in cdf_rows)  # int: sum() starts from 0
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


def empirical_pair_table(batch: TrialBatch, pair) -> tuple[EmpiricalDist, int]:
    """2x2 count table of two variables, such as the pair id "AC" or
    ("Ai", "Ci"), over the runs where both are present, plus the
    qualifying-run count (so callers can judge statistical power)."""
    try:
        x, y = batch.columns[pair[0]], batch.columns[pair[1]]
    except KeyError as exc:
        raise ValueError(f"unknown variable in pair {pair}") from exc
    # one count per (x, y) in {-1, 0, 1}^2; 0 marks an absent variable
    counts = np.bincount(3 * x + y + 4, minlength=9)[_PRESENT_CELLS].tolist()
    n = sum(counts)
    if n == 0:
        raise InsufficientDataError(f"no runs where both of {pair} are present")
    return EmpiricalDist(tuple(counts)), n


@dataclass(frozen=True)
class IndependenceReport:
    """Per-wing conditional distributions of the internal outcome given the
    choice pair (Bob's and Divya's "ask"/"super"), plus any choice pairs
    whose difference exceeds the 3-sigma band."""

    stats: dict[str, dict[tuple[str, str], tuple[int, int]]]  # wing -> choices -> (n, n_plus)
    flags: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "stats": {wing: {f"{b},{d}": {"n": n, "n_plus": np_}
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
        stats[wing] = {scenarios.PAIR_CHOICES[PAIR_IDS[j]]: (int(n[j]), int(plus[j]))
                       for j in present}
    flags = []
    for wing, pairs in stats.items():
        keys = sorted(pairs)
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
                        "pair_1": ",".join(keys[i]),
                        "pair_2": ",".join(keys[j]),
                        "difference": abs(p1 - p2),
                        "band": band,
                    })
    return IndependenceReport(stats, tuple(flags))


def observed_pair_checks(batch: TrialBatch) -> tuple[tuple[EmpiricalDist, ...], list[dict]]:
    """Each observed pair's table over the runs where both of its variables
    exist, in PAIR_IDS order, and the check of its TV distance from the
    pair's Born joint."""
    tables, checks = [], []
    for pair in PAIR_IDS:
        table, n = empirical_pair_table(batch, pair)
        tv = statlab.total_variation(table.freqs(), scenarios.born_pair_table(batch.config, pair))
        tables.append(table)
        checks.append(statlab.check(f"observed pair {pair} vs Born", tv, TV_THRESHOLD,
                                    n=n, metric="TV"))
    return tuple(tables), checks


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
    worst = max(abs(f - 0.25) for f in internal.freqs())
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
