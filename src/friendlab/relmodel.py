"""Monte Carlo runs of the frame-relational model.

On every run both friends have definite internal outcomes, uniform and
independent of anything the outside observers later choose.  External
outcomes are drawn from the Born joint of the pair of measurements actually
performed.  A frame relation exists only on a wing where the outside
observer asks the friend: it is computed at reveal time as external *
internal, never pre-sampled.  A run's variables, and which exist, follow
from its pair k (a PAIR_IDS index), its internal bits ia and ic (0 for +1, 1
for -1) and its Born cell (a PAIR_CELLS index), so a run is one of 64 codes
16*k + 8*ia + 4*ic + cell, read through the 64-entry TABLES of k and of each
variable (0 where absent).  A TrialBatch is the histogram of its runs'
codes plus its first ROWS runs' codes in order, the report's rows (None
where absent: null in JSON, an empty field in CSV).  Both are drawn as
counts, so any batch size up to 2**63 - 1 costs the same.  Every code, count
and table is a tuple of Python ints.  Each count an audit reads sums the
histogram at a list of codes, read by one `operator.itemgetter` of a read
plan built again whenever the tables' contents change.

The sequential scenario draws counts too: `simulate_rovelli` counts the runs
in each (first outcome, second outcome or none, record) cell, the record
drawn from the final state's distribution in `scenarios.rovelli_states`.
Its draws come from the standard library: `multinomial` and `binomial` draw
only through `random.Random.random()`, whose stream Python keeps the same on
every version, so `rovelli` loads no numpy.  numpy still draws a batch, and
loads only there: `simulate_batch` draws its counts through `draw_counts`
from the code law memoized per config, and lays out its first rows as an
array that numpy shuffles in place.  Both samplers stay: a standard-library
batch, its first rows above all, is slower than numpy's by more than
`montecarlo`'s bound.
Each Monte Carlo command's one audit is here, and its acceptance criterion
runs it too: `circuit_audit` (lf, criterion 1), `audit` (relmodel, 3) and
`rovelli_audit` (rovelli, 5; the sequential table's one reader).  Each
returns its check dicts first, and passing is all of them passing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from . import scenarios, statlab
from .scenarios import READY_Z, LFConfig, RovelliConfig
from .statlab import CHOICE, PAIR_CELLS, PAIR_IDS

ROWS = 1000  # runs a batch keeps in run order, the rows of a report
VARIABLES = ("Ai", "Ci", "A", "B", "C", "D", "Ar", "Cr")

# per PAIR_IDS index: does Bob (Divya) ask, measuring A (C)?
_B_ASKS, _D_ASKS = (tuple(CHOICE[p[w]] == "ask" for p in PAIR_IDS) for w in (0, 1))
# per PAIR_IDS index: the independence stats' key, "Bob's choice,Divya's choice"
_CHOICE_PAIRS = tuple(",".join(CHOICE[v] for v in p) for p in PAIR_IDS)

TV_THRESHOLD = 0.02        # observed pair table vs its Born joint
CHSH_THRESHOLD = 0.05      # Monte Carlo CHSH sum vs its analytic value
INTERNAL_THRESHOLD = 0.02  # worst internal-joint cell vs 1/4
INDEPENDENCE_ALPHA = 1e-3  # false-alarm rate of the two wings' choice-independence tests


class InsufficientDataError(ValueError):
    """Not enough qualifying runs to form the requested statistic."""


# the schema of a report row: one run, with None where a variable does not
# exist; a batch's CSV rows give the fields in this order
RunRecord = namedtuple("RunRecord", "a_internal c_internal b_choice d_choice b_outcome d_outcome "
                                    "a_external c_external a_relation c_relation")
RECORD_FIELDS = RunRecord._fields
# the variable behind each RunRecord field after the two choices; 0 becomes None
_OPTIONAL = ("B", "D", "A", "C", "Ar", "Cr")


def _decode(code: int) -> dict[str, int]:
    """k and each variable of a run with this code, 0 where it does not exist."""
    (bob, divya), (x, y) = PAIR_IDS[code >> 4], PAIR_CELLS[code & 3]
    v = {"k": code >> 4, "Ai": 1 - 2 * (code >> 3 & 1), "Ci": 1 - 2 * (code >> 2 & 1),
         "A": 0, "B": 0, "C": 0, "D": 0, bob: x, divya: y}
    return {**v, "Ar": v["A"] * v["Ai"], "Cr": v["C"] * v["Ci"]}


def csv_lines(rows) -> list[str]:
    """Each row as the line one csv.writer writes for it (None writes "")."""
    buf = io.StringIO()
    writer, lines = csv.writer(buf), []
    for row in rows:
        writer.writerow(row)
        lines.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    return lines


_DECODED = [_decode(code) for code in range(64)]
# per code: k and each variable, its report row, the row as canonical JSON
# (sorted keys, no whitespace) after a "," and as a CSV line after the header
TABLES = {name: tuple(d[name] for d in _DECODED) for name in ("k", *VARIABLES)}
_ROWS = [dict(zip(RECORD_FIELDS, (d["Ai"], d["Ci"], *(CHOICE[v] for v in PAIR_IDS[d["k"]]),
                                  *(d[v] or None for v in _OPTIONAL)))) for d in _DECODED]
_FRAGMENTS = ["," + json.dumps(row, sort_keys=True, separators=(",", ":")) for row in _ROWS]
_CSV_HEADER, *_CSV_LINES = csv_lines([RECORD_FIELDS, *(row.values() for row in _ROWS)])
# --planted-violation: Alice's internal outcome is +1 exactly when Bob asks
PLANTED = tuple(c & ~8 if _B_ASKS[c >> 4] else c | 8 for c in range(64))


class TrialBatch:
    """Runs as the histogram of their 64 codes plus the first runs' codes in
    order, both tuples of ints; TABLES gives k and each variable per code."""

    __slots__ = ("config", "histogram", "first")

    def __init__(self, config: LFConfig, histogram: tuple[int, ...], first: tuple[int, ...]):
        self.config, self.histogram, self.first = config, histogram, first

    def __len__(self) -> int:
        return sum(self.histogram)

    def rows_json(self, stop: int) -> list[str]:
        """The first `stop` runs as canonical JSON in pieces, "[", the
        pre-encoded rows (objects keyed by RECORD_FIELDS, null where absent),
        each but the first after a ",", and "]", so a writer joins them once."""
        pieces = ["[", *_getter(self.first[:stop])(_FRAGMENTS), "]"]
        pieces[1] = pieces[1].lstrip(",")  # the first row's, or "]"
        return pieces

    def rows_csv(self, stop: int) -> str:
        """The first `stop` runs as CSV, the header line first, joined from
        pre-encoded lines."""
        return "".join([_CSV_HEADER] + [_CSV_LINES[c] for c in self.first[:stop]])

    def planted(self) -> TrialBatch:
        """The batch with each run's code replaced by its PLANTED code."""
        histogram = [0] * 64
        for code, runs in enumerate(self.histogram):
            histogram[PLANTED[code]] += runs
        return TrialBatch(self.config, tuple(histogram), tuple(PLANTED[c] for c in self.first))


# Hörmann 1993's Stirling corrections fc(k) = log k! - ((k + 1/2) log(k + 1)
# - (k + 1) + log(2 pi) / 2) for k < 10, correctly rounded; `_fc` takes the
# series past that, within 4e-11 of fc
_FC = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
       0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
       0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
       0.00833056343336287)


def _fc(k: int) -> float:
    if k < 10:
        return _FC[k]
    r = 1.0 / (k + 1)
    return (1 / 12 - (1 / 360 - r * r / 1260) * r * r) * r


def _log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f, from Hörmann's Stirling
    form log j! = (j + 1/2) log(j + 1) - (j + 1) + log(2 pi) / 2 + fc(j).
    The terms of size n cancel as exact int ratios inside log1p, so the value
    keeps its precision at n near 2**63, where log(n!) is 3.9e20 and its ulp
    6.6e4."""
    d = k - m
    return ((m + 0.5) * math.log1p(-d / (k + 1)) + (n - m + 0.5) * math.log1p(d / (n - k + 1))
            + d * math.log1p(((n + 2) * p - (k + 1)) / ((k + 1) * (1.0 - p)))
            + _fc(m) + _fc(n - m) - _fc(k) - _fc(n - k))


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, an int from 0 to n, for 0 <= p <= 1, drawn
    only through rng.random(); exactly 0 or n at p = 0 or 1.  For p > 1/2 it
    is n minus a draw at 1 - p.  Devroye's geometric method when n*p < 10:
    count the successes, whose gaps are geometric, that fall within n trials.
    Otherwise Hörmann 1993's BTRS, transformed rejection with its squeeze and
    its Stirling-correction acceptance test (`_log_pmf_ratio`)."""
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    if p <= 0.0 or n == 0:
        return 0
    if n * p < 10.0:
        c, x, y = math.log1p(-p), 0, 0  # the successes so far, the last one's trial
        while True:
            u = rng.random()
            if u == 0.0:  # log(0): draw again
                continue
            gap = math.log(u) / c  # inf when c is subnormal: past n
            if gap >= n - y:
                return x
            x, y = x + 1, y + int(gap) + 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    m = math.floor((n + 1) * p)  # the mode
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # the hat's pole at u = -1/2: no k
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        if v * alpha / (a / (us * us) + b) <= math.exp(_log_pmf_ratio(n, p, m, k)):
            return k


def multinomial(rng: random.Random, n: int, born) -> tuple[int, ...]:
    """Int counts of n draws from the probability table `born`, as `binomial`
    draws of each positive cell's share of the runs left, in cell order, of
    a total mass of 1: a zero cell never gets a count, and the last positive
    cell takes the round-off tail, whatever the table's float sum."""
    cells = [i for i, x in enumerate(born) if x > 0]
    counts = [0] * len(born)
    left, mass = n, 1.0
    for i in cells[:-1]:
        if not left:
            break
        counts[i] = k = binomial(rng, left, min(born[i] / mass, 1.0))
        left, mass = left - k, mass - born[i]
    counts[cells[-1]] = left
    return tuple(counts)


@lru_cache(maxsize=8)
def _positive_cells(born: tuple[float, ...]):
    """The indices of a probability table's positive cells and their
    weights, clipped to 1 as numpy asks, as a read-only float array."""
    import numpy as np
    cells = tuple(i for i, x in enumerate(born) if x > 0)
    weights = np.array([min(born[i], 1.0) for i in cells])
    weights.flags.writeable = False
    return cells, weights


def draw_counts(born, n: int, rng, start=0) -> tuple[int, ...]:
    """Int counts of n draws from the probability table `born` by a numpy
    Generator `rng`, plus `start` per positive cell: a multinomial over those
    cells, unnormalized, so a zero cell never gets a count and the last one
    takes the round-off tail.  The positive cells are found once per table."""
    cells, weights = _positive_cells(tuple(born))
    counts = [0] * len(born)
    for i, runs in zip(cells, (rng.multinomial(n, weights) + start).tolist()):
        counts[i] = runs
    return tuple(counts)


@lru_cache(maxsize=8)
def _batch_law(cfg: LFConfig) -> tuple[float, ...]:
    """P(code) of one run, born[k][cell] / 16, from `scenarios.born_tables`."""
    return tuple(x / 16 for born in scenarios.born_tables(cfg).values()
                 for _ in range(4) for x in born)  # the 4 middle values: 2ia + ic


def simulate_batch(cfg: LFConfig, n: int, seed: int) -> TrialBatch:
    """n iid runs of a uniform pair k and uniform internal bits: code
    16k + 8ia + 4ic + cell has probability born[k][cell] / 16.  One
    default_rng(seed), seed >= 0, draws the counts of the first min(n, ROWS)
    runs, which are laid out in code order as an array and shuffled in place
    (given their counts, iid runs come in a uniformly random order), then
    those of the rest: the law of n iid runs, rows included."""
    import numpy as np  # imported here, so that the sequential runs load no numpy
    if n < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    p = _batch_law(cfg)
    cells, weights = _positive_cells(p)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(min(n, ROWS), weights)  # as draw_counts draws, per positive cell
    first = np.repeat(cells, counts)
    rng.shuffle(first)
    return TrialBatch(cfg, draw_counts(p, n - len(first), rng, counts), tuple(first.tolist()))


def _wing_valid(asks: bool, outcome: int, external: int, relation: int, internal: int) -> bool:
    """An asked wing has a relation and external = internal * relation, a
    supermeasured wing only its super outcome."""
    return (outcome == 0 and abs(relation) == 1 and external == internal * relation if asks
            else abs(outcome) == 1 and external == relation == 0)


def _getter(codes: list[int]):
    """An itemgetter of a histogram's counts at `codes`, always as a tuple."""
    return (itemgetter(*codes) if len(codes) > 1
            else itemgetter(slice(codes[0], codes[0] + 1) if codes else slice(0)))


_PLAN = [(), {}]  # the tables of k and VARIABLES that `_plan` last read, and its plan
# the variable pairs whose count tables the audits read: the observed pairs, the internal joint
_PAIRS = (*PAIR_IDS, ("Ai", "Ci"))


def _plan() -> dict:
    """Per count an audit reads, the `_getter` of the codes it sums in TABLES
    as they are at this call, found again only when their contents change:
    under "invalid" the runs that break the presence discipline or the
    product identity; under each pair of _PAIRS one per PAIR_CELLS cell of
    the runs where both variables exist; under "Ai" and "Ci", per PAIR_IDS
    index, one of the runs where that variable is +1 and one of the rest."""
    tables = tuple(map(TABLES.__getitem__, ("k", *VARIABLES)))
    built, plan = _PLAN
    if tables == built:
        return plan
    columns, plan = dict(zip(("k", *VARIABLES), tables)), {}
    for x, y in _PAIRS:
        cells = ([], [], [], [])
        for code, (u, v) in enumerate(zip(columns[x], columns[y])):
            if u and v:
                cells[PAIR_CELLS.index((u, v))].append(code)
        plan[x, y] = tuple(map(_getter, cells))
    for name in ("Ai", "Ci"):
        sides = [([], []) for _ in PAIR_IDS]
        for code, (k, value) in enumerate(zip(columns["k"], columns[name])):
            sides[k][value != 1].append(code)
        plan[name] = [tuple(map(_getter, side)) for side in sides]
    plan["invalid"] = _getter([code for code, (k, ai, ci, a, b, c, d, ar, cr) in enumerate(
        zip(*tables)) if not (abs(ai) == abs(ci) == 1 and _wing_valid(_B_ASKS[k], b, a, ar, ai)
                              and _wing_valid(_D_ASKS[k], d, c, cr, ci))])
    _PLAN[:] = tables, plan
    return plan


def empirical_pair_table(batch: TrialBatch, pair) -> tuple[int, ...]:
    """2x2 count table, in PAIR_CELLS order, of one of _PAIRS, such as the
    pair id "AC" or ("Ai", "Ci"), over the runs where both are present.  Its
    sum is the qualifying-run count, by which callers judge statistical
    power."""
    cells = _plan().get((pair[0], pair[1]))
    if cells is None:
        raise ValueError(f"no count table of {pair}: the pairs are {', '.join(map(repr, _PAIRS))}")
    counts = tuple([sum(cell(batch.histogram)) for cell in cells])
    if not any(counts):
        raise InsufficientDataError(f"no runs where both of {pair} are present")
    return counts


def check_choice_independence(batch: TrialBatch) -> dict:
    """The report's independence entry.  `stats` holds, per wing and per
    choice pair ("ask,super": Bob's and Divya's choice), the runs `n` and
    those whose internal outcome is +1 `n_plus`; `flags` lists each wing that
    `statlab.homogeneity` of its (n_plus, n - n_plus) columns flags at
    INDEPENDENCE_ALPHA / 2, so both wings together at INDEPENDENCE_ALPHA."""
    stats, flags = {}, []
    runs, plan = batch.histogram, _plan()
    for wing, internal in (("alice", "Ai"), ("chidi", "Ci")):
        columns = {}  # per choice pair: the runs with internal +1, the rest
        for key, (plus, other) in zip(_CHOICE_PAIRS, plan[internal]):
            a, b = sum(plus(runs)), sum(other(runs))
            if a + b:
                columns[key] = (a, b)
        if len(columns) < 2:
            raise InsufficientDataError("need at least two distinct choice pairs")
        stats[wing] = {key: {"n": a + b, "n_plus": a} for key, (a, b) in columns.items()}
        test = statlab.homogeneity(list(columns.values()), INDEPENDENCE_ALPHA / 2)
        if test["statistic"] > test["critical"]:
            flags.append({"wing": wing, **test})
    return {"stats": stats, "flags": flags}


def observed_pair_checks(batch: TrialBatch) -> tuple[tuple[tuple[int, ...], ...], list[dict]]:
    """Each observed pair's count table over the runs where both of its
    variables exist, in PAIR_IDS order, and the check of its TV distance
    from the pair's Born joint."""
    tables, checks = [], []
    for pair, born in scenarios.born_tables(batch.config).items():
        table = empirical_pair_table(batch, pair)
        tv = statlab.total_variation(statlab.freqs(table), born)
        tables.append(table)
        checks.append(statlab.check(f"observed pair {pair} vs Born", tv, TV_THRESHOLD,
                                    n=sum(table), metric="TV"))
    return tuple(tables), checks


def circuit_audit(batch: TrialBatch) -> tuple[list[dict], tuple[tuple[int, ...], ...], dict]:
    """The four-observer circuit's audit of a batch: five check dicts (the
    four observed pairs vs their Born joints, the Monte Carlo CHSH estimate vs
    the analytic S), the pair count tables of `observed_pair_checks` and the
    report's chsh entry (the estimate, its standard error, the analytic S)."""
    tables, checks = observed_pair_checks(batch)
    s_mc, stderr = statlab.chsh_estimate(tables)
    s_analytic = statlab.chsh(scenarios.pair_correlations(batch.config).values())
    checks.append(statlab.check("CHSH estimate vs analytic", abs(s_mc - s_analytic),
                                CHSH_THRESHOLD, n=len(batch)))
    return checks, tables, {"estimate": s_mc, "stderr": stderr, "analytic": s_analytic}


def audit(batch: TrialBatch) -> tuple[list[dict], tuple[int, ...], dict]:
    """The frame-relational audit of a batch.  Returns seven check dicts (the
    presence discipline and product identity on every run, the four observed
    pairs against their Born joints, the internal joint against uniform,
    choice independence), the internal (Ai, Ci) count table and the
    independence report of `check_choice_independence`."""
    invalid = sum(_plan()["invalid"](batch.histogram))
    n = len(batch)
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


def simulate_rovelli(cfg: RovelliConfig, n: int, seed: int) -> tuple:
    """How many of n iid sequential runs end in each cell of a 2x3x3 table,
    ints in nested tuples [first (+1, -1)][second (+1, -1, none)][record].  A
    second outcome exists exactly when the first is the trigger; the record, in
    ROVELLI_RECORDS order, is drawn from the run's final state, never copied
    from the run.  One random.Random(seed), seed >= 0, draws them in this
    order: first outcomes, second outcomes, then each final state's records."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    t = (1 - cfg.trigger) // 2  # the trigger's index on the first and second axes
    first = multinomial(rng, n, READY_Z)
    second = multinomial(rng, first[t], READY_Z)
    cells = {cell: multinomial(rng, runs, born)
             for (born, _), cell, runs in zip(scenarios.rovelli_states(cfg),  # PP, PA, noM2
                                              ((t, t), (t, 1 - t), (1 - t, 2)),
                                              (second[t], second[1 - t], first[1 - t]))}
    return tuple(tuple(cells.get((i, j), (0, 0, 0)) for j in range(3)) for i in range(2))


def rovelli_audit(cfg: RovelliConfig, n: int, seed: int) -> tuple[list[dict], list[dict], dict]:
    """The sequential scenario's audit of the runs of `simulate_rovelli`: two
    check dicts, each an exact int count of runs that must be none (records
    not saying a second measurement happened exactly when the first outcome
    was the trigger; second outcomes off the trigger's runs or missing on
    them); per final state in ROVELLI_RECORDS order, its record probabilities
    and interference witness; and whether the runs with a second outcome are
    exactly the trigger's runs ("second_iff_trigger") and the runs with a
    consistent record ("consistent")."""
    states = [{"record": record,
               "record_probabilities": dict(zip(scenarios.ROVELLI_RECORDS, born)),
               "interference_witness": witness}
              for record, (born, witness) in zip(scenarios.ROVELLI_RECORDS,
                                                 scenarios.rovelli_states(cfg))]
    # [second][record] of the trigger's first outcome and of the other; noM2 is the last record
    trigger, other = simulate_rovelli(cfg, n, seed)[::cfg.trigger]  # first axis: +1, -1
    misplaced = sum(trigger[2]) + sum(map(sum, other[:2]))
    consistent = sum(sum(r[:2]) for r in trigger) + sum(r[2] for r in other)
    checks = [statlab.check("inconsistent reports", n - consistent, 0.0, n=n),
              statlab.check("second outcome iff trigger violations", misplaced, 0.0, n=n)]
    return checks, states, {"second_iff_trigger": not misplaced, "consistent": consistent}
