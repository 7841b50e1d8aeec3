"""The four workloads: traffic generated from a seed, the CLI argv of each
item, and the benchmark-side check of each output.

Nothing here calls a friendlab oracle.  Feasibility verdicts are recomputed
from the eight CHSH sign variants in Fraction arithmetic, witnesses are
re-marginalized here, and the Monte Carlo reports are re-validated record by
record.  Item i of a workload depends only on (seed, i), so a run of any
length serves a prefix of one fixed sequence; its length is fixed by
--seconds and the workload's nominal rate.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

PAIRS = ("AC", "AD", "BC", "BD")
VARS = ("A", "B", "C", "D")
SIGNS = (+1, -1)
VARIANTS = tuple(s for s in itertools.product(SIGNS, repeat=4) if math.prod(s) == -1)
PR_BOX = {p: ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))) if p == "AD"
          else ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))) for p in PAIRS}
TARGETS_FILE = "@"  # argv placeholder for the item's targets file
WARMUP_SEED = 2 ** 32 - 1

# Item statuses.  FLAGGED: the call completed with a report that passes every
# benchmark-side check, but one of the program's own statistical gates
# failed on a correct model, so the CLI exited 1.  It is a failed item, yet
# its work was done and counts toward throughput and latency.  FAILED: no
# usable result (refused valid input, crashed, or an inconsistent run).
# WRONG: the output contradicts the benchmark's own check.
OK, FLAGGED, FAILED, WRONG = "ok", "flagged", "failed", "wrong"


@dataclass
class Item:
    """One CLI call.  `targets` is the text of the --targets file, if any;
    `tables` the exact tables it encodes; `infeasible` the expected verdict
    (None for items that decide no target)."""

    index: int
    argv: list[str]
    targets: str | None = None
    tables: dict | None = None
    infeasible: bool | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str
    reason: str = ""
    facts: dict = field(default_factory=dict)


# --- exact feasibility oracle -------------------------------------------------

def correlator(table) -> Fraction:
    return table[0][0] - table[0][1] - table[1][0] + table[1][1]


def variant_values(tables) -> list[Fraction]:
    e = [correlator(tables[p]) for p in PAIRS]
    return [sum(s * x for s, x in zip(signs, e)) for signs in VARIANTS]


def is_infeasible(tables) -> bool:
    """Fine's theorem: a joint exists iff every CHSH sign variant is <= 2."""
    return max(variant_values(tables)) > 2


def tables_from(singles: dict, corr: dict) -> dict:
    m = {v: 2 * singles[v] - 1 for v in VARS}
    return {p: tuple(tuple((1 + x * m[p[0]] + y * m[p[1]] + x * y * corr[p]) / 4 for y in SIGNS)
                     for x in SIGNS) for p in PAIRS}


def valid(tables) -> bool:
    return all(c >= 0 for t in tables.values() for row in t for c in row)


def marginals(joint, variables: tuple[str, ...]) -> dict:
    """Pair tables of a joint over +/-1 atoms (lexicographic, +1 first); A and
    C are Ai*Ar and Ci*Cr in the six-variable form."""
    sums = {p: [[Fraction(0)] * 2 for _ in SIGNS] for p in PAIRS}
    for atom, prob in zip(itertools.product(SIGNS, repeat=len(variables)), joint):
        val = dict(zip(variables, atom))
        if "Ai" in val:
            val["A"] = val["Ai"] * val["Ar"]
            val["C"] = val["Ci"] * val["Cr"]
        for p in PAIRS:
            sums[p][val[p[0]] < 0][val[p[1]] < 0] += prob
    return {p: tuple(map(tuple, sums[p])) for p in PAIRS}


def reproduces(witness: list[Fraction], variables: tuple[str, ...], tables) -> bool:
    return (len(witness) == 2 ** len(variables) and all(p >= 0 for p in witness)
            and marginals(witness, variables) == tables)


def _fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _decimal_text(x: Fraction, digits: int) -> str:
    n = x * 10 ** digits
    if n.denominator != 1:
        raise ValueError(f"{x} has more than {digits} decimal digits")
    whole, frac = divmod(int(n), 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"


def _targets_text(tables, fmt) -> str:
    return json.dumps({p: [[fmt(c) for c in row] for row in tables[p]] for p in PAIRS},
                      sort_keys=True)


def _parse_tables(obj: dict) -> dict:
    return {p: tuple(tuple(Fraction(c) for c in row) for row in obj[p]) for p in PAIRS}


def _bits(values) -> int:
    return max((max(f.numerator.bit_length(), f.denominator.bit_length()) for f in values),
               default=0)


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""
    rate = 1.0  # items per nominal second (hostspeed.py) at the commit that set it

    def items_for(self, seconds: float) -> int:
        """Items a run of `seconds` serves: a count, not a deadline, so that
        a seed gives the same items and outcomes on every run."""
        return max(1, round(seconds * self.rate))

    def item(self, seed: int, index: int) -> Item:
        raise NotImplementedError

    def warmup(self) -> Item:
        """A fixed item, independent of the run's seed, called once before
        timing so that imports and lazy set-up are done."""
        return self.item(WARMUP_SEED, 0)

    def check(self, item: Item, rc, out: str) -> Outcome:
        raise NotImplementedError


def _feasibility_argv(extra: list[str]) -> list[str]:
    return ["feasibility", *extra, "--format", "json"]


class _Feasibility(Workload):
    """Shared check of `feasibility --format json` reports."""

    def check(self, item: Item, rc, out: str) -> Outcome:
        if rc != 0:
            if rc == 3:
                return Outcome(WRONG, "methods disagree (exit 3)")
            return Outcome(FAILED, f"valid target not decided (exit {rc})")
        try:
            rep = json.loads(out)
            echoed = _parse_tables(rep["targets"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(WRONG, f"unreadable report: {type(exc).__name__}")
        if item.tables is not None:
            tables = item.tables
            if echoed != tables:
                return Outcome(WRONG, "report is about other targets than the input")
        else:
            tables = echoed
            reason = _angles_mismatch(item.expect["angles"], echoed)
            if reason:
                return Outcome(WRONG, reason)
        feasible = not is_infeasible(tables)
        e = {p: correlator(tables[p]) for p in PAIRS}
        if Fraction(rep["chsh_value"]) != e["AC"] + e["BC"] + e["BD"] - e["AD"]:
            return Outcome(WRONG, "wrong CHSH value")
        if rep["fine_criterion"] != feasible or rep["methods_agree"] is not True:
            return Outcome(WRONG, "wrong analytic verdict")
        witness_bits = 0
        for key, variables in (("joint_4", VARS), ("joint_6", ("Ai", "Ar", "B", "Ci", "Cr", "D"))):
            v = rep[key]
            if v["feasible"] != feasible:
                return Outcome(WRONG, f"wrong {key} verdict")
            if not feasible:
                if v["witness"] is not None or (
                        Fraction(v["max_violation"]) != max(variant_values(tables)) - 2):
                    return Outcome(WRONG, f"wrong {key} violation")
            else:
                witness = [Fraction(p) for p in v["witness"]]
                if not reproduces(witness, variables, tables):
                    return Outcome(WRONG, f"{key} witness does not reproduce the tables")
                witness_bits = max(witness_bits, _bits(witness))
        return Outcome(OK, facts={"witness_bits": witness_bits})


def _angles_mismatch(angles: list[float], echoed) -> str:
    """Targets from angles are Born tables snapped to 1e-6: singles 1/2 and
    E(v, w) = cos(theta_v - theta_w)."""
    theta = dict(zip(("A", "B", "C", "D"), angles))
    for p in PAIRS:
        t = echoed[p]
        if t[0][0] + t[0][1] != Fraction(1, 2) or t[0][0] + t[1][0] != Fraction(1, 2):
            return f"from-angles singles of {p} are not 1/2"
        want = math.cos(math.radians(theta[p[0]] - theta[p[1]]))
        if abs(float(correlator(t)) - want) > 2e-6:
            return f"from-angles correlator of {p} is off"
    return ""


def _angles_tables(angles: list[float]) -> dict:
    theta = dict(zip(("A", "B", "C", "D"), angles))
    corr = {p: Fraction(round(math.cos(math.radians(theta[p[0]] - theta[p[1]])) * 10 ** 6),
                        10 ** 6) for p in PAIRS}
    return tables_from({v: Fraction(1, 2) for v in VARS}, corr)


class FeasGrid(_Feasibility):
    """Criterion-2 traffic: a random local joint on the 1/64 grid mixed with
    the PR box at a weight on the 1/64 grid, written as p/q.  Items are drawn
    until their verdict matches a fixed cycle of three infeasible and two
    feasible, so every run serves the same mix.  The verdicts cost the LP
    differently (infeasible items cluster tightly, feasible ones spread
    wide); an even mix would put the median latency in the gap between
    them, where it jumps from run to run."""

    name, rate = "feas_grid", 22.0

    def item(self, seed: int, index: int) -> Item:
        rng = np.random.default_rng([seed, index])
        while True:
            counts = rng.multinomial(64, [1 / 16] * 16)
            lam = Fraction(int(rng.integers(0, 65)), 64)
            local = marginals([Fraction(int(c), 64) for c in counts], VARS)
            tables = {p: tuple(tuple(lam * PR_BOX[p][i][j] + (1 - lam) * local[p][i][j]
                                     for j in range(2)) for i in range(2)) for p in PAIRS}
            if is_infeasible(tables) == (index % 5 < 3):
                return Item(index, _feasibility_argv(["--targets", TARGETS_FILE]),
                            _targets_text(tables, _fraction_text), tables, index % 5 < 3)


P_Q_OFFSETS = (-1, 0, -1, 0, +1, 0)


class FeasBoundary(_Feasibility):
    """Targets with one CHSH sign variant within 1/q of 2, q from 1e3 to 1e9,
    random singles.  By index mod 10: six written as p/q with unrelated large
    denominators, two as exact decimals, two as --from-angles calls at fresh
    angles.  The variant sits at 2 - 1/q, 2 or 2 + 1/q in fixed cycles:
    decimals run through every (digits 4..9, offset) pair once per 18, and
    p/q items take P_Q_OFFSETS, five feasible to one infeasible, so that the
    median latency falls inside the broad cluster of feasible items rather
    than at its edge, where it would jump with small shifts in speed."""

    name, rate = "feas_boundary", 20.0

    def item(self, seed: int, index: int) -> Item:
        rng = np.random.default_rng([seed, index])
        slot = index % 10
        if slot >= 8:
            angles = [round(float(a), 6) for a in rng.uniform(0, 360, size=4)]
            tables = _angles_tables(angles)
            return Item(index, _feasibility_argv(
                ["--from-angles", "--angles", ",".join(f"{a:.6f}" for a in angles)]),
                infeasible=is_infeasible(tables), expect={"angles": angles})
        signs = VARIANTS[int(rng.integers(len(VARIANTS)))]
        if slot >= 6:
            m = 2 * (index // 10) + slot - 6  # decimal items so far
            digits, offset = 4 + m % 6, (m // 6) % 3 - 1
            tables = _boundary_tables(rng, signs, offset, lambda: 10 ** digits / 4,
                                      grid=10 ** digits // 4)
            text = _targets_text(tables, lambda c: _decimal_text(c, digits))
        else:
            offset = P_Q_OFFSETS[slot]
            q = int(10 ** rng.uniform(3, 9))
            tables = _boundary_tables(rng, signs, offset, lambda: 10 ** rng.uniform(3, 9),
                                      grid=q)
            text = _targets_text(tables, _fraction_text)
        return Item(index, _feasibility_argv(["--targets", TARGETS_FILE]), text, tables,
                    is_infeasible(tables))


def _boundary_tables(rng, signs, offset: int, denominator, grid: int) -> dict:
    """Singles near 1/2 and three correlators drawn with denominators from
    `denominator()`; the fourth correlator puts the chosen variant at
    2 + offset/grid.  Redrawn until every cell is non-negative."""
    while True:
        singles, corr = {}, {}
        for v in VARS:
            d = int(denominator())
            singles[v] = Fraction(int(rng.integers(int(0.4 * d), int(0.6 * d) + 1)), d)
        for p, s in zip(PAIRS[:3], signs[:3]):
            d = int(denominator())
            corr[p] = s * Fraction(int(rng.integers(int(0.3 * d), int(0.9 * d) + 1)), d)
        rest = 2 + Fraction(offset, grid) - sum(s * corr[p] for p, s in zip(PAIRS[:3], signs))
        corr["BD"] = signs[3] * rest
        tables = tables_from(singles, corr)
        if valid(tables):
            return tables


class _Runs(Workload):
    """`<command> --trials N --seed s --format json` with a fresh seed per item."""

    command = ""
    warmup_trials = 0

    def __init__(self, trials: int):
        self.trials = trials

    def item(self, seed: int, index: int) -> Item:
        s = int(np.random.default_rng([seed, index]).integers(0, 2 ** 31))
        return Item(index, [self.command, "--trials", str(self.trials), "--seed", str(s),
                            "--format", "json"], expect={"seed": s})

    def warmup(self) -> Item:
        return type(self)(min(self.trials, self.warmup_trials)).item(WARMUP_SEED, 0)


class MonteCarlo(_Runs):
    """`relmodel` at 4e4 runs, uniform policy: a tenth of the criterion-3
    size, so that a run serves many items and its median is steady."""

    name, command, warmup_trials, rate = "montecarlo", "relmodel", 1000, 2.5

    def __init__(self, trials: int = 40_000):
        super().__init__(trials)

    def check(self, item: Item, rc, out: str) -> Outcome:
        try:
            rep = json.loads(out)
            checks = {c["name"]: c for c in rep["checks"]}
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(FAILED if rc != 0 else WRONG, f"unreadable report (exit {rc}): "
                           f"{type(exc).__name__}")
        expected = {"presence/product violations", "internal joint cells vs 1/4",
                    "choice-independence flags"} | {f"observed pair {p} vs Born" for p in PAIRS}
        if set(checks) != expected:
            return Outcome(WRONG, "check dicts missing or unexpected")
        if rep["trials"] != self.trials or rep["seed"] != item.expect["seed"]:
            return Outcome(WRONG, "report echoes another trial count or seed")
        bad_records = sum(1 for r in rep["records"] if not _record_ok(r))
        if bad_records or len(rep["records"]) != min(self.trials, 1000):
            return Outcome(WRONG, "reported records break the presence discipline")
        if rep["pass"] != all(c["pass"] for c in checks.values()):
            return Outcome(WRONG, "pass flag disagrees with the checks")
        tv = [c for c in checks.values() if c["metric"] == "TV"]
        facts = {"qualifying_runs": min(c["n"] for c in tv),
                 "tv_margin": min(c["threshold"] - c["observed"] for c in tv),
                 "independence_flags": len(rep["independence"]["flags"])}
        if checks["presence/product violations"]["observed"] != 0:
            return Outcome(FAILED, "presence violations", facts)
        failing = sorted(name for name, c in checks.items() if not c["pass"])
        if rc == 1 and failing:
            return Outcome(FLAGGED, "exit 1: " + ", ".join(failing), facts)
        if rc != 0 or failing:
            return Outcome(FAILED, f"exit {rc}: " + ", ".join(failing), facts)
        return Outcome(OK, facts=facts)


def _record_ok(r: dict) -> bool:
    if r["a_internal"] not in SIGNS or r["c_internal"] not in SIGNS:
        return False
    for choice, outcome, ext, rel, internal in (
            (r["b_choice"], r["b_outcome"], r["a_external"], r["a_relation"], r["a_internal"]),
            (r["d_choice"], r["d_outcome"], r["c_external"], r["c_relation"], r["c_internal"])):
        if choice == "super":
            if outcome not in SIGNS or ext is not None or rel is not None:
                return False
        elif choice != "ask" or outcome is not None or rel not in SIGNS or ext != internal * rel:
            return False
    return True


class Sequential(_Runs):
    """`rovelli` runs: each run rebuilds the same specs and states."""

    name, command, warmup_trials, rate = "sequential", "rovelli", 10, 3.8

    def __init__(self, trials: int = 200):
        super().__init__(trials)

    def check(self, item: Item, rc, out: str) -> Outcome:
        try:
            rep = json.loads(out)
            states = {s["record"]: s["record_probabilities"] for s in rep["states"]}
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(FAILED if rc != 0 else WRONG, f"unreadable report (exit {rc}): "
                           f"{type(exc).__name__}")
        if rep["trials"] != self.trials or rep["seed"] != item.expect["seed"]:
            return Outcome(WRONG, "report echoes another trial count or seed")
        if set(states) != {"PP", "PA", "noM2"} or any(
                abs(probs[rec] - 1.0) > 1e-9 for rec, probs in states.items()):
            return Outcome(WRONG, "a final state does not carry its own record")
        if rc != 0 or rep["consistency_rate"] != 1 or rep["second_iff_trigger"] is not True:
            return Outcome(FAILED, f"exit {rc}: inconsistent sequential reports")
        return Outcome(OK)


WORKLOADS = {w.name: w for w in (FeasGrid, FeasBoundary, MonteCarlo, Sequential)}
