"""The acceptance suite: one function per criterion, each returning a
machine-readable result dict.  The CLI `accept` command runs them all with
seeds derived from one master seed; the test suite calls them directly and
additionally enforces the runtime budgets."""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from . import marginal_polytope as mp
from . import relmodel, scenarios, statlab
from .hilbert import apply, born_distribution, rotation_matrix
from .scenarios import LFConfig, RovelliConfig

TSIRELSON = 2.0 * math.sqrt(2.0)
COS45 = math.cos(math.radians(45.0))

CHSH_TRIALS = 4 * 10 ** 5     # criterion 1: runs behind the Monte Carlo S
RANDOM_TARGETS = 1000          # criterion 2: targets for the gluing/analytic cross-check
RELMODEL_TRIALS = 4 * 10 ** 5  # criterion 3: frame-relational runs
UNITARIES = 100                # criterion 4: random orientation unitaries per state
ROVELLI_TRIALS = 10 ** 4       # criterion 5: asked sequential runs


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def criterion_1(seed: int) -> dict:
    """Analytic Born correlators hit the Tsirelson pattern to 1e-9, and the
    `lf` command's audit (`relmodel.circuit_audit`) passes on CHSH_TRIALS
    runs (about 1e5 per pair): each observed pair near its Born joint and the
    Monte Carlo CHSH estimate near the analytic S."""
    cfg = LFConfig()
    analytic = scenarios.pair_correlations(cfg)
    expected = {"AC": COS45, "BC": COS45, "BD": COS45, "AD": -COS45}
    checks = [statlab.check(f"analytic E({pair})", abs(analytic[pair] - expected[pair]), 1e-9)
              for pair in scenarios.PAIR_IDS]
    mc_checks, _, s = relmodel.circuit_audit(relmodel.simulate_batch(cfg, CHSH_TRIALS, seed))
    checks += [statlab.check("analytic S vs 2*sqrt(2)", abs(s["analytic"] - TSIRELSON), 1e-9),
               *mc_checks]
    return {"criterion": 1, "name": "tsirelson-reproduction",
            "analytic_S": s["analytic"], "monte_carlo_S": s["estimate"], "mc_stderr": s["stderr"],
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def criterion_2(seed: int) -> dict:
    """Tsirelson targets infeasible and the 1/sqrt(2)-shrunk targets
    feasible; on those two and on every random target the methods agree."""
    tsirelson, (v4, _, _, tsirelson_agree), _ = scenarios.circuit_verdict(LFConfig())
    half = "1/2"
    shrunk = mp.PairTargets.from_correlators(
        {v: half for v in mp.VARS_4},
        {"AC": half, "BC": half, "BD": half, "AD": "-1/2"})
    s4, _, _, shrunk_agree = mp.decide(shrunk)
    rng = np.random.default_rng(seed)
    decided = [mp.decide(mp.random_pair_targets(rng)) for _ in range(RANDOM_TARGETS)]
    disagreements = sum(not agree for *_, agree in decided)
    infeasible_count = sum(not fine for _, _, fine, _ in decided)
    s, violation = mp.rational_texts(  # a violation of 0 where v4 is, wrongly, feasible
        [tsirelson.variants[statlab.CHSH_SIGNS], v4.max_violation or 0], tsirelson.scale)
    checks = [
        statlab.check("tsirelson 4-variable infeasible", 0.0 if not v4.feasible else 1.0, 0.0),
        statlab.check("tsirelson LP/analytic/lift agreement", not tsirelson_agree, 0.0),
        statlab.check("shrunk 4-variable feasible", 0.0 if s4.feasible else 1.0, 0.0),
        statlab.check("shrunk LP/analytic/lift agreement", not shrunk_agree, 0.0),
        statlab.check("LP/analytic disagreements", disagreements, 0.0, n=RANDOM_TARGETS),
    ]
    return {"criterion": 2, "name": "feasibility-mechanization",
            "tsirelson_S": s, "tsirelson_max_violation": violation,
            "random_trials": RANDOM_TARGETS, "random_infeasible": infeasible_count,
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def criterion_3(seed: int) -> dict:
    """Frame-relational model fidelity over RELMODEL_TRIALS runs."""
    batch = relmodel.simulate_batch(LFConfig(), RELMODEL_TRIALS, seed)
    checks, _, independence = relmodel.audit(batch)
    return {"criterion": 3, "name": "frame-relational-fidelity", "trials": RELMODEL_TRIALS,
            "independence": independence,
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def _scenario_states() -> list[tuple[str, object]]:
    out = [("frame-relational(+1)", scenarios.build_frame_relational_state(+1)),
           ("frame-relational(-1)", scenarios.build_frame_relational_state(-1))]
    for i, s in enumerate(scenarios.build_rovelli_states(RovelliConfig())):
        out.append((f"rovelli-{scenarios.ROVELLI_RECORDS[i]}", s))
    return out


def _random_orientation_unitary(rng: np.random.Generator) -> tuple[tuple[complex, ...], ...]:
    """Haar U(2) in Python scalar arithmetic (no LAPACK): a normalized
    Gaussian 4-vector is a uniform (a, b) on S^3, so [[a, -b*], [b, a*]] is
    Haar on SU(2) (Mezzadri 2007), times a uniform phase."""
    x = rng.standard_normal(4).tolist()
    phase = cmath.exp(2j * math.pi * rng.random())
    n = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    ar, ai, br, bi = (v / n for v in x)
    return ((phase * complex(ar, ai), phase * complex(-br, bi)),
            (phase * complex(br, bi), phase * complex(ar, -ai)))


def criterion_4(seed: int) -> dict:
    """Record statistics are invariant under orientation-only unitaries (a
    unitary on the orientation factor commutes with every record
    observable, so no record statistic can change), and the coherence
    witness stays exactly 1 despite the definite records."""
    rng = np.random.default_rng(seed)
    checks = []
    for name, state in _scenario_states():
        base = born_distribution(state, ("record",))
        worst = 0.0
        for _ in range(UNITARIES):
            u = _random_orientation_unitary(rng)
            after = born_distribution(apply(u, state, ("orientation",)), ("record",))
            worst = max(worst, max(abs(a - b) for a, b in zip(after, base)))
        checks.append(statlab.check(f"{name}: record distribution shift", worst, 1e-10,
                                    n=UNITARIES))
    for outcome in (+1, -1):
        s = scenarios.build_frame_relational_state(outcome)
        w = scenarios.interference_witness(s, *scenarios.orientation_branches(s))
        checks.append(statlab.check(f"frame-relational({outcome:+d}) witness vs 1",
                                    abs(w - 1.0), 1e-10))
    return {"criterion": 4, "name": "invariant-subspace",
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def criterion_5(seed: int) -> dict:
    """The three sequential-scenario states have the displayed record
    structure, and the `rovelli` command's audit (`relmodel.rovelli_audit`)
    passes on ROVELLI_TRIALS runs: every record is consistent with its run,
    and a second outcome exists exactly on the trigger's runs."""
    cfg = RovelliConfig()
    run_checks, states, _ = relmodel.rovelli_audit(cfg, ROVELLI_TRIALS, seed)
    checks = []
    for sr in states:
        own, dist = sr["record"], sr["record_probabilities"]
        checks.append(statlab.check(f"state {own}: own-record probability vs 1",
                                    abs(dist[own] - 1.0), 1e-10))
        others = max(pr for label, pr in dist.items() if label != own)
        checks.append(statlab.check(f"state {own}: other-record probability vs 0",
                                    others, 1e-10))
        checks.append(statlab.check(f"state {own}: witness vs 1",
                                    abs(sr["interference_witness"] - 1.0), 1e-10))
    no_m2 = scenarios.build_rovelli_states(cfg)[2]  # Y along 90 degrees reads +1
    y_90 = apply(rotation_matrix(-90.0), no_m2, ("Y",))
    ready_plus = born_distribution(y_90, ("Y",))[0]  # cell 0 reads +1
    checks.append(statlab.check("state noM2: Y ready-state overlap vs 1",
                                abs(ready_plus - 1.0), 1e-10))
    checks += run_checks
    return {"criterion": 5, "name": "rovelli-consistency", "trials": ROVELLI_TRIALS,
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def criterion_6(seed: int) -> dict:
    """Determinism probe: re-running the seeded Monte Carlo stages produces
    byte-identical serialized results.  (The bytes of the whole `accept`
    report are pinned in tests/pins.py: the test suite compares one
    in-process run with the digest that fresh interpreters give.)"""
    def probe() -> str:
        batch = relmodel.simulate_batch(LFConfig(), 4 * 10 ** 4, _sub_seed(seed, 602))
        tables, _ = relmodel.observed_pair_checks(batch)
        return json.dumps({
            "tables": dict(zip(scenarios.PAIR_IDS, tables)),
            "first_records": "".join(batch.rows_json(50)),
        }, sort_keys=True)

    a, b = probe(), probe()
    checks = [statlab.check("repeated-run serialization mismatch",
                            0.0 if a == b else 1.0, 0.0)]
    return {"criterion": 6, "name": "determinism",
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def run_all(seed: int) -> dict:
    """Run every criterion with sub-seeds derived from the master seed."""
    results = [criterion(_sub_seed(seed, i)) for i, criterion in enumerate(
        (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6), 1)]
    return {"seed": seed, "criteria": results,
            "pass": all(r["pass"] for r in results)}
