"""Command-line orchestration.

Subcommands: basic | lf | feasibility | relmodel | rovelli | accept.
Exit codes: 0 pass, 1 invariant or tolerance failure, 2 input error,
3 internal method disagreement.

A JSON config file (--config) may mirror any flag of its command; explicit
flags override the file, and a key that no flag of the command reads is an
input error.  JSON output is compact and canonical (sorted keys, no
whitespace, one trailing newline), so identical (command, config, seed)
triples produce byte-identical reports; `python -m json.tool` pretty-prints
one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import marginal_polytope as mp
from . import statlab

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3
# the most runs any command draws: numpy's multinomial takes an int64 n, which
# sets the bound for relmodel's batches, and lf and rovelli share it
MAX_TRIALS = 2 ** 63 - 1
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class InputError(ValueError):
    pass


def _read_json(path: str, what: str, parse_float=float):
    """The JSON value in the file at `path`, non-integer numbers read by
    `parse_float`; InputError naming `what` if it cannot be read, is not
    UTF-8 or JSON (ValueError) or nests too deeply for the parser
    (RecursionError)."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=parse_float)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def _resolve(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if args.config_data and key in args.config_data:
        return args.config_data[key]
    return default


def _resolve_int(args: argparse.Namespace, key: str, default: int, minimum: int | None,
                 maximum: int | None = None) -> int:
    """Integer flag or config value; InputError unless it is an integer from
    `minimum` to `maximum` (no bound where None)."""
    val = _resolve(args, key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise InputError(f"{key} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise InputError(f"{key} must be at least {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise InputError(f"{key} must be at most {maximum}, got {val}")
    return val


def _resolve_switch(args: argparse.Namespace, key: str) -> bool:
    """On/off flag or config value: JSON true or false, never a truthy string."""
    val = _resolve(args, key, False)
    if not isinstance(val, bool):
        raise InputError(f"{key} must be true or false, got {val!r}")
    return val


def _resolve_path(args: argparse.Namespace, key: str) -> str | None:
    """Path flag or config value, or None; open() would take an int as a descriptor."""
    val = _resolve(args, key)
    if val is not None and (not isinstance(val, str) or not val):
        raise InputError(f"{key} must be a non-empty file path, got {val!r}")
    return val


def _resolve_lf_config(args: argparse.Namespace):
    from .scenarios import LFConfig
    angles = _resolve(args, "angles")
    if angles is None:
        return LFConfig()
    if isinstance(angles, str):
        angles = angles.split(",")
    try:
        if isinstance(angles, dict):
            return LFConfig.from_json_dict({"angles": angles})
        if isinstance(angles, (list, tuple)) and len(angles) == 4:
            return LFConfig(*angles)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad angles: {exc}") from exc
    raise InputError("angles must be four degrees ask_A,super_A,ask_C,super_C "
                     "as 'a,b,c,d', a 4-list, or an object")


def _emit(args: argparse.Namespace, report: dict, render_table, render_csv=None,
          spliced: dict[str, list[str]] | None = None) -> None:
    """Write the report in the requested format.  `spliced` maps further
    keys of the JSON report to their values as lists of pieces that join to
    canonical JSON.  The JSON text is one join over a flat list of pieces,
    so it is the only report-sized string the call makes."""
    fmt = _resolve(args, "format", "table")
    if fmt == "json":
        # each report value by the C encoder (an indent would be pure
        # Python); spliced pieces go in as they are, never joined on their own
        spliced = spliced or {}
        pieces = []
        for key in sorted(report.keys() | spliced.keys()):
            pieces += (",", _canonical(key), ":")
            pieces += spliced[key] if key in spliced else (_canonical(report[key]),)
        pieces[:1] = ["{"]  # in place of the first entry's ","
        pieces.append("}\n")
        text = "".join(pieces)
    elif fmt == "csv":
        if render_csv is None:
            raise InputError("this command has no CSV representation")
        text = render_csv(report)
    elif fmt == "table":
        text = render_table(report)
    else:
        raise InputError(f"unknown format {fmt!r}")
    out = _resolve_path(args, "out")
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _tolerance_lines(checks: list[dict]) -> str:
    return "\n".join(f"  [{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: {c['metric']}="
                     f"{c['observed']:.6g} (threshold {c['threshold']:.6g}, n={c['n']})"
                     for c in checks)


# --- basic ------------------------------------------------------------------

def cmd_basic(args: argparse.Namespace) -> int:
    from . import hilbert, scenarios
    amps = _resolve(args, "amps", "0.7071067811865476,0.7071067811865476")
    parts = [p.strip() for p in str(amps).split(",")]
    if len(parts) != 2:
        raise InputError("--amps needs two comma-separated amplitudes a,b")
    try:
        a, b = float(parts[0]), float(parts[1])
        state = scenarios.build_basic_wf_state(a, b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    outcome = _resolve_int(args, "outcome", 1, None)
    if outcome not in (+1, -1):
        raise InputError("--outcome must be +1 or -1")

    born = dict(zip(("+1", "-1"), hilbert.born_distribution(state, ("S",))))
    report = {
        "command": "basic",
        "amplitudes": {"a": a, "b": b},
        "entangled_amps": [[x.real, x.imag] for x in state.amps],
        "born_S": born,
    }
    equal_weights = abs(abs(a) - abs(b)) <= 1e-9
    if equal_weights:
        frame = scenarios.build_frame_relational_state(outcome)
        witness = scenarios.interference_witness(frame, *scenarios.orientation_branches(frame))
        rec = hilbert.born_distribution(frame, ("record",))
        report["frame_relational"] = {
            "outcome": outcome,
            "interference_witness": witness,
            "record_expectation": rec[0] - rec[1],
        }
    else:
        # the frame-relational construction is defined only for equal branch
        # weights; unequal amplitudes make the witness degenerate
        report["frame_relational"] = {
            "outcome": outcome,
            "degenerate": "frame-relational state requires equal branch weights",
        }

    def table(rep: dict) -> str:
        lines = [f"basic sealed-lab state with a={a}, b={b}",
                 f"  amplitudes over (S,A): {rep['entangled_amps']}",
                 f"  Born distribution on S: {rep['born_S']}"]
        fr = rep["frame_relational"]
        if "degenerate" in fr:
            lines.append(f"  frame-relational: {fr['degenerate']}")
        else:
            lines.append(f"  frame-relational witness: {fr['interference_witness']:.6f}, "
                         f"record expectation: {fr['record_expectation']:+.6f}")
        return "\n".join(lines) + "\n"

    _emit(args, report, table)
    return EXIT_PASS


# --- lf ---------------------------------------------------------------------

def _pair_table_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["pair", "x", "y", "frequency", "born"])
    for pair, entry in report["pairs"].items():
        for cell, freq, born in zip(statlab.PAIR_CELLS, entry["frequencies"], entry["born"]):
            w.writerow([pair, cell[0], cell[1], freq, born])
    return buf.getvalue()


def cmd_lf(args: argparse.Namespace) -> int:
    from . import relmodel, scenarios
    cfg = _resolve_lf_config(args)
    trials = _resolve_int(args, "trials", 100000, 100, MAX_TRIALS)
    seed = _resolve_int(args, "seed", 0, 0)
    checks, tables, chsh = relmodel.circuit_audit(relmodel.simulate_batch(cfg, trials, seed))
    analytic = scenarios.pair_correlations(cfg)
    pairs_report = {pair: {
        "n": sum(table),
        "frequencies": list(statlab.freqs(table)),
        "born": list(scenarios.born_tables(cfg)[pair]),
        "E_analytic": analytic[pair],
    } for pair, table in zip(statlab.PAIR_IDS, tables)}
    report = {"command": "lf", **cfg.to_json_dict(), "trials": trials, "seed": seed,
              "pairs": pairs_report, "chsh": chsh,
              "checks": checks, "pass": all(c["pass"] for c in checks)}

    def table(rep: dict) -> str:
        lines = [f"four-observer circuit at angles {cfg.to_json_dict()['angles']}",
                 f"  trials={trials} seed={seed}"]
        for pair_id, entry in rep["pairs"].items():
            lines.append(f"  {pair_id}: n={entry['n']} E_analytic={entry['E_analytic']:+.4f} "
                         f"freq={['%.4f' % f for f in entry['frequencies']]}")
        lines.append(f"  CHSH: {rep['chsh']['estimate']:.4f} +/- {rep['chsh']['stderr']:.4f} "
                     f"(analytic {rep['chsh']['analytic']:.4f})")
        lines.append(_tolerance_lines(rep["checks"]))
        return "\n".join(lines) + "\n"

    _emit(args, report, table, _pair_table_csv)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- feasibility ------------------------------------------------------------

def cmd_feasibility(args: argparse.Namespace) -> int:
    targets_path = _resolve_path(args, "targets")
    from_angles = _resolve_switch(args, "from_angles")
    if targets_path and from_angles:
        raise InputError("give either --targets or --from-angles, not both")
    if not from_angles and _resolve(args, "angles") is not None:
        raise InputError("feasibility reads angles only with --from-angles")
    resolution = None
    if targets_path:
        # a number is decided as written, not as the binary float nearest it
        targets = mp.PairTargets.from_json_dict(_read_json(targets_path, "targets", str))
    elif from_angles:
        from . import scenarios
        cfg = _resolve_lf_config(args)
        targets = scenarios.circuit_targets(cfg)
        resolution = scenarios.snap_resolution(cfg)
    else:
        raise InputError("feasibility needs --targets FILE or --from-angles")

    v4, v6, fine, agree = mp.decide(targets)
    s = mp.chsh_value(targets)
    report = {"command": "feasibility",
              "targets": targets.to_json_dict(),
              "chsh_value": str(s), "chsh_value_float": float(s),
              "joint_4": v4.to_json_dict(), "joint_6": v6.to_json_dict(),
              "fine_criterion": fine, "methods_agree": agree}
    if resolution:
        report["resolution"] = resolution

    def table(rep: dict) -> str:
        lines = [f"pairwise targets: S = {rep['chsh_value']} ~ {rep['chsh_value_float']:.4f}",
                 f"  4-variable joint: {'feasible' if v4.feasible else 'infeasible'}",
                 f"  6-variable joint: {'feasible' if v6.feasible else 'infeasible'}",
                 f"  analytic criterion: {'feasible' if fine else 'infeasible'}"]
        if v4.feasible:
            lines.append(f"  witness atoms (A,B,C,D lexicographic): {rep['joint_4']['witness']}")
        else:
            lines.append(f"  max violation over 2: {v4.max_violation}")
        if resolution:
            lines.append(f"  resolution: verdicts on targets snapped to {resolution['snap']}, not "
                         f"the circuit (largest CHSH variant {resolution['undecided_band']})")
        if not agree:
            lines.append("  METHOD DISAGREEMENT - this is a bug")
        return "\n".join(lines) + "\n"

    _emit(args, report, table)
    return EXIT_PASS if agree else EXIT_DISAGREE


# --- relmodel ---------------------------------------------------------------

def cmd_relmodel(args: argparse.Namespace) -> int:
    from . import relmodel, scenarios
    cfg = _resolve_lf_config(args)
    trials = _resolve_int(args, "trials", 400000, 100, MAX_TRIALS)
    seed = _resolve_int(args, "seed", 0, 0)
    planted = _resolve_switch(args, "planted_violation")
    batch = relmodel.simulate_batch(cfg, trials, seed)
    if planted:  # a debug self-test: it must trip the choice-independence audit
        batch = batch.planted()
    checks, internal, independence = relmodel.audit(batch)
    verdict = scenarios.circuit_verdict(cfg)
    report = {"command": "relmodel", **cfg.to_json_dict(), "trials": trials,
              "seed": seed, "planted_violation": planted,
              "internal_joint": {f"{x:+d},{y:+d}": f
                                 for (x, y), f in zip(statlab.PAIR_CELLS, statlab.freqs(internal))},
              "independence": independence,
              "analytic_feasibility": verdict.to_json_dict(),
              "checks": checks, "pass": all(c["pass"] for c in checks)}

    def table(rep: dict) -> str:
        lines = [f"frame-relational model, trials={trials} seed={seed}",
                 f"  internal joint (Ai,Ci): {rep['internal_joint']}",
                 f"  analytic targets feasible: {verdict.feasible}",
                 _tolerance_lines(rep["checks"])]
        return "\n".join(lines) + "\n"

    # CSV is the first ROWS runs, like "records" in JSON
    _emit(args, report, table, lambda rep: batch.rows_csv(relmodel.ROWS),
          spliced={"records": batch.rows_json(relmodel.ROWS)})
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- rovelli ----------------------------------------------------------------

def cmd_rovelli(args: argparse.Namespace) -> int:
    from . import relmodel, scenarios
    trials = _resolve_int(args, "trials", 10000, 1, MAX_TRIALS)
    seed = _resolve_int(args, "seed", 0, 0)
    trigger = _resolve_int(args, "trigger", 1, None)
    try:
        cfg = scenarios.RovelliConfig(trigger=trigger)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    checks, states, runs = relmodel.rovelli_audit(cfg, trials, seed)
    report = {"command": "rovelli", **cfg.to_json_dict(), "trials": trials, "seed": seed,
              "states": states, "consistency_rate": runs["consistent"] / trials,
              "second_iff_trigger": runs["second_iff_trigger"],
              "checks": checks, "pass": all(c["pass"] for c in checks)}

    def table(rep: dict) -> str:
        lines = [f"sequential scenario, trigger={cfg.trigger:+d}, trials={trials}"]
        for sr in rep["states"]:
            lines.append(f"  state {sr['record']}: witness={sr['interference_witness']:.6f} "
                         f"records={sr['record_probabilities']}")
        lines.append(f"  consistency rate: {rep['consistency_rate']:.4f} "
                     f"(second measurement iff trigger: {rep['second_iff_trigger']})")
        lines.append(_tolerance_lines(rep["checks"]))
        return "\n".join(lines) + "\n"

    _emit(args, report, table)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- accept -----------------------------------------------------------------

def cmd_accept(args: argparse.Namespace) -> int:
    from . import acceptance
    seed = _resolve_int(args, "seed", 42, 0)
    report = acceptance.run_all(seed)
    report["command"] = "accept"

    def table(rep: dict) -> str:
        lines = [f"acceptance suite, master seed {seed}"]
        for crit in rep["criteria"]:
            status = "PASS" if crit["pass"] else "FAIL"
            lines.append(f"[{status}] criterion {crit['criterion']}: {crit['name']}")
            lines.append(_tolerance_lines(crit["checks"]))
        lines.append("overall: " + ("PASS" if rep["pass"] else "FAIL"))
        return "\n".join(lines) + "\n"

    _emit(args, report, table)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- driver -----------------------------------------------------------------

@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friendlab",
        description="Simulate Extended Wigner's Friend experiments and decide "
                    "joint-distribution feasibility exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = {"--trials": {"type": int}, "--seed": {"type": int},
                 "--angles": {"help": "ask_A,super_A,ask_C,super_C in degrees"}}

    def command(name: str, func, help_text: str, *flags: str) -> argparse.ArgumentParser:
        """A subcommand with the flags every command reads, plus those of
        `run_flags` named in `flags`."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file mirroring the flags; flags override")
        for flag in flags:
            p.add_argument(flag, **run_flags[flag])
        p.add_argument("--format", choices=("table", "json", "csv"))
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("basic", cmd_basic, "sealed-lab state and its frame-relational form")
    p.add_argument("--amps", help="a,b amplitudes of the measured qubit")
    p.add_argument("--outcome", type=int, choices=(1, -1))

    command("lf", cmd_lf, "simulate the four-observer circuit", "--trials", "--seed", "--angles")

    p = command("feasibility", cmd_feasibility, "exact joint-distribution feasibility",
                "--angles")
    p.add_argument("--targets", help="JSON file of pairwise 2x2 tables")
    p.add_argument("--from-angles", dest="from_angles", action="store_true", default=None)

    p = command("relmodel", cmd_relmodel, "Monte Carlo frame-relational model",
                "--trials", "--seed", "--angles")
    p.add_argument("--planted-violation", dest="planted_violation",
                   action="store_true", default=None,
                   help="corrupt the batch to verify the audits catch it")

    p = command("rovelli", cmd_rovelli, "sequential-measurement scenario", "--trials", "--seed")
    p.add_argument("--trigger", type=int, choices=(1, -1))

    command("accept", cmd_accept, "run the acceptance suite", "--seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_json(args.config, "config file") if args.config else {}
        if not isinstance(config, dict):
            raise InputError("config file must hold a JSON object")
        # the parser's own entries are no options a config file can set
        unread = sorted(set(config) - (set(vars(args)) - {"command", "func", "config"}))
        if unread:
            raise InputError(f"config keys that {args.command} does not read: "
                             + ", ".join(unread))
        args.config_data = config
        return args.func(args)
    except (InputError, mp.TargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
