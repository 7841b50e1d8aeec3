"""Command-line orchestration.

Subcommands: basic | lf | feasibility | relmodel | rovelli | accept, each
with the flags its COMMANDS entry lists.  A flag is written in full or as a
unique prefix, its value as the next token or after "=", and the last of
repeated values wins; -h or --help prints help.  Exit codes: 0 pass, 1
invariant or tolerance failure, 2 usage error or `friendlab.InputError`, 3
internal method disagreement.

A JSON config file (--config) may mirror any flag of its command; explicit
flags override the file, and a key that no flag of the command reads is an
input error.  Each flag's Flag entry holds its kind, default and bounds, and
`_read_flags` checks every argv and config value by them before the command
starts (each default on the command's first call only), as it does an --out
that is a directory or whose directory is missing or not writable, so a
refused value costs no run.  JSON output is compact and canonical (sorted
keys, no whitespace, one trailing newline), so identical (command, config,
seed) triples produce byte-identical reports; `python -m json.tool`
pretty-prints one.  `feasibility` splices in `targets`, `joint_4` and
`joint_6` as texts, each exact number written once by one `rational_texts`
call, and `relmodel` its `analytic_feasibility` the same way and its
`records` as pre-encoded rows; the C encoder writes each run of the other
report keys in one call.  `feasibility --from-angles` and `relmodel` read
`scenarios.circuit_verdict`, and put in a fresh `scenarios.resolution` entry.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache
from types import SimpleNamespace

from . import InputError, _submodule, statlab

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3
# the most runs any command draws: numpy's multinomial takes an int64 n, which
# sets the bound for relmodel's batches, and lf and rovelli share it
MAX_TRIALS = 2 ** 63 - 1
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_exact_json = json.JSONDecoder(parse_float=str).decode  # a number as written, not a float
# the canonical JSON of the targets (each table as rows [[++, +-], [-+, --]])
# and of a verdict, each text of an exact number left out: the only writers
# of either
_TARGETS_JSON = "{%s}" % ",".join(f'"{p}":[["%s","%s"],["%s","%s"]]' for p in statlab.PAIR_IDS)
_VERDICT_JSON = {True: '{"feasible":true,"max_violation":null,"witness":["%s"]}',
                 False: '{"feasible":false,"max_violation":"%s","witness":null}'}


def _read_json(path: str, what: str, decode=json.JSONDecoder().decode):
    """The JSON value in the file at `path`, UTF-8 whatever the locale, parsed
    by `decode`; newlines and a BOM as a text-mode `json.load` sees them, so
    errors read the same.  InputError naming `what` if it cannot be read, is
    not UTF-8 or JSON (ValueError) or nests too deeply (RecursionError)."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return (json.loads if text.startswith("\ufeff") else decode)(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def _emit(args: SimpleNamespace, report: dict, render_table, render_csv=None,
          spliced: dict[str, list[str]] | None = None) -> None:
    """Write the report in the requested format.  `spliced` maps further
    keys of the JSON report to their values as lists of pieces that join to
    canonical JSON: `feasibility`'s "targets", "joint_4" and "joint_6", and
    `relmodel`'s "analytic_feasibility" and "records".  The JSON text is one
    join: each run of the other keys between spliced ones is one call of the
    C encoder, braces stripped, and spliced pieces go in as they are, never
    joined on their own.  So the text is the only report-sized string the
    call makes."""
    if args.format == "json":
        spliced = spliced or {}
        pieces = []
        keys = sorted(report.keys() | spliced.keys())
        for is_spliced, run in itertools.groupby(keys, spliced.__contains__):
            if is_spliced:
                for key in run:
                    pieces += (",", _canonical(key), ":")
                    pieces += spliced[key]
            else:  # an indent would make the encoder pure Python
                pieces += (",", _canonical({key: report[key] for key in run})[1:-1])
        pieces[:1] = ["{"]  # in place of the first run's ","
        pieces.append("}\n")
        text = "".join(pieces)
    elif args.format == "csv":
        text = render_csv(report)
    else:
        text = render_table(report)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc


def _resolution_line(resolution: dict) -> str:
    """The table's line for a "resolution" entry."""
    return (f"  resolution: verdicts on targets snapped to {resolution['snap']}, not the circuit "
            f"(largest CHSH variant {resolution['undecided_band']})")


def _tolerance_lines(checks: list[dict]) -> str:
    return "\n".join(f"  [{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: {c['metric']}="
                     f"{c['observed']:.6g} (threshold {c['threshold']:.6g}, n={c['n']})"
                     for c in checks)


# --- basic ------------------------------------------------------------------

def cmd_basic(args: SimpleNamespace) -> int:
    hilbert, scenarios = _submodule("hilbert"), _submodule("scenarios")
    (a, b, state), outcome = args.amps, args.outcome
    report = {"command": "basic", "amplitudes": {"a": a, "b": b},
              "entangled_amps": [[x.real, x.imag] for x in state.amps],
              "born_S": dict(zip(("+1", "-1"), hilbert.born_distribution(state, ("S",))))}
    if abs(abs(a) - abs(b)) <= 1e-9:
        frame = scenarios.build_frame_relational_state(outcome)
        witness = scenarios.interference_witness(frame, *scenarios.orientation_branches(frame))
        rec = hilbert.born_distribution(frame, ("record",))
        report["frame_relational"] = {"outcome": outcome, "interference_witness": witness,
                                      "record_expectation": rec[0] - rec[1]}
    else:
        # the frame-relational construction is defined only for equal branch
        # weights; unequal amplitudes make the witness degenerate
        report["frame_relational"] = {"outcome": outcome, "degenerate":
                                      "frame-relational state requires equal branch weights"}

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

def cmd_lf(args: SimpleNamespace) -> int:
    relmodel, scenarios = _submodule("relmodel"), _submodule("scenarios")
    cfg, trials, seed = args.angles, args.trials, args.seed
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

    _emit(args, report, table, lambda rep: "".join(relmodel.csv_lines([
        ("pair", "x", "y", "frequency", "born"),
        *((pair, *cell, freq, born) for pair, entry in rep["pairs"].items()
          for cell, freq, born in zip(statlab.PAIR_CELLS, entry["frequencies"], entry["born"]))])))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- feasibility ------------------------------------------------------------

def cmd_feasibility(args: SimpleNamespace) -> int:
    mp = _submodule("marginal_polytope")
    if args.targets and args.from_angles:
        raise InputError("give either --targets or --from-angles, not both")
    if args.targets:
        targets = mp.PairTargets.from_json_dict(_read_json(args.targets, "targets", _exact_json))
        (v4, v6, fine, agree), top = mp.decide(targets), None
    elif args.from_angles:
        targets, (v4, v6, fine, agree), top = _submodule("scenarios").circuit_verdict(args.angles)
    else:
        raise InputError("feasibility needs --targets FILE or --from-angles")

    s = targets.variants[statlab.CHSH_SIGNS]
    # every exact number's text from one call: S, the 16 cells, then each
    # verdict's witness or violation
    w4, w6 = (v.witness or (v.max_violation,) for v in (v4, v6))
    texts = mp.rational_texts([s, *targets.cell_counts[1:], *w4, *w6], targets.scale)
    texts4, texts6 = texts[17:17 + len(w4)], texts[17 + len(w4):]
    report = {"command": "feasibility", "chsh_value": texts[0],
              "chsh_value_float": s / targets.scale,  # int / int is correctly rounded
              "fine_criterion": fine, "methods_agree": agree}
    if top is not None:
        report["resolution"] = _submodule("scenarios").resolution(top)

    def table(rep: dict) -> str:
        lines = [f"pairwise targets: S = {rep['chsh_value']} ~ {rep['chsh_value_float']:.4f}",
                 f"  4-variable joint: {'feasible' if v4.feasible else 'infeasible'}",
                 f"  6-variable joint: {'feasible' if v6.feasible else 'infeasible'}",
                 f"  analytic criterion: {'feasible' if fine else 'infeasible'}"]
        if v4.feasible:
            lines.append(f"  witness atoms (A,B,C,D lexicographic): {texts4}")
        else:
            lines.append(f"  max violation over 2: {texts4[0]}")
        if "resolution" in rep:
            lines.append(_resolution_line(rep["resolution"]))
        if not agree:
            lines.append("  METHOD DISAGREEMENT - this is a bug")
        return "\n".join(lines) + "\n"

    _emit(args, report, table, spliced={
        "targets": [_TARGETS_JSON % tuple(texts[1:17])],
        "joint_4": [_VERDICT_JSON[v4.feasible] % '","'.join(texts4)],
        "joint_6": [_VERDICT_JSON[v6.feasible] % '","'.join(texts6)]})
    return EXIT_PASS if agree else EXIT_DISAGREE


# --- relmodel ---------------------------------------------------------------

def cmd_relmodel(args: SimpleNamespace) -> int:
    mp, relmodel, scenarios = map(_submodule, ("marginal_polytope", "relmodel", "scenarios"))
    cfg, trials, seed, planted = args.angles, args.trials, args.seed, args.planted_violation
    batch = relmodel.simulate_batch(cfg, trials, seed)
    if planted:  # a debug self-test: it must trip the choice-independence audit
        batch = batch.planted()
    checks, internal, independence = relmodel.audit(batch)
    targets, (v4, _, _, agree), top = scenarios.circuit_verdict(cfg)
    texts = mp.rational_texts(v4.witness or (v4.max_violation,), targets.scale)
    report = {"command": "relmodel", **cfg.to_json_dict(), "trials": trials,
              "seed": seed, "planted_violation": planted,
              "internal_joint": {f"{x:+d},{y:+d}": f
                                 for (x, y), f in zip(statlab.PAIR_CELLS, statlab.freqs(internal))},
              "independence": independence,
              "checks": checks, "pass": all(c["pass"] for c in checks)}
    if top is not None:  # the analytic verdict is about the snapped targets
        report["resolution"] = scenarios.resolution(top)

    def table(rep: dict) -> str:
        lines = [f"frame-relational model, trials={trials} seed={seed}",
                 f"  internal joint (Ai,Ci): {rep['internal_joint']}",
                 f"  analytic targets feasible: {v4.feasible}",
                 *([_resolution_line(rep["resolution"])] if "resolution" in rep else []),
                 _tolerance_lines(rep["checks"])]
        return "\n".join(lines) + "\n"

    # CSV is the first ROWS runs, like "records" in JSON
    _emit(args, report, table, lambda rep: batch.rows_csv(relmodel.ROWS),
          spliced={"analytic_feasibility": [_VERDICT_JSON[v4.feasible] % '","'.join(texts)],
                   "records": batch.rows_json(relmodel.ROWS)})
    return (EXIT_PASS if report["pass"] else EXIT_FAIL) if agree else EXIT_DISAGREE


# --- rovelli ----------------------------------------------------------------

def cmd_rovelli(args: SimpleNamespace) -> int:
    relmodel, scenarios = _submodule("relmodel"), _submodule("scenarios")
    trials, seed, cfg = args.trials, args.seed, scenarios.RovelliConfig(trigger=args.trigger)
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

def cmd_accept(args: SimpleNamespace) -> int:
    report = _submodule("acceptance").run_all(args.seed)
    report["command"] = "accept"

    def table(rep: dict) -> str:
        lines = [f"acceptance suite, master seed {args.seed}"]
        for crit in rep["criteria"]:
            status = "PASS" if crit["pass"] else "FAIL"
            lines.append(f"[{status}] criterion {crit['criterion']}: {crit['name']}")
            lines.append(_tolerance_lines(crit["checks"]))
        lines.append("overall: " + ("PASS" if rep["pass"] else "FAIL"))
        return "\n".join(lines) + "\n"

    _emit(args, report, table)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# --- driver -----------------------------------------------------------------

def _amplitudes(amps):
    """--amps: "a,b" as the two floats and the sealed-lab state they give."""
    parts = [p.strip() for p in str(amps).split(",")]
    if len(parts) != 2:
        raise InputError("--amps needs two comma-separated amplitudes a,b")
    try:
        a, b = float(parts[0]), float(parts[1])
        return a, b, _submodule("scenarios").build_basic_wf_state(a, b)
    except ValueError as exc:  # not a float, or not normalized
        raise InputError(str(exc)) from exc


def _lf_config(angles):
    """--angles: the circuit's LFConfig from "a,b,c,d" degrees, a 4-list or
    an object of the four; the default circuit where None."""
    LFConfig = _submodule("scenarios").LFConfig
    if angles is None:
        return LFConfig()
    if isinstance(angles, str):
        angles = angles.split(",")
    try:
        if isinstance(angles, dict):
            return LFConfig.from_json_dict({"angles": angles})
        if isinstance(angles, list) and len(angles) == 4:
            return LFConfig(*angles)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad angles: {exc}") from exc
    raise InputError("angles must be four degrees ask_A,super_A,ask_C,super_C "
                     "as 'a,b,c,d', a 4-list, or an object")


# A flag's kind: int (from `minimum` to `maximum` where not None), a tuple of
# the values it takes, SWITCH (true or false), PATH (a non-empty file path or
# None) or a converter.  `default` is its value where argv and the config
# file give none; `only_with` names the switch without which it may not be
# given.
Flag = namedtuple("Flag", "kind help default minimum maximum only_with",
                  defaults=(None, None, None, None))
SWITCH, PATH = "switch", "path"
_SHARED = {"--config": Flag(PATH, "JSON file mirroring the flags; flags override"),
           "--format": Flag(("table", "json", "csv"), "report format (default table)", "table"),
           "--out": Flag(PATH, "write the report to this path instead of stdout")}
_TRIALS = Flag(int, "number of runs", None, 100, MAX_TRIALS)
_SEED = Flag(int, "master random seed", 0, 0)
_ANGLES = Flag(_lf_config, "ask_A,super_A,ask_C,super_C in degrees")

# command -> (function, help text, flags)
COMMANDS = {
    "basic": (cmd_basic, "sealed-lab state and its frame-relational form", {
        **_SHARED, "--amps": Flag(_amplitudes, "a,b amplitudes of the measured qubit",
                                  "0.7071067811865476,0.7071067811865476"),
        "--outcome": Flag((1, -1), "outcome of the frame-relational state", 1)}),
    "lf": (cmd_lf, "simulate the four-observer circuit", {
        **_SHARED, "--trials": _TRIALS._replace(default=100000), "--seed": _SEED,
        "--angles": _ANGLES}),
    "feasibility": (cmd_feasibility, "exact joint-distribution feasibility", {
        **_SHARED, "--angles": _ANGLES._replace(only_with="--from-angles"),
        "--targets": Flag(PATH, "JSON file of pairwise 2x2 tables"),
        "--from-angles": Flag(SWITCH, "decide the circuit's own targets at --angles", False)}),
    "relmodel": (cmd_relmodel, "Monte Carlo frame-relational model", {
        **_SHARED, "--trials": _TRIALS._replace(default=400000), "--seed": _SEED,
        "--angles": _ANGLES,
        "--planted-violation": Flag(SWITCH, "corrupt the batch to verify the audits catch it",
                                    False)}),
    "rovelli": (cmd_rovelli, "sequential-measurement scenario", {
        **_SHARED, "--trials": _TRIALS._replace(default=10000, minimum=1), "--seed": _SEED,
        "--trigger": Flag((1, -1), "first outcome that makes the friend measure again", 1)}),
    "accept": (cmd_accept, "run the acceptance suite",
               {**_SHARED, "--seed": _SEED._replace(default=42)}),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# command -> {config key: Flag}, each `only_with` flag last
_KEYED = {command: {_dest(flag): spec for flag, spec in sorted(
    flags.items(), key=lambda item: item[1].only_with is not None)}
    for command, (_, _, flags) in COMMANDS.items()}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: friendlab [-h] {" + ",".join(COMMANDS) + "} ..."
    return " ".join([f"usage: friendlab {command} [-h]",
                     *(f"[{_spelled(flag, spec.kind)}]" for flag, spec in COMMANDS[command][2].items())])


def _spelled(flag: str, kind) -> str:
    """The flag as usage and help write it: "--seed SEED", "--format
    {table,json,csv}", "--from-angles"."""
    if kind is SWITCH:
        return flag
    return f"{flag} " + ("{" + ",".join(map(str, kind)) + "}" if isinstance(kind, tuple)
                         else _dest(flag).upper())


def _help(command: str | None) -> str:
    if command is None:
        text = ("Simulate Extended Wigner's Friend experiments and decide joint-distribution "
                "feasibility exactly.")
        rows = [(name, help_text) for name, (_, help_text, _) in COMMANDS.items()]
    else:
        _, text, flags = COMMANDS[command]
        rows = [(_spelled(flag, spec.kind), spec.help) for flag, spec in flags.items()]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    return (f"{_usage(command)}\n\n{text}\n\n"
            + "".join(f"  {name:<{width}}{help_text}\n" for name, help_text in rows))


def _usage_error(command: str | None, message: str):
    """Refuse the argv as argparse did: usage and error to stderr, exit 2."""
    prog = f"friendlab {command}" if command else "friendlab"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _lookup(command: str, token: str, flags: dict) -> tuple[str | None, str | None]:
    """The flag that `token` names, exactly or by a unique prefix, and the
    value written after its "=" (None without one); (None, None) when it
    names no flag."""
    name, eq, value = token.partition("=")
    if not name.startswith("--") or name == "--":
        return None, None
    if name not in flags:
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _usage_error(command, f"ambiguous option: {name} could match {', '.join(matches)}")
        if not matches:
            return None, None
        name = matches[0]
    return name, value if eq else None


def _takes_int(kind) -> bool:
    return kind is int or isinstance(kind, tuple) and isinstance(kind[0], int)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command named by argv[0], its function and every flag of the
    command, None where the argv leaves it unset.  A flag is written in full
    or as a unique prefix, its value as the next token or after "=", and
    the last of repeated values wins.  -h or --help prints help and exits
    0; any other argv that the command does not take exits 2."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command in ("-h", "--help"):
            sys.stdout.write(_help(None))
            raise SystemExit(EXIT_PASS)
        _usage_error(None, f"invalid command {command!r} (choose from {', '.join(COMMANDS)})"
                     if argv else "the following arguments are required: command")
    func, _, flags = COMMANDS[command]
    values = dict.fromkeys(_KEYED[command])
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(EXIT_PASS)
        flag, value = _lookup(command, token, flags)
        if flag is None:
            unrecognized.append(token)
            continue
        kind = flags[flag].kind
        if kind is SWITCH:
            if value is not None:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            values[_dest(flag)] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None:
                _usage_error(command, f"argument {flag}: expected one argument")
        if _takes_int(kind):
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid int value: {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, kind))})")
        values[_dest(flag)] = value
    if unrecognized:
        _usage_error(command, "unrecognized arguments: " + " ".join(unrecognized))
    return SimpleNamespace(command=command, func=func, **values)


def _checked(key: str, spec: Flag, val):
    """`val` as the command reads it; InputError unless `spec` takes it."""
    kind = spec.kind
    if not isinstance(kind, (type, tuple, str)):  # a converter
        return kind(val)
    if _takes_int(kind) and (isinstance(val, bool) or not isinstance(val, int)):
        raise InputError(f"{key} must be an integer, got {val!r}")
    if isinstance(kind, tuple) and val not in kind:
        raise InputError(f"{key} must be one of {', '.join(map(repr, kind))}, got {val!r}")
    if kind is SWITCH and not isinstance(val, bool):
        raise InputError(f"{key} must be true or false, got {val!r}")
    if kind is PATH and val is not None and (not isinstance(val, str) or not val):
        raise InputError(f"{key} must be a non-empty file path, got {val!r}")
    if spec.minimum is not None and val < spec.minimum:
        raise InputError(f"{key} must be at least {spec.minimum}, got {val}")
    if spec.maximum is not None and val > spec.maximum:
        raise InputError(f"{key} must be at most {spec.maximum}, got {val}")
    return val


@lru_cache(maxsize=None)  # a flag's default as `_checked` takes it, checked on its first use
def _default(command: str, key: str):
    return _checked(key, _KEYED[command][key], _KEYED[command][key].default)


def _read_flags(args: SimpleNamespace, config: dict) -> None:
    """Set each flag of the command to the value it reads: its argv value,
    else its config-file value, else its default, as `_checked` takes it.
    InputError for a config key no flag reads, else for the first refused
    value in _KEYED order."""
    keyed = _KEYED[args.command]
    # --config names the file, so the file cannot set it
    unread = sorted(key for key in config if key not in keyed or key == "config")
    if unread:
        raise InputError(f"config keys that {args.command} does not read: " + ", ".join(unread))
    for key, spec in keyed.items():
        val = getattr(args, key)
        unset = val is None and key not in config
        val = config.get(key, spec.default) if val is None else val
        if spec.only_with and not getattr(args, _dest(spec.only_with)):
            if val is not None:
                raise InputError(f"{args.command} reads {key} only with {spec.only_with}")
        else:
            setattr(args, key, _default(args.command, key) if unset else _checked(key, spec, val))
    if args.format == "csv" and args.command not in ("lf", "relmodel"):  # no CSV renderer
        raise InputError("this command has no CSV representation")
    if args.out is not None:  # `_emit` still handles a write that fails
        directory = os.path.dirname(args.out) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise InputError(f"cannot write {args.out}: no writable directory {directory!r}")
        if os.path.isdir(args.out):
            raise InputError(f"cannot write {args.out}: it is a directory")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = _read_json(args.config, "config file") if args.config else {}
        if not isinstance(config, dict):
            raise InputError("config file must hold a JSON object")
        _read_flags(args, config)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
