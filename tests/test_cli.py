import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import argparse_oracle
import pins
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fraction_targets import verdict_json
from test_relmodel import reference_rows

import friendlab
from friendlab import acceptance, cli, hilbert, relmodel, scenarios, statlab
from friendlab import marginal_polytope as mp
from friendlab.scenarios import LFConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a feasible grid of pair tables, partly written as decimals
GRID_TARGETS = json.loads(pins.GRID)


def test_basic_rejects_unnormalized_amps(capsys):
    # NaN compares false to everything, so it must not slip past the norm test
    # 0.6,0.8000000005 is off by 8e-10, more than build_basic_wf_state allows;
    # 1e200 squared overflows a float
    for amps in ("0.9,0.9", "nan,nan", "0.6,0.8000000005", "1e200,0"):
        code, out, err = run(capsys, "basic", "--amps", amps)
        assert code == cli.EXIT_INPUT
        assert out == "" and "not normalized" in err


def test_lf_small_run_passes_and_round_trips(capsys, tmp_path):
    out_path = tmp_path / "lf.json"
    code, _, _ = run(capsys, "lf", "--trials", "20000", "--seed", "1",
                     "--format", "json", "--out", str(out_path))
    assert code == cli.EXIT_PASS
    rep = json.loads(out_path.read_text())
    assert rep["pass"] is True
    assert abs(rep["chsh"]["estimate"] - rep["chsh"]["analytic"]) < 0.05


def test_lf_rejects_tiny_trials(capsys):
    code, _, err = run(capsys, "lf", "--trials", "50")
    assert code == cli.EXIT_INPUT
    assert "at least 100" in err


def test_lf_csv_output(capsys):
    code, out, _ = run(capsys, "lf", "--trials", "20000", "--seed", "1", "--format", "csv")
    assert code == cli.EXIT_PASS
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["pair", "x", "y", "frequency", "born"]
    assert len(rows) == 1 + 4 * 4


def child_env(**extra):
    """The environment of a child interpreter that imports this checkout's src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# pins.in_process in a fresh interpreter that imports this checkout's src
IN_PROCESS = """
import json, sys
sys.path.insert(0, sys.argv[2])
import pins
print(json.dumps(pins.in_process(sys.argv[1])))
"""


@pytest.fixture(scope="module")
def in_a_fresh_interpreter(tmp_path_factory):
    """Each pin's problems in the runs that set no environment variable, all
    through cli.main in one child interpreter, and the modules they loaded."""
    child = subprocess.run([sys.executable, "-c", IN_PROCESS, str(tmp_path_factory.mktemp("pins")),
                            str(Path(__file__).parent)],
                           env=child_env(), capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin(in_a_fresh_interpreter, tmp_path, name):
    # a run that sets a variable runs in a child of its own, as the variable
    # must hold from the start of the interpreter (numpy and the locale read
    # theirs once)
    pin = pins.PINS[name]
    problems = list(in_a_fresh_interpreter["problems"][name])
    for run in pin["runs"]:
        if "env" in run:
            problems += pins.check(pin, *pins.spawn([sys.executable, "-m", "friendlab.cli"], run,
                                                    tmp_path, child_env()))
    assert problems == []


def test_the_commands_load_no_module_they_do_not_use(in_a_fresh_interpreter):
    # every exact number of a report is an int over the targets' scale, written
    # by rational_texts, so no valid input loads fractions, nor the decimal
    # that fractions imports; no command but lf, relmodel and accept loads
    # numpy, none loads argparse, and no record class loads dataclasses
    assert in_a_fresh_interpreter["loaded"] == {"after the numpy-free runs": [],
                                                 "after all runs": []}


def test_pins_are_distinct_and_every_run_names_a_command():
    digests = [pin["sha256"] for pin in pins.PINS.values() if "sha256" in pin]
    assert len(digests) == len(set(digests))
    for pin in pins.PINS.values():
        assert pin["runs"] and {"exit"} <= pin.keys() <= {"exit", "sha256", "stdout", "stderr",
                                                          "runs"}
        for run in pin["runs"]:
            assert run["argv"] == ["--help"] or run["argv"][0] in cli.COMMANDS, run["argv"]


# run in a fresh interpreter with the path of a targets file: the package
# imports no submodule, marginal_polytope only statlab, deciding the file
# loads only cli besides them (no numpy, and no scenarios or hilbert, which
# checking a default such as basic's --amps would load), and a module of
# __all__ resolves as an attribute on first use
NUMPY_FREE_START = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("friendlab.") or m == "numpy")

import friendlab
assert loaded() == [], loaded()
import friendlab.marginal_polytope
assert loaded() == ["friendlab.marginal_polytope", "friendlab.statlab"], loaded()
from friendlab import cli
assert cli.main(["feasibility", "--targets", sys.argv[1], "--format", "json"]) == 0
assert loaded() == ["friendlab.cli", "friendlab.marginal_polytope", "friendlab.statlab"], loaded()
assert friendlab.relmodel is sys.modules["friendlab.relmodel"]
try:
    friendlab.nope
except AttributeError:
    pass
else:
    raise AssertionError("friendlab.nope resolved")
"""


def test_deciding_a_targets_file_loads_no_numpy(tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(GRID_TARGETS))
    child = subprocess.run([sys.executable, "-c", NUMPY_FREE_START, str(targets)],
                           env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["joint_4"]["feasible"]


@pytest.mark.parametrize("data", [b'\xef\xbb\xbf{"AC": 1}', b'{\r\n"AC": 1,\r\n"AD" 2}',
                                  b'{\r"AC": 1,\r"AD" 2}', b'{"AC": "1/\r\n4"}',
                                  b'{"AC": 1}\n\xff'])
def test_a_refused_file_gets_the_message_of_a_text_mode_json_load(capsys, tmp_path, data):
    # a BOM, newlines and bad bytes give the positions a UTF-8 text file gives
    targets = tmp_path / "targets.json"
    targets.write_bytes(data)
    with pytest.raises(ValueError) as refused, open(targets, encoding="utf-8") as fh:
        json.load(fh)
    for flag, what in (("--targets", "targets"), ("--config", "config file")):
        code, _, err = run(capsys, "feasibility", flag, str(targets))
        assert (code, err) == (cli.EXIT_INPUT, f"error: cannot read {what}: {refused.value}\n")


# run in a fresh interpreter: the sequential runs are drawn by the standard
# library's random.Random, so `rovelli` loads no numpy
NUMPY_FREE_ROVELLI = """
import sys
from friendlab import cli
assert cli.main(["rovelli", "--trials", "500", "--seed", "0", "--format", "json"]) == 0
assert "numpy" not in sys.modules
assert "friendlab.marginal_polytope" not in sys.modules
"""


def test_rovelli_loads_no_numpy():
    child = subprocess.run([sys.executable, "-c", NUMPY_FREE_ROVELLI],
                           env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    problems = pins.check(pins.PINS["rovelli 500 0 json"], child.returncode,
                          child.stdout.encode(), child.stderr)
    assert problems == []


# run in a fresh interpreter: only a command that decides loads
# marginal_polytope (NUMPY_FREE_ROVELLI checks rovelli)
DECIDING_NOTHING = """
import sys
from friendlab import cli
assert cli.main(["basic", "--format", "json"]) == 0
assert cli.main(["lf", "--trials", "20000", "--format", "json"]) == 0
assert "friendlab.marginal_polytope" not in sys.modules
"""


def test_basic_and_lf_load_no_marginal_polytope():
    child = subprocess.run([sys.executable, "-c", DECIDING_NOTHING],
                           env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def test_relmodel_reports_decide_and_exits_3_when_the_methods_disagree(capsys, monkeypatch):
    # relmodel's analytic verdict is decide's four-variable verdict on the
    # circuit's targets, and a disagreement of the methods is exit 3, as in
    # feasibility; circuit_verdict memoizes decide, so the cache is cleared
    argv = ("relmodel", "--trials", "20000", "--seed", "0")
    targets = scenarios.circuit_targets(LFConfig())
    v4, _, _, agree = mp.decide(targets)
    assert agree
    real = mp.decide
    scenarios.circuit_verdict.cache_clear()
    try:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == cli.EXIT_PASS
        assert json.loads(out)["analytic_feasibility"] == verdict_json(v4, targets.scale)
        monkeypatch.setattr(mp, "decide", lambda t: (*real(t)[:3], False))
        scenarios.circuit_verdict.cache_clear()
        code, disagreeing, _ = run(capsys, *argv, "--format", "json")
        assert (code, disagreeing) == (3, out)
    finally:
        scenarios.circuit_verdict.cache_clear()


@pytest.mark.parametrize("command", ["lf", "relmodel"])
def test_an_angle_of_minus_0_reports_as_0(capsys, command):
    # -0.0 == 0.0, so the two configs are equal and share each memo entry
    argv = (command, "--trials", "100", "--seed", "1", "--format", "json")
    minus = run(capsys, *argv, "--angles=-0,90,45,135")
    assert minus == run(capsys, *argv, "--angles=0,90,45,135")
    assert '"ask_A":0.0,' in minus[1]


def test_lf_angles_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"angles": [0, 90, 45, 135], "trials": 20000, "seed": 7}))
    code, out, _ = run(capsys, "lf", "--config", str(cfg), "--format", "json",
                       "--angles", "0,0,0,0")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["angles"] == {"ask_A": 0.0, "super_A": 0.0, "ask_C": 0.0, "super_C": 0.0}
    assert rep["trials"] == 20000 and rep["seed"] == 7


def test_lf_malformed_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # a file that is not UTF-8 fails to decode before it fails to parse, and
    # deep nesting exhausts the parser's recursion
    for content in (b"[not an object]", b"[1, 2]", b"\xff\xfe{}", b"[" * 10 ** 5):
        cfg.write_bytes(content)
        code, _, err = run(capsys, "lf", "--config", str(cfg))
        assert code == cli.EXIT_INPUT
        assert "config file" in err


def test_feasibility_from_angles_infeasible(capsys):
    code, out, _ = run(capsys, "feasibility", "--from-angles", "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] is False
    assert rep["joint_6"]["feasible"] is False
    assert rep["fine_criterion"] is False
    assert rep["methods_agree"] is True


def test_feasibility_from_angles_names_the_snap_next_to_the_boundary(capsys):
    # the circuit's largest float CHSH variant is 2 + 6.7e-8, so the circuit
    # itself is infeasible, while its targets snapped to 1e-6 are feasible:
    # the verdict is stated about the snapped targets only.  The reports at
    # these angles are the pins named after pins.SNAPPED, feasibility's and
    # relmodel's, JSON and table; their verdict and resolution are these
    cfg = LFConfig(*map(float, pins.SNAPPED.split(",")))
    _, (v4, v6, fine, _), top = scenarios.circuit_verdict(cfg)
    assert v4.feasible and v6.feasible and fine
    assert 2 < top < 2 + 1e-7
    _, out, _ = run(capsys, "feasibility", "--from-angles", "--angles", pins.SNAPPED,
                    "--format", "json")
    assert json.loads(out)["resolution"] == {"snap": "1/1000000",
                                             "undecided_band": "2 +/- 2/1000000",
                                             "largest_born_variant": top}
    # far from the boundary the reports are unchanged (see the sha256 pins)
    _, out, _ = run(capsys, "feasibility", "--from-angles", "--angles", "0,90,0,135")
    assert "resolution" not in out


def test_a_memoized_resolution_reaches_no_report_as_a_shared_object(monkeypatch):
    # circuit_verdict is memoized: each report makes its own entry from it, so
    # changing one report's entry leaves the next report's as it was
    cfg = LFConfig(*map(float, pins.SNAPPED.split(",")))
    expected = {"snap": "1/1000000", "undecided_band": "2 +/- 2/1000000",
                "largest_born_variant": max(statlab.sign_variants(
                    scenarios.pair_correlations(cfg).values()).values())}
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda args, report, *rest, **spliced: reports.append(report))
    for argv in (["feasibility", "--from-angles"], ["relmodel", "--trials", "100"]):
        for _ in range(2):
            cli.main([*argv, "--angles", pins.SNAPPED])
            assert reports[-1]["resolution"] == expected
            reports[-1]["resolution"]["snap"] = "1/2"


def test_feasibility_targets_file_feasible(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(
        {pair: [["1/4", "1/4"], ["1/4", "1/4"]] for pair in ("AC", "AD", "BC", "BD")}))
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] is True
    assert rep["chsh_value"] == "0"


def test_feasibility_wrong_witness_is_a_disagreement(capsys, tmp_path, monkeypatch):
    # the three verdicts agree (feasible), but the 6-variable witness belongs
    # to other targets: that is not agreement
    uniform = {pair: [["1/4", "1/4"], ["1/4", "1/4"]] for pair in ("AC", "AD", "BC", "BD")}
    other = {pair: [["1/2", "0"], ["0", "1/2"]] for pair in ("AC", "AD", "BC", "BD")}
    real = mp.feasible_joint_6
    wrong = real(mp.feasible_joint_4(mp.PairTargets.from_json_dict(other)))
    assert wrong.feasible
    monkeypatch.setattr(mp, "feasible_joint_6", lambda v4: wrong)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(uniform))
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert code == cli.EXIT_DISAGREE
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] and rep["joint_6"]["feasible"] and rep["fine_criterion"]
    assert rep["methods_agree"] is False
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets))
    assert code == cli.EXIT_DISAGREE and "  METHOD DISAGREEMENT - this is a bug\n" in out


def test_feasibility_negative_solver_answer_is_a_disagreement(capsys, tmp_path, monkeypatch):
    # a defective four-variable witness that keeps every pair table but sends
    # atom 0 negative: shifted along A*B*C*D, which the cell system cannot see
    real = mp.feasible_joint_4

    def shifted(t):
        v = real(t)
        parity = [math.prod(a) for a in itertools.product((1, -1), repeat=4)]
        c = -parity[0] * (v.witness[0] + t.scale // 8)
        witness = tuple(n + c * s for n, s in zip(v.witness, parity))
        # through the constructor, so the verdict's own checks run on it
        return mp.FeasibilityVerdict(v.feasible, witness, v.max_violation)

    monkeypatch.setattr(mp, "feasible_joint_4", shifted)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(GRID_TARGETS))
    code, out, err = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert (code, err) == (cli.EXIT_DISAGREE, "")
    rep = json.loads(out)
    assert rep["joint_4"]["witness"][0] == "-1/8" and rep["methods_agree"] is False


def test_feasibility_decides_json_numbers_as_written(capsys, tmp_path):
    # S = 2 + 6e-9 (pins.NEAR): the nearest fractions with denominators up to
    # 1e6 would read 2/5 and 1/10, S = 2 and feasible
    as_strings = re.sub(r"(\d\.\d+)", r'"\1"', pins.NEAR)
    assert '"0.400000001"' in as_strings
    targets = tmp_path / "targets.json"
    reports = []
    for written in (pins.NEAR, as_strings):
        targets.write_text(written)
        code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
        assert code == cli.EXIT_PASS
        reports.append(out)
    assert reports[0] == reports[1]
    rep = json.loads(reports[0])
    assert rep["chsh_value"] == "500000003/250000000"
    assert not rep["joint_4"]["feasible"] and rep["targets"]["AC"][0][0] == "400000001/1000000000"


def test_feasibility_malformed_targets(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    infinite = {pair: [[float("inf"), 0], [0, 0]] for pair in ("AC", "AD", "BC", "BD")}
    # JSON true/false are not the probabilities 1 and 0
    boolean = {pair: [[True, False], [False, False]] for pair in ("AC", "AD", "BC", "BD")}
    # the value is 0, but parsing it as written would build 10**999999999
    huge_exponent = {**GRID_TARGETS, "BD": [["0e999999999", "1/2"], ["1/2", "0"]]}
    not_2x2 = {**GRID_TARGETS, "BD": [["1/4", "1/4", "1/4", "1/4"]]}
    # an object table iterates as its keys and a string row as its characters,
    # so each would read as the consistent [[1, 0], [0, 0]] of the other tables
    ones = {pair: [["1", "0"], ["0", "0"]] for pair in ("AC", "AD", "BC", "BD")}
    object_table = {**ones, "AC": {"10": None, "00": None}}
    string_rows = {**ones, "AD": ["10", "00"]}
    # a table beside the four that no pair reads
    fifth_table = {**GRID_TARGETS, "DA": [["1", "0"], ["0", "0"]]}
    for obj in ({"AC": [[1, 0], [0, 0]]}, infinite, boolean, huge_exponent, not_2x2,
                object_table, string_rows, fifth_table):
        targets.write_text(json.dumps(obj))
        code, _, err = run(capsys, "feasibility", "--targets", str(targets))
        assert code == cli.EXIT_INPUT
        assert err.startswith("error:")
    assert "DA" in err  # the last refusal names the table no pair reads
    targets.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "feasibility", "--targets", str(targets))
    assert code == cli.EXIT_INPUT and err.startswith("error: cannot read targets")


def test_feasibility_refuses_angles_without_from_angles(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(GRID_TARGETS))
    code, out, err = run(capsys, "feasibility", "--targets", str(targets), "--angles", "1,2,3,4")
    assert (code, out) == (cli.EXIT_INPUT, "") and "--from-angles" in err
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"targets": str(targets), "angles": [1, 2, 3, 4]}))
    code, out, err = run(capsys, "feasibility", "--config", str(cfg))
    assert (code, out) == (cli.EXIT_INPUT, "") and "--from-angles" in err


def test_feasibility_requires_a_source(capsys):
    code, _, err = run(capsys, "feasibility")
    assert code == cli.EXIT_INPUT
    assert "--targets" in err


def test_relmodel_report_checks_are_the_shared_audit(capsys):
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "3",
                       "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    batch = relmodel.simulate_batch(LFConfig(), 20000, 3)
    checks, internal, independence = relmodel.audit(batch)
    assert rep["checks"] == checks
    assert rep["independence"] == independence
    assert rep["internal_joint"]["+1,-1"] == internal[1] / sum(internal)


def test_relmodel_planted_violation_fails(capsys):
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "1",
                       "--planted-violation", "--format", "json")
    assert code == cli.EXIT_FAIL
    rep = json.loads(out)
    assert rep["pass"] is False
    # Alice's internal outcome follows Bob's choice; Chidi's wing stays clean
    assert [f["wing"] for f in rep["independence"]["flags"]] == ["alice"]
    flagged = [c for c in rep["checks"] if c["name"] == "choice-independence flags"]
    assert flagged and not flagged[0]["pass"]


@pytest.mark.parametrize("trials", [100, 999, 1000, 20000])
@pytest.mark.parametrize("planted", [False, True])
def test_relmodel_json_splice_is_the_canonical_encoding(capsys, trials, planted):
    # the records are spliced in as pre-encoded rows; with the rows as dicts,
    # json.dumps of the whole report must give the same bytes
    code, out, _ = run(capsys, "relmodel", "--trials", str(trials), "--seed", "7",
                       "--format", "json", *(["--planted-violation"] if planted else []))
    batch = relmodel.simulate_batch(LFConfig(), trials, 7)
    if planted:
        batch = batch.planted()
    report = {**json.loads(out), "records": reference_rows(batch)}
    assert len(report["records"]) == min(trials, relmodel.ROWS)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", [
    ["basic"], ["basic", "--amps", "0.6,0.8"], ["lf", "--trials", "20000"],
    ["feasibility", "--from-angles"], ["rovelli", "--trials", "50"]])
def test_every_json_report_is_the_canonical_encoding(capsys, argv):
    # _emit encodes the report by runs of keys and joins the runs; the text
    # must be json.dumps of the whole report (floats round-trip through repr)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_PASS
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


# the spliced values, by key: lists of pieces that join to their JSON
SPLICED = {"a": ["[", '{"k":1}', ",", '{"k":2.5}', "]"], "c": ['"c"'], "e": ["null"],
           "f": ["[", "]"]}


@pytest.mark.parametrize("report, spliced", [
    ({"b": 1.5, "d": [True, {"y": None, "x": "é"}]}, "a"),  # first: no keys before it
    ({"b": 1.5, "d": [True, {"y": None, "x": "é"}]}, "c"),  # in the middle
    ({"b": 1.5, "d": [True, {"y": None, "x": "é"}]}, "e"),  # last: no keys after it
    ({}, "a"),  # alone
    ({"b": 0.1, "d": "x"}, "ac"), ({"b": 0.1, "d": "x"}, "ef"),  # two in a row
    ({"b": 0.1, "d": "x"}, "acef"), ({"b": 0.1, "d": "x"}, ""), ({}, "")])
def test_emit_joins_runs_of_keys_and_spliced_values_to_the_canonical_encoding(
        capsys, report, spliced):
    args = SimpleNamespace(format="json", out=None)
    cli._emit(args, report, None, spliced={key: SPLICED[key] for key in spliced})
    whole = {**report, **{key: json.loads("".join(SPLICED[key])) for key in spliced}}
    assert capsys.readouterr().out == json.dumps(whole, sort_keys=True,
                                                 separators=(",", ":")) + "\n"


def test_relmodel_csv_records(capsys):
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "2",
                       "--format", "csv")
    assert code == cli.EXIT_PASS
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["a_internal", "c_internal"]
    # the report carries at most the first ROWS records
    assert len(rows) == 1 + relmodel.ROWS


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_relmodel_out_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    argv = ["relmodel", "--trials", "20000", "--seed", "0", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_PASS
    path = tmp_path / f"report.{fmt}"
    code, stdout, _ = run(capsys, *argv, "--out", str(path))
    assert (code, stdout) == (cli.EXIT_PASS, "")
    assert path.read_bytes() == out.encode()


def test_relmodel_json_report_is_the_only_report_sized_string(monkeypatch):
    # _emit joins the report once from its pieces, so a call's allocation
    # peak stays near one report's length, where copying the records into
    # the report string piece by piece reads about three lengths
    class Sink:  # keeps what is written, as a captured stdout does
        def __init__(self):
            self.written = []

        def write(self, text):
            self.written.append(text)
            return len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["relmodel", "--trials", "20000", "--seed", "0", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_PASS  # imports and caches fill outside the measurement
    first = "".join(sink.written)
    sink.written.clear()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_PASS
    assert "".join(sink.written) == first
    assert peak < 2 * sum(map(len, sink.written))


def test_rovelli_consistency(capsys):
    for trigger in ("1", "-1"):
        code, out, _ = run(capsys, "rovelli", "--trials", "500", "--seed", "1",
                           "--trigger", trigger, "--format", "json")
        assert code == cli.EXIT_PASS
        rep = json.loads(out)
        assert rep["consistency_rate"] == 1.0
        assert rep["second_iff_trigger"] is True
        assert [(c["name"], c["observed"], c["n"]) for c in rep["checks"]] == [
            ("inconsistent reports", 0.0, 500), ("second outcome iff trigger violations", 0.0, 500)]
        for sr in rep["states"]:
            assert sr["record_probabilities"][sr["record"]] == pytest.approx(1.0)


# 10**12 runs are the pin "rovelli 10^12"
@pytest.mark.parametrize("trials", [2 ** 63 - 1])
def test_rovelli_counts_any_number_of_runs(capsys, trials):
    # the runs are drawn as counts, so no trial count costs more than another
    code, out, _ = run(capsys, "rovelli", "--trials", str(trials), "--format", "json")
    rep = json.loads(out)
    assert code == cli.EXIT_PASS and rep["trials"] == trials
    assert rep["consistency_rate"] == 1.0 and rep["second_iff_trigger"] is True


def test_rovelli_takes_one_run_and_refuses_none(capsys):
    # the consistency rate divides by the trials
    code, out, err = run(capsys, "rovelli", "--trials", "0")
    assert (code, out, err) == (cli.EXIT_INPUT, "", "error: trials must be at least 1, got 0\n")
    code, out, _ = run(capsys, "rovelli", "--trials", "1", "--format", "json")
    assert code == cli.EXIT_PASS and json.loads(out)["trials"] == 1


def test_rovelli_trials_past_int64_is_input_error(capsys):
    code, out, err = run(capsys, "rovelli", "--trials", str(2 ** 63))
    assert code == cli.EXIT_INPUT
    assert out == "" and f"trials must be at most {2 ** 63 - 1}" in err


# 10**12 runs are the pin "relmodel 10^12"
@pytest.mark.parametrize("trials", [2 ** 63 - 1])
def test_relmodel_counts_any_number_of_runs(capsys, trials):
    # a batch is drawn as a histogram plus its first rows, so no trial count
    # costs more than another, and every count is exact
    code, out, _ = run(capsys, "relmodel", "--trials", str(trials), "--format", "json")
    rep = json.loads(out)
    assert code == cli.EXIT_PASS and rep["trials"] == trials and rep["pass"] is True
    assert len(rep["records"]) == relmodel.ROWS
    for wing in rep["independence"]["stats"].values():
        assert sum(s["n"] for s in wing.values()) == trials


@pytest.mark.parametrize("command", ["lf", "relmodel"])
def test_trials_past_int64_is_input_error(capsys, tmp_path, command):
    # one bound for every command that counts runs, from a flag or a config file
    code, out, err = run(capsys, command, "--trials", str(2 ** 63))
    assert code == cli.EXIT_INPUT
    assert out == "" and f"trials must be at most {2 ** 63 - 1}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 10 ** 20}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == cli.EXIT_INPUT
    assert out == "" and f"trials must be at most {2 ** 63 - 1}" in err


def test_json_output_is_byte_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "lf", "--trials", "20000", "--seed", "11",
                         "--format", "json", "--out", str(p))
        assert code == cli.EXIT_PASS
    assert paths[0].read_bytes() == paths[1].read_bytes()


# every flag of every command, and tokens that no command reads; values that
# are ints, negative, not ints, outside a flag's choices, empty or led by "-"
# (tuples, so that Hypothesis builds each sampled_from strategy once).  No
# generated token is "--": argparse drops it even from "--amps=--" and reads
# amps as [], where parse_args reads "--"; an explicit example has it alone
ALL_FLAGS = tuple(sorted({flag for _, _, flags in cli.COMMANDS.values() for flag in flags}))
VALUES = ("5", "0", "-3", "+1", "1", "-1", "2", "x", "1.5", "-.5", "json", "csv", "yaml",
          "1,2,3,4", "-10,20,30,40", "", "-", "-x", "--seed")
UNKNOWN = ("--bogus", "--bogus=1", "-x", "-5", "---", "--=x", "stray")


def own_values(kind):
    """Values for a flag of this kind, nearly all of them ones it takes."""
    if kind is int:
        return st.integers(-3, 10 ** 20).map(str)
    if isinstance(kind, tuple):  # and now and then a value outside the choices
        return st.sampled_from((*map(str, kind), *map(str, kind), "0"))
    return st.sampled_from(("0,90,45,135", "report.json", "0.6,0.8", "-.5"))


@st.composite
def argvs(draw) -> list[str]:
    """A command (or none) and flags: mostly its own with values that fit,
    also any flag with any value, flags in full or as prefixes, values after
    "=", as the next token or missing, repeats and unknown tokens."""
    command = draw(st.sampled_from((*cli.COMMANDS, "bogus")))
    flags = cli.COMMANDS[command][2] if command in cli.COMMANDS else {}
    own = tuple(flags) or ALL_FLAGS
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        which = draw(st.sampled_from(("own",) * 4 + ("any", "unknown")))
        if which == "unknown":
            argv.append(draw(st.sampled_from(UNKNOWN)))
            continue
        flag = draw(st.sampled_from(own if which == "own" else ALL_FLAGS))
        spelled = flag[:draw(st.sampled_from((len(flag),) * 9 + tuple(range(3, len(flag)))))]
        kind = flags.get(flag, (str,))[0]
        if which == "own" and kind is cli.SWITCH:  # a switch takes no value
            argv.append(spelled + draw(st.sampled_from(("", "", "=1"))))
            continue
        value = draw(own_values(kind) if which == "own" else st.sampled_from(VALUES))
        form = draw(st.sampled_from(("=", "next", "missing") if which == "any" else ("=", "next")))
        argv += {"=": [f"{spelled}={value}"], "next": [spelled, value], "missing": [spelled]}[form]
    return argv


def parsed(parse, argv):
    """vars() of what `parse` makes of argv, or its exit code and stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(parse(argv)), ""
    except SystemExit as exc:
        return exc.code, err.getvalue()


@settings(max_examples=200)
@given(argvs())
@example(["rovelli", "--tri=500"])  # ambiguous: --trials or --trigger
@example(["lf", "--tri=500", "--seed", "-3", "--seed", "4", "--angles=-10,20,30,40"])
@example(["lf", "--angles", "-10,20,30,40"])
@example(["feasibility", "--from-angles=1"])  # a switch takes no value
@example(["basic", "--outcome", "2"])  # outside the choices
@example(["lf", "--", "--trials", "5"])  # the command takes no positional arguments
@example(["rovelli", "--"])  # "--" alone is refused, as argparse refuses it
def test_parse_args_reads_argv_as_argparse_does(argv):
    expected, _ = parsed(argparse_oracle.build_parser().parse_args, argv)
    got, err = parsed(cli.parse_args, argv)
    if got == cli.EXIT_INPUT:
        assert expected == cli.EXIT_INPUT
        assert err.startswith("usage: friendlab") and "error: " in err
    elif got != expected:
        # the one difference: a value led by "-" that is not a number is a flag
        # to argparse, so it exits 2 for the missing value, where parse_args
        # reads the value as argparse reads it after "="
        assert expected == cli.EXIT_INPUT
        assert parsed(argparse_oracle.build_parser().parse_args, glued(argv)) == (got, "")


def test_a_lone_double_dash_is_an_unrecognized_argument(capsys):
    # "--" alone names no flag, where as a prefix it would match every flag
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["rovelli", "--"])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_INPUT
    assert err.endswith("\nfriendlab rovelli: error: unrecognized arguments: --\n")


def glued(argv: list[str]) -> list[str]:
    """argv with each value that follows its flag written after "=" instead."""
    flags = cli.COMMANDS[argv[0]][2]
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        named = [flag for flag in flags if flag == token] or [
            flag for flag in flags if token.startswith("--") and flag.startswith(token)]
        value = None
        if len(named) == 1 and flags[named[0]][0] is not cli.SWITCH:
            value = next(tokens, None)
        out.append(token if value is None else f"{token}={value}")
    return out


def test_help_names_every_command_and_flag_with_its_help_text(capsys):
    for argv in (["-h"], ["--help", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: friendlab [-h] {basic,lf,")
        for command, (_, help_text, _) in cli.COMMANDS.items():
            assert re.search(rf"^  {command} +{re.escape(help_text)}$", out, re.M), command
    for command, (_, help_text, flags) in cli.COMMANDS.items():
        for argv in ([command, "-h"], [command, "--bogus", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            out = capsys.readouterr().out
            assert exc.value.code == 0 and out.startswith(f"usage: friendlab {command} [-h]")
            assert f"\n{help_text}\n" in out and "\n  -h, --help " in out
            for flag in ALL_FLAGS:  # each of its flags, and no other
                pattern = (rf"^  {flag}(?![\w-]).* {re.escape(flags[flag][1])}$" if flag in flags
                           else rf"{flag}(?![\w-])")
                assert bool(re.search(pattern, out, re.M)) == (flag in flags), (command, flag)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "invalid command 'bogus'"), (["--trials", "5", "lf"], "invalid command '--trials'")])
def test_a_missing_or_unknown_command_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INPUT and out == ""
    usage, error = err.splitlines()
    assert usage == "usage: friendlab [-h] {basic,lf,feasibility,relmodel,rovelli,accept} ..."
    assert error.startswith(f"friendlab: error: {message}")


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["lf", "--format", "yaml"])


# rovelli --angles is the pin "usage error"
@pytest.mark.parametrize("command, flag, value", [
    ("basic", "--trials", "5"), ("basic", "--seed", "3"), ("basic", "--angles", "1,2,3,4"),
    ("feasibility", "--trials", "5"), ("feasibility", "--seed", "3"),
    ("accept", "--trials", "5"), ("accept", "--angles", "1,2,3,4")])
def test_flag_the_command_does_not_read_is_refused(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lf", "relmodel", "rovelli", "accept"])
def test_negative_seed_is_input_error(capsys, command):
    code, out, err = run(capsys, command, "--seed", "-1")
    assert code == cli.EXIT_INPUT
    assert out == "" and "seed must be at least 0" in err


@pytest.mark.parametrize("command, key", [
    ("lf", "trials"), ("relmodel", "trials"), ("rovelli", "trials"), ("rovelli", "trigger"),
    ("accept", "seed"), ("basic", "outcome"), ("lf", "seed")])
def test_non_integer_config_value_is_input_error(capsys, tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    # 1.5 would truncate, true would read as 1, 1e400 parses to infinity
    for value in ('"many"', "1.5", "true", "1e400"):
        cfg.write_text(f'{{"{key}": {value}}}')
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == cli.EXIT_INPUT, value
        assert out == "" and f"{key} must be an integer" in err


@pytest.mark.parametrize("argv", [[command] for command in cli.COMMANDS]
                         + [["feasibility", "--from-angles"]])
def test_each_default_reads_as_checked_afresh(argv):
    # a command's defaults are checked on its first call and kept; every call
    # must still read what checking each Flag.default afresh gives
    command, switched = argv[0], "--from-angles" in argv
    fresh = {key: None if spec.only_with and not switched
             else cli._checked(key, spec, spec.default)
             for key, spec in cli._KEYED[command].items()}
    if switched:
        fresh["from_angles"] = True
    for _ in range(2):
        args = cli.parse_args(argv)
        cli._read_flags(args, {})
        assert vars(args) == {"command": command, "func": cli.COMMANDS[command][0], **fresh}


def test_a_config_value_still_overrides_a_kept_default(capsys, tmp_path, monkeypatch):
    cli._read_flags(cli.parse_args(["relmodel"]), {})  # each default checked and kept
    args = cli.parse_args(["relmodel", "--seed", "5"])
    cli._read_flags(args, {"trials": 1000, "seed": 3, "angles": "0,90,0,135"})
    assert (args.trials, args.seed, args.angles) == (1000, 5, LFConfig(0, 90, 0, 135))
    args = cli.parse_args(["relmodel"])
    cli._read_flags(args, {"angles": None, "format": "json"})  # null angles: the default
    assert (args.trials, args.angles, args.format) == (400000, LFConfig(), "json")
    forbid_work(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 1.5}')
    assert run(capsys, "relmodel", "--config", str(cfg)) == (
        cli.EXIT_INPUT, "", "error: trials must be an integer, got 1.5\n")


def test_bad_angles_in_config_is_input_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # JSON true is no angle, though float(True) is 1.0
    # a misspelt key next to the four real ones is refused, not ignored
    for angles in ([0, 90, "x", 135], [0, 90, 45, 400], {"ask_A": 0}, [True, 90, 45, 135],
                   {"ask_A": 0, "super_A": 90, "ask_C": False, "super_C": 135},
                   {"ask_A": 0, "super_A": 90, "ask_C": 45, "super_C": 135, "super_c": 10}):
        cfg.write_text(json.dumps({"angles": angles}))
        code, _, err = run(capsys, "relmodel", "--config", str(cfg))
        assert code == cli.EXIT_INPUT
        assert "bad angles" in err


@pytest.mark.parametrize("command, config, unread", [
    ("rovelli", {"trails": 5}, "trails"), ("basic", {"trials": 5}, "trials"),
    ("basic", {"trials": 5, "seed": 3, "angles": [1, 2, 3, 4]}, "angles, seed, trials"),
    # the parser's own entries are no options either
    ("feasibility", {"command": "lf"}, "command"), ("lf", {"func": "main"}, "func"),
    ("rovelli", {"config": "other.json", "seed": 1}, "config")])
def test_config_key_the_command_does_not_read_is_input_error(capsys, tmp_path, command,
                                                             config, unread):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == cli.EXIT_INPUT
    assert out == "" and err == f"error: config keys that {command} does not read: {unread}\n"


@pytest.mark.parametrize("out", [2, True, "", ["report.json"]])
def test_non_path_out_in_config_is_input_error(capsys, tmp_path, out):
    # open() would take an int (or a bool) as a file descriptor and close it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": out}))
    code, stdout, err = run(capsys, "basic", "--config", str(cfg), "--format", "json")
    assert code == cli.EXIT_INPUT
    assert stdout == "" and "out must be a non-empty file path" in err


@pytest.mark.parametrize("targets", [1, True, 2.5, ["t.json"], {"AC": 1}])
def test_non_path_targets_in_config_is_input_error(capsys, tmp_path, targets):
    # open() takes an int (or a bool) as a file descriptor, and closing the
    # file it returns closes that descriptor: 1 would close stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"targets": targets}))
    stdout = os.fstat(1)
    saved = os.dup(1)
    try:
        code, out, err = run(capsys, "feasibility", "--config", str(cfg))
        after = os.fstat(1)
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    assert (after.st_dev, after.st_ino) == (stdout.st_dev, stdout.st_ino)
    assert code == cli.EXIT_INPUT
    assert out == "" and "targets must be a non-empty file path" in err


@pytest.mark.parametrize("command, key", [("feasibility", "from_angles"),
                                          ("relmodel", "planted_violation")])
def test_switch_in_config_must_be_json_true_or_false(capsys, tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    # bool() would read the string "false" (and "no") as true
    for value in ("no", "false", 0, 1):
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == cli.EXIT_INPUT, value
        assert out == "" and f"{key} must be true or false" in err
    # JSON true and false give the reports of the flag and of its absence:
    # the config runs of pins.PINS


def forbid_work(monkeypatch):
    """Make the first step of each command's work raise, so a call that gets
    past its input checks fails loudly."""
    def work(*args, **kwargs):
        raise AssertionError("the command ran")

    for module, name in ((acceptance, "run_all"), (relmodel, "simulate_batch"),
                         (relmodel, "rovelli_audit"), (mp, "decide"),
                         (hilbert, "born_distribution")):
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("command, argv, config, message", [
    ("accept", [], {"format": "yaml"}, "format must be one of 'table', 'json', 'csv', got 'yaml'"),
    ("accept", ["--seed", "-1"], {}, "seed must be at least 0, got -1"),
    ("accept", [], {"out": 2}, "out must be a non-empty file path, got 2"),
    ("accept", ["--format", "csv"], {}, "this command has no CSV representation"),
    ("relmodel", [], {"format": "yaml"}, "format must be one of 'table', 'json', 'csv', got 'yaml'"),
    ("relmodel", ["--out", ""], {"trials": 20000}, "out must be a non-empty file path, got ''"),
    ("lf", ["--trials", "200"], {"out": ["lf.json"]},
     "out must be a non-empty file path, got ['lf.json']")])
def test_a_refused_value_costs_no_run(capsys, tmp_path, monkeypatch, command, argv, config,
                                      message):
    # every flag and config value is checked before the command starts, so
    # a bad format or out is refused before the run, not after it
    forbid_work(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, command, *argv, "--config", str(cfg)) == (cli.EXIT_INPUT, "",
                                                                 f"error: {message}\n")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_an_empty_config_path_is_refused_before_any_run(capsys, monkeypatch, command):
    # as an empty --out or --targets is, where it used to read no file
    forbid_work(monkeypatch)
    refused = (cli.EXIT_INPUT, "", "error: config must be a non-empty file path, got ''\n")
    assert run(capsys, command, "--config", "") == refused
    assert run(capsys, command, "--config=") == refused


@pytest.mark.parametrize("command, out, message", [
    ("accept", "missing-dir/report.json", "no writable directory 'missing-dir'"),
    ("accept", "report.json/report.json", "no writable directory 'report.json'"),
    ("basic", ".", "it is a directory")],
    ids=["missing-dir/report.json", "report.json/report.json", "out directory"])
def test_an_out_in_no_writable_directory_is_refused_before_any_run(capsys, tmp_path,
                                                                   monkeypatch, command, out,
                                                                   message):
    # the directory, and an --out that is one, is checked before the command
    # runs, so no run is wasted
    forbid_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").write_text("")
    code, stdout, err = run(capsys, command, "--format", "json", "--out", out)
    assert (code, stdout) == (cli.EXIT_INPUT, "")
    assert err == f"error: cannot write {out}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


ANGLES = ("angles must be four degrees ask_A,super_A,ask_C,super_C as 'a,b,c,d', a 4-list, "
          "or an object")


@pytest.mark.parametrize("given, message", [
    ({"argv": ["feasibility", "--targets", "grid.json", "--from-angles"],
      "files": {"grid.json": pins.GRID}}, "give either --targets or --from-angles, not both"),
    ({"argv": ["basic", "--amps", "1,2,3"]}, "--amps needs two comma-separated amplitudes a,b"),
    ({"argv": ["lf", "--config", "config.json"], "files": {"config.json": '{"angles": 5}'}},
     ANGLES),
    ({"argv": ["lf", "--config", "config.json"],
      "files": {"config.json": '{"angles": [1, 2, 3]}'}}, ANGLES),
    ({"argv": ["feasibility", "--targets", "array.json"], "files": {"array.json": "[1, 2]"}},
     "malformed targets: targets must be an object of tables"),
    # a cell is a JSON string or number, read as written
    ({"argv": ["feasibility", "--targets", "null.json"], "files": {"null.json": json.dumps(
        {**GRID_TARGETS, "AC": [[None, "1/8"], ["1/8", "3/8"]]})}},
     "malformed targets: a target entry must be a number, got None"),
    ({"argv": ["feasibility", "--targets", "object.json"], "files": {"object.json": json.dumps(
        {**GRID_TARGETS, "AC": [[{"p": "3/8"}, "1/8"], ["1/8", "3/8"]]})}},
     "malformed targets: a target entry must be a number, got {'p': '3/8'}"),
], ids=["targets and from-angles", "three amps", "angles 5", "three angles",
        "targets array", "null cell", "object cell"])
def test_an_input_error_exits_2_with_its_line(capsys, tmp_path, monkeypatch, given, message):
    monkeypatch.chdir(tmp_path)
    pins.write_files(given, tmp_path)
    assert run(capsys, *given["argv"]) == (cli.EXIT_INPUT, "", f"error: {message}\n")


def test_a_target_error_is_the_one_input_error():
    # cli.main exits 2 on friendlab.InputError alone, so a refused target is one
    assert cli.InputError is friendlab.InputError and issubclass(mp.TargetError, cli.InputError)


def test_a_refused_seed_loads_neither_the_suite_nor_numpy():
    script = ("import sys\nfrom friendlab import cli\n"
              "assert cli.main(['accept', '--seed', '-1']) == 2\n"
              "assert not {'friendlab.acceptance', 'numpy'} & set(sys.modules)\n")
    child = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stderr.endswith("error: seed must be at least 0, got -1\n")


# a value that each choice refuses, and the error it gives
CHOICE_REFUSALS = {(1, -1): (2, "{key} must be one of 1, -1, got 2"),
                   ("table", "json", "csv"): (
                       "yaml", "{key} must be one of 'table', 'json', 'csv', got 'yaml'")}


def refusal(key: str, spec) -> tuple:
    """A value that a flag with entry `spec` refuses, the error it gives, and
    whether argv can carry it past parse_args (which refuses a non-int or a
    value outside a choice, and gives a switch no value) to the value checks."""
    if spec.kind is int:
        value = spec.minimum - 1
        return value, f"{key} must be at least {spec.minimum}, got {value}", True
    if spec.kind is cli.PATH:
        return "", f"{key} must be a non-empty file path, got ''", True
    if spec.kind is cli.SWITCH:
        return "no", f"{key} must be true or false, got 'no'", False
    value, message = CHOICE_REFUSALS[spec.kind]
    return value, message.format(key=key), False


# --config names the file, so a file cannot carry it (see
# test_an_empty_config_path_is_refused_before_any_run)
CHECKED_FLAGS = [(command, flag) for command, (_, _, flags) in cli.COMMANDS.items()
                 for flag, spec in flags.items() if flag != "--config"
                 and (spec.kind in (int, cli.PATH, cli.SWITCH) or isinstance(spec.kind, tuple))]


@pytest.mark.parametrize("command, flag", CHECKED_FLAGS)
def test_each_flag_refuses_a_value_alike_from_argv_and_a_config_file(capsys, tmp_path,
                                                                     monkeypatch, command, flag):
    forbid_work(monkeypatch)
    key = flag[2:].replace("-", "_")
    value, message, on_argv = refusal(key, cli.COMMANDS[command][2][flag])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    refused = (cli.EXIT_INPUT, "", f"error: {message}\n")
    assert run(capsys, command, "--config", str(cfg)) == refused
    if on_argv:
        assert run(capsys, command, flag, str(value)) == refused
