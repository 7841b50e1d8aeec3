import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os

import pytest

from friendlab import cli, relmodel
from friendlab import marginal_polytope as mp
from friendlab.scenarios import LFConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# a feasible grid of pair tables, partly written as decimals
GRID_TARGETS = {"AC": [["0.375", "0.125"], ["1/8", "3/8"]], "AD": [["1/8", "3/8"], ["3/8", "1/8"]],
                "BC": [["3/8", "1/8"], ["1/8", "3/8"]], "BD": [["1/4", "1/4"], ["1/4", "1/4"]]}

# sha256 of reports at fixed seeds, so that refactors keep every output byte
REPORT_SHA256 = {
    "lf 20000 0 json": "097a659f6b80dcfbfc8810a407d0c3f2497a6bc0ba2ccf126805f17293017bed",
    "relmodel 20000 0 json": "2fbf7d026397962bedbe87e0ed627d95c0057e32bc8f145c4e19b3b91993923c",
    "relmodel 20000 0 csv": "9fbed94bf750b7d00cb25945ab8a8f3b1d4cde8d10c15c824a6bd0be28fe63da",
    # the one pinned report whose independence audit raises flags
    "relmodel 20000 0 planted json":
        "3791beb9818a3dc9edff97798f68891c2b09df3e600f13c44df111369842b856",
    "feasibility from-angles json":
        "1d9c09bcf2ae6c1ab268da0c53f17fb37a8cf575b2d7104b7e76021f86a5a10f",
    "feasibility grid json": "32b2e74212a332ffed50ba3e772a262f085f387f2dada1ac2ec1e56d29678bab",
}

# sha256 of `lf --trials 20000 --seed 0` and `feasibility --from-angles` JSON at
# angle sets away from the defaults: both reports carry values computed from the
# raw Born floats, so a last-ulp change in a Born table shows here
ANGLES_SHA256 = {
    "12.5,97.25,51,173.75": (
        "e9c2eafc9f76ec1eb207e5e1a214c62642edcf0b0fcb7ce10b61f457a39b94ee",
        "6670ad79e8ce212a8f2e4e9de25cd5e92c963943a9a51bbbf16af23ee1728684"),
    "200,330.75,17.125,301": (
        "b66c681f5c2def4b49f27635309a9d470603f3e5ac8b4483bdb686a55fb37fc4",
        "bc79ca9491b320c9527cb41a0736f133a6c44027b23fb458e0b1c7dfd21011e6"),
}


def test_basic_default_is_balanced(capsys):
    code, out, _ = run(capsys, "basic", "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["born_S"]["+1"] == pytest.approx(0.5)
    assert rep["frame_relational"]["interference_witness"] == pytest.approx(1.0)
    assert rep["frame_relational"]["record_expectation"] == pytest.approx(1.0)


def test_basic_unequal_amps_reports_degenerate(capsys):
    code, out, _ = run(capsys, "basic", "--amps", "0.6,0.8", "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["born_S"]["+1"] == pytest.approx(0.36)
    assert "degenerate" in rep["frame_relational"]


def test_basic_rejects_unnormalized_amps(capsys):
    # NaN compares false to everything, so it must not slip past the norm test
    # 0.6,0.8000000005 is off by 8e-10, more than build_basic_wf_state allows
    for amps in ("0.9,0.9", "nan,nan", "0.6,0.8000000005"):
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
    code, out, _ = run(capsys, "lf", "--trials", "20000", "--seed", "0", "--format", "csv")
    assert code == cli.EXIT_PASS
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["pair", "x", "y", "frequency", "born"]
    assert len(rows) == 1 + 4 * 4
    code, out, _ = run(capsys, "lf", "--trials", "20000", "--seed", "0", "--format", "json")
    assert code == cli.EXIT_PASS
    assert sha256(out) == REPORT_SHA256["lf 20000 0 json"]


@pytest.mark.parametrize("angles", sorted(ANGLES_SHA256))
def test_born_reports_at_other_angles_are_pinned(capsys, angles):
    lf_pin, feasibility_pin = ANGLES_SHA256[angles]
    code, out, _ = run(capsys, "lf", "--angles", angles, "--trials", "20000", "--seed", "0",
                       "--format", "json")
    assert code == cli.EXIT_PASS and sha256(out) == lf_pin
    code, out, _ = run(capsys, "feasibility", "--from-angles", "--angles", angles,
                       "--format", "json")
    assert code == cli.EXIT_PASS and sha256(out) == feasibility_pin


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
    assert sha256(out) == REPORT_SHA256["feasibility from-angles json"]
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] is False
    assert rep["joint_6"]["feasible"] is False
    assert rep["fine_criterion"] is False
    assert rep["methods_agree"] is True


def test_feasibility_from_angles_names_the_snap_next_to_the_boundary(capsys):
    # the circuit's largest float CHSH variant is 2 + 6.7e-8, so the circuit
    # itself is infeasible, while its targets snapped to 1e-6 are feasible:
    # the verdict is stated about the snapped targets only
    argv = ("feasibility", "--from-angles", "--angles", "0,90,110.530196479,135")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] and rep["joint_6"]["feasible"] and rep["fine_criterion"]
    resolution = rep["resolution"]
    assert resolution["snap"] == "1/1000000"
    assert resolution["undecided_band"] == "2 +/- 2/1000000"
    assert 2 < resolution["largest_born_variant"] < 2 + 1e-7
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_PASS
    assert "snapped to 1/1000000, not the circuit" in out
    # far from the boundary the report is unchanged (see the sha256 pin)
    _, out, _ = run(capsys, "feasibility", "--from-angles", "--angles", "0,90,0,135")
    assert "resolution" not in out


def test_feasibility_targets_file_feasible(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(
        {pair: [["1/4", "1/4"], ["1/4", "1/4"]] for pair in ("AC", "AD", "BC", "BD")}))
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert code == cli.EXIT_PASS
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] is True
    assert rep["chsh_value"] == "0"
    targets.write_text(json.dumps(GRID_TARGETS))
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert code == cli.EXIT_PASS
    assert sha256(out) == REPORT_SHA256["feasibility grid json"]


def test_feasibility_wrong_witness_is_a_disagreement(capsys, tmp_path, monkeypatch):
    # the three verdicts agree (feasible), but the 6-variable witness belongs
    # to other targets: that is not agreement
    uniform = {pair: [["1/4", "1/4"], ["1/4", "1/4"]] for pair in ("AC", "AD", "BC", "BD")}
    other = {pair: [["1/2", "0"], ["0", "1/2"]] for pair in ("AC", "AD", "BC", "BD")}
    real = mp.feasible_joint_6
    wrong = real(mp.PairTargets.from_json_dict(other))
    assert wrong.feasible
    monkeypatch.setattr(mp, "feasible_joint_6", lambda t: wrong)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(uniform))
    code, out, _ = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert code == cli.EXIT_DISAGREE
    rep = json.loads(out)
    assert rep["joint_4"]["feasible"] and rep["joint_6"]["feasible"] and rep["fine_criterion"]
    assert rep["methods_agree"] is False


def test_feasibility_negative_solver_answer_is_a_disagreement(capsys, tmp_path, monkeypatch):
    # a defective solver answer that keeps every pair table but sends atom 0
    # negative: shifted along A*B*C*D, which the cell system cannot see
    real = mp.solve_nonnegative

    def shifted(rows, rhs):
        x = real(rows, rhs)
        parity = [math.prod(a) for a in itertools.product((1, -1), repeat=len(x).bit_length() - 1)]
        c = -parity[0] * (x[0] + 1)
        return [v + c * s for v, s in zip(x, parity)]

    monkeypatch.setattr(mp, "solve_nonnegative", shifted)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(GRID_TARGETS))
    code, out, err = run(capsys, "feasibility", "--targets", str(targets), "--format", "json")
    assert (code, err) == (cli.EXIT_DISAGREE, "")
    rep = json.loads(out)
    assert rep["joint_4"]["witness"][0] == "-1/8" and rep["methods_agree"] is False


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
    code, _, _ = run(capsys, "feasibility", "--targets", str(targets))
    assert code == cli.EXIT_PASS


def test_feasibility_requires_a_source(capsys):
    code, _, err = run(capsys, "feasibility")
    assert code == cli.EXIT_INPUT
    assert "--targets" in err


def test_relmodel_passes_audits(capsys):
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "0",
                       "--format", "json")
    assert code == cli.EXIT_PASS
    assert sha256(out) == REPORT_SHA256["relmodel 20000 0 json"]
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["analytic_feasibility"]["feasible"] is False
    assert len(rep["records"]) == 1000
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "0",
                       "--format", "csv")
    assert code == cli.EXIT_PASS
    assert sha256(out) == REPORT_SHA256["relmodel 20000 0 csv"]


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
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "0",
                       "--planted-violation", "--format", "json")
    assert code == cli.EXIT_FAIL
    assert sha256(out) == REPORT_SHA256["relmodel 20000 0 planted json"]
    rep = json.loads(out)
    assert rep["pass"] is False and rep["independence"]["flags"]
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
        batch = dataclasses.replace(batch, code=relmodel.PLANTED[batch.code])
    report = {**json.loads(out), "records": batch.rows(1000)}
    assert len(report["records"]) == min(trials, 1000)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", [
    ["basic"], ["basic", "--amps", "0.6,0.8"], ["lf", "--trials", "20000"],
    ["feasibility", "--from-angles"], ["rovelli", "--trials", "50"]])
def test_every_json_report_is_the_canonical_encoding(capsys, argv):
    # _emit encodes each top-level entry on its own; the joined text must be
    # json.dumps of the whole report (floats round-trip through repr)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_PASS
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def test_relmodel_csv_records(capsys):
    code, out, _ = run(capsys, "relmodel", "--trials", "20000", "--seed", "2",
                       "--format", "csv")
    assert code == cli.EXIT_PASS
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["a_internal", "c_internal"]
    # the report carries at most the first 1000 records
    assert len(rows) == 1 + 1000


# sha256 of `rovelli --trials 500 --seed 0 --trigger T --format json`; the
# report holds no per-run data, so it does not depend on the draw order
ROVELLI_500_SHA256 = {
    "1": "0b8709f93d69b432a67b2259724d999dfff235e33b32776d316fcd17cac148ec",
    "-1": "a492a7c175070146d0c6b0e869e284f1861a5a4f3c91bc770f767138b2d397fd",
}


def test_rovelli_consistency(capsys):
    for trigger in ("1", "-1"):
        code, out, _ = run(capsys, "rovelli", "--trials", "500", "--seed", "0",
                           "--trigger", trigger, "--format", "json")
        assert code == cli.EXIT_PASS
        assert sha256(out) == ROVELLI_500_SHA256[trigger]
        rep = json.loads(out)
        assert rep["consistency_rate"] == 1.0
        assert rep["second_iff_trigger"] is True
        for sr in rep["states"]:
            assert sr["record_probabilities"][sr["record"]] == pytest.approx(1.0)


def test_json_output_is_byte_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "lf", "--trials", "20000", "--seed", "11",
                         "--format", "json", "--out", str(p))
        assert code == cli.EXIT_PASS
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parser_is_built_once_and_reused_unchanged():
    assert cli.build_parser() is cli.build_parser()
    argvs = [["rovelli", "--trials", "5", "--trigger", "-1"], ["lf", "--angles", "0,90,45,135"],
             ["feasibility", "--from-angles", "--format", "json"], ["rovelli", "--seed", "3"]]
    for argv in argvs * 2:
        assert cli.build_parser().parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv)


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["lf", "--format", "yaml"])


@pytest.mark.parametrize("command, flag, value", [
    ("basic", "--trials", "5"), ("basic", "--seed", "3"), ("basic", "--angles", "1,2,3,4"),
    ("feasibility", "--trials", "5"), ("feasibility", "--seed", "3"),
    ("rovelli", "--angles", "1,2,3,4"), ("accept", "--trials", "5"),
    ("accept", "--angles", "1,2,3,4")])
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
    ("basic", {"trials": 5, "seed": 3, "angles": [1, 2, 3, 4]}, "angles, seed, trials")])
def test_config_key_the_command_does_not_read_is_input_error(capsys, tmp_path, command,
                                                             config, unread):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == cli.EXIT_INPUT
    assert out == "" and err == f"error: config keys that {command} does not read: {unread}\n"


def test_unwritable_out_is_input_error(capsys, tmp_path):
    out = tmp_path / "missing_dir" / "x.json"
    code, stdout, err = run(capsys, "basic", "--format", "json", "--out", str(out))
    assert code == cli.EXIT_INPUT
    assert stdout == "" and err.startswith("error: cannot write") and not out.exists()


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
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(GRID_TARGETS))
    # JSON true and false give the reports of the flag and of its absence
    runs = {"from_angles": [({"from_angles": True}, "feasibility from-angles json", 0),
                            ({"from_angles": False, "targets": str(targets)},
                             "feasibility grid json", 0)],
            "planted_violation": [({"planted_violation": True},
                                   "relmodel 20000 0 planted json", 1),
                                  ({"planted_violation": False}, "relmodel 20000 0 json", 0)]}
    for config, pin, exit_code in runs[key]:
        if command == "relmodel":
            config = {**config, "trials": 20000, "seed": 0}
        cfg.write_text(json.dumps({**config, "format": "json"}))
        code, out, _ = run(capsys, command, "--config", str(cfg))
        assert code == exit_code and sha256(out) == REPORT_SHA256[pin]
