"""The acceptance gate: one test per criterion, each printing a pass/fail
line, plus the end-to-end byte-identity check on the `accept` command."""

import json
import time
from fractions import Fraction

import numpy as np
import pins
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendlab import acceptance, cli, relmodel, statlab
from friendlab.scenarios import RovelliConfig


def _report(result: dict, elapsed: float) -> None:
    status = "PASS" if result["pass"] else "FAIL"
    print(f"[{status}] criterion {result['criterion']} ({result['name']}) "
          f"in {elapsed:.1f}s")
    for c in result["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        print(f"  [{mark}] {c['name']}: observed={c['observed']:.6g} "
              f"threshold={c['threshold']:.6g}")


def _run(fn, seed, budget):
    start = time.monotonic()
    result = fn(seed)
    elapsed = time.monotonic() - start
    _report(result, elapsed)
    assert result["pass"], [c for c in result["checks"] if not c["pass"]]
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"
    return result


def test_criterion_1_tsirelson_reproduction():
    result = _run(acceptance.criterion_1, 42, 30.0)
    assert abs(result["analytic_S"] - 2 * 2 ** 0.5) < 1e-9
    assert abs(result["monte_carlo_S"] - 2 * 2 ** 0.5) < 0.05


def test_criterion_2_exact_feasibility():
    result = _run(acceptance.criterion_2, 42, 60.0)
    # 888 sets over n = 2 and 3 (72 above 2, 696 on it), then the ladder's 72 and 72
    assert [result[f"decided_{side}_2"] for side in ("below", "on", "above")] == [192, 696, 144]
    assert result["checks"][-1]["n"] == 1032


def test_the_ladder_puts_its_variant_at_2_minus_and_plus_1_over_q():
    ladder = list(acceptance.criterion_2_targets())[888:]
    expected = [(signs, 2 + Fraction(d, 10 ** k)) for k in range(1, 10)
                for signs in statlab.ODD_SIGNS for d in (-1, 1)]
    assert [(max(t.variants, key=t.variants.get), Fraction(max(t.variants.values()), t.scale))
            for t in ladder] == expected
    for t in ladder:  # A, B, C, D at +1 with 9/16, 1/2, 7/16 and 17/32
        assert [Fraction(t.counts[p][0] + t.counts[p][1], t.scale) for p in ("AC", "BC")] == \
            [Fraction(9, 16), Fraction(1, 2)]
        assert [Fraction(t.counts[p][0] + t.counts[p][2], t.scale) for p in ("AC", "AD")] == \
            [Fraction(7, 16), Fraction(17, 32)]
    assert max(t.scale for t in ladder) == 16 * 10 ** 9


def test_criterion_3_frame_relational_fidelity():
    result = _run(acceptance.criterion_3, 42, 60.0)
    assert result["trials"] == 4 * 10 ** 5
    assert result["independence"]["flags"] == []


def test_criterion_4_invariant_subspace():
    _run(acceptance.criterion_4, 42, 120.0)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_haar_draw_is_unitary(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = acceptance._random_orientation_unitary(rng)
        assert [[type(x) for x in row] for row in u] == [[complex, complex]] * 2
        u = np.array(u)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


def test_haar_draw_has_the_haar_moments():
    # under Haar measure on U(2), |u00|^2 is uniform on [0, 1] (mean 1/2,
    # variance 1/12) and u00 has a uniform phase, so E[u00] = E[u00^2] = 0
    rng = np.random.default_rng(4)
    u00 = np.array([acceptance._random_orientation_unitary(rng)[0][0] for _ in range(20000)])
    p = np.abs(u00) ** 2
    assert abs(p.mean() - 1 / 2) < 0.01 and abs(p.var() - 1 / 12) < 0.005
    assert abs(u00.mean()) < 0.02 and abs((u00 ** 2).mean()) < 0.02


def test_criterion_5_sequential_consistency():
    result = _run(acceptance.criterion_5, 42, 120.0)
    assert result["trials"] == 10 ** 4


@pytest.mark.parametrize("seed", [0, 42])
def test_each_monte_carlo_criterion_runs_its_commands_audit(capsys, seed):
    # criteria 1 and 3 draw the batch of `lf` and of `relmodel` at their trial
    # counts and the same seed, and criterion 5 the runs of `rovelli`: their
    # Monte Carlo checks must be the commands' own, one definition per gate
    def checks(*argv):
        cli.main([*argv, "--seed", str(seed), "--format", "json"])
        return json.loads(capsys.readouterr().out)["checks"]

    lf = checks("lf", "--trials", str(acceptance.CHSH_TRIALS))
    first = acceptance.criterion_1(seed)["checks"]
    assert len(lf) == 5 and first[-5:] == lf
    assert all(c["name"].startswith("analytic ") for c in first[:-5])
    relmodel_checks = checks("relmodel", "--trials", str(acceptance.RELMODEL_TRIALS))
    assert acceptance.criterion_3(seed)["checks"] == relmodel_checks
    rovelli, _, _ = relmodel.rovelli_audit(RovelliConfig(), acceptance.ROVELLI_TRIALS, seed)
    fifth = acceptance.criterion_5(seed)["checks"]
    assert len(rovelli) == 2 and fifth[-2:] == rovelli
    assert all(c["name"].startswith("state ") for c in fifth[:-2])


def test_criterion_6_repeat_runs_byte_identical(capsys):
    # the pin's runs are fresh interpreters; here the caches the criteria
    # above filled are warm, and the report must be the same bytes
    pin = pins.PINS["accept 42 json"]
    code, out, err = pins.call(pin["runs"][0]["argv"])
    assert pins.check(pin, code, out, err) == []
    with capsys.disabled():
        print(f"[PASS] criterion 6 (determinism): {len(out)} bytes, "
              f"identical to a fresh interpreter's")


def test_run_all_aggregates():
    result = acceptance.run_all(7)
    assert [r["criterion"] for r in result["criteria"]] == [1, 2, 3, 4, 5, 6]
    assert result["pass"] == all(r["pass"] for r in result["criteria"])
