"""Tests of the benchmark itself: each check counts the failure it exists to
catch, and clean outputs pass.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wstargeo import linalg  # noqa: E402
from wstargeo.suites import SuiteResult, suite_rows  # noqa: E402


def _rows(suite, **changes):
    """Clean rows of a suite at trials=5, seed=7, with ``changes`` to the first."""
    rows = [
        SuiteResult(f"{suite}/{row}", 5, 7, 1e-15, 1e-10, True, 0.01)
        for row in suite_rows(suite)
    ]
    rows[0] = dataclasses.replace(rows[0], **changes)
    return rows


def _check_rows(rows):
    tally = checks.Tally()
    checks.check_suite_rows(tally, "kks", rows, suite_rows("kks"), 5, 7)
    return tally


def test_clean_rows_pass():
    tally = _check_rows(_rows("kks"))
    assert (tally.attempted, tally.failed, tally.correct) == (3, 0, True)


def test_row_reported_fail_is_a_failed_operation():
    tally = _check_rows(_rows("kks", max_residual=1.0, passed=False))
    assert tally.failed == 1
    assert tally.correct  # the program's own verdict, not a wrong output


def test_nan_residual_reported_as_pass_is_wrong():
    tally = _check_rows(_rows("kks", max_residual=math.nan))
    assert tally.failed == 1 and not tally.correct


def test_missing_row_and_wrong_echo_fail():
    assert _check_rows(_rows("kks")[:1]).failed == 1
    assert _check_rows(_rows("kks", seed=8)).failed == 1


def test_algebra_checks_pass_on_the_program():
    tally = checks.Tally()
    for what, check in checks.algebra_checks((2, 3), seed=3):
        tally.run(what, check)
    assert tally.failed == 0, tally.notes


def test_perturbed_polar_factor_is_caught(monkeypatch):
    original = linalg.polar_decompose

    def perturbed(a, tol=linalg.DEFAULT_TOL):
        u, h = original(a, tol)
        return u + 1e-6, h

    monkeypatch.setattr(linalg, "polar_decompose", perturbed)
    (what, check), = [c for c in checks.algebra_checks((2, 3), seed=3) if c[0].startswith("polar")]
    tally = checks.Tally()
    tally.run(what, check)
    assert tally.failed == 1 and not tally.correct


def test_cli_round_passes_and_nonzero_exit_is_counted(tmp_path):
    workload = workloads.CliFilesWorkload(seed=5, workdir=str(tmp_path))
    tally = checks.Tally()
    parts, latencies = workload.run_round(tally, gauge.SpeedGauge())
    assert len(parts) == len(workload.jobs) and tally.failed == 0, tally.notes
    assert sorted(latencies) == ["cli.amplitude", "cli.orbit", "cli.polar"]

    os.remove(workload.jobs[0]["argv"][1])  # exit code 1: file not found
    tally = checks.Tally()
    workload.run_round(tally, gauge.SpeedGauge())
    assert tally.failed == 1 and tally.correct


def test_printed_outputs_are_checked(tmp_path):
    workload = workloads.CliFilesWorkload(seed=5, workdir=str(tmp_path))
    results = workload._run_batch()
    for job, (code, text, _) in zip(workload.jobs, results):
        assert code == 0
        assert checks.OUTPUT_CHECKS[job["kind"]](text, job) == []
        lines = text.splitlines()
        if job["kind"] == "orbit":
            lines[-1] = lines[-1][:-1] + str(int(lines[-1][-1]) + 1)
        elif job["kind"] == "amplitude":
            lines[-1] = "probability: 0.5"
        else:
            lines[1] = lines[1].replace("0", "1", 1)
        assert checks.OUTPUT_CHECKS[job["kind"]]("\n".join(lines), job) != []


def test_planted_inputs_repeat_for_a_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.CliFilesWorkload(seed=9, workdir=str(tmp_path / "a"))
    b = workloads.CliFilesWorkload(seed=9, workdir=str(tmp_path / "b"))
    for x, y in zip(a.jobs, b.jobs):
        with open(x["argv"][1], "rb") as fx, open(y["argv"][1], "rb") as fy:
            assert fx.read() == fy.read()


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli-files", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_import_tree_parses_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |   scipy.linalg",
        "import time:        10 |        360 | wstargeo",
    ])
    tree = run._import_tree(text)
    assert run._outermost(tree, "numpy", 2) == pytest.approx(300e-6)
    assert run._outermost(tree, "scipy", 2) == pytest.approx(50e-6)
    assert run._outermost(tree, "wstargeo", 1) == pytest.approx(10e-6)


def test_gauge_scales_by_the_samples_and_drops_timer_time():
    ref = gauge.REFERENCE_SECONDS
    assert gauge.SpeedGauge.factor([ref, ref]) == pytest.approx(1.0)
    assert gauge.SpeedGauge.factor([2 * ref, 2 * ref]) == pytest.approx(0.5)

    def spin():  # 0.3 s of wall time, timer samples included
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    g = gauge.SpeedGauge()
    previous = signal.getsignal(signal.SIGALRM)
    with g.running(0.02):
        _, seconds, reference = g.time(spin)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(g.samples) > 4 and g.busy > 0
    assert seconds + g.busy == pytest.approx(0.3, abs=0.03)
    assert reference == pytest.approx(seconds * gauge.SpeedGauge.factor(g.samples))
