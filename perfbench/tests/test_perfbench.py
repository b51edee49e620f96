"""Tests of the benchmark itself: metric names and units, span structure,
and that the oracle checks catch corrupted outputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spamsim  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload, trace, out_dir):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--smoke", "--out-dir", str(out_dir))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = _smoke(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["nproc"] >= 1 and record["environment"]["sizes"]


@pytest.mark.parametrize("workload", ["bias-scan", "cli-records"])
def test_traced_run_writes_well_formed_spans(workload, tmp_path):
    _smoke(workload, 1, tmp_path)
    documents = json.loads((tmp_path / f"{workload}-seed3-trace1-spans.json").read_text())
    recorded = [spans.Span(**document) for document in documents]
    assert recorded and spans.problems(recorded) == []
    roots = [s for s in recorded if s.parent is None]
    assert roots and all(s.name == "bench.call" for s in roots)
    names = {s.name for s in recorded}
    assert "engine.run_experiment" in names
    if workload == "cli-records":
        assert {"cli.main", "analytics.spam_summary", "detection.write_histogram_csv",
                "jsonschema.validate"} <= names
    else:
        assert "analytics.bias_scan" in names


def test_span_checks_catch_a_child_outside_its_parent():
    parent = spans.Span(0, "bench.call", "bench", None, "r", 1.0, 2.0)
    inside = spans.Span(1, "engine.run_experiment", "engine", 0, "r", 1.1, 1.5)
    outside = spans.Span(2, "cli.main", "cli", 0, "r", 1.9, 2.5)
    orphan = spans.Span(3, "cli.main", "cli", 9, "r", 1.2, 1.3)
    assert spans.problems([parent, inside]) == []
    assert len(spans.problems([parent, inside, outside, orphan])) == 2
    assert spans.self_times([parent, inside])[0] == pytest.approx(0.6)


def test_tracer_restores_wrapped_names():
    tracer = spans.Tracer("r")
    original = spamsim.run_experiment
    with tracer.installed(workloads.trace_targets()):
        assert spamsim.run_experiment is not original
    assert spamsim.run_experiment is original


@pytest.fixture(scope="module")
def rus_tally():
    model = spamsim.default_model()
    config = spamsim.ExperimentConfig(
        model=model, encoding="O", shots=20_000, seed=5,
        mode=spamsim.Mode.REPEAT_UNTIL_SUCCESS, max_attempts=3,
    )
    result = spamsim.run_experiment(config, collect_histograms=False)
    exact = workloads._exact_rejection("O", model)["one"]
    return result.states["one"], exact


def test_rus_checks_pass_on_a_real_tally(rus_tally):
    tally, exact = rus_tally
    assert all(check.passed for check in workloads.rus_checks("one", tally, 3, exact))


@pytest.mark.parametrize("corruption, failing", [
    (lambda t: {"kept": (t.kept[0],) + (t.kept[0] + 1,) + t.kept[2:]}, "kept non-increasing"),
    (lambda t: {"wrong": (t.kept[0] + 1,) + t.wrong[1:]}, "wrong <= kept"),
    (lambda t: {"reasons": {**t.reasons, "R0Dark": t.reasons["R0Dark"] + 1}},
     "reasons sum to shots"),
    (lambda t: {"accepted_zero": t.accepted_zero + 1}, "accepted split"),
    (lambda t: {"attempts_max": 4}, "attempts within budget"),
    (lambda t: {"kept": t.kept[:5] + (t.kept[5] // 2,)}, "rejected <= post-select exact"),
])
def test_oracle_checks_fail_on_a_corrupted_tally(rus_tally, corruption, failing):
    tally, exact = rus_tally
    corrupted = dataclasses.replace(tally, **corruption(tally))
    failed = {c.name for c in workloads.rus_checks("one", corrupted, 3, exact) if not c.passed}
    assert f"one {failing}" in failed


def test_rejection_and_bias_checks_fail_on_corrupted_outputs(rus_tally):
    tally, _ = rus_tally
    assert workloads.rejection_check("one", tally, tally.rejected_fraction).passed
    shifted = tally.rejected_fraction + 0.05
    assert not workloads.rejection_check("one", tally, shifted).passed
    family = spamsim.BIAS_FAMILIES[0]
    points = spamsim.bias_scan(family, [0.8], 5_000, seed=2)
    assert all(c.passed for c in workloads.bias_checks(family.name, points))
    wrong = [dataclasses.replace(points[0], measured=points[0].predicted + 0.5)]
    assert not any(c.passed for c in workloads.bias_checks(family.name, wrong))


def test_cli_checks_fail_on_corrupted_outputs(tmp_path):
    workload = workloads.CliRecords(1_000, str(tmp_path))
    exit_code, out_dir = workload.arrange(7, 1)()
    assert all(c.passed for c in workloads.cli_checks(exit_code, out_dir, 1_000))
    records = Path(out_dir) / "records_zero.csv"
    records.write_text("".join(records.read_text().splitlines(keepends=True)[:-1]))
    (Path(out_dir) / "stray.txt").write_text("not in the manifest\n")
    failed = {c.name for c in workloads.cli_checks(exit_code, out_dir, 1_000) if not c.passed}
    assert {"records_zero rows = shots", "manifest lists every file written"} <= failed
    assert not workloads.cli_checks(2, out_dir, 1_000)[0].passed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "spam-rus", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
