"""Small-scale smoke of every workload, its output checks and the tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import report
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SECONDS = 0.3


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perfbench")


def test_benchmark_json_matches_the_metric_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        report.PER_LAYER
    )
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


# batch-w2 runs first: stream's identity check reads the map it records.
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_end_to_end(name, out_dir, capsys):
    status = report.run_and_report(name, "small", 3, SECONDS, False, out_dir)
    printed = capsys.readouterr().out
    document = last_json(printed)
    assert status == 0, printed
    assert document["correct"] is True
    assert document["failed"] == 0
    assert document["attempted"] > 0
    assert list(document["metrics"]) == [n for n, _ in report.END_TO_END]
    assert all(m["value"] > 0 for m in document["metrics"].values())
    builds = next(line for line in printed.splitlines() if "set-up builds" in line)
    assert len(builds.split(": ")[-1].split()) == workloads.SETUP_BUILDS
    if name == "stream":
        assert "stream==batch: checked against the recorded batch-w2 map" in printed
        passes = next(line for line in printed.splitlines() if "epochs of three" in line)
        assert len(passes.split(": ")[-1].split()) == 3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_traced(name, out_dir, capsys):
    status = report.run_and_report(name, "small", 4, SECONDS, True, out_dir)
    printed = capsys.readouterr().out
    document = last_json(printed)
    assert status == 0, printed
    metrics = {k: v["value"] for k, v in document["metrics"].items()}
    assert list(metrics) == [n for n, _ in report.PER_LAYER]
    assert spans.installed_wrappers() == []
    layer_sum = sum(metrics[f"self.{layer}_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["campaign.execute_s"] > 0 and metrics["alias.resolve_s"] > 0
    if name == "batch-w2":
        assert metrics["exec.map_s"] > 0 and metrics["cfs.run_s"] > 0
    else:
        assert metrics["exec.map_s"] == 0
        assert metrics["ingest.fold_s"] > 0
    if name == "stream":
        assert "stream==batch: checked" in printed
    if name == "churn":
        assert metrics["inference.recall"] >= workloads.MIN_RECALL
        assert metrics["churn.censor_s"] > 0


def test_stream_fails_on_a_foreign_batch_fingerprint(tmp_path, capsys):
    workloads.Context(tmp_path).record_fingerprint("small", "0" * 64)
    status = report.run_and_report("stream", "small", 0, SECONDS, False, tmp_path)
    printed = capsys.readouterr().out
    assert status == 1
    assert "differs from batch-w2" in printed
    document = last_json(printed)
    assert document["correct"] is False and document["metrics"] == {}


def test_stream_builds_the_batch_map_when_none_is_recorded(tmp_path, capsys):
    status = report.run_and_report("stream", "small", 0, SECONDS, False, tmp_path)
    printed = capsys.readouterr().out
    assert status == 0, printed
    assert "batch-w2 map built in this run" in printed
    ctx = workloads.Context(tmp_path)
    assert ctx.recorded_fingerprint("small") is not None
    assert ctx.fingerprint_record("small").name.endswith(
        workloads.source_digest()[:16] + ".json"
    )


def test_batch_fails_against_a_foreign_record(tmp_path, capsys):
    workloads.Context(tmp_path).record_fingerprint("small", "0" * 64)
    status = report.run_and_report("batch-w2", "small", 0, SECONDS, False, tmp_path)
    printed = capsys.readouterr().out
    assert status == 1
    assert "differs from the one recorded" in printed


def test_wrong_answers_fail_the_run(out_dir, capsys, monkeypatch):
    monkeypatch.setattr(
        workloads.queries, "check", lambda block, index, raw: "planted mismatch"
    )
    status = report.run_and_report("stream", "small", 0, SECONDS, False, out_dir)
    document = last_json(capsys.readouterr().out)
    assert status == 1
    assert document["correct"] is False and document["metrics"] == {}
    assert document["failed"] > 0


def test_tracer_self_times_and_removal():
    import repro.alias.midar as midar

    original = vars(midar.MidarResolver)["resolve"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert vars(midar.MidarResolver)["resolve"] is not original
        with pytest.raises(RuntimeError):
            tracer.install()
        with tracer.span("bench.run"):
            with tracer.span("query.phase"):
                sum(range(10_000))
            sum(range(10_000))
    finally:
        tracer.remove()
    assert vars(midar.MidarResolver)["resolve"] is original
    assert spans.installed_wrappers() == []
    root = tracer.spans[0]
    assert sum(tracer.self_ns()) == root.duration_ns
    assert tracer.spans[1].parent == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
