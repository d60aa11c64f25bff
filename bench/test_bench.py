"""Self-test of the benchmark: every workload, untraced and traced, on the
tiny corpus, plus the tracer's wrapping rules.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(tmp_path, workload, trace):
    proc = bench("--workload", workload, "--seed", 3, "--seconds", 0, "--trace", trace,
                 "--size", "tiny", "--work", tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= run.MIN_SAMPLES
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert record["missing"] == []
    else:
        assert record["quality"]["f_target"] == run.SIZES["tiny"]["f_target"]
        assert record["digests"]["output"]


def test_tiny_training_bootstraps(tmp_path):
    """The tiny training run bootstraps at least once."""
    proc = bench("--workload", "train-gslda", "--seed", 0, "--seconds", 0, "--trace", 1,
                 "--size", "tiny", "--work", tmp_path)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cascade.bootstrap_windows"]["value"] > 0
    assert metrics["stumps.train_all_calls"]["value"] >= 2


def test_same_seed_same_inputs(tmp_path):
    size = run.SIZES["tiny"]
    with run.Spawner() as spawner:
        for name in ("a", "b"):
            run.set_up(spawner, "scan-large", size, 7, tmp_path / name)
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "train-gslda", "--seed", 0, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wraps_every_namespace_and_restores():
    from gslda_cascade import cli, detect

    original = detect.merge_detections
    tracer = Tracer()
    with tracer.installed([Target("detect.merge", "detect", "merge_detections", layers._merge)]):
        assert cli.merge_detections is detect.merge_detections is not original
        cli.merge_detections([detect.DetectionWindow(0, 0, 16, 1.0, 1)] * 3, 2)
    assert cli.merge_detections is detect.merge_detections is original
    assert tracer.counters["detect.merge_pairs"] == 3
    assert tracer.summary()["detect.merge"]["calls"] == 1


def test_missing_callable_is_reported():
    tracer = Tracer()
    with tracer.installed([Target("cascade.gone", "cascade", "CascadeModel.no_such_method"),
                           Target("nowhere.gone", "no_such_module", "f")]):
        pass
    assert tracer.missing == ["cascade.CascadeModel.no_such_method", "no_such_module.f"]
    assert layers.metrics(tracer, {})["trace.missing"] == 2


def test_self_time_excludes_children():
    from tracer import Span

    tracer = Tracer(spans=[Span("outer", 0.0, 10.0, None), Span("inner", 2.0, 5.0, 0), Span("inner", 6.0, 7.0, 0)])
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"] == {"calls": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}
