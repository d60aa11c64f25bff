"""The traced benchmark wraps package callables by name from outside the
package (bench/layers.py), so a rename there goes unnoticed by the bench: the
target is only reported missing.  These tests make such a rename fail, and
check that the arguments its hooks count still mean what the hooks assume."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gslda_cascade
from gslda_cascade import boosting, cli
from gslda_cascade.boosting import EdgeStats
from gslda_cascade.cascade import CascadeModel, NodeClassifier, NodeGoal, train_node
from gslda_cascade.detect import DetectionWindow
from gslda_cascade.features import PoolParams, build_pool
from gslda_cascade.model_io import load_model, save_model
from gslda_cascade.pgm import write_pgm
from gslda_cascade.stumps import DecisionStump

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Known breakage: bootstrap now runs the vectorized evaluator, and the bench
# still names the scalar per-window method it replaced.
KNOWN_MISSING = ["cascade.CascadeModel.decide_window"]


def resolve(module: str, attr: str):
    owner = importlib.import_module(f"gslda_cascade.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    missing = [f"{t.module}.{t.attr}" for t in layers.TARGETS if not callable(resolve(t.module, t.attr))]
    assert missing == KNOWN_MISSING


def test_cli_import_loads_every_traced_module(monkeypatch):
    """bench/tracer.py wraps only the package modules loaded when it
    installs, which is after importing cli: a module that cli imports later,
    inside a command, would have its targets never wrapped and its layer
    read 0."""
    monkeypatch.syspath_prepend(str(BENCH))
    modules = importlib.import_module("layers").MODULES
    src = str(Path(gslda_cascade.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, gslda_cascade.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert [m for m in modules if f"gslda_cascade.{m}" not in loaded] == []


def test_detect_hook_arguments(monkeypatch, tmp_path, capsys):
    """layers.py counts detect.raw_windows as len() of merge_detections'
    first argument and model_io.rows_written as len() of
    write_detections_csv's, and calls merge_detections with a list of
    DetectionWindow in its self-test."""
    assert len(cli.merge_detections([DetectionWindow(0, 0, 16, 1.0, 1)] * 3, 2)) == 1
    features = build_pool(PoolParams(8, stride=2, min_size=2))
    model = CascadeModel([NodeClassifier([DecisionStump(5, 0.0, 1)], [1.0], 0.5, "adaboost")], features, 0.5)
    save_model(model, str(tmp_path / "model.json"))
    (tmp_path / "images").mkdir()
    rng = np.random.default_rng(0)
    for name in ("a.pgm", "b.pgm"):
        write_pgm(str(tmp_path / "images" / name), rng.integers(0, 256, size=(20, 24)).astype(np.uint8))
    for flags in ([], ["--no-merge"]):
        seen = {"merge": [], "write": []}

        def spy(name, fn):
            return lambda *args, **kwargs: seen[name].append(len(args[0])) or fn(*args, **kwargs)

        monkeypatch.setattr(cli, "merge_detections", spy("merge", cli.merge_detections))
        monkeypatch.setattr(cli, "write_detections_csv", spy("write", cli.write_detections_csv))
        out = tmp_path / "detections.csv"
        assert cli.main(["detect", str(tmp_path / "model.json"), str(tmp_path / "images"), "--out", str(out),
                         "--profile", *flags]) == 0
        monkeypatch.undo()
        profile = dict(kv.split("=") for kv in capsys.readouterr().out.split("profile: ")[1].split())
        rows = len(out.read_text().splitlines()) - 1
        assert seen["write"] == [rows] and rows == int(profile["detections"])
        raw = int(profile["raw_windows"])
        if flags:
            assert seen["merge"] == [] and raw == rows
        else:  # one call per image
            assert len(seen["merge"]) == 2 and sum(seen["merge"]) == raw > rows


def test_prune_hook_arguments(monkeypatch):
    """layers.py reports boosting.prune_kept_frac as the len() of
    prune_stumps' result[0] over the len() of its first argument: the table
    it is called with must be as long as the pool, and the result must be
    (kept stump indices, EdgeStats)."""
    rng = np.random.default_rng(0)
    labels = np.where(rng.random(60) < 0.5, 1, -1)
    values = np.round((rng.normal(size=(9, 60)) + 0.5 * labels) * 2**16).astype(np.int32)  # integer sums
    seen, prune = [], boosting.prune_stumps

    def spy(table, *args, **kwargs):
        seen.append((len(table), prune(table, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(boosting, "prune_stumps", spy)
    train_node(values, labels, NodeGoal(), "bgslda1", fixed_rounds=3)
    assert len(seen) >= 3  # one prune per round, through the module attribute the bench wraps
    for pool, (kept, stats) in seen:
        assert pool == len(values)
        assert isinstance(stats, EdgeStats)
        assert kept.ndim == 1 and kept.dtype.kind == "i" and 1 <= len(kept) <= pool
        assert np.all(np.diff(kept) > 0) and 0 <= kept[0] and kept[-1] < pool


def test_trained_model_exposes_what_quality_reads(tmp_path):
    """bench/run.py's quality reads a trained model file, loaded back, by
    len(model.nodes), model.f_target and model.cumulative[-1] (its final_dr
    and final_fpr): a rename fails here instead of moving those metrics.
    cumulative[-1] must be the stage log's last (D, F)."""
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--n-pos", "100", "--n-neg", "200",
                     "--reservoir", "2", "--scenes", "0", "--seed", "0"]) == 0
    out = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(corpus / "manifest.json"), "--out", str(out), "--method", "gslda",
                     "--subsample", "16", "--max-stumps", "20", "--f-target", "0.001", "--threads", "1"]) == 0
    model = load_model(str(out))
    stages = [json.loads(line) for line in (tmp_path / "model.json.log.jsonl").read_text().splitlines()][:-1]
    assert len(model.nodes) == len(stages) >= 2 and model.f_target == 0.001
    final_dr, final_fpr = model.cumulative[-1]
    assert (final_dr, final_fpr) == (stages[-1]["D"], stages[-1]["F"])
