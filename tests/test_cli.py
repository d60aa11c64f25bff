"""End-to-end runs of the command-line front end on a tiny synthetic corpus."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gslda_cascade import cli, detect
from gslda_cascade.model_io import load_model
from gslda_cascade.pgm import read_pgm, write_pgm
import oracles

TRAIN = ["--subsample", "4", "--max-stumps", "8"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", "--out", str(root / "corpus"), "--n-pos", "40", "--n-neg", "80", "--size", "8",
                     "--reservoir", "2", "--scenes", "2", "--seed", "0"]) == 0
    return root


def stage_log(path):
    return [json.loads(line) for line in open(path)]


def test_train_reports_stop_reason(corpus, capsys):
    manifest = str(corpus / "corpus" / "manifest.json")
    met = str(corpus / "met.json")
    assert cli.main(["train", "--data", manifest, "--out", met, "--f-target", "0.01", *TRAIN]) == 0
    assert stage_log(met + ".log.jsonl")[-1] == {"stop_reason": "f_target_met"}
    assert "warning" not in capsys.readouterr().err

    short = str(corpus / "short.json")
    assert cli.main(["train", "--data", manifest, "--out", short, "--f-target", "0.0001", *TRAIN]) == 0
    log = stage_log(short + ".log.jsonl")
    assert log[-1] == {"stop_reason": "bootstrap_exhausted"}
    assert log[-2]["F"] > 0.0001
    assert "warning: training stopped (bootstrap_exhausted)" in capsys.readouterr().err
    assert "stop_reason" not in open(short).read()  # the model file is unchanged


@pytest.fixture(scope="module")
def model(corpus):
    path = str(corpus / "model.json")
    assert cli.main(["train", "--data", str(corpus / "corpus" / "manifest.json"), "--out", path,
                     "--f-target", "0.01", *TRAIN]) == 0
    return path


def profile_line(out):
    line = next(line for line in out.splitlines() if line.startswith("profile:"))
    return dict(kv.split("=") for kv in line.split()[1:])


def test_detect(corpus, model, tmp_path, capsys):
    counts = {}
    for merge in ([], ["--no-merge"]):
        out = tmp_path / "detections.csv"
        assert cli.main(["detect", model, str(corpus / "corpus" / "scenes"), "--out", str(out), "--profile",
                         *merge]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["image_id", "x", "y", "side", "score"]
        profile = profile_line(capsys.readouterr().out)
        assert list(profile) == ["windows_scanned", "feature_evals", "avg_features_per_window",
                                 "raw_windows", "detections"]
        assert int(profile["detections"]) == len(rows) - 1
        counts[bool(merge)] = int(profile["raw_windows"]), int(profile["detections"])
    raw, merged = counts[False]
    assert counts[True] == (raw, raw)  # --no-merge writes every raw window
    assert raw > merged


def test_detect_profile_sums_the_images_scans(corpus, model, tmp_path, capsys):
    scenes = corpus / "corpus" / "scenes"
    images = [read_pgm(str(path)) for path in sorted(scenes.glob("*.pgm"))]
    assert len(images) == 2
    loaded = load_model(model)
    scans = [detect.scan_image(loaded, image) for image in images]
    assert cli.main(["detect", model, str(scenes), "--out", str(tmp_path / "d.csv"), "--profile"]) == 0
    profile = profile_line(capsys.readouterr().out)
    scanned = sum(len(oracles.pyramid_windows(*image.shape, loaded.base_window, 1.2, 1.0)) for image in images)
    evals = sum(image_evals for _, _, image_evals in scans)
    assert int(profile["windows_scanned"]) == scanned
    assert int(profile["feature_evals"]) == evals
    assert profile["avg_features_per_window"] == f"{evals / scanned:.6g}"
    assert int(profile["raw_windows"]) == sum(len(wins) for wins, _, _ in scans)


def test_detect_names_a_directory_s_rows_by_file_name(corpus, model, tmp_path):
    """A directory's rows carry the image's file name however many images
    it holds; a single image file's rows carry its path as given."""
    one = tmp_path / "one"
    one.mkdir()
    shutil.copy(corpus / "corpus" / "scenes" / "s000.pgm", one)
    rows = {}
    for images in (corpus / "corpus" / "scenes", one):
        out = tmp_path / "d.csv"
        assert cli.main(["detect", model, str(images), "--out", str(out)]) == 0
        rows[images] = [row for row in csv.reader(open(out, newline=""))][1:]
    assert rows[one] and rows[one] == [row for row in rows[corpus / "corpus" / "scenes"] if row[0] == "s000.pgm"]


def test_detect_image_name_the_csv_cannot_encode_is_data_error(corpus, model, tmp_path, monkeypatch, capsys):
    """Byte 0xff of a file name decodes to a lone surrogate, which no CSV
    encoding takes: detect names the image on one error line before it
    scans any image, so it writes no CSV."""
    images = tmp_path / "images"
    images.mkdir()
    scene = (corpus / "corpus" / "scenes" / "s000.pgm").read_bytes()
    (images / "s000.pgm").write_bytes(scene)
    try:
        (images / os.fsdecode(b"z\xff.pgm")).write_bytes(scene)
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses the name")
    scans = []
    monkeypatch.setattr(cli, "scan_image", lambda *args: scans.append(args))
    out = tmp_path / "d.csv"
    capsys.readouterr()
    assert cli.main(["detect", model, str(images), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "z\\udcff.pgm" in err
    assert scans == [] and not out.exists()


def test_detect_rows_match_scalar_oracles(corpus, model, tmp_path):
    """The rows detect writes for one scene are the scalar scan's accepted
    windows (--no-merge) and the pairwise merge of those (merged)."""
    scene = str(corpus / "corpus" / "scenes" / "s000.pgm")
    raw = [win for win, _ in oracles.scan_windows(load_model(model), read_pgm(scene))]
    rows = {}
    for merge in ([], ["--no-merge"]):
        out = tmp_path / "detections.csv"
        assert cli.main(["detect", model, scene, "--out", str(out), *merge]) == 0
        rows[bool(merge)] = [(r["image_id"], int(r["x"]), int(r["y"]), int(r["side"]), float(r["score"]))
                             for r in csv.DictReader(open(out, newline=""))]
    assert rows[True] == [(scene, w.x, w.y, w.side, w.score) for w in raw]
    merged = oracles.merge_detections(raw, 2)
    assert rows[False] == [(scene, w.x, w.y, w.side, w.score) for w in merged]
    assert len(raw) > len(merged) > 0


@pytest.mark.parametrize("mode", ["depth", "threshold"])
def test_eval_scans_each_image_once(corpus, model, tmp_path, monkeypatch, capsys, mode):
    tables = []
    build_integral = detect.build_integral
    monkeypatch.setattr(detect, "build_integral", lambda image: tables.append(1) or build_integral(image))
    out = tmp_path / "roc.csv"
    assert cli.main(["eval", model, str(corpus / "corpus" / "manifest.json"), "--mode", mode,
                     "--out", str(out)]) == 0
    assert len(tables) == 2  # one integral table per scene image
    assert len(list(csv.reader(open(out)))) > 1
    assert "full-depth: TP=" in capsys.readouterr().out


@pytest.fixture(scope="module")
def empty_model(corpus):
    """A model file without nodes: f_target 1 is met before the first stage."""
    path = str(corpus / "empty.json")
    assert cli.main(["train", "--data", str(corpus / "corpus" / "manifest.json"), "--out", path,
                     "--f-target", "1", *TRAIN]) == 0
    assert json.load(open(path))["nodes"] == []
    return path


def test_eval_model_without_nodes_is_data_error(corpus, empty_model, tmp_path, capsys):
    manifest = str(corpus / "corpus" / "manifest.json")
    capsys.readouterr()
    assert cli.main(["eval", empty_model, manifest, "--out", str(tmp_path / "roc.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_model_without_nodes_is_data_error(corpus, empty_model, tmp_path, capsys):
    out = tmp_path / "detections.csv"
    capsys.readouterr()
    assert cli.main(["detect", empty_model, str(corpus / "corpus" / "scenes"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def eval_with_truth(corpus, model, tmp_path, truth_csv):
    """Exit code of eval on the corpus with its ground truth replaced."""
    manifest = json.load(open(corpus / "corpus" / "manifest.json"))
    truth = tmp_path / "truth.csv"
    truth.write_text(truth_csv)
    manifest["ground_truth"] = str(truth)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return cli.main(["eval", model, str(path), "--out", str(tmp_path / "roc.csv")])


def test_eval_without_truths_is_data_error(corpus, model, tmp_path, capsys):
    assert eval_with_truth(corpus, model, tmp_path, "image_id,x,y,w,h\n") == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_missing_image_is_data_error(corpus, model, tmp_path, capsys):
    assert eval_with_truth(corpus, model, tmp_path, "image_id,x,y,w,h\nnowhere.pgm,0,0,8,8\n") == 2
    assert "nowhere.pgm" in capsys.readouterr().err


def test_eval_short_truth_row_is_data_error(corpus, model, tmp_path, capsys):
    assert eval_with_truth(corpus, model, tmp_path, "image_id,x,y,w,h\ns000.pgm,1,2\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "line 2" in err


# Each command's output flags, pointed into a missing directory.
UNWRITABLE = {
    "train-out": ["train", "--data", "{manifest}", "--out", "{missing}/m.json", *TRAIN],
    "train-log": ["train", "--data", "{manifest}", "--out", "{tmp}/m.json", "--log", "{missing}/log.jsonl", *TRAIN],
    "detect-out": ["detect", "{model}", "{scenes}", "--out", "{missing}/d.csv"],
    "eval-out": ["eval", "{model}", "{manifest}", "--out", "{missing}/roc.csv"],
    "toy-out": ["toy", "--n-pos", "20", "--n-neg", "200", "--out", "{missing}/toy.json"],
    "toy-points": ["toy", "--n-pos", "20", "--n-neg", "200", "--out", "{tmp}/toy.json",
                   "--points", "{missing}/points.csv"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_is_data_error(corpus, model, tmp_path, capsys, case):
    paths = {"manifest": corpus / "corpus" / "manifest.json", "scenes": corpus / "corpus" / "scenes",
             "model": model, "tmp": tmp_path, "missing": tmp_path / "missing"}
    capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in UNWRITABLE[case]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(tmp_path / "missing") in err


@pytest.mark.parametrize("command,scale_factor,step", [
    pytest.param("detect", "1e308", None, id="detect-1e308"),
    pytest.param("detect", "inf", None, id="detect-inf"),
    pytest.param("eval", "1e308", None, id="eval-1e308"),
    pytest.param("detect", "1e308", "1e308", id="detect-1e308-step-1e308"),
    pytest.param("eval", "1e308", "1e308", id="eval-1e308-step-1e308"),
])
def test_oversized_scale_factor_scans_only_the_base_scale(corpus, model, tmp_path, monkeypatch, capsys,
                                                         command, scale_factor, step):
    # The pyramid plans each image's scales once, then evaluates one lattice per scale.
    scales, windows = [], []
    plan, evaluate = detect._plan, detect._evaluate
    monkeypatch.setattr(detect, "_plan", lambda model, s, dtype: scales.extend(s) or plan(model, s, dtype))
    monkeypatch.setattr(detect, "_evaluate", lambda *a: windows.append(len(a[2]) * len(a[3])) or evaluate(*a))
    out = tmp_path / "out.csv"
    inputs = {"detect": [str(corpus / "corpus" / "scenes"), "--no-merge"],
              "eval": [str(corpus / "corpus" / "manifest.json")]}[command]
    flags = ["--scale-factor", scale_factor] + (["--step", step] if step else [])
    assert cli.main([command, model, *inputs, *flags, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert scales and set(scales) == {1.0}
    if step:  # a shift beyond the image leaves one window per axis
        assert set(windows) == {1}
    elif command == "detect":
        base = json.load(open(model))["base_window"]
        rows = list(csv.DictReader(open(out)))
        assert rows and all(int(row["side"]) == base for row in rows)


@pytest.mark.parametrize("edit", [
    lambda m: m["nodes"][0].update(stumps=[], coefficients=[]),
    lambda m: m.update(stage_rates=[5]),
    lambda m: m["feature_pool"].update(min_size=m["base_window"] + 1),  # no feature fits the window
    lambda m: m["nodes"][0]["stumps"][0].__setitem__(1, float("nan")),
    lambda m: m["nodes"][0]["coefficients"].__setitem__(0, 10**400),
], ids=["node-without-stumps", "stage-rates-not-pairs", "feature-outside-window", "nan-threshold",
        "integer-beyond-float-range"])
def test_detect_malformed_model_is_data_error(corpus, model, tmp_path, capsys, edit):
    payload = json.load(open(model))
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert cli.main(["detect", str(bad), str(corpus / "corpus" / "scenes"), "--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit", [
    lambda m: 5,
    lambda m: {**m, "positives": [5]},
    lambda m: {**m, "ground_truth": 7},
    lambda m: {**m, "negative_reservoir": None},
], ids=["top-level-number", "number-in-positives", "number-for-ground-truth", "null-reservoir"])
def test_malformed_manifest_is_data_error(corpus, model, tmp_path, capsys, command, edit):
    bad = corpus / "corpus" / "edited.json"  # beside the corpus, so every listed file resolves
    bad.write_text(json.dumps(edit(json.load(open(corpus / "corpus" / "manifest.json")))))
    argv = {"train": ["train", "--data", str(bad), "--out", str(tmp_path / "m.json"), *TRAIN],
            "eval": ["eval", model, str(bad), "--out", str(tmp_path / "roc.csv")]}[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_toy_writes_report_and_points(tmp_path, capsys):
    report, points = tmp_path / "toy.json", tmp_path / "points.csv"
    assert cli.main(["toy", "--n-pos", "20", "--n-neg", "200", "--rounds", "2", "--trials", "2",
                     "--out", str(report), "--points", str(points)]) == 0
    payload = json.load(open(report))
    assert len(payload["per_trial"]) == 2
    assert 0.0 <= payload["gslda_win_fraction"] <= 1.0
    rows = list(csv.reader(open(points)))
    assert rows[0] == ["x", "y", "label"]
    assert len(rows) == 1 + 20 + 200
    assert "gslda_win_fraction=" in capsys.readouterr().out


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_is_deterministic(tmp_path):
    trees = []
    for name in ("a", "b"):
        assert cli.main(["synth", "--out", str(tmp_path / name), "--n-pos", "10", "--n-neg", "10", "--size", "8",
                         "--reservoir", "1", "--scenes", "1", "--seed", "3"]) == 0
        trees.append(tree_bytes(tmp_path / name))
    assert trees[0] == trees[1]
    assert any(path.name == "manifest.json" for path in trees[0])


def test_synth_unwritable_out_is_data_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a file where the corpus directory's parent should be
    assert cli.main(["synth", "--out", str(blocker / "corpus"), "--n-pos", "1", "--n-neg", "1", "--size", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(blocker) in err


@pytest.mark.parametrize("argv", [
    ["train", "--no-such-flag"],
    ["train", "--out", "model.json"],
], ids=["unknown-flag", "train-without-data"])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


# Out-of-range settings; every input path names a missing file, so exit 1
# (not the data error 2) shows the settings are checked before any input is read.
BAD_SETTINGS = {
    "train-dmin": ["train", "--data", "{tmp}/none.json", "--dmin", "2"],
    "train-max-stumps": ["train", "--data", "{tmp}/none.json", "--max-stumps", "0"],
    "train-validation-split": ["train", "--data", "{tmp}/none.json", "--validation-split", "1.5"],
    "train-gamma": ["train", "--data", "{tmp}/none.json", "--gamma", "-1"],
    "train-subsample": ["train", "--data", "{tmp}/none.json", "--subsample", "0"],
    "train-config": ["train", "--data", "{tmp}/none.json", "--config", "{tmp}/config.json"],
    "train-config-method": ["train", "--data", "{tmp}/none.json", "--config", "{tmp}/method.json"],
    "train-dual-pass-adaboost": ["train", "--data", "{tmp}/none.json", "--method", "adaboost", "--dual-pass"],
    "train-config-method-dual-pass": ["train", "--data", "{tmp}/none.json", "--config", "{tmp}/boost.json",
                                      "--dual-pass"],
    "toy-trials": ["toy", "--trials", "0", "--out", "{tmp}/toy.json"],
    "toy-n-neg-below-n-pos": ["toy", "--n-pos", "20", "--n-neg", "10", "--out", "{tmp}/toy.json"],
    "toy-rounds": ["toy", "--rounds", "0", "--out", "{tmp}/toy.json"],
    "detect-scale-factor": ["detect", "{tmp}/none.json", "{tmp}", "--scale-factor", "1", "--out", "{tmp}/d.csv"],
    "eval-scale-factor": ["eval", "{tmp}/none.json", "{tmp}/none.json", "--scale-factor", "1",
                          "--out", "{tmp}/roc.csv"],
    "detect-step-inf": ["detect", "{tmp}/none.json", "{tmp}", "--step", "inf", "--out", "{tmp}/d.csv"],
    "detect-step-nan": ["detect", "{tmp}/none.json", "{tmp}", "--step", "nan", "--out", "{tmp}/d.csv"],
    "detect-step-negative": ["detect", "{tmp}/none.json", "{tmp}", "--step", "-3", "--out", "{tmp}/d.csv"],
    "detect-step-zero": ["detect", "{tmp}/none.json", "{tmp}", "--step", "0", "--out", "{tmp}/d.csv"],
    "eval-step-inf": ["eval", "{tmp}/none.json", "{tmp}/none.json", "--step", "inf", "--out", "{tmp}/roc.csv"],
    "detect-min-neighbors-zero": ["detect", "{tmp}/none.json", "{tmp}", "--min-neighbors", "0",
                                  "--out", "{tmp}/d.csv"],
    "detect-min-neighbors-negative": ["detect", "{tmp}/none.json", "{tmp}", "--min-neighbors", "-4",
                                      "--out", "{tmp}/d.csv"],
    "eval-min-neighbors-negative": ["eval", "{tmp}/none.json", "{tmp}/none.json", "--min-neighbors", "-2",
                                    "--out", "{tmp}/roc.csv"],
    "detect-config-min-neighbors": ["detect", "{tmp}/none.json", "{tmp}", "--config", "{tmp}/neighbors.json",
                                    "--out", "{tmp}/d.csv"],
    "detect-config-unknown-key": ["detect", "{tmp}/none.json", "{tmp}", "--config", "{tmp}/typo.json",
                                  "--out", "{tmp}/d.csv"],
    "detect-config-threads": ["detect", "{tmp}/none.json", "{tmp}", "--config", "{tmp}/threads.json",
                              "--out", "{tmp}/d.csv"],
    "synth-size": ["synth", "--out", "{tmp}/corpus", "--size", "7"],
    "synth-n-neg-negative": ["synth", "--out", "{tmp}/corpus", "--n-neg", "-1"],
    "synth-scenes-negative": ["synth", "--out", "{tmp}/corpus", "--scenes", "-2"],
}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_setting_exits_1(case, tmp_path, capsys):
    configs = {"config.json": {"dmin": 2}, "method.json": {"method": "floatboost"},
               "boost.json": {"method": "asymboost"}, "neighbors.json": {"min_neighbors": 0},
               "typo.json": {"scale_factr": 2}, "threads.json": {"threads": 1}}
    for name, config in configs.items():
        (tmp_path / name).write_text(json.dumps(config))
    assert cli.main([arg.format(tmp=tmp_path) for arg in BAD_SETTINGS[case]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(configs)  # nothing written


def test_train_min_size_beyond_the_patches_exits_1(corpus, tmp_path, capsys):
    # The corpus's patches are 8 pixels wide: no feature of min_size 9 fits.
    out = tmp_path / "model.json"
    argv = ["train", "--data", str(corpus / "corpus" / "manifest.json"), "--out", str(out), "--min-size", "9"]
    assert cli.main([*argv, *TRAIN]) == 1
    assert capsys.readouterr().err == "error: need base_window >= min_size >= 1\n"
    assert not any(tmp_path.iterdir())  # nothing trained, nothing written


# --config values whose type differs from their setting's builtin default.
BAD_CONFIG_TYPES = {
    "train-string-for-number": ("train", {"dmin": "0.9"}),
    "train-number-for-string": ("train", {"method": 3}),
    "train-bool-for-number": ("train", {"max_stumps": True}),
    "train-float-for-integer": ("train", {"stride": 1.5}),
    "detect-string-for-number": ("detect", {"step": "x"}),
    "detect-list-for-number": ("detect", {"min_neighbors": [2]}),
    "eval-null-for-number": ("eval", {"scale_factor": None}),
    "eval-string-for-integer": ("eval", {"min_neighbors": "2"}),
}
COMMAND_ARGV = {
    "train": ["train", "--data", "{tmp}/none.json"],
    "detect": ["detect", "{tmp}/none.json", "{tmp}", "--out", "{tmp}/d.csv"],
    "eval": ["eval", "{tmp}/none.json", "{tmp}/none.json", "--out", "{tmp}/roc.csv"],
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_TYPES))
def test_config_of_wrong_type_exits_1(case, tmp_path, capsys):
    command, config = BAD_CONFIG_TYPES[case]
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = [arg.format(tmp=tmp_path) for arg in COMMAND_ARGV[command]]
    assert cli.main([*argv, "--config", str(tmp_path / "config.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert next(iter(config)) in err


def test_config_integer_for_float_setting_is_accepted(corpus, model, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"step": 2, "scale_factor": 2}))
    assert cli.main(["detect", model, str(corpus / "corpus" / "scenes"), "--out", str(tmp_path / "d.csv"),
                     "--config", str(config)]) == 0


def test_bad_setting_process_exit_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gslda_cascade.cli", "toy", "--trials", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_leave_the_generators_unimported(corpus, model, tmp_path, command):
    # Each process compiles what it imports; the dataset manifest is read by
    # model_io, so neither command needs the corpus generators.
    manifest = str(corpus / "corpus" / "manifest.json")
    argv = {"train": ["train", "--data", manifest, "--out", str(tmp_path / "m.json"), "--f-target", "0.01", *TRAIN],
            "eval": ["eval", model, manifest, "--out", str(tmp_path / "roc.csv")]}[command]
    script = ("import sys\nfrom gslda_cascade import cli\n"
              "print(cli.main(sys.argv[1:]), 'gslda_cascade.synth' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_ignored_flags_are_not_parsed(corpus, model, tmp_path, capsys, command):
    target = str(corpus / "corpus" / ("scenes" if command == "detect" else "manifest.json"))
    flag = ["--seed", "1"] if command == "detect" else ["--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, model, target, "--out", str(tmp_path / "out.csv"), *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_train_accepts_threads(corpus, tmp_path):
    out = str(tmp_path / "model.json")
    assert cli.main(["train", "--data", str(corpus / "corpus" / "manifest.json"), "--out", out,
                     "--f-target", "0.01", "--threads", "1", *TRAIN]) == 0


def test_goal_not_met_exits_3_and_keeps_model(corpus, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(corpus / "corpus" / "manifest.json"), "--out", str(out),
                     "--subsample", "4", "--max-stumps", "1", "--fmax", "0.05"]) == 3
    assert "goal not met" in capsys.readouterr().err
    assert any(not node["goal_met"] for node in json.load(open(out))["nodes"])


@pytest.fixture(scope="module")
def blank_corpus(tmp_path_factory):
    """Positive and negative patches that are all the same 16 x 16 gray."""
    root = tmp_path_factory.mktemp("blank")
    patch = np.full((16, 16), 128, dtype=np.uint8)
    names = {"positives": [f"p{i}.pgm" for i in range(10)], "negatives": [f"n{i}.pgm" for i in range(20)]}
    for name in names["positives"] + names["negatives"]:
        write_pgm(str(root / name), patch)
    (root / "manifest.json").write_text(json.dumps(names))
    return root


@pytest.mark.parametrize("method, code", [("gslda", 2), ("gslda --dual-pass", 2), ("adaboost", 3), ("bgslda1", 3)])
def test_train_on_inseparable_classes(blank_corpus, tmp_path, capsys, method, code):
    # GSLDA finds no between-class direction on such classes and reports it as
    # a data error; the boosted methods train a node that misses its goal.
    manifest = str(blank_corpus / "manifest.json")
    argv = ["train", "--data", manifest, "--out", str(tmp_path / "m.json"), "--method", *method.split(),
            "--subsample", "16", "--max-stumps", "2"]
    assert cli.main(argv) == code
    if code == 2:
        assert f"error: cannot train on {manifest}: zero between-class direction" in capsys.readouterr().err


def test_train_on_patches_that_hold_no_feature_exits_2(tmp_path, capsys):
    # No Haar kind fits a 1 x 1 patch, so the pool is empty.
    names = {"positives": [f"p{i}.pgm" for i in range(4)], "negatives": [f"n{i}.pgm" for i in range(6)]}
    for i, name in enumerate(names["positives"] + names["negatives"]):
        write_pgm(str(tmp_path / name), np.full((1, 1), 20 * i, dtype=np.uint8))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(names))
    out = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot train on {manifest}: the feature pool holds no features\n"
    assert not out.exists()  # nothing trained, nothing written
