"""Command-line front end.

Commands: train, detect, eval, toy, synth.  Exit codes: 0 success, 1 usage
(an unknown flag, or a setting out of range from a flag or --config, such as
train --dmin 2, toy --trials 0 or --dual-pass with a method other than gslda:
checked before any input file is read, and reported on one "error: ..."
line), 2 data error (also detect or eval with a model that has no nodes, and
an output file that cannot be written, such as --out, --log or --points in a
missing directory), 3 training finished with a stage goal not met.

train ends its stage log with a {"stop_reason": ...} record.  When the
cascade's false-positive rate F stays above --f-target (the reservoir ran out
of false positives, a node missed its goal, the negatives ran out or the
stage cap was hit), train prints "warning: training stopped (<reason>) at
F=..., above f_target ..." on stderr; the exit code is unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .boosting import BoostingConfig
from .cascade import METHODS, NodeGoal, TrainingPool, train_cascade
from .detect import DetectionTable, ScanProfile, avg_features_per_window, merge_detections, roc_curve, scan_image
from .features import PoolParams, build_pool
from .model_io import (
    ModelFormatError,
    load_model,
    read_ground_truth,
    save_model,
    write_detections_csv,
    write_roc_csv,
    write_stage_log,
)
from .pgm import read_pgm
from .scatter import ScatterConfig

# synth and toy are imported inside the commands that use them: each CLI
# process compiles what it imports, and detect uses neither.  Every other
# module stays imported here, because bench/tracer.py wraps only the package
# modules loaded before it installs.


class UsageError(Exception):
    """A setting is out of range (exit code 1)."""


class DataError(Exception):
    """Input files are missing, unreadable or inconsistent (exit code 2)."""


class GoalNotMet(Exception):
    """Training ended with a stage that missed its rate goal (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_shared(p, seed=False, threads=False):
    """Add --config, plus --seed and --threads (which has no effect) if asked."""
    if seed:
        p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    if threads:
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    p.add_argument("--config", default=None, help="JSON file with flag defaults")


def build_parser() -> _Parser:
    parser = _Parser(prog="gslda-cascade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", parents=[], help="train a cascade from a dataset manifest")
    t.add_argument("--data", required=True, help="dataset manifest JSON")
    t.add_argument("--out", default="model.json", help="model file to write")
    t.add_argument("--log", default=None, help="stage log path (JSONL; default <out>.log.jsonl)")
    t.add_argument("--method", choices=METHODS, default=None)
    t.add_argument("--dmin", type=float, default=None, help="per-stage minimum detection rate")
    t.add_argument("--fmax", type=float, default=None, help="per-stage maximum false-positive rate")
    t.add_argument("--f-target", type=float, default=None, help="overall false-positive goal")
    t.add_argument("--gamma", type=float, default=None, help="negative-class scatter weight")
    t.add_argument("--ridge", type=float, default=None, help="within-class scatter ridge")
    t.add_argument("--asym-k", type=float, default=None, help="asymmetry multiplier ratio")
    t.add_argument("--prune-eps", type=float, default=None, help="stump pruning slack")
    t.add_argument("--dual-pass", action="store_true", help="enable backward elimination (gslda)")
    t.add_argument("--max-stumps", type=int, default=None, help="per-node stump cap")
    t.add_argument("--validation-split", type=float, default=None)
    t.add_argument("--stride", type=int, default=None, help="feature placement stride")
    t.add_argument("--min-size", type=int, default=None, help="minimum feature extent")
    t.add_argument("--subsample", type=int, default=None, help="keep every n-th feature")
    _add_shared(t, seed=True, threads=True)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("detect", help="scan images with a trained model")
    d.add_argument("model", help="model JSON file")
    d.add_argument("images", help="PGM image or directory of PGM images")
    d.add_argument("--out", default="detections.csv")
    d.add_argument("--scale-factor", type=float, default=None, help="pyramid growth (default 1.2)")
    d.add_argument("--step", type=float, default=None, help="base shift in pixels (default 1)")
    d.add_argument("--min-neighbors", type=int, default=None, help="merge group minimum (default 2)")
    d.add_argument("--profile", action="store_true",
                   help="report scan counters, raw windows and detections")
    d.add_argument("--no-merge", action="store_true", help="emit raw windows without merging")
    _add_shared(d, threads=True)
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("eval", help="score a model against ground truth")
    e.add_argument("model")
    e.add_argument("data", help="dataset manifest with ground_truth")
    e.add_argument("--mode", choices=("depth", "threshold"), default="depth")
    e.add_argument("--out", default="roc.csv")
    e.add_argument("--scale-factor", type=float, default=None)
    e.add_argument("--step", type=float, default=None)
    e.add_argument("--min-neighbors", type=int, default=None)
    _add_shared(e)
    e.set_defaults(func=cmd_eval)

    y = sub.add_parser("toy", help="2-d skewed-data comparison of AdaBoost and GSLDA")
    y.add_argument("--n-pos", type=int, default=None)
    y.add_argument("--n-neg", type=int, default=None)
    y.add_argument("--rounds", type=int, default=None, help="weak classifiers per method (default 4)")
    y.add_argument("--trials", type=int, default=None, help="number of seeds (default 1)")
    y.add_argument("--dmin", type=float, default=None, help="detection goal (default 0.99)")
    y.add_argument("--out", default="toy_report.json")
    y.add_argument("--points", default=None, help="CSV of the base-seed points")
    _add_shared(y, seed=True)
    y.set_defaults(func=cmd_toy)

    s = sub.add_parser("synth", help="generate a synthetic face-like corpus")
    s.add_argument("--out", required=True, help="corpus directory")
    s.add_argument("--n-pos", type=int, default=None)
    s.add_argument("--n-neg", type=int, default=None)
    s.add_argument("--size", type=int, default=None, help="patch edge length (default 16)")
    s.add_argument("--reservoir", type=int, default=None, help="background image count")
    s.add_argument("--scenes", type=int, default=None, help="ground-truth scene count")
    _add_shared(s, seed=True)
    s.set_defaults(func=cmd_synth)
    return parser


@contextmanager
def _settings():
    """A TypeError or ValueError raised while checking settings is a UsageError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _check_scan(cfg) -> None:
    with _settings():
        if not cfg["scale_factor"] > 1:
            raise ValueError("scale_factor must exceed 1")
        if not 0 < cfg["step"] < np.inf:
            raise ValueError("step must be a finite number above 0")
        if cfg["min_neighbors"] < 1:
            raise ValueError("min_neighbors must be at least 1")


def _fits_default(value, default) -> bool:
    """A string for a string default, an int for an int default, an int or
    float for a float default; a bool is never a number."""
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(default, float) and isinstance(value, float))


def _merge_config(args, defaults: dict) -> dict:
    """Fill unset flags from --config JSON, then builtin defaults; a config
    value of another type than its default is a UsageError."""
    values = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise DataError(f"config {args.config}: must be a JSON object")
        for key, value in loaded.items():
            if key in values:
                if not _fits_default(value, values[key]):
                    raise UsageError(f"config {args.config}: {key} must have the type of "
                                     f"its default {values[key]!r}, got {value!r}")
                values[key] = value
    for key in values:
        arg = getattr(args, key, None)
        if arg is not None:
            values[key] = arg
    return values


def _load_patches(manifest, rel_paths, what):
    patches = []
    for rel in rel_paths:
        path = manifest.path(rel)
        try:
            patches.append(read_pgm(path))
        except (OSError, ValueError) as exc:
            raise DataError(f"{what} {path}: {exc}")
    return patches


def cmd_train(args) -> int:
    cfg = _merge_config(args, {
        "method": "gslda", "dmin": 0.995, "fmax": 0.5, "f_target": 0.01,
        "gamma": 1.0, "ridge": 1e-6, "asym_k": 2.0, "prune_eps": 0.1,
        "max_stumps": 200, "validation_split": 0.2,
        "stride": 1, "min_size": 1, "subsample": 1, "seed": 0,
    })
    with _settings():
        if cfg["method"] not in METHODS:  # --config bypasses the flag's choices
            raise ValueError(f"method must be one of {METHODS}")
        if args.dual_pass and cfg["method"] != "gslda":
            raise ValueError(f"--dual-pass applies only to method gslda, not {cfg['method']}")
        goal = NodeGoal(d_min=cfg["dmin"], f_max=cfg["fmax"], max_stumps=cfg["max_stumps"])
        scatter_cfg = ScatterConfig(gamma=cfg["gamma"], ridge=cfg["ridge"], dual_pass=args.dual_pass)
        boost_cfg = BoostingConfig(asym_k=cfg["asym_k"], prune_epsilon=cfg["prune_eps"])
        if not (0 <= cfg["f_target"] <= 1 and 0 <= cfg["validation_split"] < 1):
            raise ValueError("f_target must be in [0, 1] and validation_split in [0, 1)")
        if min(cfg["stride"], cfg["min_size"], cfg["subsample"]) < 1:
            raise ValueError("stride, min_size and subsample must be at least 1")
    from .synth import load_manifest

    try:
        manifest = load_manifest(args.data)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"manifest {args.data}: {exc}")
    positives = _load_patches(manifest, manifest.positives, "positive patch")
    negatives = _load_patches(manifest, manifest.negatives, "negative patch")
    reservoir = _load_patches(manifest, manifest.negative_reservoir, "reservoir image")
    if not positives:
        raise DataError("manifest lists no positive patches")
    shape = positives[0].shape
    if shape[0] != shape[1]:
        raise DataError(f"positive patches must be square, got {shape}")
    for rel, patch in zip(manifest.positives + manifest.negatives, positives + negatives):
        if patch.shape != shape:
            raise DataError(f"patch {rel}: size {patch.shape} != {shape}")
    base_window = shape[0]

    with _settings():  # --min-size larger than the corpus's patches
        feature_pool = build_pool(PoolParams(base_window=base_window, stride=cfg["stride"],
                                             min_size=cfg["min_size"], subsample=cfg["subsample"]))
    pool = TrainingPool(np.stack(positives), np.stack(negatives) if negatives else np.zeros((0, *shape), dtype=np.uint8),
                        reservoir, validation_split=cfg["validation_split"])
    model = train_cascade(
        pool, goal, cfg["f_target"], cfg["method"], feature_pool,
        scatter_cfg=scatter_cfg, boost_cfg=boost_cfg, seed=cfg["seed"],
    )
    model.metadata.update({
        "f_target": cfg["f_target"], "gamma": cfg["gamma"], "asym_k": cfg["asym_k"],
        "prune_epsilon": cfg["prune_eps"], "dual_pass": bool(args.dual_pass),
        "validation_split": cfg["validation_split"],
    })
    save_model(model, args.out)
    log_path = args.log or args.out + ".log.jsonl"
    write_stage_log(model.stage_log, log_path)
    for entry in model.stage_log:
        print(json.dumps(entry, sort_keys=True))
    print(f"model written to {args.out} ({len(model.nodes)} stages)")
    f_cum = model.cumulative[-1][1] if model.cumulative else 1.0
    if f_cum > cfg["f_target"]:
        print(f"warning: training stopped ({model.stage_log[-1]['stop_reason']}) at "
              f"F={f_cum:.6g}, above f_target {cfg['f_target']:.6g}", file=sys.stderr)
    elif not model.nodes:
        print("warning: no stages trained (f_target already satisfied)", file=sys.stderr)
    if any(not n.goal_met for n in model.nodes):
        raise GoalNotMet("a stage missed its rate goal; model saved with achieved rates")
    return 0


def _image_list(path) -> list[str]:
    if os.path.isdir(path):
        return [os.path.join(path, name) for name in sorted(os.listdir(path))
                if name.lower().endswith(".pgm")]
    return [path]


def cmd_detect(args) -> int:
    # "threads" has no effect; it stays a type-checked --config key.
    cfg = _merge_config(args, {"scale_factor": 1.2, "step": 1.0, "min_neighbors": 2, "threads": 1})
    _check_scan(cfg)
    try:
        model = load_model(args.model)
    except (OSError, ModelFormatError) as exc:
        raise DataError(str(exc))
    if not model.nodes:
        raise DataError(f"cannot detect with {args.model}: model has no nodes")
    paths = _image_list(args.images)
    if not paths:
        raise DataError(f"no PGM images under {args.images}")

    rows = DetectionTable()
    total = ScanProfile()
    failures = 0
    for path in paths:
        try:
            wins = scan_image(model, read_pgm(path), cfg["scale_factor"], cfg["step"], profile=total)
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if not args.no_merge:
            wins = merge_detections(wins, cfg["min_neighbors"])
        image_id = os.path.basename(path) if len(paths) > 1 else path
        rows.images.append((image_id, wins))
    if failures == len(paths):
        raise DataError("no readable images")
    write_detections_csv(rows, args.out)
    print(f"{len(rows)} detections written to {args.out}")
    if args.profile:
        avg = avg_features_per_window(total) if total.windows_scanned else float("nan")
        print(f"profile: windows_scanned={total.windows_scanned} "
              f"feature_evals={total.feature_evals} avg_features_per_window={avg:.6g} "
              f"raw_windows={total.raw_windows} detections={len(rows)}")
    return 0


def cmd_eval(args) -> int:
    cfg = _merge_config(args, {"scale_factor": 1.2, "step": 1.0, "min_neighbors": 2})
    _check_scan(cfg)
    from .synth import load_manifest

    try:
        model = load_model(args.model)
        manifest = load_manifest(args.data)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc))
    if manifest.ground_truth is None:
        raise DataError("manifest has no ground_truth CSV")
    try:
        truths = read_ground_truth(manifest.path(manifest.ground_truth))
    except (OSError, ValueError) as exc:
        raise DataError(str(exc))
    image_ids = list(dict.fromkeys(t.image_id for t in truths))
    images = list(zip(image_ids, _load_patches(manifest, image_ids, "image")))
    try:  # a model without nodes or no ground-truth boxes
        points, summary = roc_curve(model, images, truths, mode=args.mode,
                                    scale_factor=cfg["scale_factor"], step=cfg["step"],
                                    min_neighbors=cfg["min_neighbors"])
    except ValueError as exc:
        raise DataError(f"cannot evaluate {args.model}: {exc}")
    write_roc_csv(points, args.out)
    print(f"roc written to {args.out} ({len(points)} points, mode={args.mode})")
    print(f"full-depth: TP={summary.true_positives} FP={summary.false_positives} "
          f"missed={summary.missed} truths={len(truths)}")
    return 0


def cmd_toy(args) -> int:
    cfg = _merge_config(args, {"n_pos": 100, "n_neg": 2000, "rounds": 4, "trials": 1,
                               "dmin": 0.99, "seed": 0})
    from .synth import ToyDatasetSpec, generate_toy
    from .toy import METHODS as TOY_METHODS, run_toy_experiment

    with _settings():  # the toy reads no input, so any ValueError is a bad setting
        spec = ToyDatasetSpec(n_pos=cfg["n_pos"], n_neg=cfg["n_neg"], seed=cfg["seed"])
        report = run_toy_experiment(spec, rounds=cfg["rounds"], trials=cfg["trials"], d_min=cfg["dmin"])
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.points:
        points, labels = generate_toy(spec)
        with open(args.points, "w") as fh:
            fh.write("x,y,label\n")
            for (x, y), label in zip(points, labels):
                fh.write(f"{float(x)!r},{float(y)!r},{label}\n")
    for row in report["per_trial"]:
        parts = [f"seed={row['seed']}"]
        for method in TOY_METHODS:
            r = row[method]
            parts.append(f"{method}: fp={r['false_positives']} d={r['detection_rate']:.3f}")
        print("  ".join(parts))
    print(f"gslda_win_fraction={report['gslda_win_fraction']:.2f} over {cfg['trials']} trials")
    print(f"report written to {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = _merge_config(args, {"n_pos": 1000, "n_neg": 1000, "size": 16,
                               "reservoir": 10, "scenes": 6, "seed": 0})
    with _settings():
        if cfg["size"] < 8:
            raise ValueError("size must be at least 8")
        if min(cfg["n_pos"], cfg["n_neg"], cfg["reservoir"], cfg["scenes"]) < 0:
            raise ValueError("n_pos, n_neg, reservoir and scenes must be at least 0")
    from .synth import generate_synthetic_faces

    try:
        manifest = generate_synthetic_faces(
            args.out, seed=cfg["seed"], n_pos=cfg["n_pos"], n_neg=cfg["n_neg"],
            size=cfg["size"], n_reservoir=cfg["reservoir"], n_scenes=cfg["scenes"],
        )
    except (OSError, ValueError) as exc:
        raise DataError(str(exc))
    print(f"corpus written under {manifest.root} "
          f"({len(manifest.positives)} positives, {len(manifest.negatives)} negatives)")
    print(f"manifest: {os.path.join(manifest.root, 'manifest.json')}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DataError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2
    except GoalNotMet as exc:
        print(f"goal not met: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
