"""Benchmark of the gslda-cascade CLI: four workloads on one seeded synthetic corpus.

Usage (from the repository root):

    python3 bench/run.py --workload train-gslda --seed 1 --seconds 20 --trace 0

Each run synthesizes the corpus (and, for the detect workloads, trains their
model and tiles their images) several times, checks that set-up is
deterministic, then runs the workload's CLI command in fresh processes until
``--seconds`` have passed.  Every command run is one operation: it fails when
the process exits with a usage or data error, or when its outputs fail their
checks (the model loads, detections parse and lie inside their image, output
digests match the first run's).  The last stdout line is the JSON result; the
line before it is a record with the samples, raw wall times, digests and
quality numbers.

``--trace 0`` reports the end-to-end metrics.  Each CLI command runs in a
child of a small helper process, which reports its wall time and peak RSS;
a fixed reference program runs before each command, and ``wall_rel`` is the
median ratio of the two wall times.  ``--trace 1`` runs the command
in-process, alternating untraced and traced repeats, and reports the
per-layer metrics of ``layers.py``; their difference is the tracing
overhead.  Self-test: ``python3 -m pytest bench``.

The corpus is fixed (corpus seed 0, the measurement corpus scaled down) and
``--seed`` only arranges the tiles of the scan-large images: per-corpus-seed
training time and cascade depth vary several-fold, which would swamp the
bounds, and seed 0 keeps the silent bootstrap-exhaustion stop visible.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from tracer import Tracer

# One BLAS thread, here and in every child: the workloads are single-threaded
# by definition and BLAS thread scheduling only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CORPUS_SEED = 0
SETUP_REPEATS = 3
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# Exit codes that mean the command itself failed (usage or traceback, data
# error); any other code (0, 3 = a stage missed its goal, or a later
# documented stop code) is judged by the outputs alone.
FAILING_EXIT_CODES = (1, 2)

SIZES = {
    # The measurement corpus (n_pos 400, n_neg 800, reservoir 6, scenes 4)
    # scaled down so one command takes about a second.
    "full": dict(n_pos=300, n_neg=600, reservoir=6, scenes=2, subsample=16,
                 max_stumps=60, f_target=0.001, mosaics=3, mosaic_side=480),
    "tiny": dict(n_pos=40, n_neg=80, reservoir=2, scenes=1, subsample=32,
                 max_stumps=8, f_target=0.01, mosaics=1, mosaic_side=192),
}

WORKLOADS = ("train-gslda", "train-bgslda", "detect-scenes", "scan-large")

END_TO_END = {
    "setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB", "ok_rate": "ratio",
    "final_fpr": "ratio", "final_dr": "ratio", "haar_evals_per_window": "count",
    "tp": "count", "fp": "count",
}


# A fixed program, independent of the package, run before every timed
# command: wall_rel is the command's wall time over this program's, which
# cancels the host's speed swings (measured on a 2-vCPU VM: the spread of
# 20-second medians fell from 0.14 for raw wall time to 0.04).
REFERENCE = r"""
import numpy as np
values = np.random.default_rng(0).random((300, 2000))
for _ in range(3):
    np.argsort(values, axis=1, kind="stable")
acc = 0
for i in range(600000):
    acc += i * i % 7
"""


def failing_exit(code: int) -> bool:
    return code in FAILING_EXIT_CODES or code < 0  # negative: killed by a signal


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under root except logs, which hold timings."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and not p.name.endswith((".log", ".log.jsonl"))):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- set-up

def train_argv(size, manifest, out, method):
    return ["train", "--data", manifest, "--out", out, "--method", method,
            "--subsample", size["subsample"], "--max-stumps", size["max_stumps"],
            "--f-target", size["f_target"], "--threads", 1]


def tile_mosaics(size, corpus: Path, out: Path, truth_csv: Path, seed: int) -> None:
    """Large images tiled from the corpus's reservoir and scene images.

    Every mosaic holds the same multiset of tiles; the seed only permutes
    their positions.  Truth boxes of scene tiles move with them.
    """
    import numpy as np
    from gslda_cascade.model_io import read_ground_truth
    from gslda_cascade.pgm import read_pgm, write_pgm

    manifest = json.loads((corpus / "manifest.json").read_text())
    truths = read_ground_truth(str(corpus / manifest["ground_truth"]))
    sources = manifest["negative_reservoir"] + sorted({t.image_id for t in truths})
    images = {rel: read_pgm(corpus / rel) for rel in sources}
    tile = images[sources[0]].shape[0]
    per_side = size["mosaic_side"] // tile
    tiles = [sources[i % len(sources)] for i in range(per_side * per_side)]
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True)
    rows = []
    for m in range(size["mosaics"]):
        name = f"m{m:02d}.pgm"
        canvas = np.zeros((per_side * tile, per_side * tile), dtype=np.uint8)
        for slot, k in enumerate(rng.permutation(len(tiles))):
            rel = tiles[k]
            ty, tx = divmod(slot, per_side)
            canvas[ty * tile:(ty + 1) * tile, tx * tile:(tx + 1) * tile] = images[rel]
            rows.extend((name, tx * tile + t.x, ty * tile + t.y, t.w, t.h)
                        for t in truths if t.image_id == rel)
        write_pgm(out / name, canvas)
    with open(truth_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "x", "y", "w", "h"])
        writer.writerows(rows)


def set_up(spawner, workload, size, seed, where: Path) -> dict:
    """Synthesize the corpus with the CLI into the new directory ``where``;
    detect workloads also train their model with it and tile their images."""
    where.mkdir(parents=True)
    corpus = where / "corpus"
    # images/truth: what detect scans and is scored against (train workloads
    # score their model on the scenes too).
    env = {"corpus": corpus, "manifest": corpus / "manifest.json",
           "images": corpus / "scenes", "truth": corpus / "truth.csv"}
    steps = [["synth", "--out", corpus, "--n-pos", size["n_pos"], "--n-neg", size["n_neg"],
              "--reservoir", size["reservoir"], "--scenes", size["scenes"], "--seed", CORPUS_SEED]]
    if workload in ("detect-scenes", "scan-large"):
        env["model"] = where / "model.json"
        steps.append(train_argv(size, env["manifest"], env["model"], "gslda"))
    for argv in steps:
        child = spawner.run(argv, where)
        if failing_exit(child["code"]):
            raise RuntimeError(f"set-up {argv[0]} exited {child['code']}: {child['stdout'][-500:]}")
    if workload == "scan-large":
        env["images"], env["truth"] = where / "mosaics", where / "mosaic_truth.csv"
        tile_mosaics(size, corpus, env["images"], env["truth"], seed)
    return env


# ------------------------------------------------------------- workloads

def workload_argv(workload, size, env, out: Path):
    if workload == "train-gslda":
        return train_argv(size, env["manifest"], out / "model.json", "gslda")
    if workload == "train-bgslda":
        return train_argv(size, env["manifest"], out / "model.json", "bgslda1")
    argv = ["detect", env["model"], env["images"], "--out", out / "detections.csv", "--profile", "--threads", 1]
    return argv + (["--no-merge"] if workload == "scan-large" else [])


def output_path(workload, out: Path) -> Path:
    return out / ("model.json" if workload.startswith("train") else "detections.csv")


SPAWNER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "w") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=fh, stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        timer.cancel()
    print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": os.waitstatus_to_exitcode(status)}), flush=True)
"""


class Spawner:
    """Runs CLI commands from a small helper process started before this one
    imports numpy.  Linux counts the spawning process's peak resident set in
    a child's ``ru_maxrss``, so children of the helper report their own peak.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, cwd: Path, program=("-m", "gslda_cascade.cli")) -> dict:
        """One CLI process (or another Python program): wall time, peak RSS,
        exit code and its output."""
        log = cwd / "child.log"
        request = {"argv": [sys.executable, *program, *map(str, argv)], "cwd": str(cwd),
                   "log": str(log), "timeout": CHILD_TIMEOUT_S, "env": dict(os.environ, PYTHONPATH=str(SRC))}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner process ended")
        return {**json.loads(reply), "stdout": log.read_text()}


def parse_profile(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("profile:"):
            return {k: float(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
    raise ValueError("no profile line in detect output")


def image_sizes(folder: Path) -> dict:
    from gslda_cascade.pgm import read_pgm

    return {p.name: read_pgm(p).shape for p in folder.glob("*.pgm")}


def read_detections(path: Path, sizes: dict) -> list:
    """Parse the detections CSV; every window must lie inside its image."""
    from gslda_cascade.detect import DetectionWindow

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["image_id", "x", "y", "side", "score"]:
            raise ValueError("unexpected detections header")
        for image_id, x, y, side, score in reader:
            name = os.path.basename(image_id)
            win = DetectionWindow(int(x), int(y), int(side), float(score), 0)
            h, w = sizes[name]
            if win.x < 0 or win.y < 0 or win.side < 1 or win.x + win.side > w or win.y + win.side > h:
                raise ValueError(f"window {image_id},{x},{y},{side} outside its image")
            rows.append((name, win))
    return rows


def score(detections, truth_csv: Path) -> dict:
    """tp/fp with detect.match_detections, and the tp + missed == truths check."""
    from gslda_cascade.detect import GroundTruthBox, match_detections
    from gslda_cascade.model_io import read_ground_truth

    truths = [GroundTruthBox(os.path.basename(t.image_id), t.x, t.y, t.w, t.h)
              for t in read_ground_truth(str(truth_csv))]
    result = match_detections(detections, truths)
    return {"tp": result.true_positives, "fp": result.false_positives, "missed": result.missed,
            "truths": len(truths), "consistent": result.true_positives + result.missed == len(truths)}


def check_output(workload, out: Path, code: int, stdout: str, sizes) -> str:
    """Judge one command run by its outputs; returns the output digest."""
    from gslda_cascade.model_io import load_model

    if failing_exit(code):
        raise ValueError(f"exit code {code}")
    path = output_path(workload, out)
    if workload.startswith("train"):
        if not load_model(str(path)).nodes:
            raise ValueError("model has no stages")
    else:
        read_detections(path, sizes)
        parse_profile(stdout)
    return sha256(path)


def quality(spawner, workload, env, out: Path, stdout: str, sizes) -> dict:
    """Quality and cascade-cost numbers of one checked output, untimed."""
    from gslda_cascade.model_io import load_model

    model_path = output_path(workload, out) if workload.startswith("train") else env["model"]
    model = load_model(str(model_path))
    q = {"stages": len(model.nodes), "f_target": model.f_target,
         "final_dr": model.cumulative[-1][0], "final_fpr": model.cumulative[-1][1]}
    det = output_path("detect", out)
    if workload.startswith("train"):
        # Score the trained model on the corpus scenes, as detect-scenes does.
        det = out / "scenes" / "detections.csv"
        det.parent.mkdir(exist_ok=True)
        stdout = spawner.run(["detect", model_path, env["images"], "--out", det, "--profile", "--threads", 1],
                             det.parent)["stdout"]
    profile = parse_profile(stdout)
    q["haar_evals_per_window"] = profile["feature_evals"] / profile["windows_scanned"]
    q["windows_scanned"] = int(profile["windows_scanned"])
    q.update(score(read_detections(det, sizes), env["truth"]))
    return q


# ------------------------------------------------------------------- runs

def timed_setups(spawner, workload, size, seed, base: Path):
    """SETUP_REPEATS set-ups, each into its own directory so that no timed
    set-up deletes files; all must produce identical files."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        os.sync()  # start each set-up with no write-back (of deleted or earlier files) pending
        started = time.perf_counter()
        env = set_up(spawner, workload, size, seed, base / f"setup{i}")
        times.append(time.perf_counter() - started)
        digests.append(tree_digest(base / f"setup{i}"))
    return env, times, digests


def run_untraced(spawner, workload, size, seed, seconds, base: Path) -> tuple[dict, dict]:
    env, setup_times, setup_digests = timed_setups(spawner, workload, size, seed, base)
    failures = [f"set-up {i} differs" for i, d in enumerate(setup_digests) if d != setup_digests[0]]
    sizes = image_sizes(env["images"])
    out = base / "out"
    out.mkdir()
    argv = workload_argv(workload, size, env, out)
    samples, refs, digests, q = [], [], [], None
    started = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - started < seconds:
        output_path(workload, out).unlink(missing_ok=True)
        ref = spawner.run([], out, program=("-c", REFERENCE))
        if ref["code"] != 0:
            failures.append(f"reference program exited {ref['code']}")
        refs.append(ref["wall_s"])
        child = spawner.run(argv, out)
        samples.append(child)
        try:
            digests.append(check_output(workload, out, child["code"], child["stdout"], sizes))
            if q is None:
                q = quality(spawner, workload, env, out, child["stdout"], sizes)
                if not q["consistent"]:
                    failures.append("tp + missed != truths")
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"run {len(samples)}: {exc}")
            digests.append(None)
    failures += [f"run {i + 1}: digest differs" for i, d in enumerate(digests)
                 if d is not None and d != digests[0]]
    attempted = SETUP_REPEATS + len(samples)
    failed = min(attempted, len(failures))
    walls = [s["wall_s"] for s in samples]
    q = q or {}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_rel": statistics.median(w / r for w, r in zip(walls, refs)),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "ok_rate": (attempted - failed) / attempted,
        "final_fpr": q.get("final_fpr", 0.0), "final_dr": q.get("final_dr", 0.0),
        "haar_evals_per_window": q.get("haar_evals_per_window", 0.0),
        "tp": q.get("tp", 0), "fp": q.get("fp", 0),
    }
    record = {
        "samples": len(samples), "wall_s_median": statistics.median(walls), "wall_s": walls,
        "reference_s": refs, "setup_s": setup_times,
        "exit_codes": sorted({s["code"] for s in samples}),
        "digests": {"setup": setup_digests[0], "output": digests[0] if digests else None},
        "quality": q, "failures": failures,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def run_traced(spawner, workload, size, seed, seconds, base: Path) -> tuple[dict, dict]:
    from gslda_cascade import cli

    env = set_up(spawner, workload, size, seed, base / "setup")
    sizes = image_sizes(env["images"])
    out = base / "out"
    out.mkdir()
    argv = [str(a) for a in workload_argv(workload, size, env, out)]
    plain, traced, per_layer, digests, failures = [], [], [], [], []
    started = time.perf_counter()
    while len(traced) < MIN_SAMPLES or time.perf_counter() - started < seconds:
        for with_trace in (False, True):
            output_path(workload, out).unlink(missing_ok=True)
            tracer = Tracer()
            stdout = io.StringIO()
            ctx = tracer.installed(layers.TARGETS) if with_trace else contextlib.nullcontext()
            with ctx, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed operation, as exit code 1 is untraced
                    traceback.print_exc(file=sys.__stderr__)
                    code = 1
                wall = time.perf_counter() - t0
            try:
                digests.append(check_output(workload, out, code, stdout.getvalue(), sizes))
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"{'traced' if with_trace else 'untraced'} run: {exc}")
                digests.append(None)
            if with_trace:
                traced.append(wall)
                text = stdout.getvalue()
                per_layer.append(layers.metrics(tracer, parse_profile(text) if "profile:" in text else {}))
            else:
                plain.append(wall)
    failures += ["digest differs" for d in digests if d is not None and d != digests[0]]
    (base / "spans.json").write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n")
    names = per_layer[0].keys()
    metrics = {name: statistics.median(m[name] for m in per_layer) for name in names}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    attempted = len(plain) + len(traced)
    record = {"samples": len(traced), "traced_wall_s": traced, "untraced_wall_s": plain,
              "missing": tracer.missing, "digests": {"output": digests[0]}, "failures": failures,
              "largest_layer": layers.largest(metrics)}
    return {"attempted": attempted, "failed": min(attempted, len(failures)), "metrics": metrics}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="corpus size; 'tiny' is the self-test's")
    parser.add_argument("--work", default=str(WORK), help="scratch directory inside the checkout")
    args = parser.parse_args(argv)
    if not (SRC / "gslda_cascade" / "cli.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    base = Path(args.work) / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    size = SIZES[args.size]
    run = run_traced if args.trace else run_untraced
    with Spawner() as spawner:
        result, record = run(spawner, args.workload, size, args.seed, args.seconds, base)
    units = layers.UNITS if args.trace else END_TO_END
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, size=args.size)
    (base / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
