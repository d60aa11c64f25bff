"""Which package callables the traced run wraps, and the per-layer metrics
derived from their spans and return values.  A layer is a module of
``gslda_cascade``; counters marked computed come from array shapes, not from
measurement.
"""

from __future__ import annotations

from tracer import Target, Tracer

MODULES = ("cli", "features", "stumps", "scatter", "boosting", "cascade", "detect", "model_io", "pgm")


def _extract(tracer, args, values):
    tracer.counters["features.value_bytes"] += values.nbytes  # computed: M x N x 8


def _stump_trainer(tracer, args, _):
    import numpy as np

    trainer = args[0]  # computed: every array the trainer holds after the sort
    tracer.counters["stumps.table_bytes"] += sum(
        v.nbytes for v in vars(trainer).values() if isinstance(v, np.ndarray))


def _prune(tracer, args, result):
    tracer.counters["boosting.pruned_from"] += len(args[0])
    tracer.counters["boosting.kept"] += len(result[0])


def _decide_window(tracer, args, result):
    if tracer.within("cascade.bootstrap"):
        accepted, _, _, evals = result
        tracer.counters["cascade.bootstrap_windows"] += 1
        tracer.counters["cascade.bootstrap_accepted"] += bool(accepted)
        tracer.counters["cascade.bootstrap_evals"] += evals


def _merge(tracer, args, _):
    n = len(args[0])
    tracer.counters["detect.raw_windows"] += n
    tracer.counters["detect.merge_pairs"] += n * (n - 1) // 2  # computed


def _write_detections(tracer, args, _):
    tracer.counters["model_io.rows_written"] += len(args[0])


TARGETS = [
    Target("cli.main", "cli", "main"),
    Target("features.extract", "features", "FeatureExtractor.extract", _extract),
    Target("stumps.sort", "stumps", "StumpTrainer.__init__", _stump_trainer),
    Target("stumps.train_all", "stumps", "StumpTrainer.train_all"),
    Target("scatter.build", "scatter", "GreedySelector.__init__"),
    Target("scatter.step", "scatter", "GreedySelector.step"),
    Target("boosting.prune", "boosting", "prune_stumps", _prune),
    Target("cascade.train_cascade", "cascade", "train_cascade"),
    Target("cascade.train_node", "cascade", "train_node"),
    Target("cascade.retune", "cascade", "_NodeFit.retune"),
    Target("cascade.bootstrap", "cascade", "bootstrap_negatives"),
    # Called once per reservoir window: counted, not spanned.
    Target("cascade.decide_window", "cascade", "CascadeModel.decide_window", _decide_window, span=False),
    Target("detect.scan", "detect", "scan_image"),
    Target("detect.merge", "detect", "merge_detections", _merge),
    Target("model_io.write_detections", "model_io", "write_detections_csv", _write_detections),
    Target("model_io.save", "model_io", "save_model"),
    Target("model_io.load", "model_io", "load_model"),
    Target("pgm.read", "pgm", "read_pgm"),
]

# Span totals reported as <name>_s.
TIMED = ("features.extract", "stumps.sort", "stumps.train_all", "scatter.build", "scatter.step",
         "boosting.prune", "cascade.train_node", "cascade.retune", "cascade.bootstrap", "detect.scan",
         "detect.merge", "model_io.write_detections", "model_io.save", "model_io.load", "pgm.read")

UNITS = {
    **{f"{name}_s": "s" for name in TIMED},
    **{f"{module}.self_s": "s" for module in MODULES},
    "cascade.train_node_self_s": "s",
    "features.value_bytes": "bytes",
    "stumps.table_bytes": "bytes",
    "stumps.train_all_calls": "count",
    "scatter.builds": "count",
    "scatter.steps": "count",
    "boosting.prune_kept_frac": "ratio",
    "cascade.bootstrap_windows": "count",
    "cascade.bootstrap_accept_frac": "ratio",
    "cascade.bootstrap_evals_per_window": "count",
    "detect.windows_scanned": "count",
    "detect.raw_windows": "count",
    "detect.merge_pairs": "count",
    "model_io.rows_written": "count",
    "trace.missing": "count",
    "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, profile: dict) -> dict:
    """Per-layer metrics of one traced CLI run; ``profile`` holds the
    counters its ``detect --profile`` line printed (empty for train)."""
    spans = tracer.summary()
    c = tracer.counters

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {f"{name}_s": total(name) for name in TIMED}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == module)
    out.update({
        "cascade.train_node_self_s": spans.get("cascade.train_node", {}).get("self_s", 0.0),
        "features.value_bytes": c["features.value_bytes"],
        "stumps.table_bytes": c["stumps.table_bytes"],
        "stumps.train_all_calls": calls("stumps.train_all"),
        "scatter.builds": calls("scatter.build"),
        "scatter.steps": calls("scatter.step"),
        "boosting.prune_kept_frac": _ratio(c["boosting.kept"], c["boosting.pruned_from"]),
        "cascade.bootstrap_windows": c["cascade.bootstrap_windows"],
        "cascade.bootstrap_accept_frac": _ratio(c["cascade.bootstrap_accepted"], c["cascade.bootstrap_windows"]),
        "cascade.bootstrap_evals_per_window": _ratio(c["cascade.bootstrap_evals"], c["cascade.bootstrap_windows"]),
        "detect.windows_scanned": profile.get("windows_scanned", 0),
        "detect.raw_windows": c["detect.raw_windows"],
        "detect.merge_pairs": c["detect.merge_pairs"],
        "model_io.rows_written": c["model_io.rows_written"],
        "trace.missing": len(tracer.missing),
    })
    return out


def largest(values: dict) -> str:
    """The wrapped call with the largest total time, excluding whole-command
    spans (``cli.main``, ``cascade.train_cascade``, ``cascade.train_node``)."""
    leaves = [f"{name}_s" for name in TIMED if name != "cascade.train_node"]
    return max(leaves, key=lambda k: values.get(k, 0.0))
