"""The 2-D skewed-data experiment: AdaBoost vs GSLDA feature selection.

Both methods pick a small number of weak classifiers from the same pool of
axis-aligned stumps; the comparison is the number of false positives at a
threshold keeping at least 99% detection.  The counts are those of the
trained node's own decisions on the samples (train_node's accepted).
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from .cascade import NodeGoal, train_node
from .synth import ToyDatasetSpec, axis_stump_pool, generate_toy

#: The two compared selection methods, in report order.
METHODS = ("adaboost", "gslda")


def describe_stumps(node, descriptors) -> list[dict]:
    out = []
    for order, stump in enumerate(node.stumps):
        axis, thr = descriptors[stump.feature_id]
        if np.isinf(stump.threshold):
            # degenerate retrained stump: constant vote
            out.append({"order": order, "axis": "const", "threshold": None,
                        "vote": stump.polarity if stump.threshold == -np.inf else -stump.polarity})
        else:
            out.append({"order": order, "axis": int(axis), "threshold": thr,
                        "polarity": int(stump.polarity)})
    return out


def run_toy_experiment(
    spec: ToyDatasetSpec,
    rounds: int = 4,
    trials: int = 1,
    d_min: float = 0.99,
) -> dict:
    """Repeat the toy comparison over consecutive seeds.

    The report carries the per-trial false-positive counts, the stump
    geometry of the base trial for plotting, and the fraction of trials in
    which GSLDA produced no more false positives than AdaBoost.
    """
    if rounds < 1 or trials < 1:
        raise ValueError("rounds and trials must be at least 1")
    goal = NodeGoal(d_min=d_min, f_max=0.5)
    per_trial = []
    base_descriptions = {}
    for t in range(trials):
        tspec = replace(spec, seed=spec.seed + t)
        points, labels = generate_toy(tspec)
        values, descriptors = axis_stump_pool(points)
        row = {"seed": tspec.seed}
        for method in METHODS:
            node, accepted = train_node(values, labels, goal, method, fixed_rounds=rounds)
            row[method] = {
                "false_positives": int(np.sum(accepted & (labels < 0))),
                "detection_rate": float(np.mean(accepted[labels > 0])),
                "n_stumps": len(node.stumps),
            }
            if t == 0:
                base_descriptions[method] = describe_stumps(node, descriptors)
        per_trial.append(row)
    wins = sum(1 for row in per_trial
               if row["gslda"]["false_positives"] <= row["adaboost"]["false_positives"])
    return {
        "spec": asdict(spec),
        "rounds": rounds,
        "trials": trials,
        "d_min": d_min,
        "per_trial": per_trial,
        "stumps": base_descriptions,
        "gslda_win_fraction": wins / trials,
    }
