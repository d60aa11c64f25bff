from dataclasses import replace

import numpy as np
import pytest

from gslda_cascade.cascade import NodeClassifier
from gslda_cascade.stumps import DecisionStump
from gslda_cascade.synth import ToyDatasetSpec
from gslda_cascade.toy import describe_stumps, run_toy_experiment


def test_describe_stumps_constant_votes_for_infinite_thresholds():
    node = NodeClassifier(
        [DecisionStump(0, -np.inf, 1), DecisionStump(1, np.inf, 1), DecisionStump(2, 0.5, -1)],
        [1.0, 1.0, 1.0], 0.0, "gslda",
    )
    descriptors = [(0, 0.1), (1, 0.2), (0, 0.5)]
    assert describe_stumps(node, descriptors) == [
        {"order": 0, "axis": "const", "threshold": None, "vote": 1},
        {"order": 1, "axis": "const", "threshold": None, "vote": -1},
        {"order": 2, "axis": 0, "threshold": 0.5, "polarity": -1},
    ]


SPEC = ToyDatasetSpec(n_pos=20, n_neg=120, seed=5)


@pytest.fixture(scope="module")
def report():
    return run_toy_experiment(SPEC, rounds=2, trials=3)


def test_trials_use_consecutive_seeds(report):
    assert [row["seed"] for row in report["per_trial"]] == [5, 6, 7]
    single = run_toy_experiment(replace(SPEC, seed=6), rounds=2, trials=1)
    assert single["per_trial"][0] == report["per_trial"][1]


def test_win_fraction(report):
    wins = sum(row["gslda"]["false_positives"] <= row["adaboost"]["false_positives"]
               for row in report["per_trial"])
    assert 0.0 <= report["gslda_win_fraction"] <= 1.0
    assert report["gslda_win_fraction"] == wins / 3
