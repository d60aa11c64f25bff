"""Decision stumps on scalar feature responses.

A stump thresholds one feature and outputs +/-1; training minimizes weighted
0/1 error with a single sorted sweep, so re-training the whole candidate pool
under fresh boosting weights is one vectorized pass over a pre-sorted table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DecisionStump:
    """Thresholded single-feature classifier: polarity * sign(v - threshold).

    sign(0) is +1, so values equal to the threshold land on the polarity side.
    """

    feature_id: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be -1 or +1")

    def responses(self, values: np.ndarray) -> np.ndarray:
        out = np.where(np.asarray(values) >= self.threshold, 1, -1).astype(np.int8)
        return out * np.int8(self.polarity)


@dataclass
class StumpTable:
    """One trained stump per candidate feature plus cached outputs.

    responses[j, i] is stump j's output on sample i; errors[j] its weighted
    error under the weights the table was built with.  labels are kept so the
    table is self-contained for edge/pruning computations.
    """

    stumps: list[DecisionStump]
    responses: np.ndarray  # (M, N) int8 in {-1, +1}
    errors: np.ndarray  # (M,)
    labels: np.ndarray  # (N,) in {-1, +1}

    def __len__(self) -> int:
        return len(self.stumps)


class StumpTrainer:
    """Pre-sorted stump training over a fixed (M, N) feature-value table.

    Sorting happens once; train_all under new sample weights is O(M N) per
    call.  Candidate thresholds sit at midpoints of consecutive distinct
    values plus -inf/+inf sentinels; ties break toward the smaller threshold,
    then polarity +1.
    """

    def __init__(self, feature_values: np.ndarray, labels: np.ndarray):
        values = np.atleast_2d(np.asarray(feature_values, dtype=np.float64))
        labels = np.asarray(labels)
        if values.shape[1] != labels.shape[0]:
            raise ValueError("feature_values columns must match labels length")
        if values.shape[1] < 2:
            raise ValueError("need at least two samples")
        self.values = values
        self.labels = labels
        self.order = np.argsort(values, axis=1, kind="stable")
        self.sorted_values = np.take_along_axis(values, self.order, axis=1)
        self.sorted_labels = labels[self.order]
        # Interior threshold slot t is usable only between distinct values.
        self._interior_ok = self.sorted_values[:, 1:] != self.sorted_values[:, :-1]

    def train_all(self, weights: np.ndarray) -> StumpTable:
        m, n = self.values.shape
        su = np.asarray(weights, dtype=np.float64)[self.order]
        pos_w = np.where(self.sorted_labels > 0, su, 0.0)
        neg_w = np.where(self.sorted_labels < 0, su, 0.0)
        cp = np.zeros((m, n + 1))
        cn = np.zeros((m, n + 1))
        np.cumsum(pos_w, axis=1, out=cp[:, 1:])
        np.cumsum(neg_w, axis=1, out=cn[:, 1:])
        total = cp[:, -1] + cn[:, -1]
        # Slot t: sorted positions < t predict -polarity, >= t predict +polarity.
        err_plus = cp + (cn[:, -1:] - cn)
        err_minus = total[:, None] - err_plus
        invalid = np.ones((m, n + 1), dtype=bool)
        invalid[:, 0] = invalid[:, -1] = False
        invalid[:, 1:n] = ~self._interior_ok
        err_plus = np.where(invalid, np.inf, err_plus)
        err_minus = np.where(invalid, np.inf, err_minus)

        bp = np.argmin(err_plus, axis=1)
        bm = np.argmin(err_minus, axis=1)
        rows = np.arange(m)
        ep = err_plus[rows, bp]
        em = err_minus[rows, bm]
        use_minus = (em < ep) | ((em == ep) & (bm < bp))
        slot = np.where(use_minus, bm, bp)
        polarity = np.where(use_minus, -1, 1)
        errors = np.where(use_minus, em, ep)

        thresholds = np.empty(m)
        lo = slot == 0
        hi = slot == n
        mid = ~(lo | hi)
        thresholds[lo] = -np.inf
        thresholds[hi] = np.inf
        ms = slot[mid]
        thresholds[mid] = 0.5 * (
            self.sorted_values[mid, ms - 1] + self.sorted_values[mid, ms]
        )

        responses = np.where(self.values >= thresholds[:, None], 1, -1).astype(np.int8)
        responses *= polarity[:, None].astype(np.int8)
        stumps = [
            DecisionStump(j, float(thresholds[j]), int(polarity[j])) for j in range(m)
        ]
        return StumpTable(stumps, responses, errors, self.labels)

