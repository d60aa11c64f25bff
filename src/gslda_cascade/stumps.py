"""Decision stumps on scalar feature responses.

A stump thresholds one feature and outputs +/-1; training minimizes weighted
0/1 error with a single sorted sweep, so re-training the whole candidate pool
under fresh boosting weights is one vectorized pass over a pre-sorted table.
The (M, N) table is sorted and trained a block of rows at a time, each block
about _BLOCK_BYTES of float64, so the memory beyond the values, their int32
sort order and the interior-slot mask stays bounded however many features the
pool holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Byte budget of one row block of StumpTrainer: rows of N + 1 float64 each.
_BLOCK_BYTES = 1 << 20


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

    Both the sort and train_all walk the table in blocks of rows sized by
    _BLOCK_BYTES, so their temporaries stay near that budget whatever M is.
    Between calls the trainer holds the values, their per-row sort order as
    int32 and a bool mask of the interior threshold slots: about 1.625 times
    the bytes of the values.
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
        m, n = values.shape
        self.order = np.empty((m, n), dtype=np.int32)
        # Interior threshold slot t is usable only between distinct values.
        self._interior_ok = np.empty((m, n - 1), dtype=bool)
        for rows in self._blocks():
            order = np.argsort(values[rows], axis=1, kind="stable")
            sorted_values = np.take_along_axis(values[rows], order, axis=1)
            self.order[rows] = order
            np.not_equal(sorted_values[:, 1:], sorted_values[:, :-1], out=self._interior_ok[rows])

    def _blocks(self) -> list[slice]:
        """Row slices of at most _BLOCK_BYTES of (N + 1)-wide float64 rows."""
        m, n = self.values.shape
        step = max(1, _BLOCK_BYTES // (8 * (n + 1)))
        return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]

    def train_all(self, weights: np.ndarray) -> StumpTable:
        m, n = self.values.shape
        weights = np.asarray(weights, dtype=np.float64)
        thresholds = np.empty(m)
        polarity = np.empty(m, dtype=np.int8)
        errors = np.empty(m)
        responses = np.empty((m, n), dtype=np.int8)
        for rows in self._blocks():
            order = self.order[rows]
            b = order.shape[0]
            su = weights[order]
            sorted_labels = self.labels[order]
            pos_w = np.where(sorted_labels > 0, su, 0.0)
            neg_w = np.where(sorted_labels < 0, su, 0.0)
            # Each temporary is freed once used: the block's peak bounds train_all.
            del su, sorted_labels
            cp = np.zeros((b, n + 1))
            cn = np.zeros((b, n + 1))
            np.cumsum(pos_w, axis=1, out=cp[:, 1:])
            np.cumsum(neg_w, axis=1, out=cn[:, 1:])
            del pos_w, neg_w
            total = cp[:, -1] + cn[:, -1]
            # Slot t: sorted positions < t predict -polarity, >= t predict +polarity.
            err_plus = cp + (cn[:, -1:] - cn)
            del cp, cn
            err_minus = total[:, None] - err_plus
            invalid = np.ones((b, n + 1), dtype=bool)
            invalid[:, 0] = invalid[:, -1] = False
            invalid[:, 1:n] = ~self._interior_ok[rows]
            np.copyto(err_plus, np.inf, where=invalid)
            np.copyto(err_minus, np.inf, where=invalid)

            bp = np.argmin(err_plus, axis=1)
            bm = np.argmin(err_minus, axis=1)
            r = np.arange(b)
            ep = err_plus[r, bp]
            em = err_minus[r, bm]
            del err_plus, err_minus
            use_minus = (em < ep) | ((em == ep) & (bm < bp))
            slot = np.where(use_minus, bm, bp)
            polarity[rows] = np.where(use_minus, -1, 1)
            errors[rows] = np.where(use_minus, em, ep)

            values = self.values[rows]
            thr = thresholds[rows]
            thr[slot == 0] = -np.inf
            thr[slot == n] = np.inf
            mid = (slot > 0) & (slot < n)
            rm, ms = r[mid], slot[mid]
            thr[mid] = 0.5 * (values[rm, order[rm, ms - 1]] + values[rm, order[rm, ms]])

            pol = polarity[rows, None]
            responses[rows] = np.where(values >= thr[:, None], pol, -pol)

        stumps = [
            DecisionStump(j, float(thresholds[j]), int(polarity[j])) for j in range(m)
        ]
        return StumpTable(stumps, responses, errors, self.labels)
