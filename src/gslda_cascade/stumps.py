"""Decision stumps on scalar feature responses.

A stump thresholds one feature and outputs +/-1; training minimizes weighted
0/1 error with a single sorted sweep, so re-training the whole candidate pool
under fresh boosting weights is one vectorized pass over a pre-sorted table.
The (M, N) table is sorted and trained a block of rows at a time, each block
about _BLOCK_BYTES of float64, so the memory beyond the values, their int32
sort order and the interior-slot mask stays bounded however many features the
pool holds.

The sort order is the stable one (equal values keep their sample order), but
it is not computed by a stable sort: numpy's default SIMD argsort orders a
block, the runs of equal values in it are numbered, and one integer sort of
the keys run * N + index puts each run in index order.  Runs sit in the same
positions in every sorted order, so the result is exactly
argsort(kind="stable") for any finite values, +/-0.0 and +/-inf included.
NaN has no place in a sorted order and is rejected.
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
    """One trained stump per candidate feature, as arrays, plus cached outputs.

    Stump j thresholds feature j at thresholds[j] with polarity[j];
    responses[j, i] is its output on sample i and errors[j] its weighted
    error under the weights the table was built with.  labels are kept so the
    table is self-contained for edge/pruning computations.
    """

    thresholds: np.ndarray  # (M,) float64
    polarity: np.ndarray  # (M,) int8 in {-1, +1}
    responses: np.ndarray  # (M, N) int8 in {-1, +1}
    errors: np.ndarray  # (M,)
    labels: np.ndarray  # (N,) in {-1, +1}

    def __len__(self) -> int:
        return len(self.errors)

    def stump(self, j: int) -> DecisionStump:
        """Stump j as the classifier a cascade node keeps."""
        return DecisionStump(int(j), float(self.thresholds[j]), int(self.polarity[j]))


class StumpTrainer:
    """Pre-sorted stump training over a fixed (M, N) feature-value table.

    Sorting happens once; train_all under new sample weights is O(M N) per
    call.  Candidate thresholds sit at midpoints of consecutive distinct
    values plus -inf/+inf sentinels; ties break toward the smaller threshold,
    then polarity +1.  The sort is stable through the tie-repair key sort of
    the module docstring; values holding NaN raise ValueError.

    Both the sort and train_all walk the table in blocks of rows sized by
    _BLOCK_BYTES, so their temporaries stay near that budget whatever M is.
    Between calls the trainer holds the values, their per-row sort order as
    int32 and a bool mask of the interior threshold slots: about 1.625 times
    the bytes of the values.  train_all gathers each class's weights through
    the order straight into its cumulative sums.
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
            order = np.argsort(values[rows], axis=1)
            sorted_values = np.sort(values[rows], axis=1)
            if np.isnan(sorted_values[:, -1]).any():  # sorting puts NaN last
                raise ValueError("feature_values must not hold NaN")
            interior_ok = self._interior_ok[rows]
            np.not_equal(sorted_values[:, 1:], sorted_values[:, :-1], out=interior_ok)
            del sorted_values
            # Runs of equal values sit in the same places in every sorted
            # order; sorting (run, index) keys orders each run by index, which
            # is the stable order.
            run_base = np.zeros(order.shape, dtype=np.int64)
            np.cumsum(interior_ok, axis=1, out=run_base[:, 1:])
            run_base *= n
            order += run_base
            order.sort(axis=1)
            order -= run_base
            self.order[rows] = order

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
        pos_w = np.where(self.labels > 0, weights, 0.0)
        neg_w = np.where(self.labels < 0, weights, 0.0)
        for rows in self._blocks():
            order = self.order[rows]
            b = order.shape[0]
            # Cumulative class weights in sorted order: slot t sums positions < t.
            # Each temporary is freed once used: the block's peak bounds train_all.
            sorted_w = np.empty((b, n))
            cp = np.zeros((b, n + 1))
            cn = np.zeros((b, n + 1))
            for acc, class_w in ((cp, pos_w), (cn, neg_w)):
                np.take(class_w, order, out=sorted_w, mode="clip")  # in range; clip takes no buffer
                np.cumsum(sorted_w, axis=1, out=acc[:, 1:])
            del sorted_w
            total = cp[:, -1] + cn[:, -1]
            # Slot t: sorted positions < t predict -polarity, >= t predict +polarity.
            err_plus = cp + (cn[:, -1:] - cn)
            del cp, cn
            err_minus = total[:, None] - err_plus
            invalid = np.ones((b, n + 1), dtype=bool)
            invalid[:, 0] = invalid[:, -1] = False
            invalid[:, 1:n] = ~self._interior_ok[rows]
            np.putmask(err_plus, invalid, np.inf)
            np.putmask(err_minus, invalid, np.inf)

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

            # 2 * (values >= thr) - 1 is +/-1; times the polarity in place.
            out = responses[rows]
            np.greater_equal(values, thr[:, None], out=out.view(bool))
            out *= 2
            out -= 1
            out *= polarity[rows, None]

        return StumpTable(thresholds, polarity, responses, errors, self.labels)
