"""Decision stumps on integer feature sums.

A stump thresholds one feature's value, its integer sum divided by its
footprint area, and outputs +/-1.  The scan and node training decide sums by
one rule, which divides none: a sum passes when it is at least _sum_bound's
(DecisionStump.passes; the scan finds the bounds of every stump at every
scale at once, and train_all reads the same decisions off its sorted table).
Training minimizes weighted 0/1 error with a single sorted sweep, so
re-training the whole candidate pool under fresh boosting weights is one
vectorized pass over a pre-sorted order.  The (M, N) sums are sorted and
trained a block of rows at a time, each block about _BLOCK_BYTES (8-byte
entries in the sort, 16-byte complex128 ones in train_all), so the memory
beyond the sort order and the packed tie bits stays bounded however many
features the pool holds.  The trainer takes the sums as a (M, N) table or
as a features.PatchSums view of a stage's patches, which it never holds
whole: every read extracts the rows it names, by one kernel.  A trainer
that retrains (keep_order, the boosted methods' rounds) extracts each row
block once, sorts it and keeps its order and tie bits alone; its train_all
then reads no sums, and records each row's threshold slot and the two
samples at either side of it.  A trainer that trains once, as GSLDA's,
keeps no order: train_all extracts, sorts and trains each block in its own
loop and, when asked, writes its int8 +/-1 outputs while the block is at
hand, so GSLDA's node holds its outputs and no sums.  train_all writes no
(M, N) outputs otherwise: StumpTable.stump reads the one row a caller
picks and builds both the stump and its +/-1 outputs from that one read,
and StumpTable.responses builds the outputs of the rows a caller reads, a
block of rows at a time, from the trainer's table or view.

train_all sweeps both classes at once: each sample's weight is one
complex128, its real part the weight of a positive and its imaginary part
that of a negative (the other part 0.0), set through .real and .imag.  One
gather through the sort order and one cumsum give both classes' cumulative
weights, bit for bit the two float64 cumsums of a per-class sweep, because
complex addition adds the real and imaginary parts separately and the sums
keep their order.  Slots inside a run of tied sums are ruled out by adding
+inf, from one integer multiply of the block's unpacked tie bits by the bits
of +inf; the other slots get 0.0, which changes no error (no error is -0.0:
every class's column holds the other class's +0.0 entries).

The sort order is the stable one (equal sums keep their sample order),
computed by one integer sort of each row block's keys rank << bits | index,
bits = bits(N - 1): the index is the low bits, so equal ranks keep their
sample order, and numpy's SIMD sort of integers needs no stable variant.
The keys are int32 when they fit and int64 otherwise.  A sum's rank is its
difference from the row minimum; in a row too wide for int64 keys it is its
run number instead: numpy's SIMD argsort orders the row and the runs of
equal sums in it are numbered.  Runs sit in the same positions in every
sorted order, so either way the result is exactly argsort(kind="stable"),
and the ties are where the rank does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import PatchSums

# Byte budget of one row block of StumpTrainer: rows of N + 1 entries, of
# 8 bytes in the sort and 16 (one complex128) in train_all.
_BLOCK_BYTES = 1 << 20
# The bit pattern of +inf as an int64: an integer 0/1 mask times it is 0.0/+inf.
_INF_BITS = np.array(np.inf).view(np.int64).item()
# (min, max) of each dtype a stump decides sums in: the signed integers.
_LIMITS = {np.dtype(t): (int(np.iinfo(t).min), int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32, np.int64)}


def _sort_keys(block: np.ndarray, bits: int) -> np.ndarray:
    """The block's keys rank << bits | index of the module docstring, whose
    row-wise sort is the stable order; keys sit in sample order for ranks by
    difference and in argsort order for run numbers."""
    b, n = block.shape
    low = block.min(axis=1)
    # Row spans in uint64 wrap to the exact span of any int64 row.
    high = block.max(axis=1).astype(np.int64).view(np.uint64)
    span = int((high - low.astype(np.int64).view(np.uint64)).max())
    top = (span + 1) << bits
    if top <= 2**63:
        keys = block.astype(np.int32 if top <= 2**31 else np.int64)
        keys -= low[:, None].astype(keys.dtype)  # wraps only where the true rank fits
        keys <<= bits
        keys |= np.arange(n, dtype=keys.dtype)
        return keys
    order = np.argsort(block, axis=1)
    ordered = np.take_along_axis(block, order, axis=1)
    run = np.zeros((b, n), dtype=np.int32 if n << bits <= 2**31 else np.int64)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=run[:, 1:])
    del ordered
    run <<= bits
    run |= order
    return run


def _sorted_block(block: np.ndarray, scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(order, ties) of a block of rows of N sums: each row's stable sort
    order, in its keys' integer dtype, and ties[:, t - 1] set when interior
    threshold slot t lies inside a run of equal sums, where no threshold can
    split them.  scratch, when given, is a buffer of at least 8 bytes per
    entry of the block that the ranks are written into."""
    bits = (block.shape[1] - 1).bit_length()
    keys = _sort_keys(block, bits)
    keys.sort(axis=1)
    rank = np.right_shift(keys, bits, out=None if scratch is None else
                          scratch.view(keys.dtype)[: keys.size].reshape(keys.shape))
    ties = rank[:, 1:] == rank[:, :-1]
    del rank
    keys &= (1 << bits) - 1
    return keys, ties


def _order_dtype(n: int):
    """The dtype of sample indices in 0..n - 1: uint16 while n <= 65,536."""
    return np.uint16 if n <= 1 << 16 else np.int32


def _sum_bound(threshold, area, dtype):
    """The least s in dtype's range with s / area >= threshold in float64,
    or None when no s in the range has it (a +inf or NaN threshold, say).
    The quotient never falls as s grows, so s passes exactly when s >= bound.
    Elementwise over threshold and area broadcast together: an int or None
    for scalars, nested lists of them for arrays, so that the scan finds an
    image's bounds for every stump at every scale at once."""
    lo, hi = _LIMITS[np.dtype(dtype)]
    threshold, area = np.asarray(threshold, dtype=np.float64), np.asarray(area, dtype=np.float64)
    reach = float(hi) / area >= threshold
    guess = np.ceil(np.maximum(threshold * area, lo))  # a few steps off while |s| < 2**53
    s = np.where(reach & (guess < float(hi)), guess, 0).astype(np.int64)
    s[reach & (guess >= float(hi))] = hi
    while (down := reach & (s > lo) & ((s - 1) / area >= threshold)).any():
        s -= down
    while (up := reach & (s / area < threshold)).any():
        s += up
    return np.where(reach, s, None).tolist()


@dataclass
class DecisionStump:
    """Thresholded single-feature classifier: polarity * sign(sum / area - threshold).

    sign(0) is +1, so values equal to the threshold land on the polarity side.
    """

    feature_id: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be -1 or +1")

    def passes(self, sums: np.ndarray, area) -> np.ndarray:
        """sums / area >= threshold as numpy's float64 division decides it,
        without dividing: sums >= _sum_bound.  No sum passes +inf and every
        sum passes -inf, the dtype's extremes included."""
        bound = _sum_bound(self.threshold, area, sums.dtype)
        return np.zeros(sums.shape, dtype=bool) if bound is None else sums >= bound

    def responses(self, sums: np.ndarray, area) -> np.ndarray:
        """The stump's int8 +/-1 outputs on integer sums of the given area."""
        return np.where(self.passes(sums, area), self.polarity, -self.polarity).astype(np.int8)


def _outputs(sums, bound, none, polarity, out) -> None:
    """out = the int8 +/-1 outputs of a block of stumps on their rows of
    sums: a sum passes when it is at least its row's bound, and none of a
    row where none is set (a +inf threshold) passes."""
    # 2 * passes - 1 is +/-1, times the polarity in place.
    np.greater_equal(sums, bound[:, None], out=out.view(bool))
    out[none] = 0
    out *= 2
    out -= 1
    out *= polarity[:, None]


@dataclass
class StumpTable:
    """One trained stump per candidate feature, as arrays.

    Stump j thresholds feature j with polarity[j] at threshold slot
    slots[j] of its sorted sums, and errors[j] is its weighted error under
    the weights the table was trained with.  cols[j] are the samples at
    sorted positions slots[j] - 1 and slots[j], clipped into the row: the
    threshold is the midpoint of their values (sums / area[j]), and the sum
    at cols[j, 1] is the least that passes.  sums is the trainer's (M, N)
    table of integer sums, or its PatchSums view, held, not copied: stump
    and responses read the rows they need from it, extracting a view's rows
    as they read them.  labels are kept so the table is self-contained for
    edge/pruning computations.
    """

    polarity: np.ndarray  # (M,) int8 in {-1, +1}
    errors: np.ndarray  # (M,)
    labels: np.ndarray  # (N,) in {-1, +1}
    sums: np.ndarray | PatchSums  # (M, N) signed integers, the trainer's table or view
    slots: np.ndarray  # (M,) int32 in 0..N
    cols: np.ndarray  # (M, 2) sample indices, in the sort order's dtype
    area: np.ndarray  # (M,) float64

    def __len__(self) -> int:
        return len(self.errors)

    def stump(self, j: int) -> tuple[DecisionStump, np.ndarray]:
        """Stump j as a cascade node keeps it and its int8 +/-1 outputs on
        the N samples (responses'), from one read of row j.  Its threshold is
        -inf at slot 0, +inf at slot N, else the midpoint of the two values
        at either side of its slot."""
        row = self.sums[[j]]  # a view extracts this one row
        below, at = row[0, self.cols[j]] / self.area[j]
        slot, n = self.slots[j], row.shape[1]
        threshold = -np.inf if slot == 0 else np.inf if slot == n else 0.5 * (below + at)
        outputs = np.empty(n, dtype=np.int8)
        _outputs(row, row[:, self.cols[j, 1]], self.slots[j : j + 1] == n, self.polarity[j : j + 1], outputs[None])
        return DecisionStump(int(j), float(threshold), int(self.polarity[j])), outputs

    def responses(self, rows, out=None) -> np.ndarray:
        """The int8 +/-1 outputs of stumps rows (any order, repeats allowed)
        on the table's N samples, as a (len(rows), N) array, written into
        out when it is given.  A sum passes when it is at least the sum at
        its row's slot, and slot N passes none.  The rows are built a block
        of about _BLOCK_BYTES of sums at a time, each block dropped before
        the next is read, so the only temporary is one block of the table."""
        rows = np.asarray(rows, dtype=np.intp)
        n = self.sums.shape[1]
        if out is None:
            out = np.empty((len(rows), n), dtype=np.int8)
        step = max(1, _BLOCK_BYTES // (self.sums.dtype.itemsize * n))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            sums = self.sums[block]
            bound = sums[np.arange(len(block)), self.cols[block, 1]]
            _outputs(sums, bound, self.slots[block] == n, self.polarity[block], out[lo : lo + step])
            del sums
        return out


class StumpTrainer:
    """Pre-sorted stump training over a fixed (M, N) feature table.

    The table holds signed integer sums (any other dtype raises ValueError),
    as FeatureExtractor.extract returns them, or is their PatchSums view,
    whose rows are extracted as each block is read: row j divided by
    area[j] gives feature j's values, and area defaults to ones.  A row's
    area is fixed and positive, so its sums sort like its values; only
    thresholds divide.
    Candidate thresholds sit at midpoints of consecutive distinct values
    plus -inf/+inf sentinels; ties break toward the smaller threshold, then
    polarity +1.  Outputs compare sums with the sum just above the
    threshold, the one at StumpTable.cols[j, 1]: DecisionStump.passes while
    |sums| < 2**50 keeps distinct sums' values and midpoints apart (8-bit
    patches stay below 2**31, and FeatureExtractor raises from 2**50).

    Both the sort and train_all walk the sums in blocks of rows sized by
    _BLOCK_BYTES, so their temporaries stay near that budget whatever M is:
    about 2.5 budgets in train_all: its two complex blocks, the gather and
    the cumsum, allocated once per call (they then also hold err_plus and
    the 0/+inf tie array, and err_minus, contiguous, so that argmin reads
    it in place), and np.take's intp copy of each block of the order.
    train_all records each row's chosen slot and the samples at either
    side of it, in the order's dtype, and reads no sums beyond the blocks
    it sorts or writes outputs for.
    With keep_order (the default, for callers that retrain: AdaBoost,
    AsymBoost and BGSLDA) the trainer sorts in __init__, each block of a
    view extracted once for it, and holds between calls its per-row sort
    order (uint16 while N <= 65,536, which covers every paper-sized stage
    table, else int32) and one tie bit per interior threshold slot, packed
    8 to a byte: 2 1/8 bytes per entry for a view, and the table's own
    beside them when given a table (6 1/8 in all for an int32 one).  Its
    train_all reads no sums.  Without keep_order (GSLDA, which trains once)
    the trainer holds the table alone, or the view and no sums, and each
    train_all call reads and sorts every one of its blocks before training
    it, by the same sort and training kernels: 4 bytes per entry for an
    int32 table, none for a view, and about 3 budgets of temporaries (the
    block's keys stand in for its order, and its ranks use the gather's
    buffer before the gather), plus the block's extracted sums for a view.  Both give the same StumpTable
    bit for bit.  train_all(weights, outputs) also writes every stump's
    int8 +/-1 outputs (StumpTable.responses's rule) into the (M, N) array
    outputs, a block at a time as the block is trained, reading each
    block's sums for it.
    train_all gathers both classes' weights, packed in one complex128
    (module docstring), through the order into one cumulative sum; err_plus
    is one contiguous array and err_minus is written over the cumsum block.
    For any finite weights of shape (N,) its outputs are bit for bit those
    of two float64 cumsums, one per class; area must hold M positive finite
    numbers.
    """

    def __init__(self, feature_values, labels: np.ndarray, area=None, keep_order: bool = True):
        values = feature_values
        if not isinstance(values, PatchSums):  # a view stays one, read a block of rows at a time
            values = np.atleast_2d(np.asarray(values))
        if values.dtype.kind != "i":
            raise ValueError(f"feature_values must be a table of signed integer sums, got {values.dtype}")
        labels = np.asarray(labels)
        if values.shape[1] != labels.shape[0]:
            raise ValueError("feature_values columns must match labels length")
        if values.shape[1] < 2:
            raise ValueError("need at least two samples")
        m, n = values.shape
        self.values = values
        self.labels = labels
        self.area = np.ones(m) if area is None else np.asarray(area, dtype=np.float64)
        if self.area.shape != (m,) or not np.all(np.isfinite(self.area) & (self.area > 0)):
            raise ValueError(f"area must hold {m} positive finite numbers, one per table row")
        self.order = self._ties = None
        if not keep_order:  # train_all sorts each of its blocks itself
            return
        self.order = np.empty((m, n), dtype=_order_dtype(n))
        # Bit t - 1 of a row is set when interior threshold slot t lies
        # inside a run of equal values, where no threshold can split them.
        self._ties = np.empty((m, -(-(n - 1) // 8)), dtype=np.uint8)
        for rows in self._blocks():
            order, ties = _sorted_block(values[rows])
            self.order[rows] = order
            self._ties[rows] = np.packbits(ties, axis=1)

    def _blocks(self, entry_bytes: int = 8) -> list[slice]:
        """Row slices of at most _BLOCK_BYTES of (N + 1)-wide rows of
        entry_bytes per entry."""
        m, n = self.values.shape
        step = max(1, _BLOCK_BYTES // (entry_bytes * (n + 1)))
        return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]

    def train_all(self, weights: np.ndarray, outputs: np.ndarray | None = None) -> StumpTable:
        m, n = self.values.shape
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        polarity = np.empty(m, dtype=np.int8)
        errors = np.empty(m)
        slots = np.empty(m, dtype=np.int32)
        # Each row's samples at sorted positions slot - 1 and slot, clipped into the row.
        cols = np.empty((m, 2), dtype=_order_dtype(n))
        # Both classes' weights in one complex: positives real, negatives imaginary.
        class_w = np.empty(n, dtype=np.complex128)
        class_w.real = np.where(self.labels > 0, weights, 0.0)
        class_w.imag = np.where(self.labels < 0, weights, 0.0)
        # Two block buffers, allocated once per call and reused by every
        # block: fresh blocks would fault their pages in again each time.
        blocks = self._blocks(16)
        step = blocks[0].stop - blocks[0].start
        spare = np.empty(step * n, dtype=np.complex128)
        floats = spare.view(np.float64)
        sums = np.empty((step, n + 1), dtype=np.complex128)
        for rows in blocks:
            # A block's sums are read only to sort it or to write its outputs.
            values = self.values[rows] if self.order is None or outputs is not None else None
            if self.order is None:  # sorted for this call alone
                order, ties = _sorted_block(values, spare)  # spare is free until the gather
            else:
                order = self.order[rows]
                ties = np.unpackbits(self._ties[rows], axis=1, count=n - 1)  # 0/1 per interior slot
            b = order.shape[0]
            # Cumulative class weights in sorted order: slot t sums positions < t.
            sorted_w = spare[: b * n].reshape(b, n)
            np.take(class_w, order, out=sorted_w, mode="clip")  # in range; clip takes no buffer
            c = sums[:b]
            c[:, 0] = 0.0
            np.cumsum(sorted_w, axis=1, out=c[:, 1:])
            cp, cn = c.real, c.imag
            total = cp[:, -1] + cn[:, -1]
            # Slot t: sorted positions < t predict -polarity, >= t predict +polarity.
            # sorted_w is not read again: its 2bn floats hold err_plus, then tie_inf.
            err_plus = np.subtract(cn[:, -1:], cn, out=floats[: b * (n + 1)].reshape(b, n + 1))
            err_plus += cp
            # c is not read again, so err_minus takes its first b(n+1) floats, contiguous for argmin.
            err_minus = np.subtract(total[:, None], err_plus,
                                    out=sums.view(np.float64).reshape(-1)[: b * (n + 1)].reshape(b, n + 1))
            del cp, cn, c
            # Interior slots inside a run of ties get +inf, the others 0.0.
            tie_bits = floats[b * (n + 1) : 2 * b * n].view(np.int64).reshape(b, n - 1)
            tie_inf = np.multiply(ties, _INF_BITS, out=tie_bits, dtype=np.int64).view(np.float64)
            del ties
            err_plus[:, 1:n] += tie_inf
            err_minus[:, 1:n] += tie_inf

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
            slots[rows] = slot
            cols[rows, 0] = order[r, np.maximum(slot - 1, 0)]
            cols[rows, 1] = order[r, np.minimum(slot, n - 1)]
            del order  # a sorted block's order is dropped before the next block is sorted
            if outputs is not None:  # a sum passes when it reaches the sum at the slot
                _outputs(values, values[r, cols[rows, 1]], slot == n, polarity[rows], outputs[rows])
            del values
        return StumpTable(polarity, errors, self.labels, self.values, slots, cols, self.area)
