"""Integral images and the Haar-like rectangle feature pool.

The pool is an enumeration in closed form: per kind, the count of extents
that fit at each start offset, O(base_window) integers, from which the
kind and footprint box of any feature id are decoded by two searches and
two divisions (FeaturePool.rows).  A detector decodes only the features
its model names; training decodes its whole (subsampled) pool.  Features
are defined on a square base window and evaluated at arbitrary offset/scale
through an integral table, so a single trained model scans all window sizes.
Rectangle weights balance to zero per feature at scale 1 only: at another
scale each corner rounds on its own (below), so the sub-rectangles may
differ in area and the feature need not read 0 on a flat patch.  A value is
a feature's integer sum over its (scaled) footprint area, comparable across
scales, and the scan compares sums (haar_sums), never values.

The fold.  A feature's sub-rectangles are read through the integral table
at their four corners each, and adjacent rectangles share corners, so the
rectangles fold into one integer weight per distinct corner.  The fold is
done once, at import, per kind in cell units (_CORNERS, from _CELLS): 6, 8
or 9 corners, of summed |weight| 8, 16 and 16, for two-, three- and
four-rectangle kinds.  _corners_of scales each kind's cells to a feature's
footprint, giving its (weight, x, y) rows in base window coordinates, and
nothing else folds.  At another scale each corner is rounded half up on its
own, as the oracle rounds each rectangle's corners; two corners may then
round to the same pixel, and each is still read with its own weight, which
sums to the same exact integer.  place rounds the corners, footprints and
areas of many features at many scales in one vectorized step, and haar_sums
reads placed features.  The table is int32 when every such read is exact in
int32 (16 * max|table| < 2**31).  Over a lattice of windows (two ranges of
top-left corners) each corner is one 1-D slice of the flattened table for a
lattice of step 1, or one 2-D strided slice of the table otherwise; for
scattered windows it is one gather on the flattened table.  A window whose
footprint leaves the table raises IndexError before any read.

Training extracts every feature of the pool from every patch at scale 1 with
the same corners, by integer gathers.  The N patches' integral tables are
built transposed, one row per table entry over all N patches, so that each
folded corner of a block of features is one gather of rows, added in with
its weight (_sum_rows, the extraction kernel).  Sums are exact integers in
the tables' dtype: int32 while the largest |table entry| times a feature's
summed |weights| stays below 2**31 (8-bit patches stay far below it), int64
past it.  From 2**50 on extraction raises ValueError: a stump trained on the
table decides a sum by comparing it with the sum at its threshold slot,
which equals DecisionStump.passes, the scan's rule, only while distinct
sums' values and their midpoints stay apart in float64
(stumps.StumpTrainer); near 2**53 they meet.  The sums are undivided,
haar_sums' at scale 1.  A stack of patches is read through its PatchSums
view, which holds the integral tables and no sums: each read extracts the
rows it names, a block at a time, so training from the view holds (M, N)
sums only where a caller keeps what it read.  FeatureExtractor.extract is
the view read whole, the (M, N) table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

KINDS = (
    "two-rect-horizontal",
    "two-rect-vertical",
    "three-rect-horizontal",
    "three-rect-vertical",
    "four-rect-diagonal",
)

# Per kind: the (width, height) unit its footprint must be a multiple of, and
# its sub-rectangles (weight, x0, y0, x1, y1) in cells of that unit, padded
# with zero rows to four.
_UNITS = np.array([(2, 1), (1, 2), (3, 1), (1, 3), (2, 2)])
_PAD = (0, 0, 0, 0, 0)
_CELLS = np.array([
    [(1, 0, 0, 1, 1), (-1, 1, 0, 2, 1), _PAD, _PAD],
    [(1, 0, 0, 1, 1), (-1, 0, 1, 1, 2), _PAD, _PAD],
    [(1, 0, 0, 1, 1), (-2, 1, 0, 2, 1), (1, 2, 0, 3, 1), _PAD],
    [(1, 0, 0, 1, 1), (-2, 0, 1, 1, 2), (1, 0, 2, 1, 3), _PAD],
    [(1, 0, 0, 1, 1), (-1, 1, 0, 2, 1), (-1, 0, 1, 1, 2), (1, 1, 1, 2, 2)],
])


def _fold(cells) -> np.ndarray:
    """One kind's sub-rectangles as (weight, x, y) rows on their distinct
    cell corners, ordered by (y, x), cancelled corners dropped, padded with
    zero rows to nine."""
    folded: dict[tuple[int, int], int] = {}
    for wgt, x0, y0, x1, y1 in cells:
        for x, y, sign in ((x0, y0, 1), (x1, y0, -1), (x0, y1, -1), (x1, y1, 1)):
            folded[y, x] = folded.get((y, x), 0) + sign * wgt
    rows = np.zeros((9, 3), dtype=np.int64)
    kept = [(wgt, x, y) for (y, x), wgt in sorted(folded.items()) if wgt]
    rows[: len(kept)] = kept
    return rows


_CORNERS = np.stack([_fold(cells) for cells in _CELLS.tolist()])
# The same rows by descending |weight|, stably, zero rows last: place's order.
_BY_WEIGHT = np.take_along_axis(_CORNERS, np.argsort(-np.abs(_CORNERS[:, :, :1]), axis=1, kind="stable"), axis=1)

# Byte budget of one block of gathered rows in FeatureExtractor.extract.
_BLOCK_BYTES = 1 << 18


def _unsigned_reach(pixels: np.ndarray, weight: int) -> int:
    """weight * the largest total of unsigned pixels over their first two
    axes: the largest entry of their integral table, known before any sum."""
    return weight * int(np.max(pixels.sum(axis=(0, 1), dtype=np.uint64), initial=0))


def _integral(pixels: np.ndarray, weight: int) -> tuple[np.ndarray, int]:
    """(table, reach): the exact integral table of pixels over their first
    two axes, (height+1, width+1, ...) with table[y, x] = sum over pixels
    [0,y) x [0,x), and reach = weight * max|table|.  The table is int32 when
    reach < 2**31, so that reads of summed |weight| up to weight are exact
    in int32, and int64 otherwise.  Unsigned pixels are summed in place in
    the table: their reach is known before the sums (_unsigned_reach), so
    there is no int64 pass, min/max scan or cast copy.  Raises ValueError
    for pixels that are not bool or integer, whose sums would not be exact."""
    if pixels.dtype.kind not in "biu":
        raise ValueError(f"pixels must be bool or integer, not {pixels.dtype}")
    shape = (pixels.shape[0] + 1, pixels.shape[1] + 1) + pixels.shape[2:]
    if pixels.dtype.kind in "bu":
        reach = _unsigned_reach(pixels, weight)
        table = np.zeros(shape, dtype=np.int32 if reach < 2**31 else np.int64)
        body = table[1:, 1:]
        body[...] = pixels  # a cast into the table; cumsum's own cast would copy
        np.cumsum(body, axis=0, out=body)
        np.cumsum(body, axis=1, out=body)
        return table, reach
    table = np.zeros(shape, dtype=np.int64)
    np.cumsum(np.cumsum(pixels, axis=0, dtype=np.int64), axis=1, out=table[1:, 1:])
    reach = weight * max(-int(table.min()), int(table.max())) if table.size else 0
    return (table.astype(np.int32) if reach < 2**31 else table), reach


def build_integral(image) -> np.ndarray:
    """Exact cumulative-sum table, (height+1, width+1), int32 when 16 *
    max|table| < 2**31 (exact corner reads) and int64 otherwise:
    table[y, x] = sum over pixels [0,y) x [0,x)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("image must be a nonempty 2-d pixel grid")
    return _integral(image, 16)[0]


@dataclass(frozen=True)
class PoolParams:
    """Enumeration parameters of a feature pool; subsample keeps every n-th."""

    base_window: int = 24
    stride: int = 1
    min_size: int = 1
    subsample: int = 1


class _Counts(NamedTuple):
    """A pool's enumeration in closed form: arrays over (kind, start) pairs,
    kind-major, with offset the start's coordinate (the same on x and y).
    At each pair, heights extents of the kind fit below row offset and widths
    right of column offset.  The features of block (kind, y) run from full
    index runs, heights times the kind's summed widths of them.  columns
    counts the widths of every earlier pair, so that one search over it
    finds each feature's x whatever its kind, and before is columns at the
    kind's first pair.  least is each kind's smallest (width, height) in
    units, and total the count of every admissible feature."""

    offset: np.ndarray
    kind: np.ndarray
    heights: np.ndarray
    widths: np.ndarray
    runs: np.ndarray
    columns: np.ndarray
    before: np.ndarray
    least: np.ndarray  # (5, 2)
    total: int


def _counts(base_window: int, stride: int, min_size: int) -> _Counts:
    starts = np.arange(0, base_window, min(stride, base_window))  # a longer stride also places at 0 only
    # Extents run by the unit from its smallest multiple that is at least
    # min_size up to the room left at the window's edge.
    least = -(-min_size // _UNITS)
    fits = np.maximum((base_window - starts) // _UNITS[:, :, None] - least[:, :, None] + 1, 0)  # (5, 2, S)
    widths, heights = fits[:, 0].ravel(), fits[:, 1].ravel()
    kind = np.repeat(np.arange(len(KINDS)), len(starts))
    sizes = heights * fits[:, 0].sum(axis=1)[kind]
    columns = np.cumsum(widths) - widths
    return _Counts(np.tile(starts, len(KINDS)), kind, heights, widths, np.cumsum(sizes) - sizes, columns,
                   columns[kind * len(starts)], least, int(sizes.sum()))


def _corners_of(kind, box, cells=_CORNERS) -> np.ndarray:
    """(M, 9, 3): the folded corners (weight, x, y) of features of these
    kinds and footprints, each kind's cell corners scaled to the footprint,
    in the order of cells: by (y, x) for _CORNERS.  A kind with fewer than
    nine corners pads with zero rows."""
    x, y = box[:, 0], box[:, 1]
    corners = cells[kind]
    on = corners[:, :, 0] != 0  # zero rows pad
    for coord, size, origin in ((corners[:, :, 1], (box[:, 2] - x) // _UNITS[kind, 0], x),
                                (corners[:, :, 2], (box[:, 3] - y) // _UNITS[kind, 1], y)):
        coord *= size[:, None]  # the footprint's extent in cells
        np.add(coord, origin[:, None], out=coord, where=on)
    return corners


@dataclass(frozen=True, eq=False)
class FeaturePool:
    """Haar features by their enumeration, feature j in row j.

    Every admissible feature is ordered by (kind, y, x, h, w), and the pool
    keeps every subsample-th of them: feature j is full index j * subsample.
    rows(ids) decodes the named features only.  kind (M,) and box (M, 4)
    are rows' arrays for the whole pool, decoded on first access and kept.
    """

    params: PoolParams
    _counts: _Counts = field(repr=False)

    def __len__(self) -> int:
        return -(-self._counts.total // self.params.subsample)

    def rows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """(kind, box) of the features ids (each in 0..len(self)): kind
        indexes KINDS and box is the footprint (x0, y0, x1, y1) in base
        window coordinates.  They are decoded from the counts by two
        searches and two divisions each."""
        ids = np.asarray(ids, dtype=np.int64)
        c = self._counts
        full = ids * self.params.subsample
        block = np.searchsorted(c.runs, full, "right") - 1  # the last (kind, y) block starting at or before
        kind, heights, before = c.kind[block], c.heights[block], c.before[block]
        rest = full - c.runs[block]  # (x, h, w) in the block, w fastest
        column = np.searchsorted(c.columns, rest // heights + before, "right") - 1
        rest -= heights * (c.columns[column] - before)
        ih, iw = np.divmod(rest, c.widths[column])
        box = np.empty((len(full), 4), dtype=np.int64)
        box[:, 0], box[:, 1] = c.offset[column], c.offset[block]
        box[:, 2] = (c.least[kind, 0] + iw) * _UNITS[kind, 0]
        box[:, 3] = (c.least[kind, 1] + ih) * _UNITS[kind, 1]
        box[:, 2:] += box[:, :2]
        return kind, box

    @cached_property
    def _every(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rows(np.arange(len(self)))

    kind = property(lambda self: self._every[0])
    box = property(lambda self: self._every[1])


def build_pool(params: PoolParams) -> FeaturePool:
    """The pool of params, validated; no feature is decoded yet."""
    if not params.base_window >= params.min_size >= 1:
        raise ValueError("need base_window >= min_size >= 1")
    if params.stride < 1:
        raise ValueError("stride must be at least 1")
    if params.subsample < 1:
        raise ValueError("subsample must be at least 1")
    return FeaturePool(params, _counts(params.base_window, params.stride, params.min_size))


def _round_px(v):
    # Half-up rounding to whole pixels, of scaled coordinates and merged corners.
    return np.floor(v + 0.5).astype(np.int64)


class Placement(NamedTuple):
    """A pool feature at one scale, rounded to whole pixels in window
    coordinates: reads, the (weight, x, y) of its folded corners with a
    nonzero weight, by descending |weight|; box, its footprint (x0, y0, x1,
    y1); and area, the footprint's area, the divisor that turns its sums
    into values."""

    reads: tuple
    box: tuple
    area: int


def place(pool: FeaturePool, ids, scales) -> list[list[Placement]]:
    """placements[s][t], pool feature ids[t] at scales[s]; only those
    features are decoded (FeaturePool.rows).  Each of its folded corners (the
    module docstring) and each corner of its footprint is scaled and rounded
    half up on its own, for every feature and scale in one vectorized step."""
    kind, box = pool.rows(ids)
    scale = np.asarray(scales, dtype=np.float64)[:, None, None]
    boxes = _round_px(scale * box)
    areas = (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])
    corners = _corners_of(kind, box, _BY_WEIGHT)
    xy = _round_px(scale[..., None] * corners[:, :, 1:].transpose(0, 2, 1)).tolist()  # x and y rows
    return [[Placement(tuple(compress(zip(w, x, y), w)), tuple(box), area)
             for w, (x, y), box, area in zip(corners[:, :, 0].tolist(), row, box_row, area_row)]
            for row, box_row, area_row in zip(xy, boxes.tolist(), areas.tolist())]


class Buffers:
    """Work arrays kept from call to call.  buffers(name, size, dtype) is the
    first size entries of the 1-D array kept under name, replaced by a new
    one when that is shorter or of another dtype; what is written there
    stays until the next call with the name.  The scan keeps one per image,
    so that its lattice-sized arrays are allocated, and their pages touched,
    once per image and not once per read."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, size: int, dtype) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.size < size or array.dtype != dtype:
            array = self._arrays[name] = np.empty(size, dtype=dtype)
        return array[:size]


def _weigh(reads, terms, acc) -> None:
    """acc = the sum of weight * term over reads and terms in order, by
    Horner's rule on the weights' magnitudes, which come in descending order,
    each divide the one before and end at 1 (2 and 1, 3 and 1, or 4, 2 and 1
    for the five kinds): acc is scaled up by their ratio before a smaller
    magnitude's terms add in.  Every term adds or subtracts in place, so no
    array beside acc is needed, and every partial sum stays within summed
    |weight| * max|table|."""
    last = None
    for (wgt, _, _), term in zip(reads, terms):
        if last is None:
            np.multiply(term, 1 if wgt > 0 else -1, out=acc)
        else:
            if abs(wgt) != last:
                acc *= last // abs(wgt)
            if wgt > 0:
                acc += term
            else:
                acc -= term
        last = abs(wgt)


def haar_sums(placements, table: np.ndarray, px, py, buffers: Buffers | None = None):
    """Yields, for each placed feature (place) in turn, its exact weighted
    rectangle differences in windows of the integral table, in the table's
    dtype; divided by the placement's area they are the feature's values.

    px and py are either two ranges, the lattice of every window (x, y) for
    y in py and x in px, whose sums come as a (len(py), len(px)) array; or
    equal-length arrays, window i having its top-left corner at (px[i],
    py[i]), whose sums come as an array of that length.

    Every corner is read with its weight, in one of three ways.  A lattice
    of step 1 on both axes reads each corner as one 1-D slice of the
    flattened table, the (len(py) - 1) * (width+1) + len(px) entries from its
    first window's on, and its sums are that run viewed as rows of the
    table's row stride, cut to len(px).  A lattice of another step reads each
    corner as a 2-D basic slice of the table, rows y + py[0] to y + py[-1] by
    py.step and columns alike, since a 1-D slice there would add up step
    times too many entries.  Arrays gather each corner at offset
    y * (width+1) + x of the flattened table from every window's base
    py * (width+1) + px, found once for all the features.  A window's
    top-left corner may lie outside the table while its footprints stay
    inside.  Each feature's sums are written into an array of buffers (a new
    Buffers when None) and stay valid until the next are yielded.  Raises,
    before any read, ValueError for a degenerate footprint or a lattice range
    that descends, and IndexError when a window's footprint leaves the table
    on any side.
    """
    lattice = isinstance(px, range)
    if lattice:
        if px.step < 0 or py.step < 0:
            raise ValueError("lattice ranges must ascend")
        shape = (len(py), len(px))
        n = shape[0] * shape[1]
    else:
        px = np.asarray(px)
        py = np.asarray(py)
        n = px.size
        shape = (n,)
    if any(placement.area <= 0 for placement in placements):
        raise ValueError("degenerate scaled footprint")
    rows, cols = table.shape
    if n:
        x_lo, x_hi, y_lo, y_hi = (px[0], px[-1], py[0], py[-1]) if lattice else (px.min(), px.max(), py.min(), py.max())
        for fx0, fy0, fx1, fy1 in (placement.box for placement in placements):
            if x_lo + fx0 < 0 or y_lo + fy0 < 0 or x_hi + fx1 >= cols or y_hi + fy1 >= rows:
                raise IndexError("scaled footprint leaves the integral table")
    buffers = buffers or Buffers()
    flat, dtype = table.ravel(), table.dtype
    if not lattice:
        windows = py * cols + px  # a window's base: negative while its top-left corner is outside
        gathered = buffers("gathered", n, dtype)
    for placement in placements:
        reads = placement.reads
        if n == 0:
            yield np.zeros(shape, dtype=dtype)
        elif lattice and px.step == py.step == 1:
            # Entry k of each run is window (k // (width+1), k % (width+1)) of
            # a lattice as wide as the table; the columns past len(px) wrap
            # into the next row, stay inside the table and are cut off.
            length = (shape[0] - 1) * cols + shape[1]
            starts = ((y + y_lo) * cols + x + x_lo for _, x, y in reads)
            sums = buffers("sums", shape[0] * cols, dtype)
            _weigh(reads, (flat[a : a + length] for a in starts), sums[:length])
            yield sums.reshape(shape[0], cols)[:, : shape[1]]
        else:
            sums = buffers("sums", n, dtype).reshape(shape)
            if lattice:
                terms = (table[y + y_lo : y + y_hi + 1 : py.step, x + x_lo : x + x_hi + 1 : px.step]
                         for _, x, y in reads)
            else:
                # Based at the footprint's top-left corner every index is in
                # the table; flat[offset:] is a view, so the gather needs no
                # index sum.
                fx0, fy0 = placement.box[:2]
                base = windows + (fy0 * cols + fx0)
                terms = (flat[(y - fy0) * cols + x - fx0 :].take(base, out=gathered, mode="clip") for _, x, y in reads)
            _weigh(reads, terms, sums)
            yield sums


def _sum_rows(tables: np.ndarray, width: int, kind, box, out: np.ndarray, gathered: np.ndarray) -> None:
    """The extraction kernel: out = the exact sums of one block of features,
    of these kinds and footprints, on the patches whose transposed integral
    tables (FeatureExtractor._tables) tables holds, width being the patches'
    W + 1.  Each of the block's folded corners is one gather of rows,
    multiplied by the corner's weight and added in; gathered is a scratch
    array of out's shape, and both are contiguous and of the tables' dtype.
    Every partial sum is an integer of magnitude at most max|table| *
    sum|weights|, so the tables' integer arithmetic is exact."""
    corners = _corners_of(kind, box)  # the block's alone, so no array grows with the pool
    wgt = corners[:, :, 0].astype(tables.dtype)  # zero rows pad: weight 0 adds nothing
    rows = corners[:, :, 2] * width + corners[:, :, 1]
    # Every kind's first corner weighs +1 (_CORNERS); in range, so clip takes no buffer.
    np.take(tables, rows[:, 0], axis=0, out=out, mode="clip")
    for c in range(1, corners.shape[1]):
        w = wgt[:, c]
        low, high = int(w.min()), int(w.max())
        if low == high == 0:  # every feature of the block has fewer corners
            continue
        np.take(tables, rows[:, c], axis=0, out=gathered, mode="clip")
        if low == high == 1:
            out += gathered
        elif low == high == -1:
            out -= gathered
        else:
            gathered *= w[:, None]
            out += gathered


class PatchSums:
    """The (M, N) sums of a pool's M features on N patches, as a read-only
    view that holds the patches' transposed integral tables and never the
    sums: indexing it extracts the rows asked for, a block of about
    _BLOCK_BYTES at a time, by the block kernel (_sum_rows).  view[j] is
    row j, and view[rows], for a slice or an array of row indices, the
    (len(rows), N) array of those rows in that order; np.asarray(view) is
    FeatureExtractor.extract's whole table.  The kernel's scratch block is
    kept from read to read (Buffers), so that a trainer's block-by-block
    reads allocate, and fault in, only the rows they return.  shape and
    dtype are the sums' (the tables' dtype, by the bound of the module
    docstring).  Built by FeatureExtractor.sums.
    """

    def __init__(self, extractor: FeatureExtractor, patches):
        self.extractor = extractor
        self.tables = extractor._tables(patches)
        self.width = np.shape(patches)[2] + 1
        self.shape = (len(extractor.pool), self.tables.shape[1])
        self.dtype = self.tables.dtype
        self._buffers = Buffers()  # extraction's scratch block, kept from read to read

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        if isinstance(rows, (int, np.integer)):
            return self[[rows]][0]
        pool = self.extractor.pool
        kind, box = pool.kind[rows], pool.box[rows]
        m, n = len(kind), self.shape[1]
        out = np.empty((m, n), dtype=self.dtype)
        step = max(1, _BLOCK_BYTES // (self.dtype.itemsize * max(n, 1)))
        gathered = self._buffers("gathered", min(step, m) * n, self.dtype).reshape(min(step, m), n)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            _sum_rows(self.tables, self.width, kind[lo:hi], box[lo:hi], out[lo:hi], gathered[: hi - lo])
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        sums = self.extractor.extract(self)
        return sums if dtype is None else sums.astype(dtype, copy=False)


class FeatureExtractor:
    """Batch evaluation of a feature pool on same-size patches at scale 1.

    sums(patches) is the patches' PatchSums view, which extracts any rows on
    demand, and extract the whole (M, N) table; both read the folded corners
    (see the module docstring) of one block of features at a time, so their
    temporaries do not grow with the pool.  area[j] is feature j's footprint
    area (int64), the divisor that turns its sums into values.
    """

    def __init__(self, pool: FeaturePool):
        self.pool = pool
        x0, y0, x1, y1 = pool.box.T
        self.area = ((x1 - x0) * (y1 - y0)).astype(np.int64)
        self._l1 = int(np.abs(_CORNERS[:, :, 0]).sum(axis=1)[pool.kind].max(initial=0))  # summed |weight|

    def _tables(self, patches) -> np.ndarray:
        """The N patches' integral tables, transposed and flattened to
        ((H+1)(W+1), N): row y * (W+1) + x holds entry (y, x) of every
        patch.  Raises as extract does."""
        patches = np.asarray(patches)
        if patches.ndim != 3:
            raise ValueError("patches must be a (N, H, W) stack")
        n, h, w = patches.shape
        if len(self.pool) and (self.pool.box[:, 2].max() > w or self.pool.box[:, 3].max() > h):
            raise IndexError("feature footprint leaves the patches")
        table, reach = _integral(np.moveaxis(patches, 0, -1), self._l1)
        if reach >= 2**50:
            raise ValueError("integral sums could reach 2**50, where training could decide a sum otherwise "
                             "than the scan")
        return table.reshape((h + 1) * (w + 1), n)

    def sums(self, patches) -> PatchSums:
        """The sums of the pool's features on a (N, H, W) stack of patches,
        as a view that extracts rows when they are read.  Raises as extract
        does."""
        return PatchSums(self, patches)

    def extract(self, patches) -> np.ndarray:
        """(M, N) matrix of the exact integer sums of M features on N patches,
        a (N, H, W) stack or its PatchSums view: every row of the view.

        The sums are returned undivided: sums[j] equals haar_sums' sums of
        feature j at scale 1.  Their dtype is int32 while max|table| *
        sum|weights| stays below 2**31 (8-bit patches stay far below it) and
        int64 past it.  Raises ValueError when that bound could reach 2**50
        (module docstring), and IndexError when a footprint leaves the
        patches.
        """
        return (patches if isinstance(patches, PatchSums) else self.sums(patches))[:]
