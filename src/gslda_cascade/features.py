"""Integral images and the Haar-like rectangle feature pool.

The pool is a set of integer arrays, one row per feature: its kind, its
footprint box and its weighted sub-rectangles, enumerated once by numpy.
Features are defined on a square base window and evaluated at arbitrary
offset/scale through an integral table, so a single trained model scans all
window sizes.  Rectangle weights balance to zero per feature, and values are
divided by the (scaled) footprint area to keep responses comparable across
scales.  A placed feature reads each distinct corner of its sub-rectangles
once: adjacent rectangles share corners, so at scales of 1 and above the
weights fold into 6, 8 or 9 integer weights on offsets of the flattened table
for two-, three- and four-rectangle features.  A window whose footprint leaves
the table raises IndexError.

Training extracts every feature of the pool from every patch at scale 1 with
the same folded weights, as a matrix product: a block of features' corner
weights, dense over the flattened (H+1)(W+1) integral table, times the
float64 copy of the N patches' tables.  Weights and table entries are
integers, and while the largest |table entry| times a feature's summed
|weights| stays below 2**53 every product and partial sum is an exact
float64 integer, so the product equals the exact integer sums in any
summation order; one division by the footprint area follows.  Larger tables
raise ValueError rather than round.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_N_RECTS = (_CELLS[:, :, 0] != 0).sum(axis=1)  # the rows after these are padding

# Byte budget of the dense corner-weight block FeatureExtractor.extract
# multiplies at a time.  BLAS packs a copy of the block into pages that stay
# resident, so the budget also bounds what extraction adds to peak RSS.
_BLOCK_BYTES = 1 << 18


def build_integral(image) -> np.ndarray:
    """Exact cumulative-sum table, (height+1, width+1) int64:
    table[y, x] = sum over pixels [0,y) x [0,x)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("image must be a nonempty 2-d pixel grid")
    h, w = image.shape
    table = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(image, axis=0, dtype=np.int64), axis=1, out=table[1:, 1:])
    return table


@dataclass(frozen=True)
class PoolParams:
    """Enumeration parameters of a feature pool; subsample keeps every n-th."""

    base_window: int = 24
    stride: int = 1
    min_size: int = 1
    subsample: int = 1


@dataclass(frozen=True, eq=False)
class FeaturePool:
    """Haar features as integer arrays, feature j in row j.

    kind[j] indexes KINDS, box[j] is the footprint (x0, y0, x1, y1) and
    rects[j, r] the r-th sub-rectangle (weight, x0, y0, x1, y1), all in base
    window coordinates; a kind with fewer than four pads with zero rows.
    """

    params: PoolParams
    kind: np.ndarray  # (M,)
    box: np.ndarray  # (M, 4)
    rects: np.ndarray  # (M, 4, 5)

    def __len__(self) -> int:
        return len(self.kind)


def build_pool(params: PoolParams) -> FeaturePool:
    """Every admissible feature ordered by (kind, y, x, h, w), then every
    subsample-th of them; deterministic."""
    bw, stride, min_size = params.base_window, params.stride, params.min_size
    if not bw >= min_size >= 1:
        raise ValueError("need base_window >= min_size >= 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if params.subsample < 1:
        raise ValueError("subsample must be at least 1")
    starts = np.arange(0, bw, min(stride, bw))  # a longer stride also places at 0 only
    parts = []
    for k, (uw, uh) in enumerate(_UNITS.tolist()):
        # Extents run from the smallest multiple of the unit that is at least min_size.
        hs = np.arange(-(-min_size // uh) * uh, bw + 1, uh)
        ws = np.arange(-(-min_size // uw) * uw, bw + 1, uw)
        y, x, h, w = (a.ravel() for a in np.meshgrid(starts, starts, hs, ws, indexing="ij"))
        fits = (y + h <= bw) & (x + w <= bw)
        parts.append(np.stack([np.full(fits.sum(), k), x[fits], y[fits], w[fits], h[fits]], axis=1))
    kind, x, y, w, h = np.concatenate(parts)[:: params.subsample].T
    cw, ch = w // _UNITS[kind, 0], h // _UNITS[kind, 1]
    cells = _CELLS[kind]
    origin = np.stack([np.zeros_like(x), x, y, x, y], axis=1)[:, None]
    cell_size = np.stack([np.ones_like(x), cw, ch, cw, ch], axis=1)[:, None]
    rects = (origin + cells * cell_size) * (cells[:, :, :1] != 0)
    return FeaturePool(params, kind, np.stack([x, y, x + w, y + h], axis=1), rects)


def _round_px(v):
    # Half-up rounding of scaled coordinates to whole pixels.
    return np.floor(v + 0.5).astype(np.int64)


def haar_values(pool: FeaturePool, j: int, table: np.ndarray, px, py, scale: float = 1.0) -> np.ndarray:
    """Area-normalized weighted rectangle differences of pool feature j,
    placed at scale in every window whose top-left corner is (px[i], py[i])
    of the integral table; exact integer sums, one float division each.

    Every corner of the sub-rectangles and of the footprint is scaled and
    rounded half up on its own; the scaled footprint's area normalizes.  The
    sub-rectangles fold into one integer weight per distinct corner offset
    y * (width+1) + x of the flattened table (corners whose weights cancel
    are dropped), and each window sums weight * table.ravel()[base + offset]
    from its base py * (width+1) + px.  Raises IndexError when a window's
    scaled footprint leaves the table on any side.
    """
    fx0, fy0, fx1, fy1 = _round_px(scale * pool.box[j]).tolist()
    area = (fx1 - fx0) * (fy1 - fy0)
    if area <= 0:
        raise ValueError("degenerate scaled footprint")
    px = np.asarray(px)
    py = np.asarray(py)
    rows, cols = table.shape
    if px.size and (px.min() + fx0 < 0 or py.min() + fy0 < 0
                    or px.max() + fx1 >= cols or py.max() + fy1 >= rows):
        raise IndexError("scaled footprint leaves the integral table")
    weights: dict[int, int] = {}
    rects = pool.rects[j, : _N_RECTS[pool.kind[j]]]
    for wgt, (x0, y0, x1, y1) in zip(rects[:, 0].tolist(), _round_px(scale * rects[:, 1:]).tolist()):
        for offset, sign in ((y1 * cols + x1, 1), (y0 * cols + x1, -1),
                             (y1 * cols + x0, -1), (y0 * cols + x0, 1)):
            weights[offset] = weights.get(offset, 0) + sign * wgt
    flat = table.ravel()
    base = py * cols + px
    acc = np.zeros(base.size, dtype=np.int64)
    for offset, wgt in weights.items():
        if wgt:  # flat[offset:] is a view, so the gather needs no index sum
            acc += wgt * flat[offset:][base]
    return acc / area


class FeatureExtractor:
    """Batch evaluation of a feature pool on same-size patches at scale 1.

    Each feature's sub-rectangles fold once, at construction, into integer
    weights on the distinct corners (x, y) of its rectangles, as haar_values
    folds them; corners whose weights cancel are dropped.
    """

    def __init__(self, pool: FeaturePool):
        self.pool = pool
        m = len(pool)
        rects = pool.rects  # padding rows carry weight 0 and fold away
        xs = rects[:, :, [3, 3, 1, 1]].reshape(m, 16)
        ys = rects[:, :, [4, 2, 4, 2]].reshape(m, 16)
        weights = (rects[:, :, :1] * np.array([1, -1, -1, 1])).reshape(m, 16)
        side = pool.params.base_window + 1  # corner coordinates run 0..base_window
        keys = (np.arange(m)[:, None] * side + ys) * side + xs
        corners, slot = np.unique(keys, return_inverse=True)
        folded = np.zeros(len(corners), dtype=np.int64)
        np.add.at(folded, slot.ravel(), weights.ravel())
        kept = folded != 0
        # Sorted by feature first, so a row block owns a contiguous run.
        rest, self._x = np.divmod(corners[kept], side)
        self._feature, self._y = np.divmod(rest, side)
        self._weight = folded[kept]
        l1 = np.bincount(self._feature, weights=np.abs(self._weight), minlength=m)
        self._max_l1 = int(l1.max()) if m else 0
        x0, y0, x1, y1 = pool.box.T
        self._area = ((x1 - x0) * (y1 - y0)).astype(np.float64)

    def extract(self, patches) -> np.ndarray:
        """(M, N) float64 value matrix for N patches.

        One matrix product per block of features: a dense block of folded
        corner weights on the flattened (H+1)(W+1) integral tables, times
        the float64 copy of the N tables, divided by each footprint's area.
        Every product and partial sum is an integer of magnitude at most
        max|table| * sum|weights|; below 2**53 that is exact in float64
        whatever order BLAS sums in, so the values equal the exact integer
        sums divided once by the area.  Raises ValueError when that bound
        could reach 2**53 (8-bit patches stay far below it) and IndexError
        when a footprint leaves the patches.
        """
        patches = np.asarray(patches)
        if patches.ndim != 3:
            raise ValueError("patches must be a (N, H, W) stack")
        n, h, w = patches.shape
        tables = np.zeros((n, h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.cumsum(patches, axis=1, dtype=np.int64), axis=2, out=tables[:, 1:, 1:])
        m = len(self.pool)
        if m and (self.pool.box[:, 2].max() > w or self.pool.box[:, 3].max() > h):
            raise IndexError("feature footprint leaves the patches")
        out = np.empty((m, n), dtype=np.float64)
        if m == 0 or n == 0:
            return out
        largest = max(-int(tables.min()), int(tables.max()))
        if largest * self._max_l1 >= 2**53:
            raise ValueError("integral sums could reach 2**53, past exact float64")
        cols = w + 1
        size = (h + 1) * cols
        flat = tables.reshape(n, size).astype(np.float64)
        del tables
        offsets = self._y * cols + self._x
        step = max(1, _BLOCK_BYTES // (8 * size))
        bounds = np.searchsorted(self._feature, np.arange(0, m + step, step))
        for lo, a, b in zip(range(0, m, step), bounds[:-1], bounds[1:]):
            hi = min(lo + step, m)
            block = np.bincount((self._feature[a:b] - lo) * size + offsets[a:b],
                                weights=self._weight[a:b], minlength=(hi - lo) * size)
            np.matmul(block.reshape(hi - lo, size), flat.T, out=out[lo:hi])
        out /= self._area[:, None]
        return out
