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
    """Batch evaluation of a feature pool on same-size patches at scale 1."""

    def __init__(self, pool: FeaturePool):
        self.pool = pool

    def extract(self, patches) -> np.ndarray:
        """(M, N) float64 value matrix for N patches; exact integer sums inside."""
        patches = np.asarray(patches)
        if patches.ndim != 3:
            raise ValueError("patches must be a (N, H, W) stack")
        n, h, w = patches.shape
        tables = np.zeros((n, h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.cumsum(patches, axis=1, dtype=np.int64), axis=2, out=tables[:, 1:, 1:])
        pool = self.pool
        out = np.empty((len(pool), n), dtype=np.float64)
        features = zip(pool.box.tolist(), _N_RECTS[pool.kind].tolist(), pool.rects.tolist())
        for j, ((fx0, fy0, fx1, fy1), count, rects) in enumerate(features):
            acc = np.zeros(n, dtype=np.int64)
            for wgt, x0, y0, x1, y1 in rects[:count]:
                acc += wgt * (
                    tables[:, y1, x1] - tables[:, y0, x1] - tables[:, y1, x0] + tables[:, y0, x0]
                )
            out[j] = acc / ((fx1 - fx0) * (fy1 - fy0))
        return out
