"""Integral images and Haar-like rectangle features.

Features are defined on a square base window and evaluated at arbitrary
offset/scale through an integral image, so a single trained model scans all
window sizes.  Rectangle weights balance to zero per feature, and values are
divided by the (scaled) footprint area to keep responses comparable across
scales.
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

# (width unit, height unit): the base rect must subdivide exactly per kind.
_UNITS = {
    "two-rect-horizontal": (2, 1),
    "two-rect-vertical": (1, 2),
    "three-rect-horizontal": (3, 1),
    "three-rect-vertical": (1, 3),
    "four-rect-diagonal": (2, 2),
}


@dataclass
class IntegralImage:
    """Exact cumulative-sum table; table[y][x] = sum over pixels [0,y) x [0,x)."""

    width: int
    height: int
    table: np.ndarray  # (height+1, width+1) int64

    def rect_sum(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Pixel sum over [x0,x1) x [y0,y1) with 4 lookups."""
        t = self.table
        return int(t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0])


def build_integral(image) -> IntegralImage:
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("image must be a nonempty 2-d pixel grid")
    h, w = image.shape
    table = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(image, axis=0, dtype=np.int64), axis=1, out=table[1:, 1:])
    return IntegralImage(w, h, table)


@dataclass
class HaarFeature:
    """A Haar-like rectangle feature placed inside a square base window.

    (x, y, w, h) is the full footprint; the kind fixes how it subdivides into
    positively and negatively weighted sub-rectangles.
    """

    kind: str
    x: int
    y: int
    w: int
    h: int
    base_window: int = 24

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        uw, uh = _UNITS[self.kind]
        if self.w < 1 or self.h < 1:
            raise ValueError("footprint needs positive extent")
        if self.w % uw or self.h % uh:
            raise ValueError("footprint does not subdivide for this kind")
        if self.x < 0 or self.y < 0 or self.x + self.w > self.base_window or self.y + self.h > self.base_window:
            raise ValueError("feature footprint outside the base window")

    def rects(self):
        """Weighted sub-rectangles as (weight, x0, y0, x1, y1), base coordinates.

        Weights sum to zero, so constant image regions respond zero.
        """
        x, y, w, h = self.x, self.y, self.w, self.h
        k = self.kind
        if k == "two-rect-horizontal":
            m = x + w // 2
            return [(1, x, y, m, y + h), (-1, m, y, x + w, y + h)]
        if k == "two-rect-vertical":
            m = y + h // 2
            return [(1, x, y, x + w, m), (-1, x, m, x + w, y + h)]
        if k == "three-rect-horizontal":
            t = w // 3
            return [
                (1, x, y, x + t, y + h),
                (-2, x + t, y, x + 2 * t, y + h),
                (1, x + 2 * t, y, x + w, y + h),
            ]
        if k == "three-rect-vertical":
            t = h // 3
            return [
                (1, x, y, x + w, y + t),
                (-2, x, y + t, x + w, y + 2 * t),
                (1, x, y + 2 * t, x + w, y + h),
            ]
        # four-rect-diagonal
        mx, my = x + w // 2, y + h // 2
        return [
            (1, x, y, mx, my),
            (-1, mx, y, x + w, my),
            (-1, x, my, mx, y + h),
            (1, mx, my, x + w, y + h),
        ]


def enumerate_haar(base_window: int, stride: int = 1, min_size: int = 1) -> list[HaarFeature]:
    """All admissible features ordered by (kind, y, x, h, w); deterministic."""
    if not base_window >= min_size >= 1:
        raise ValueError("need base_window >= min_size >= 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    out = []
    for kind in KINDS:
        uw, uh = _UNITS[kind]
        w_start = max(min_size, uw)
        w_start += (-w_start) % uw
        h_start = max(min_size, uh)
        h_start += (-h_start) % uh
        for y in range(0, base_window, stride):
            for x in range(0, base_window, stride):
                for h in range(h_start, base_window - y + 1, uh):
                    for w in range(w_start, base_window - x + 1, uw):
                        out.append(HaarFeature(kind, x, y, w, h, base_window))
    return out


def _round_px(v):
    # Half-up rounding, identical for scalars and arrays.
    return np.floor(np.asarray(v) + 0.5).astype(np.int64)


def scaled_rects(feature: HaarFeature, scale: float):
    """Sub-rectangles with corners scaled and rounded independently, plus
    the scaled footprint area used for normalization."""
    rects = [
        (wgt, int(_round_px(scale * x0)), int(_round_px(scale * y0)),
         int(_round_px(scale * x1)), int(_round_px(scale * y1)))
        for wgt, x0, y0, x1, y1 in feature.rects()
    ]
    fx0 = int(_round_px(scale * feature.x))
    fy0 = int(_round_px(scale * feature.y))
    fx1 = int(_round_px(scale * (feature.x + feature.w)))
    fy1 = int(_round_px(scale * (feature.y + feature.h)))
    area = (fx1 - fx0) * (fy1 - fy0)
    if area <= 0:
        raise ValueError("degenerate scaled footprint")
    return rects, area, (fx0, fy0, fx1, fy1)


def haar_values(feature: HaarFeature, table: np.ndarray, px, py, scale: float = 1.0) -> np.ndarray:
    """Area-normalized weighted rectangle differences of one feature, placed at
    scale in every window whose top-left corner is (px[i], py[i]) of the
    integral table; exact integer sums, one float division each.

    The caller keeps every scaled footprint inside the table.
    """
    rects, area, _ = scaled_rects(feature, scale)
    acc = np.zeros(len(px), dtype=np.int64)
    for wgt, x0, y0, x1, y1 in rects:
        acc += wgt * (table[py + y1, px + x1] - table[py + y0, px + x1]
                      - table[py + y1, px + x0] + table[py + y0, px + x0])
    return acc / area


class FeatureExtractor:
    """Batch evaluation of a feature pool on same-size patches at scale 1."""

    def __init__(self, pool: list[HaarFeature]):
        self.pool = pool

    def extract(self, patches) -> np.ndarray:
        """(M, N) float64 value matrix for N patches; exact integer sums inside."""
        patches = np.asarray(patches)
        if patches.ndim != 3:
            raise ValueError("patches must be a (N, H, W) stack")
        n, h, w = patches.shape
        tables = np.zeros((n, h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.cumsum(patches, axis=1, dtype=np.int64), axis=2, out=tables[:, 1:, 1:])
        out = np.empty((len(self.pool), n), dtype=np.float64)
        for j, f in enumerate(self.pool):
            acc = np.zeros(n, dtype=np.int64)
            area = f.w * f.h
            for wgt, x0, y0, x1, y1 in f.rects():
                acc += wgt * (
                    tables[:, y1, x1] - tables[:, y0, x1] - tables[:, y1, x0] + tables[:, y0, x0]
                )
            out[j] = acc / area
        return out


@dataclass
class PoolParams:
    """Enumeration parameters of a feature pool; subsample keeps every n-th."""

    base_window: int = 24
    stride: int = 1
    min_size: int = 1
    subsample: int = 1


def build_pool(params: PoolParams) -> list[HaarFeature]:
    if params.subsample < 1:
        raise ValueError("subsample must be at least 1")
    return enumerate_haar(params.base_window, params.stride, params.min_size)[:: params.subsample]

