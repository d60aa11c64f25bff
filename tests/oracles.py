"""Independent reference computations used by the test suite.

Everything here recomputes quantities from their definitions (per-sample
loops, dense inversions, exhaustive scans) rather than reusing the package's
incremental paths.
"""

import csv
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from gslda_cascade.boosting import BoostingConfig, EdgeStats
from gslda_cascade.cascade import BootstrapExhaustedError
from gslda_cascade.detect import DetectionWindow, ROCPoint, match_detections, overlap_ratio
from gslda_cascade.features import KINDS
from gslda_cascade.scatter import _SINGULAR_TOL, GreedySelector, ScatterConfig
from gslda_cascade.stumps import StumpTable


class ResponseTable(NamedTuple):
    """A +/-1 stump table in the package layout: responses[j, i] is stump j's
    output on sample i, labels[i] the +/-1 class of sample i.  Unpacks into
    the first two arguments of GreedySelector."""

    responses: np.ndarray  # (M, N)
    labels: np.ndarray  # (N,)


def effective_weights(rm: ResponseTable, w):
    # Package convention: distribution weights are rescaled by N so uniform
    # weights reproduce the unweighted scatter.
    if w is None:
        return np.ones(len(rm.labels))
    return np.asarray(w, dtype=float) * len(rm.labels)


def direct_within(rm: ResponseTable, cfg: ScatterConfig, w=None) -> np.ndarray:
    """Full within-class scatter by per-sample outer products."""
    x = rm.responses.T.astype(float)  # one row per sample
    m = x.shape[1]
    ww = effective_weights(rm, w)
    s = np.zeros((m, m))
    for cls, g in ((1, 1.0), (-1, cfg.gamma)):
        idx = np.flatnonzero(rm.labels == cls)
        wc = ww[idx]
        mu = (x[idx] * wc[:, None]).sum(axis=0) / wc.sum()
        for i in idx:
            d = x[i] - mu
            s += g * ww[i] * np.outer(d, d)
    return s + cfg.ridge * np.eye(m)


def direct_between_vector(rm: ResponseTable, w=None) -> np.ndarray:
    x = rm.responses.T.astype(float)
    ww = effective_weights(rm, w)
    pos = rm.labels > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    mu_p = (x[pos] * ww[pos, None]).sum(axis=0) / ww[pos].sum()
    mu_n = (x[~pos] * ww[~pos, None]).sum(axis=0) / ww[~pos].sum()
    return np.sqrt(n_pos * n_neg / len(rm.labels)) * (mu_p - mu_n)


def direct_sb(rm: ResponseTable) -> np.ndarray:
    """Between-class scatter sum_c N_c (mu_c - xbar)(mu_c - xbar)'."""
    x = rm.responses.T.astype(float)
    xbar = x.mean(axis=0)
    s = np.zeros((x.shape[1], x.shape[1]))
    for cls in (1, -1):
        xc = x[rm.labels == cls]
        d = xc.mean(axis=0) - xbar
        s += len(xc) * np.outer(d, d)
    return s


def subset_eigenvalue(rm, cfg, subset, w=None) -> float:
    """b_l' (S_w^l)^{-1} b_l via a dense solve on directly summed matrices."""
    subset = list(subset)
    sw = direct_within(rm, cfg, w)[np.ix_(subset, subset)]
    b = direct_between_vector(rm, w)[subset]
    return float(b @ np.linalg.solve(sw, b))


def from_scratch_greedy(rm, cfg, k, w=None) -> list[int]:
    """Reference greedy selection re-inverting from scratch each step.

    Same tie-break as the package: lowest feature index wins.
    """
    sw = direct_within(rm, cfg, w)
    b = direct_between_vector(rm, w)
    selected: list[int] = []
    for _ in range(k):
        best, best_val = None, -np.inf
        for i in range(rm.responses.shape[0]):
            if i in selected:
                continue
            idx = selected + [i]
            block = sw[np.ix_(idx, idx)]
            try:
                val = float(b[idx] @ np.linalg.solve(block, b[idx]))
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(val):
                continue
            if best is None or val > best_val:
                best, best_val = i, val
        if best is None:
            break
        selected.append(best)
    return selected


def exhaustive_best_subset(rm, cfg, k) -> float:
    best = -np.inf
    for subset in itertools.combinations(range(rm.responses.shape[0]), k):
        try:
            val = subset_eigenvalue(rm, cfg, subset)
        except np.linalg.LinAlgError:
            continue
        best = max(best, val)
    return best


def bgslda_pick(rm: ResponseTable, w, errors, chosen, chosen_rows, cfg, eps):
    """BGSLDA's pick by its definition, over the stump table rm.

    The candidates are the unchosen stumps whose weighted error on rm (the
    weight of the samples they misclassify, w summing to 1) is within eps of
    the least such error, else within 2 eps, else the one unchosen stump of
    least errors[j] (the lowest index on ties).  Candidate j scores the
    eigenvalue of chosen_rows plus row j by a dense solve; the greatest
    score wins, the lowest index on ties.  Returns the table index, or None
    when every stump is chosen.
    """
    w = np.asarray(w, dtype=float)
    err = [math.fsum(w[row != rm.labels]) for row in rm.responses]
    for slack in (eps, 2 * eps):
        allowed = [j for j, e in enumerate(err) if e <= min(err) + slack and j not in chosen]
        if allowed:
            break
    else:
        allowed = sorted((j for j in range(len(errors)) if j not in chosen), key=lambda j: (errors[j], j))[:1]
    best, best_val = None, -np.inf
    for j in allowed:
        rows = ResponseTable(np.vstack(list(chosen_rows) + [rm.responses[j]]), rm.labels)
        val = subset_eigenvalue(rows, cfg, range(len(rows.responses)), w)
        if val > best_val:
            best, best_val = j, val
    return best


def exhaustive_stump(values, labels, weights):
    """Minimum weighted error over all threshold slots x both polarities.

    Thresholds are -inf, +inf and midpoints of consecutive distinct sorted
    values; returns (error, threshold, polarity) with the same tie-break as
    the package (smaller threshold, then polarity +1).
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    sv = np.sort(values)
    thresholds = [-np.inf]
    for a, b in zip(sv[:-1], sv[1:]):
        if a != b:
            thresholds.append(0.5 * (a + b))
    thresholds.append(np.inf)
    best = None
    for thr in thresholds:
        for pol in (1, -1):
            pred = np.where(values >= thr, pol, -pol)
            err = weights[pred != labels].sum()
            key = (err, thr, 0 if pol == 1 else 1)
            if best is None or key < best:
                best = key
    return best[0], best[1], (1 if best[2] == 0 else -1)


def stump_table(values, labels, weights):
    """The whole-table stump trainer: one sort and one error sweep over all
    M rows at once, each (M, N + 1) intermediate held in full.  Returns
    (thresholds, polarities, errors, responses) in the package's layout."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    labels = np.asarray(labels)
    m, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_values = np.take_along_axis(values, order, axis=1)
    sorted_labels = labels[order]
    su = np.asarray(weights, dtype=np.float64)[order]
    pos_w = np.where(sorted_labels > 0, su, 0.0)
    neg_w = np.where(sorted_labels < 0, su, 0.0)
    cp = np.zeros((m, n + 1))
    cn = np.zeros((m, n + 1))
    np.cumsum(pos_w, axis=1, out=cp[:, 1:])
    np.cumsum(neg_w, axis=1, out=cn[:, 1:])
    total = cp[:, -1] + cn[:, -1]
    err_plus = cp + (cn[:, -1:] - cn)
    err_minus = total[:, None] - err_plus
    invalid = np.ones((m, n + 1), dtype=bool)
    invalid[:, 0] = invalid[:, -1] = False
    invalid[:, 1:n] = sorted_values[:, 1:] == sorted_values[:, :-1]
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
    thresholds[mid] = 0.5 * (sorted_values[mid, ms - 1] + sorted_values[mid, ms])
    responses = np.where(values >= thresholds[:, None], 1, -1).astype(np.int8)
    responses *= polarity[:, None].astype(np.int8)
    return thresholds, polarity, errors, responses


def table_of(responses, errors, labels) -> StumpTable:
    """A StumpTable whose outputs are the given +/-1 rows: each row is its
    own int8 sums, passed at 1 by a +1 polarity.  A row of all +1 sits at
    slot 0, a row of all -1 at slot N, and any other row at slot 1, between
    its first -1 and its first +1 sample."""
    responses = np.asarray(responses, dtype=np.int8)
    m, n = responses.shape
    slots = np.where((responses > 0).all(axis=1), 0, np.where((responses < 0).all(axis=1), n, 1)).astype(np.int32)
    cols = np.stack([np.argmin(responses, axis=1), np.argmax(responses, axis=1)], axis=1).astype(np.uint16)
    return StumpTable(np.ones(m, dtype=np.int8), np.asarray(errors, dtype=np.float64), np.asarray(labels),
                      responses, slots, cols, np.ones(m))


def thresholds_of(table) -> np.ndarray:
    """Every row's threshold, as table.stump(j) gives it."""
    return np.array([table.stump(j)[0].threshold for j in range(len(table))])


def prune_stumps(table, w, cfg):
    """The whole-table prune: every row's edge sum_i w_i y_i h_j(x_i) by one
    np.einsum over the table's outputs, the best edge beta_k, and the rows
    whose edge is within 2 epsilon of it.  Returns (indices, EdgeStats)."""
    if len(table) == 0:
        raise ValueError("empty stump table")
    w = np.asarray(w, dtype=np.float64)
    edges = np.einsum("mn,n->m", table.responses(np.arange(len(table))), w * table.labels)
    best = int(np.argmax(edges))
    beta_k = float(edges[best])
    e_k = 0.5 - 0.5 * beta_k
    keep = edges >= beta_k - 2.0 * cfg.prune_epsilon
    keep[best] = True
    return np.flatnonzero(keep), EdgeStats(beta_k, e_k)


def bgslda_table(table, w, cfg, chosen, chosen_rows):
    """BGSLDA's selector table from the whole response table: chosen_rows,
    then the outputs of the unchosen survivors of the whole-table prune
    (prune_stumps above) in ascending order, after doubling the slack once,
    else of the least-error unchosen stump (the lowest index on ties).
    Returns (those stumps' indices, the (k + len, N) int8 table)."""
    full = table.responses(np.arange(len(table)))
    for eps in (cfg.prune_epsilon, 2 * cfg.prune_epsilon):
        kept = prune_stumps(table, w, BoostingConfig(cfg.asym_k, eps))[0]
        allowed = [j for j in kept.tolist() if j not in chosen]
        if allowed:
            break
    else:
        allowed = sorted((j for j in range(len(table)) if j not in chosen), key=lambda j: (table.errors[j], j))[:1]
    head = np.asarray(chosen_rows, dtype=np.int8).reshape(len(chosen_rows), full.shape[1])
    return allowed, np.concatenate([head, full[allowed]])


def random_rm(rng, n, m, skew=0.5) -> ResponseTable:
    """Random +/-1 table of m stumps on n samples with both classes present."""
    labels = np.where(rng.random(n) < skew, 1, -1)
    labels[0], labels[1] = 1, -1
    responses = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, m))
    return ResponseTable(responses.T, labels)


def forward_select(rm: ResponseTable, cfg: ScatterConfig, k: int, w=None) -> GreedySelector:
    """Drive the package selector: up to k greedy steps, then the backward
    pass when cfg.dual_pass is set.  Raises when not even a single feature is
    admissible."""
    if k > rm.responses.shape[0]:
        raise ValueError("k exceeds the number of candidate features")
    sel = GreedySelector(*rm, cfg, w)
    while len(sel.selected) < k and sel.step() is not None:
        pass
    if not sel.selected:
        raise ValueError("no separating feature")
    if cfg.dual_pass:
        sel.eliminate()
    return sel


def candidate_scores(sel: GreedySelector) -> np.ndarray:
    """Eigenvalue of sel's subset plus {i} for every candidate i, as step
    scores them: selected and singular candidates score -inf."""
    return sel._scored()[0]


def augment(sel: GreedySelector, i: int) -> None:
    """Add feature i to sel by the rank-one update that step makes, whatever
    i's score.  Raises ValueError when i is already selected or its Schur
    complement is not safely positive (at or below the selector's
    tolerance), the cases step never hands to the update."""
    if i in sel.selected:
        raise ValueError(f"feature {i} already selected")
    _, u, c = sel._scored()  # a one-column product would round otherwise
    if c[i] <= _SINGULAR_TOL:
        raise ValueError("singular augmentation")
    sel._add(i, u[:, i], c[i])


def node_margin(node, responses) -> np.ndarray | float:
    """sum_t w_t h_t + threshold: from 0, each stump's vote c * h added in
    stump order, then the threshold, the order in which the package sums a
    node's score, so that the scan's margins equal it bit for bit.

    responses is the per-stump +/-1 output, either a vector (one sample) or a
    (T, n) matrix.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if responses.shape[0] != len(node.stumps):
        raise ValueError("responses are not aligned with the node's stumps")
    acc = np.zeros(responses.shape[1:])
    for c, h in zip(node.coefficients, responses):
        acc = acc + c * h
    acc = acc + node.node_threshold
    return float(acc) if acc.ndim == 0 else acc


def stump_response(stump, value) -> int:
    """One stump's output on one value: polarity when value >= threshold."""
    return stump.polarity if value >= stump.threshold else -stump.polarity


def weighted_error(responses, labels, weights) -> float:
    """Weight mass of misclassified samples."""
    responses = np.asarray(responses)
    labels = np.asarray(labels)
    return float(np.asarray(weights)[responses != labels].sum())


def reweight_adaboost(w, responses, labels, a) -> np.ndarray:
    """The plain AdaBoost update w * exp(-a/2 * y h) / Z, with no asymmetry term."""
    u = np.asarray(w, dtype=np.float64) * np.exp(-a / 2 * (np.asarray(labels) * np.asarray(responses)))
    return u / u.sum()


@dataclass
class IntegralImage:
    """An integral table with its image size, read one rectangle at a time."""

    width: int
    height: int
    table: list[list[int]]  # (height+1) rows of width+1; table[y][x] = sum over pixels [0,y) x [0,x)

    def rect_sum(self, x0: int, y0: int, x1: int, y1: int) -> int:
        """Pixel sum over [x0,x1) x [y0,y1) with 4 lookups."""
        t = self.table
        return t[y1][x1] - t[y0][x1] - t[y1][x0] + t[y0][x0]


def integral_image(image) -> IntegralImage:
    """The integral table of image in Python integers, for scalar lookups:
    each row adds the running sums of its pixels to the row above."""
    pixels = np.asarray(image).tolist()
    h, w = len(pixels), len(pixels[0])
    table = [[0] * (w + 1)]
    for row in pixels:
        above = table[-1]
        table.append([0] + [a + r for a, r in zip(above[1:], itertools.accumulate(row))])
    return IntegralImage(w, h, table)


# (width unit, height unit): the footprint must subdivide exactly per kind.
_UNITS = {
    "two-rect-horizontal": (2, 1),
    "two-rect-vertical": (1, 2),
    "three-rect-horizontal": (3, 1),
    "three-rect-vertical": (1, 3),
    "four-rect-diagonal": (2, 2),
}


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
    """All admissible features ordered by (kind, y, x, h, w), one object each."""
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


@functools.lru_cache(maxsize=None)
def _enumerated(params):
    return enumerate_haar(params.base_window, params.stride, params.min_size)[:: params.subsample]


def pool_features(pool) -> list[HaarFeature]:
    """A package FeaturePool as oracle objects, re-enumerated from its params."""
    return _enumerated(pool.params)


def _round_px(v: float) -> int:
    return math.floor(v + 0.5)  # half up


def scaled_rects(feature: HaarFeature, scale: float):
    """Sub-rectangles with corners scaled and rounded independently, plus
    the scaled footprint area used for normalization."""
    rects = [
        (wgt, _round_px(scale * x0), _round_px(scale * y0), _round_px(scale * x1), _round_px(scale * y1))
        for wgt, x0, y0, x1, y1 in feature.rects()
    ]
    fx0 = _round_px(scale * feature.x)
    fy0 = _round_px(scale * feature.y)
    fx1 = _round_px(scale * (feature.x + feature.w))
    fy1 = _round_px(scale * (feature.y + feature.h))
    area = (fx1 - fx0) * (fy1 - fy0)
    if area <= 0:
        raise ValueError("degenerate scaled footprint")
    return rects, area, (fx0, fy0, fx1, fy1)


def eval_haar(feature, ii, offset_x=0, offset_y=0, scale=1.0) -> float:
    """Area-normalized weighted rectangle difference at one placement, with
    four integral-table lookups per rectangle."""
    rects, area, (fx0, fy0, fx1, fy1) = scaled_rects(feature, scale)
    if offset_x + fx0 < 0 or offset_y + fy0 < 0 or offset_x + fx1 > ii.width or offset_y + fy1 > ii.height:
        raise ValueError("footprint out of bounds")
    acc = 0
    for wgt, x0, y0, x1, y1 in rects:
        acc += wgt * ii.rect_sum(offset_x + x0, offset_y + y0, offset_x + x1, offset_y + y1)
    return acc / area


def fold_corners(feature: HaarFeature) -> list[tuple[int, int, int]]:
    """The feature's sub-rectangles as (weight, x, y) on their distinct
    corners, ordered by (y, x), corners whose weights cancel dropped."""
    weights: dict[tuple[int, int], int] = {}
    for wgt, x0, y0, x1, y1 in feature.rects():
        for x, y, sign in ((x1, y1, 1), (x1, y0, -1), (x0, y1, -1), (x0, y0, 1)):
            weights[y, x] = weights.get((y, x), 0) + sign * wgt
    return [(wgt, x, y) for (y, x), wgt in sorted(weights.items()) if wgt]


def extract(pool, patches) -> np.ndarray:
    """The (M, N) value matrix of a FeaturePool on N same-size patches at
    scale 1, one oracle feature at a time: exact int64 sums of four corner
    lookups per sub-rectangle on the N integral tables, then one division
    by the footprint area."""
    patches = np.asarray(patches)
    n, h, w = patches.shape
    tables = np.zeros((n, h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(patches, axis=1, dtype=np.int64), axis=2, out=tables[:, 1:, 1:])
    features = pool_features(pool)
    assert len(features) == len(pool)
    out = np.empty((len(pool), n), dtype=np.float64)
    for j, feature in enumerate(features):
        acc = np.zeros(n, dtype=np.int64)
        for wgt, x0, y0, x1, y1 in feature.rects():
            acc += wgt * (tables[:, y1, x1] - tables[:, y0, x1] - tables[:, y1, x0] + tables[:, y0, x0])
        out[j] = acc / (feature.w * feature.h)
    return out


def decide_window(model, ii, offset_x=0, offset_y=0, scale=1.0, early_exit=True):
    """Run the cascade on one window, one stump at a time.

    Returns (accepted, stages_passed, score, feature_evals); score is the
    margin of the last node evaluated.
    """
    accepted = True
    stages = 0
    score = 0.0
    evals = 0
    features = pool_features(model.feature_pool)
    for node in model.nodes:
        if not accepted and early_exit:
            break
        responses = np.array([
            stump_response(s, eval_haar(features[s.feature_id], ii, offset_x, offset_y, scale))
            for s in node.stumps
        ], dtype=np.float64)
        evals += len(node.stumps)
        score = node_margin(node, responses)
        if score >= 0 and accepted:
            stages += 1
        else:
            accepted = False
    return accepted, stages, score, evals


def pyramid_windows(h, w, base, factor, step):
    """Direct enumeration of the scan grid: (x, y, side, scale)."""
    out = []
    s = 0
    while True:
        scale = factor**s
        side = int(np.floor(base * scale + 0.5))
        if side > min(h, w):
            break
        shift = max(1, int(np.floor(step * scale + 0.5)))
        for y in range(0, h - side + 1, shift):
            for x in range(0, w - side + 1, shift):
                out.append((x, y, side, scale))
        s += 1
    return out


def scan_windows(model, image, scale_factor=1.2, step=1.0):
    """(accepted window, scale) pairs in scan order, by decide_window."""
    image = np.asarray(image)
    if min(image.shape) < model.base_window:
        return []
    ii = integral_image(image)
    out = []
    for x, y, side, scale in pyramid_windows(*image.shape, model.base_window, scale_factor, step):
        accepted, stages, score, _ = decide_window(model, ii, x, y, scale)
        if accepted:
            out.append((DetectionWindow(x, y, side, float(score), stages), scale))
    return out


def bootstrap_negatives(model, reservoir, count, seed=0, stride=4, min_required=None):
    """Windows the cascade accepts, visited one by one in a seeded random
    order of the reservoir's stride grid."""
    if len(reservoir) == 0:
        raise ValueError("empty negative reservoir")
    if min_required is None:
        min_required = max(1, count // 20)
    bw = model.base_window
    slots = []
    for idx, image in enumerate(reservoir):
        h, w = np.asarray(image).shape
        for y in range(0, h - bw + 1, stride):
            for x in range(0, w - bw + 1, stride):
                slots.append((idx, x, y))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(slots))
    tables = {}
    found = []
    for slot in order:
        idx, x, y = slots[slot]
        if idx not in tables:
            tables[idx] = integral_image(reservoir[idx])
        accepted, _, _, _ = decide_window(model, tables[idx], x, y)
        if accepted:
            found.append(np.asarray(reservoir[idx])[y : y + bw, x : x + bw])
            if len(found) >= count:
                break
    if len(found) < min(min_required, count):
        raise BootstrapExhaustedError("bootstrap exhausted")
    return np.stack(found)


def merge_detections(windows, min_neighbors=2):
    """Group windows by transitive >= 0.5 overlap, testing every pair; each
    group of at least min_neighbors members emits one corner-averaged window
    (max score), groups in order of their first member."""
    n = len(windows)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        wi = windows[i]
        for j in range(i + 1, n):
            wj = windows[j]
            if overlap_ratio(wi.x, wi.y, wi.side, wi.side, wj.x, wj.y, wj.side, wj.side) >= 0.5:
                parent[find(i)] = find(j)
    groups: dict[int, list[DetectionWindow]] = {}
    order: list[int] = []
    for i in range(n):
        root = find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(windows[i])
    def mean_half_up(values):
        return int(np.floor(np.mean(values) + 0.5))

    out = []
    for root in order:
        members = groups[root]
        if len(members) < min_neighbors:
            continue
        out.append(
            DetectionWindow(
                x=mean_half_up([m.x for m in members]),
                y=mean_half_up([m.y for m in members]),
                side=mean_half_up([m.side for m in members]),
                score=max(m.score for m in members),
                stages_passed=max(m.stages_passed for m in members),
            )
        )
    return out


def roc_curve(model, images, truths, mode="depth", scale_factor=1.2, step=1.0,
              min_neighbors=2, n_thresholds=10):
    """Operating-curve points by rescanning: one scan of every image per
    cascade prefix, plus the last node's margin evaluated window by window.
    Also returns the full cascade's match result from a further scan."""
    def prefix(depth):
        return replace(model, nodes=model.nodes[:depth])

    def detect_all(sub):
        detections = []
        for image_id, image in images:
            wins = [win for win, _ in scan_windows(sub, image, scale_factor, step)]
            detections.extend((image_id, w) for w in merge_detections(wins, min_neighbors))
        return detections

    points = []
    if mode == "depth":
        for depth in range(1, len(model.nodes) + 1):
            res = match_detections(detect_all(prefix(depth)), truths)
            points.append(ROCPoint(f"depth={depth}", res.false_positives, res.true_positives / len(truths)))
    else:
        last = model.nodes[-1]
        features = pool_features(model.feature_pool)
        candidates = []  # (image_id, window, last-node margin)
        for image_id, image in images:
            ii = integral_image(image)
            for win, scale in scan_windows(prefix(len(model.nodes) - 1), image, scale_factor, step):
                responses = np.array([
                    stump_response(s, eval_haar(features[s.feature_id], ii, win.x, win.y, scale))
                    for s in last.stumps
                ], dtype=np.float64)
                candidates.append((image_id, win, node_margin(last, responses)))
        margins = np.array([c[2] for c in candidates]) if candidates else np.zeros(0)
        taus = []
        if margins.size:
            taus = sorted(set(np.quantile(margins, np.linspace(0.0, 1.0, n_thresholds)).tolist()))
        taus.append(np.inf)
        for tau in taus:
            kept = [(cid, replace(win, score=m, stages_passed=win.stages_passed + 1))
                    for cid, win, m in candidates if m >= tau]
            merged = []
            for image_id, _ in images:
                wins = [w for cid, w in kept if cid == image_id]
                merged.extend((image_id, w) for w in merge_detections(wins, min_neighbors))
            res = match_detections(merged, truths)
            points.append(ROCPoint(f"threshold={tau:.6g}", res.false_positives, res.true_positives / len(truths)))
    points.sort(key=lambda p: (p.false_positives, -p.detection_rate))
    return points, match_detections(detect_all(model), truths)


def write_detections_csv(rows, path):
    """The detections CSV written row by row through csv.writer, from
    (image_id, DetectionWindow) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "x", "y", "side", "score"])
        for image_id, win in rows:
            writer.writerow([image_id, win.x, win.y, win.side, repr(win.score)])
