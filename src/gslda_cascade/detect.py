"""Sliding-window detection and evaluation.

Scanning enumerates square windows over a geometric scale pyramid, runs the
cascade evaluator (cascade.evaluate_windows) once per scale, merges
overlapping acceptances, and scores the result against ground-truth boxes.
Merging links windows whose overlap ratio is at least 0.5, transitively, and
emits one window per group of min_neighbors or more: rounded mean corners and
side, maximum score and stages, groups in order of their first member.  It
tests only pairs whose x offset is within a third of the left window's side,
a bound no linked pair exceeds, in fixed-size blocks of pairs.
The operating curves reuse one early-exit scan per image: the prefix of
depth d accepts exactly the windows that passed at least d nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeModel, evaluate_windows
from .features import build_integral


@dataclass
class DetectionWindow:
    x: int
    y: int
    side: int
    score: float
    stages_passed: int


@dataclass
class GroundTruthBox:
    image_id: str
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError("ground-truth box needs positive extent")


@dataclass
class ROCPoint:
    operating_point: str
    false_positives: int
    detection_rate: float


@dataclass
class ScanProfile:
    """Aggregable counters: total windows scanned, Haar evaluations and
    windows accepted (raw, before merging)."""

    windows_scanned: int = 0
    feature_evals: int = 0
    raw_windows: int = 0


def avg_features_per_window(profile: ScanProfile) -> float:
    if profile.windows_scanned == 0:
        raise ValueError("profile covers no scanned windows")
    return profile.feature_evals / profile.windows_scanned


def _round_half_up(v) -> int:
    return int(np.floor(v + 0.5))


def scan_image(model: CascadeModel, image, scale_factor: float = 1.2, step: float = 1.0,
               profile: ScanProfile | None = None) -> list[DetectionWindow]:
    """All windows the cascade accepts, over a scale pyramid.

    Window sides are base * scale_factor**s while they fit; the shift grows
    with the scale so scan density is scale-uniform.  Window, Haar evaluation
    and accepted-window counts accumulate into `profile` when given.
    """
    depth = len(model.nodes)
    windows = [w for scan in _scan_pyramid(model, image, scale_factor, step, depth, profile)
               for w in _detections(scan, depth)]
    if profile is not None:
        profile.raw_windows += len(windows)
    return windows


def _detections(scan, depth: int) -> list[DetectionWindow]:
    """The windows of one scanned scale that the first `depth` nodes accept,
    scored by the margin of the last of them (0 for depth 0)."""
    px, py, side, stages, margins = scan
    idx = np.flatnonzero(stages >= depth)
    scores = margins[depth - 1, idx] if depth else np.zeros(idx.size)
    return [DetectionWindow(x, y, side, score, depth)
            for x, y, score in zip(px[idx].tolist(), py[idx].tolist(), scores.tolist())]


def overlap_ratio(ax, ay, aw, ah, bx, by, bw, bh) -> float:
    """Intersection over union of two axis-aligned boxes."""
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


# Upper bound on the candidate pairs merge_detections tests at once; it bounds
# the temporary arrays whatever the window density.
_PAIR_BLOCK = 1 << 12
# Margin quantiles at which threshold-mode roc_curve places its operating points.
_ROC_THRESHOLDS = 10


def merge_detections(windows: list[DetectionWindow], min_neighbors: int = 2) -> list[DetectionWindow]:
    """Group windows by transitive >= 0.5 overlap; each group of at least
    min_neighbors members emits one corner-averaged window (max score).

    Groups come out in the order of their first member.  A group's x, y and
    side are the half-up rounded means of its members' (exact integer sum
    divided by the count); score and stages_passed are the members' maxima.

    Not every pair is compared.  Two squares reach the ratio only when their
    x offset is at most a third of the left one's side, so with the windows
    sorted by x each is tested only against the later ones within that
    offset, at most _PAIR_BLOCK pairs at a time, and the linked pairs are
    joined into components.  The ratio is tested in exact integers,
    2 * inter >= union, which equals inter / union >= 0.5 while the union
    stays below 2**53.
    """
    n = len(windows)
    if n == 0:
        return []
    x = np.fromiter((w.x for w in windows), np.int64, n)
    y = np.fromiter((w.y for w in windows), np.int64, n)
    side = np.fromiter((w.side for w in windows), np.int64, n)
    root = _components(n, *_overlapping_pairs(x, y, side))
    order = np.argsort(root, kind="stable")  # by group root (its first member), members ascending
    cuts = [0, *(np.flatnonzero(np.diff(root[order])) + 1).tolist(), n]
    order = order.tolist()
    out = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        count = stop - start
        if count < min_neighbors:
            continue
        members = [windows[i] for i in order[start:stop]]
        out.append(
            DetectionWindow(
                x=_round_half_up(sum(m.x for m in members) / count),
                y=_round_half_up(sum(m.y for m in members) / count),
                side=_round_half_up(sum(m.side for m in members) / count),
                score=max(m.score for m in members),
                stages_passed=max(m.stages_passed for m in members),
            )
        )
    return out


def _overlapping_pairs(x, y, side):
    """Index pairs (a, b) of the square windows whose overlap ratio is at
    least 0.5, each unordered pair once."""
    by_x = np.argsort(x, kind="stable")
    xs, ys, ss = x[by_x], y[by_x], side[by_x]
    # Sorted position i is tested against positions i+1 .. stop[i]-1, the
    # later windows with dx = x_j - x_i <= side_i / 3.  A pair further apart
    # cannot reach the ratio: 2 * inter >= union needs 3 * inter >= side_i**2
    # + side_j**2 >= 2 * side_i * side_j, while inter <= (side_i - dx) * side_j.
    stop = np.searchsorted(xs, xs + ss // 3, side="right")
    counts = np.maximum(stop - np.arange(1, xs.size + 1), 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    found_a, found_b = [], []
    row = 0
    while row < xs.size:
        # Whole rows up to _PAIR_BLOCK pairs; a single row may exceed it.
        last = max(int(np.searchsorted(ends, starts[row] + _PAIR_BLOCK, side="right")), row + 1)
        c = counts[row:last]
        a = np.repeat(np.arange(row, last), c)
        b = a + 1 + np.arange(starts[row], ends[last - 1]) - np.repeat(starts[row:last], c)
        ix = np.minimum(xs[a] + ss[a], xs[b] + ss[b]) - xs[b]
        iy = np.minimum(ys[a] + ss[a], ys[b] + ss[b]) - np.maximum(ys[a], ys[b])
        inter = np.maximum(ix, 0) * np.maximum(iy, 0)
        union = ss[a] * ss[a] + ss[b] * ss[b] - inter
        keep = (2 * inter >= union) & (union > 0)
        found_a.append(by_x[a[keep]])
        found_b.append(by_x[b[keep]])
        row = last
    return np.concatenate(found_a), np.concatenate(found_b)


def _components(n, a, b):
    """For each of n nodes, the smallest node index of its connected
    component under the edges (a[k], b[k])."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            return root
        ra, rb = ra[differ], rb[differ]
        # Hook each root to the smallest root it shares an edge with: links
        # only ever point to smaller indices, so no cycle forms.
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while True:  # pointer jumping until every node points at its root
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


@dataclass
class MatchResult:
    true_positives: int
    false_positives: int
    missed: int


def match_detections(detections, truths: list[GroundTruthBox]) -> MatchResult:
    """Greedy matching in descending score order.

    `detections` holds (image_id, DetectionWindow) pairs.  A detection claims
    the unmatched same-image truth of highest overlap when that overlap
    exceeds 0.5; every further detection of an already-claimed truth is a
    false positive.
    """
    order = sorted(range(len(detections)), key=lambda i: -detections[i][1].score)
    matched = [False] * len(truths)
    tp = fp = 0
    for i in order:
        image_id, win = detections[i]
        best_j, best_ov = -1, 0.5
        for j, truth in enumerate(truths):
            if matched[j] or truth.image_id != image_id:
                continue
            ov = overlap_ratio(win.x, win.y, win.side, win.side, truth.x, truth.y, truth.w, truth.h)
            if ov > best_ov:
                best_j, best_ov = j, ov
        if best_j >= 0:
            matched[best_j] = True
            tp += 1
        else:
            fp += 1
    return MatchResult(tp, fp, len(truths) - tp)


def roc_curve(model: CascadeModel, images, truths: list[GroundTruthBox], mode: str = "depth",
              scale_factor: float = 1.2, step: float = 1.0,
              min_neighbors: int = 2) -> tuple[list[ROCPoint], MatchResult]:
    """Operating-curve points, sorted by false positives ascending, and the
    match result of the full cascade.

    `images` is a list of (image_id, pixel array), each scanned once with
    early exit; detection counts are post-merge.  Depth mode adds one cascade
    level at a time; threshold mode sweeps the final node's margin over
    _ROC_THRESHOLDS evenly spaced quantiles.
    """
    images = list(images)
    if not images or not truths:
        raise ValueError("empty test set")
    if not model.nodes:
        raise ValueError("model has no nodes")
    if mode not in ("depth", "threshold"):
        raise ValueError("mode must be 'depth' or 'threshold'")
    full_depth = len(model.nodes)
    # Depth mode needs the windows past the first node, threshold mode those
    # that reached the last one.
    reached = 1 if mode == "depth" else full_depth - 1
    scans = [(image_id, list(_scan_pyramid(model, image, scale_factor, step, reached)))
             for image_id, image in images]

    def merged(depth):
        out = []
        for image_id, image_scans in scans:
            wins = [w for scan in image_scans for w in _detections(scan, depth)]
            out.extend((image_id, w) for w in merge_detections(wins, min_neighbors))
        return out

    points = []
    if mode == "depth":
        for depth in range(1, full_depth + 1):
            res = match_detections(merged(depth), truths)
            points.append(
                ROCPoint(f"depth={depth}", res.false_positives, res.true_positives / len(truths))
            )
        full = res  # the deepest prefix is the whole cascade
    else:
        candidates = [  # per image, the windows that reached the last node, scored by its margin
            (image_id, [DetectionWindow(x, y, side, m, full_depth)
                        for px, py, side, _, margins in image_scans
                        for x, y, m in zip(px.tolist(), py.tolist(), margins[-1].tolist())])
            for image_id, image_scans in scans
        ]
        margins = np.array([w.score for _, wins in candidates for w in wins])
        taus = []
        if margins.size:
            taus = sorted(set(np.quantile(margins, np.linspace(0.0, 1.0, _ROC_THRESHOLDS)).tolist()))
        taus.append(np.inf)
        for tau in taus:
            kept = [(image_id, w) for image_id, wins in candidates
                    for w in merge_detections([v for v in wins if v.score >= tau], min_neighbors)]
            res = match_detections(kept, truths)
            points.append(
                ROCPoint(f"threshold={tau:.6g}", res.false_positives, res.true_positives / len(truths))
            )
        full = match_detections(merged(full_depth), truths)
    points.sort(key=lambda p: (p.false_positives, -p.detection_rate))
    return points, full


def _scan_pyramid(model, image, scale_factor, step, reached, profile=None):
    """Scan the pyramid with the cascade evaluator, yielding per scale
    (px, py, side, stages, margins) of the windows that passed at least
    `reached` nodes, in scan order."""
    if scale_factor <= 1.0:
        raise ValueError("scale_factor must exceed 1")
    image = np.asarray(image)
    h, w = image.shape
    base = model.base_window
    if h < base or w < base:
        return
    table = build_integral(image)
    s = 0
    while True:
        scale = scale_factor**s
        # side > min(h, w) for the rounded side, tested before rounding so an
        # overflowing scale (inf) stops the pyramid instead of int(inf).
        if base * scale + 0.5 >= min(h, w) + 1:
            break
        side = _round_half_up(base * scale)
        # A shift of max(h, w) already leaves one window per axis; capping
        # there keeps a huge step from rounding to a giant or infinite int.
        shift = max(1, _round_half_up(min(step * scale, max(h, w))))
        xs = np.arange(0, w - side + 1, shift)
        ys = np.arange(0, h - side + 1, shift)
        px = np.repeat(xs[None, :], len(ys), axis=0).ravel()
        py = np.repeat(ys[:, None], len(xs), axis=1).ravel()
        stages, margins, evals = evaluate_windows(model, table, px, py, scale)
        if profile is not None:
            profile.windows_scanned += px.size
            profile.feature_evals += evals
        keep = np.flatnonzero(stages >= reached)
        # Rebind before yielding so the full-scale arrays are freed now.
        stages, margins = stages[keep], margins[:, keep]
        yield px[keep], py[keep], side, stages, margins
        s += 1
