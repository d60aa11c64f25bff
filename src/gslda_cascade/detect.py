"""Sliding-window detection and evaluation.

Scanning runs the cascade evaluator (cascade.evaluate_windows' body) once per
scale of a geometric pyramid, on that scale's lattice of windows, after one
set-up per image: every stump placed and its sum bound found at every scale,
the vote tables built, and one set of lattice-sized buffers for all scales.
Window corners are computed only for the windows the scan keeps.  An image's accepted
windows travel as one Detections, parallel numpy arrays (x, y, side, score,
stages), through merging to the detections CSV; a DetectionTable holds
several images' own.
Merging joins windows of overlap ratio at least 0.5, transitively, into one
window per group of min_neighbors or more.  The operating curves reuse one
early-exit scan per image: the prefix of depth d accepts exactly the windows
that passed at least d nodes.  Matching takes (image_id, DetectionWindow) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import CascadeModel, _evaluate, _plan, lattice_corners
from .features import Buffers, _round_px, build_integral


@dataclass
class DetectionWindow:
    """One detection as a row: the type match_detections and readers of the
    detections CSV use.  Scanning, merging and writing pass Detections."""

    x: int
    y: int
    side: int
    score: float
    stages_passed: int


@dataclass(frozen=True, eq=False)
class Detections:
    """Windows of one image as parallel arrays: top-left corners x, y and
    sides (int64), scores (float64) and stages passed (int64).  len() counts
    the windows."""

    x: np.ndarray
    y: np.ndarray
    side: np.ndarray
    score: np.ndarray
    stages: np.ndarray

    def __len__(self) -> int:
        return self.x.size

    @classmethod
    def of(cls, windows: list[DetectionWindow]) -> Detections:
        ints = np.array([(w.x, w.y, w.side, w.stages_passed) for w in windows], dtype=np.int64).reshape(-1, 4)
        return cls(*ints[:, :3].T, np.array([w.score for w in windows], dtype=np.float64), ints[:, 3])

    def windows(self) -> list[DetectionWindow]:
        return [DetectionWindow(*row) for row in zip(self.x.tolist(), self.y.tolist(), self.side.tolist(),
                                                     self.score.tolist(), self.stages.tolist())]


@dataclass
class DetectionTable:
    """The Detections of several images, image by image; len() counts the
    windows of all of them."""

    images: list[tuple[str, Detections]] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(dets) for _, dets in self.images)


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


def scan_image(model: CascadeModel, image, scale_factor: float = 1.2,
               step: float = 1.0) -> tuple[Detections, int, int]:
    """All windows the cascade accepts, over a scale pyramid, in scan order
    (scale by scale), scored by the last node's margin (0 without nodes);
    with the windows scanned and the Haar evaluations made.

    Window sides are base * scale_factor**s while they fit; the shift grows
    with the scale so scan density is scale-uniform.
    """
    depth = len(model.nodes)
    scan, scanned, evals = _scan_pyramid(model, image, scale_factor, step, depth)
    return _passing(scan, depth), scanned, evals


def _passing(scan, depth: int, tau: float = 0.0) -> Detections:
    """The scanned windows whose depth-prefix score is at least tau, scored
    by it; for tau 0 these are the windows the first `depth` nodes accept."""
    px, py, side, scores = scan
    idx = np.flatnonzero(scores[depth] >= tau)  # NaN, the node not reached, compares False
    return Detections(px[idx], py[idx], side[idx], scores[depth, idx], np.full(idx.size, depth))


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


def merge_detections(windows: Detections | list[DetectionWindow], min_neighbors: int = 2) -> Detections:
    """Group windows by transitive >= 0.5 overlap; each group of at least
    min_neighbors members emits one corner-averaged window (max score).

    Groups come out in the order of their first member.  A group's x, y and
    side are the half-up rounded means of its members' (exact integer sum
    divided by the count); score and stages are the members' maxima (a tie of
    0.0 and -0.0 may keep either).  A list of DetectionWindow is also taken.

    Not every pair is compared.  Two squares reach the ratio only when their
    x offset is at most a third of the left one's side, so with the windows
    sorted by x each is tested only against the later ones within that
    offset, at most _PAIR_BLOCK pairs at a time, and the linked pairs are
    joined into components.  The ratio is tested in exact integers,
    2 * inter >= union, which equals inter / union >= 0.5 while the union
    stays below 2**53.
    """
    if not isinstance(windows, Detections):
        windows = Detections.of(windows)
    n = len(windows)
    if n == 0:
        return windows
    root = _components(n, *_overlapping_pairs(windows.x, windows.y, windows.side))
    order = np.argsort(root, kind="stable")  # by group root (its first member), members ascending
    starts = np.flatnonzero(np.diff(root[order], prepend=-1))
    count = np.diff(starts, append=n)
    big = count >= min_neighbors
    count = count[big]

    def mean(v):
        return _round_px(np.add.reduceat(v[order], starts)[big] / count)

    def top(v):
        return np.maximum.reduceat(v[order], starts)[big]

    return Detections(mean(windows.x), mean(windows.y), mean(windows.side),
                      top(windows.score), top(windows.stages))


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
    scans = [(image_id, _scan_pyramid(model, image, scale_factor, step, reached)[0]) for image_id, image in images]

    def match(depth, tau=0.0):
        """Match the merged windows of every image whose depth-prefix score is at least tau."""
        rows = [(image_id, w) for image_id, scan in scans
                for w in merge_detections(_passing(scan, depth, tau), min_neighbors).windows()]
        return match_detections(rows, truths)

    if mode == "depth":
        curve = [(f"depth={depth}", match(depth)) for depth in range(1, full_depth + 1)]
        full = curve[-1][1]  # the deepest prefix is the whole cascade
    else:
        # Every scanned window reached the last node; the cutoffs are quantiles of its margin there.
        margins = np.concatenate([scores[-1] for _, (*_, scores) in scans])
        taus = []
        if margins.size:
            taus = sorted(set(np.quantile(margins, np.linspace(0.0, 1.0, _ROC_THRESHOLDS)).tolist()))
        curve = [(f"threshold={tau:.6g}", match(full_depth, tau)) for tau in taus + [np.inf]]
        full = match(full_depth)
    points = [ROCPoint(label, res.false_positives, res.true_positives / len(truths)) for label, res in curve]
    points.sort(key=lambda p: (p.false_positives, -p.detection_rate))
    return points, full


def _scan_pyramid(model, image, scale_factor, step, reached):
    """Scan the pyramid with the cascade evaluator, one lattice per scale.
    Returns ((px, py, side, scores), scanned, evals): the windows that passed
    at least `reached` nodes, scale by scale in scan order, with each scale's
    kept windows and depth-prefix scores as evaluate_windows gives them
    (scores[d]: 0 for depth 0, else node d-1's margin, NaN for a window that
    did not reach it); and the windows scanned and Haar evaluations made,
    summed over the scales."""
    if scale_factor <= 1.0:
        raise ValueError("scale_factor must exceed 1")
    image = np.asarray(image)
    h, w = image.shape
    base = model.base_window
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.zeros((len(model.nodes) + 1, 0)))]
    sizes = []  # (scale, side, shift) per scale
    while True:
        scale = scale_factor ** len(sizes)
        # side > min(h, w) for the rounded side, tested before rounding so an
        # overflowing scale (inf) stops the pyramid instead of int(inf); an
        # image below the base window stops at the first scale.
        if base * scale + 0.5 >= min(h, w) + 1:
            break
        # A shift of max(h, w) already leaves one window per axis; capping
        # there keeps a huge step from rounding to a giant or infinite int.
        shift = max(1, _round_px(min(step * scale, max(h, w))))
        sizes.append((scale, _round_px(base * scale), shift))
    table = build_integral(image) if sizes else None
    plan = _plan(model, [scale for scale, _, _ in sizes], table.dtype) if sizes else []
    buffers = Buffers()  # the lattice-sized arrays of every scale
    scanned = evals = 0
    for (_, side, shift), stages in zip(sizes, plan):
        xs, ys = range(0, w - side + 1, shift), range(0, h - side + 1, shift)
        kept, scores, made = _evaluate(stages, table, xs, ys, reached, buffers)
        scanned += len(xs) * len(ys)
        evals += made
        parts.append((*lattice_corners(xs, ys, kept), np.full(kept.size, side), scores))
    return tuple(np.concatenate(column, axis=-1) for column in zip(*parts)), scanned, evals
