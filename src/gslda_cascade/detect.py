"""Sliding-window detection and evaluation.

Scanning enumerates square windows over a geometric scale pyramid, runs the
cascade evaluator (cascade.evaluate_windows) once per scale, merges
overlapping acceptances, and scores the result against ground-truth boxes.
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
    """Aggregable counters: total windows scanned and Haar evaluations."""

    windows_scanned: int = 0
    feature_evals: int = 0

    def merge(self, other: "ScanProfile") -> None:
        self.windows_scanned += other.windows_scanned
        self.feature_evals += other.feature_evals


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
    with the scale so scan density is scale-uniform.  Haar evaluation counts
    accumulate into `profile` when given.
    """
    depth = len(model.nodes)
    return [w for scan in _scan_pyramid(model, image, scale_factor, step, depth, profile)
            for w in _detections(scan, depth)]


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


def merge_detections(windows: list[DetectionWindow], min_neighbors: int = 2) -> list[DetectionWindow]:
    """Group windows by transitive >= 0.5 overlap; each group of at least
    min_neighbors members emits one corner-averaged window (max score)."""
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
    out = []
    for root in order:
        members = groups[root]
        if len(members) < min_neighbors:
            continue
        out.append(
            DetectionWindow(
                x=_round_half_up(np.mean([m.x for m in members])),
                y=_round_half_up(np.mean([m.y for m in members])),
                side=_round_half_up(np.mean([m.side for m in members])),
                score=max(m.score for m in members),
                stages_passed=max(m.stages_passed for m in members),
            )
        )
    return out


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
              scale_factor: float = 1.2, step: float = 1.0, min_neighbors: int = 2,
              n_thresholds: int = 10) -> tuple[list[ROCPoint], MatchResult]:
    """Operating-curve points, sorted by false positives ascending, and the
    match result of the full cascade.

    `images` is a list of (image_id, pixel array), each scanned once with
    early exit; detection counts are post-merge.  Depth mode adds one cascade
    level at a time; threshold mode sweeps the final node's margin over its
    quantiles.
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
            taus = sorted(set(np.quantile(margins, np.linspace(0.0, 1.0, n_thresholds)).tolist()))
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
    table = build_integral(image).table
    s = 0
    while True:
        scale = scale_factor**s
        side = _round_half_up(base * scale)
        if side > min(h, w):
            break
        shift = max(1, _round_half_up(step * scale))
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
