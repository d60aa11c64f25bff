"""Node and cascade training.

A node is a weighted sum of decision stumps plus a threshold; a window is a
target only if every node accepts it.  All five training methods run one
round (train_node): pick a stump, add it, retune the threshold, stop on the
goal or the stump cap, else reweight the samples and retrain the stumps.
Only the pick differs.  AdaBoost and AsymBoost take the least weighted error
and vote by their alphas.  GSLDA takes the greatest class separation on a
table trained once, so it neither reweights nor retrains.  BGSLDA prunes weak
candidates and takes the greatest class separation among the survivors.
GSLDA and BGSLDA vote by the discriminant direction.  Reweighting is one
rule (boosting.reweight), asymmetric for asymboost and bgslda2.

evaluate_windows is the package's one cascade evaluator: early rejection
over the integral table, vectorized over window positions.  Bootstrapping,
the pyramid scan and the operating curves all go through it.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import boosting, scatter, stumps
from .features import FeatureExtractor, FeaturePool, build_integral, haar_values

METHODS = ("adaboost", "asymboost", "gslda", "bgslda1", "bgslda2")

#: train_cascade stops after this many stages (stop reason "max_stages").
MAX_STAGES = 64


class BootstrapExhaustedError(RuntimeError):
    """The reservoir no longer yields enough false positives to continue."""


@dataclass
class NodeGoal:
    """Per-stage rate goals: detection at least d_min, false positives at
    most f_max, with at most max_stumps stumps."""

    d_min: float = 0.995
    f_max: float = 0.5
    max_stumps: int = 200

    def __post_init__(self):
        if not 0 < self.d_min <= 1:
            raise ValueError("d_min must be in (0, 1]")
        if not 0 < self.f_max < 1:
            raise ValueError("f_max must be in (0, 1)")
        if self.max_stumps < 1:
            raise ValueError("max_stumps must be at least 1")


@dataclass
class NodeClassifier:
    """Linear stump combination: accept iff sum_t w_t h_t(x) + threshold >= 0."""

    stumps: list[stumps.DecisionStump]
    coefficients: np.ndarray
    node_threshold: float
    trained_by: str
    goal_met: bool = True
    detection_rate: float = 1.0
    false_positive_rate: float = 1.0

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if len(self.stumps) != len(self.coefficients) or len(self.stumps) < 1:
            raise ValueError("need one coefficient per stump, at least one stump")


def node_margin(node: NodeClassifier, responses) -> np.ndarray | float:
    """sum_t w_t h_t + threshold, accumulated in fixed stump order.

    responses is the per-stump +/-1 output, either a vector (one sample) or a
    (T, n) matrix.  The fixed left-to-right accumulation makes scalar and
    batched evaluation bit-identical.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if responses.shape[0] != len(node.stumps):
        raise ValueError("responses are not aligned with the node's stumps")
    acc = np.zeros(responses.shape[1:])
    for t in range(responses.shape[0]):
        acc = acc + node.coefficients[t] * responses[t]
    acc = acc + node.node_threshold
    return float(acc) if acc.ndim == 0 else acc


def _threshold_for_scores(scores: np.ndarray, d_min: float) -> float:
    """Smallest additive threshold keeping at least d_min of the scores
    nonnegative: minus the d_min quantile of the score distribution."""
    n = len(scores)
    if n == 0:
        raise ValueError("need at least one validation positive")
    m = int(np.ceil(d_min * n - 1e-9))
    m = min(max(m, 1), n)
    ordered = np.sort(scores)[::-1]
    return -float(ordered[m - 1])


class _NodeFit:
    """Shared bookkeeping while a node grows stump by stump."""

    def __init__(self, values, labels, validation_mask, goal, method):
        self.values = values
        self.goal = goal
        self.method = method
        mask = np.zeros(labels.shape, bool) if validation_mask is None else np.asarray(validation_mask, bool)
        if np.any(mask & (labels < 0)):
            raise ValueError("validation mask may only select positives")
        self.train_idx = np.flatnonzero(~mask)
        self.val_idx = np.flatnonzero(mask)
        if self.val_idx.size == 0:
            # Nothing held out: the training positives double as validation.
            self.val_idx = np.flatnonzero(labels > 0)
        self.train_labels = labels[self.train_idx]
        if not (self.train_labels > 0).any() or not (self.train_labels < 0).any():
            raise ValueError("training split needs both classes")
        self.neg_cols = np.flatnonzero(self.train_labels < 0)
        self.chosen: list[stumps.DecisionStump] = []
        self.train_rows: list[np.ndarray] = []  # stump outputs on the train split
        self.val_rows: list[np.ndarray] = []  # stump outputs on validation positives
        self.coefficients = np.zeros(0)
        self.threshold = 0.0
        self.d = 1.0
        self.f = 1.0

    def add(self, stump: stumps.DecisionStump, train_row: np.ndarray) -> None:
        self.chosen.append(stump)
        self.train_rows.append(train_row)
        self.val_rows.append(stump.responses(self.values[stump.feature_id, self.val_idx]))

    def retune(self, coefficients) -> None:
        """Recompute threshold (validation d_min quantile) and the rates."""
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        val_scores = np.zeros(len(self.val_idx))
        neg_scores = np.zeros(len(self.neg_cols))
        for t, c in enumerate(self.coefficients):
            val_scores = val_scores + c * self.val_rows[t]
            neg_scores = neg_scores + c * self.train_rows[t][self.neg_cols]
        self.threshold = _threshold_for_scores(val_scores, self.goal.d_min)
        self.d = float(np.mean(val_scores + self.threshold >= 0))
        self.f = float(np.mean(neg_scores + self.threshold >= 0))

    def build(self, goal_met: bool) -> NodeClassifier:
        return NodeClassifier(
            stumps=list(self.chosen),
            coefficients=self.coefficients.copy(),
            node_threshold=self.threshold,
            trained_by=self.method,
            goal_met=goal_met,
            detection_rate=self.d,
            false_positive_rate=self.f,
        )


def train_node(
    values: np.ndarray,
    labels: np.ndarray,
    goal: NodeGoal,
    method: str = "gslda",
    scatter_cfg: scatter.ScatterConfig | None = None,
    boost_cfg: boosting.BoostingConfig | None = None,
    validation_mask=None,
    fixed_rounds: int | None = None,
) -> NodeClassifier:
    """Grow one node until its false-positive goal is met.

    values is the (M, N) feature-value matrix of the node's pool, labels the
    +/-1 sample classes.  validation_mask marks held-out positives used only
    for threshold tuning; when it is None or marks none, the training
    positives double as validation.  fixed_rounds trains exactly that many
    stumps regardless of the rate goals (predefined-size mode); otherwise
    the node stops at goal.max_stumps.  The stump cap also sets the span over
    which AsymBoost amortizes its asymmetric multiplier.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    fit = _NodeFit(values, labels, validation_mask, goal, method)
    boost_cfg = boost_cfg or boosting.BoostingConfig()
    scfg = scatter_cfg or scatter.ScatterConfig()
    cap = fixed_rounds or goal.max_stumps
    k = boost_cfg.asym_k if method in ("asymboost", "bgslda2") else 1.0

    trainer = stumps.StumpTrainer(values[:, fit.train_idx], fit.train_labels)
    weights = boosting.init_weights(fit.train_labels)
    table = trainer.train_all(weights)
    if method == "gslda":  # one selector walks the table trained once
        sel = scatter.GreedySelector(table.responses, fit.train_labels, scfg)
    alphas: list[float] = []
    while True:
        if method == "gslda":
            j = sel.step()
        elif method in ("adaboost", "asymboost"):
            j = int(np.argmin(table.errors))  # the first of equal minima
        else:
            j, sel = _bgslda_pick(fit, table, weights, scfg, boost_cfg)
        if j is None:  # no candidate left that adds class separation
            return fit.build(goal_met=fit.f <= goal.f_max)
        fit.add(table.stump(j), table.responses[j])
        alphas.append(boosting.alpha(float(table.errors[j])))
        fit.retune(np.array(alphas) if method in ("adaboost", "asymboost") else sel.direction())
        if (len(fit.chosen) >= fixed_rounds) if fixed_rounds is not None else (fit.f <= goal.f_max):
            if method == "gslda" and scfg.dual_pass:
                return _eliminate(fit, sel, fixed_rounds)
            return fit.build(goal_met=True)
        if len(fit.chosen) >= cap:
            return fit.build(goal_met=fit.f <= goal.f_max)
        if method != "gslda":
            weights = boosting.reweight(weights, table.responses[j], fit.train_labels, alphas[-1], k, rounds=cap)
            table = trainer.train_all(weights)


def _bgslda_pick(fit, table, weights, scfg, boost_cfg):
    """BGSLDA's pick: the most separating stump among the pruned candidates
    not yet chosen, after doubling the slack once and then falling back to
    the least-error unchosen stump.  Returns (table index or None, selector)."""
    chosen_ids = {s.feature_id for s in fit.chosen}
    widened = dataclasses.replace(boost_cfg, prune_epsilon=2.0 * boost_cfg.prune_epsilon)
    for cfg in (boost_cfg, widened):
        survivors, _ = boosting.prune_stumps(table, weights, cfg)
        allowed = [int(j) for j in survivors if int(j) not in chosen_ids]
        if allowed:
            break
    else:
        allowed = [int(j) for j in np.argsort(table.errors, kind="stable") if int(j) not in chosen_ids][:1]
    if not allowed:
        return None, None
    k = len(fit.chosen)
    stacked = np.vstack(fit.train_rows + [table.responses]) if k else table.responses
    sel = scatter.GreedySelector(stacked, fit.train_labels, scfg, weights, selected=range(k))
    picked = sel.step(allowed=[k + j for j in allowed])
    return (None if picked is None else picked - k), sel


def _eliminate(fit, sel, fixed_rounds):
    """GSLDA's dual pass on a node that met its goal: drop the stumps that
    backward elimination removes, unless the smaller node misses the goal."""
    met = fit.build(goal_met=True)
    removed = set(sel.eliminate()) if len(sel.selected) >= 2 else set()
    if not removed:
        return met
    keep = [t for t, s in enumerate(fit.chosen) if s.feature_id not in removed]
    fit.chosen = [fit.chosen[t] for t in keep]
    fit.train_rows = [fit.train_rows[t] for t in keep]
    fit.val_rows = [fit.val_rows[t] for t in keep]
    fit.retune(sel.direction())
    return fit.build(goal_met=True) if fixed_rounds is not None or fit.f <= fit.goal.f_max else met


@dataclass
class TrainingPool:
    """Patch-level training material for one cascade run."""

    positives: np.ndarray  # (P, H, W) base-window patches
    negatives: np.ndarray  # (Q, H, W) initial negative patches
    negative_reservoir: list[np.ndarray] = field(default_factory=list)
    validation_split: float = 0.2

    def __post_init__(self):
        if len(self.positives) == 0:
            raise ValueError("positive set is empty")
        if not 0 <= self.validation_split < 1:
            raise ValueError("validation_split must be in [0, 1)")


@dataclass
class CascadeModel:
    """Ordered node list with per-stage rate bookkeeping."""

    nodes: list[NodeClassifier]
    stage_rates: list[tuple[float, float]]
    cumulative: list[tuple[float, float]]
    feature_pool: FeaturePool
    f_target: float
    base_window: int = 24
    metadata: dict = field(default_factory=dict)
    stage_log: list = field(default_factory=list)


def evaluate_windows(model: CascadeModel, table: np.ndarray, px, py, scale: float = 1.0):
    """Run the cascade with early rejection on every window whose top-left
    corner is (px[i], py[i]) of the integral table, at the given scale.

    Returns (stages, margins, evals): stages[i] counts the nodes window i
    passed before its first rejection, so it is accepted iff stages[i] equals
    the node count; margins[k] holds node k's margin of each window that
    reached node k (those with stages >= k), in window order, for every node
    some window reached; evals counts Haar evaluations.  Each margin is
    accumulated in node_margin's stump order.
    """
    px = np.asarray(px)
    py = np.asarray(py)
    stages = np.zeros(len(px), dtype=int)
    margins = []
    alive = np.arange(len(px))
    evals = 0
    for node in model.nodes:
        if alive.size == 0:
            break
        # No copy while every window is alive: the first node sees them all.
        gx, gy = (px, py) if alive.size == len(px) else (px[alive], py[alive])
        acc = np.zeros(alive.size)
        for c, stump in zip(node.coefficients, node.stumps):
            values = haar_values(model.feature_pool, stump.feature_id, table, gx, gy, scale)
            acc += np.where(values >= stump.threshold, c * stump.polarity, -c * stump.polarity)
        acc += node.node_threshold
        evals += alive.size * len(node.stumps)
        margins.append(acc)
        alive = alive[acc >= 0]
        stages[alive] += 1
    return stages, margins, evals


def bootstrap_negatives(model: CascadeModel, reservoir, count: int, seed: int = 0,
                        stride: int = 4) -> np.ndarray:
    """Collect windows from the reservoir that the current cascade accepts.

    Candidate windows (base-window size, on a `stride` grid) are evaluated
    once per image and taken in a seeded random order of the slots; raises
    BootstrapExhaustedError when fewer than 5% of the request (at least one)
    are found.
    """
    if len(reservoir) == 0:
        raise ValueError("empty negative reservoir")
    bw = model.base_window
    slots, accepted = [], []  # (image index, x, y) of every grid window, scan order
    for idx, image in enumerate(reservoir):
        image = np.asarray(image)
        h, w = image.shape
        grid = [(x, y) for y in range(0, h - bw + 1, stride) for x in range(0, w - bw + 1, stride)]
        if grid:
            px, py = np.array(grid).T
            stages, _, _ = evaluate_windows(model, build_integral(image), px, py)
            slots += [(idx, x, y) for x, y in grid]
            accepted += (stages == len(model.nodes)).tolist()
    order = np.random.default_rng(seed).permutation(len(slots))
    hits = order[np.array(accepted, dtype=bool)[order]][:count]
    found = [np.asarray(reservoir[i])[y : y + bw, x : x + bw] for i, x, y in (slots[s] for s in hits)]
    if len(found) < min(max(1, count // 20), count):
        raise BootstrapExhaustedError("bootstrap exhausted")
    return np.stack(found)


def train_cascade(
    pool: TrainingPool,
    goal: NodeGoal,
    f_target: float,
    method: str,
    feature_pool: FeaturePool,
    scatter_cfg: scatter.ScatterConfig | None = None,
    boost_cfg: boosting.BoostingConfig | None = None,
    seed: int = 0,
) -> CascadeModel:
    """Stack nodes until the cumulative false-positive rate reaches f_target.

    After each stage the correctly rejected negatives leave the pool and the
    reservoir is scanned for fresh false positives; training also stops when a
    node misses its goal or the reservoir runs dry.  The last stage_log record
    is {"stop_reason": ...}: f_target_met, goal_missed, bootstrap_exhausted,
    negatives_empty or max_stages.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if not 0 <= f_target <= 1:
        raise ValueError("f_target must be in [0, 1]")
    base_window = pool.positives.shape[1]
    extractor = FeatureExtractor(feature_pool)
    rng = np.random.default_rng(seed)

    # Fixed validation split of the positives for threshold tuning.
    n_pos = len(pool.positives)
    n_val = int(pool.validation_split * n_pos)
    val_idx = rng.permutation(n_pos)[:n_val]

    pos_values = extractor.extract(pool.positives)
    neg_values = extractor.extract(pool.negatives) if len(pool.negatives) else np.zeros((len(feature_pool), 0))
    target_negatives = neg_values.shape[1]

    model = CascadeModel(
        nodes=[], stage_rates=[], cumulative=[], feature_pool=feature_pool,
        f_target=f_target, base_window=base_window,
        metadata={"method": method, "seed": seed, "d_min": goal.d_min, "f_max": goal.f_max},
    )
    d_cum, f_cum = 1.0, 1.0
    stage = 0
    stop_reason = None
    while f_target < f_cum and stage < MAX_STAGES:
        if neg_values.shape[1] == 0:
            stop_reason = "negatives_empty"
            break
        stage += 1
        started = time.perf_counter()
        values = np.hstack([pos_values, neg_values])
        labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(neg_values.shape[1], dtype=int)])
        validation_mask = np.zeros(values.shape[1], dtype=bool)
        validation_mask[val_idx] = True
        node = train_node(values, labels, goal, method, scatter_cfg=scatter_cfg,
                          boost_cfg=boost_cfg, validation_mask=validation_mask)
        model.nodes.append(node)
        d_cum *= node.detection_rate
        f_cum *= node.false_positive_rate
        model.stage_rates.append((node.detection_rate, node.false_positive_rate))
        model.cumulative.append((d_cum, f_cum))
        model.stage_log.append({
            "stage": stage,
            "n_stumps": len(node.stumps),
            "d": node.detection_rate,
            "f": node.false_positive_rate,
            "D": d_cum,
            "F": f_cum,
            "goal_met": node.goal_met,
            "wall_time_s": time.perf_counter() - started,
        })
        if not node.goal_met:
            stop_reason = "goal_missed"
            break
        if f_cum <= f_target:
            break
        # Keep only the negatives the new node still accepts (false positives).
        neg_resp = np.vstack([s.responses(neg_values[s.feature_id]) for s in node.stumps])
        margins = node_margin(node, neg_resp)
        keep = margins >= 0
        neg_values = neg_values[:, keep]
        needed = target_negatives - neg_values.shape[1]
        if needed > 0:
            try:
                fresh = bootstrap_negatives(model, pool.negative_reservoir, needed,
                                            seed=int(rng.integers(2**31)))
            except (BootstrapExhaustedError, ValueError):
                stop_reason = "bootstrap_exhausted"
                break
            neg_values = np.hstack([neg_values, extractor.extract(fresh)])
    if stop_reason is None:
        stop_reason = "f_target_met" if f_cum <= f_target else "max_stages"
    model.stage_log.append({"stop_reason": stop_reason})
    return model
