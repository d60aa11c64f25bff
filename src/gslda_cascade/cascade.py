"""Node and cascade training.

A node is a weighted sum of decision stumps plus a threshold; a window is a
target only if every node accepts it.  All five training methods run one
round (train_node): pick a stump, add it, retune the threshold, stop on the
goal or the stump cap, else reweight the samples and retrain the stumps.
Only the pick differs.  AdaBoost and AsymBoost take the least weighted error
and vote by their alphas.  GSLDA takes the greatest class separation on
stumps trained once, so it neither reweights nor retrains, and its trainer
keeps no sort order.  BGSLDA prunes weak candidates and takes the greatest
class separation among the survivors.
GSLDA and BGSLDA vote by the discriminant direction.  Reweighting is one
rule (boosting.reweight), asymmetric for asymboost and bgslda2.  Every
method takes the chosen stump and its int8 outputs from one read of its
row (StumpTable.stump).  Beyond it a round builds only the outputs it
reads, each once, in the one table form that the selector and the prune
read and that stumps alone packs, unpacks and sums (stumps.packed_table,
stumps.row_sums): GSLDA every row's, within its one training; BGSLDA the
prune's candidates' (StumpTable.responses), straight into the selector's
table after the chosen rows, where the prune sums their edges and compacts
them.

A stage reaches train_node as its patches' sums, a features.PatchSums view
that holds their integral tables and extracts rows on demand, and no
method builds the stage's table.  GSLDA trains from the view in one pass,
each block of rows extracted, sorted, trained and turned into the
selector's outputs once.  The methods that retrain extract each block
once for the stored-order trainer's sort, which keeps the order and tie
bits alone; each round then trains from the order alone and extracts only
the rows it builds and the chosen stump's row.  So no node holds the
stage's sums.  The held-out positives are a view too, read one row per
chosen stump.

evaluate_windows is the package's one cascade evaluator: early rejection
over the integral table, vectorized over a lattice of windows (two ranges of
top-left corners).  The first node sees every window, reads the table in
slices over the lattice (1-D ones at step 1) and decides on pass bits; later
nodes gather on its survivors only.  Stumps decide integer sums by
DecisionStump.passes's rule, as training does, and margins are looked up by
pass bits, for the windows that need them only.  It returns the windows that
passed a requested number of nodes and their score at every depth, NaN past
a rejecting node.  Bootstrapping, the scan and the curves all use it; the
pyramid scan places every stump and builds every vote table once per image
(_plan) and calls the evaluator's body (_evaluate) once per scale.
"""

from __future__ import annotations

import bisect
import dataclasses
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import boosting, scatter, stumps
from .features import Buffers, FeatureExtractor, FeaturePool, build_integral, haar_sums, place

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


def _stump_sum(coefficients, rows, shape) -> np.ndarray:
    """sum_t coefficients[t] * rows[t] from zero in stump order: every node score's one sum."""
    acc = np.zeros(shape)
    for c, row in zip(coefficients, rows):
        acc = acc + c * row
    return acc


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
    """Shared bookkeeping while a node grows stump by stump, on train_node's
    labels and validation (None: the training positives double as it)."""

    def __init__(self, area, labels, validation, goal, method):
        self.area = area
        self.goal = goal
        self.method = method
        self.labels = labels
        if not (labels > 0).any() or not (labels < 0).any():
            raise ValueError("training split needs both classes")
        self.validation = validation
        self.chosen: list[stumps.DecisionStump] = []
        self.train_rows: list[np.ndarray] = []  # stump outputs on the train split
        self.val_rows: list[np.ndarray] = []  # stump outputs on validation positives
        self.coefficients = np.zeros(0)
        self.threshold = 0.0
        self.d = 1.0
        self.f = 1.0
        self.accepted = np.ones(len(labels), dtype=bool)  # the decisions on the training columns

    def add(self, stump: stumps.DecisionStump, train_row: np.ndarray) -> None:
        self.chosen.append(stump)
        self.train_rows.append(train_row)  # StumpTable.stump's own row, no view of a table
        j = stump.feature_id  # a view extracts this one row
        # On training sums the slot rule and DecisionStump.passes agree.
        self.val_rows.append(train_row[self.labels > 0] if self.validation is None
                             else stump.responses(self.validation[j], self.area[j]))

    def retune(self, coefficients) -> None:
        """Recompute threshold (validation d_min quantile), decisions and rates."""
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        val_scores = _stump_sum(self.coefficients, self.val_rows, len(self.val_rows[0]))
        self.threshold = _threshold_for_scores(val_scores, self.goal.d_min)
        self.accepted = _stump_sum(self.coefficients, self.train_rows, len(self.labels)) + self.threshold >= 0
        self.d = float(np.mean(val_scores + self.threshold >= 0))
        self.f = float(np.mean(self.accepted[self.labels < 0]))

    def build(self, goal_met: bool) -> tuple[NodeClassifier, np.ndarray]:
        return NodeClassifier(
            stumps=list(self.chosen),
            coefficients=self.coefficients.copy(),
            node_threshold=self.threshold,
            trained_by=self.method,
            goal_met=goal_met,
            detection_rate=self.d,
            false_positive_rate=self.f,
        ), self.accepted


def train_node(
    values: np.ndarray,
    labels: np.ndarray,
    goal: NodeGoal,
    method: str = "gslda",
    scatter_cfg: scatter.ScatterConfig | None = None,
    boost_cfg: boosting.BoostingConfig | None = None,
    validation=None,
    fixed_rounds: int | None = None,
    area=None,
) -> tuple[NodeClassifier, np.ndarray]:
    """Grow one node until its false-positive goal is met.

    values is the (M, N) training table of the node's pool, or its
    features.PatchSums view, labels the +/-1 sample classes.  It holds
    integer sums whose row j divided by area[j] gives feature j's values
    (area defaults to ones), as for StumpTrainer.  Every method's trainer
    takes it as it is.  GSLDA's one-pass trainer reads each block of a view
    once and writes the selector's outputs as it goes; the other
    methods retrain, and their stored-order trainer reads each block of a
    view once for its sort.  Every method's round then reads the chosen
    stump's row once, for its threshold and outputs (StumpTable.stump).
    validation is the (M, V) table of held-out positives or its view, used
    only for threshold tuning, one row per chosen stump; when it is None the
    training positives double as validation.  fixed_rounds trains that many
    stumps regardless of the rate goals (predefined-size mode); otherwise
    the node stops at its goal or at goal.max_stumps.  Either way a
    sparse-LDA node ends early, with the stumps it has, when its pick is
    None: its selector rejects every candidate, or for BGSLDA no stump is
    left unchosen.  A fixed-round AdaBoost or AsymBoost node ends early
    too, after a pick of weighted error 0, which every later round would
    pick again.  The stump cap also sets the span over which AsymBoost
    amortizes its asymmetric multiplier.
    Returns (node, accepted), accepted the node's decision on each column of
    values: its stump votes summed in stump order (_stump_sum), plus the
    threshold, >= 0.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    area = np.ones(len(values)) if area is None else np.asarray(area)
    labels = np.asarray(labels)
    fit = _NodeFit(area, labels, validation, goal, method)
    boost_cfg = boost_cfg or boosting.BoostingConfig()
    scfg = scatter_cfg or scatter.ScatterConfig()
    cap = fixed_rounds or goal.max_stumps
    k = boost_cfg.asym_k if method in ("asymboost", "bgslda2") else 1.0

    # GSLDA trains its table once: the trainer keeps no sort order for a second call.
    trainer = stumps.StumpTrainer(values, labels, area, keep_order=method != "gslda")
    weights = boosting.init_weights(labels)
    if method == "gslda":  # one selector walks the outputs built as each block is trained
        outputs = stumps.packed_table((), len(values), len(labels))
        table = trainer.train_all(weights, outputs)
        sel = scatter.GreedySelector(outputs, labels, scfg)
    else:
        table = trainer.train_all(weights)
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
        stump, row = table.stump(j)  # row: its outputs, for the fit and the reweight
        fit.add(stump, row)
        alphas.append(boosting.alpha(float(table.errors[j])))
        fit.retune(np.array(alphas) if method in ("adaboost", "asymboost") else sel.direction())
        if (len(fit.chosen) >= fixed_rounds) if fixed_rounds is not None else (fit.f <= goal.f_max):
            if method == "gslda" and scfg.dual_pass:
                return _eliminate(fit, sel, fixed_rounds)
            return fit.build(goal_met=True)
        separated = fixed_rounds is not None and method in ("adaboost", "asymboost") and table.errors[j] == 0
        if len(fit.chosen) >= cap or separated:
            return fit.build(goal_met=fit.f <= goal.f_max)
        if method != "gslda":
            weights = boosting.reweight(weights, row, labels, alphas[-1], k, rounds=cap)
            sel = None  # BGSLDA builds its next selector from the next round's survivors
            table = trainer.train_all(weights)


def _bgslda_pick(fit, table, weights, scfg, boost_cfg):
    """BGSLDA's pick: the most separating stump among the pruned candidates
    not yet chosen, after doubling the slack once and then falling back to
    the least-error unchosen stump.  The selector holds the chosen rows, then
    the candidates' in ascending order, so ties go to the lowest table index.
    Its one table of outputs is built once (stumps.packed_table): the chosen
    rows, then the prune's candidate outputs, which the prune sums its edges
    on and compacts to its survivors, and the chosen survivors are compacted
    out in place.
    Returns (table index or None, selector)."""
    chosen = [s.feature_id for s in fit.chosen]
    k, n = len(chosen), len(fit.labels)
    widened = dataclasses.replace(boost_cfg, prune_epsilon=2.0 * boost_cfg.prune_epsilon)
    for cfg in (boost_cfg, widened):
        rows = stumps.packed_table(fit.train_rows, len(boosting.prune_candidates(table, weights, cfg)), n)
        survivors, _ = boosting.prune_stumps(table, weights, cfg, out=rows[k:])
        if not np.isin(survivors, chosen).all():
            break
        del rows  # before the next prune builds its own
    else:
        survivors = np.argsort(table.errors, kind="stable")
        survivors = survivors[~np.isin(survivors, chosen)][:1]
        if not survivors.size:
            return None, None
        rows = stumps.packed_table(fit.train_rows, 1, n)
        table.responses(survivors, out=rows[k:])
    fresh = ~np.isin(survivors, chosen)
    allowed = survivors[fresh]
    rows = rows[: k + boosting.compact_rows(rows[k:], fresh)]
    sel = scatter.GreedySelector(rows, fit.labels, scfg, weights, selected=range(k))
    picked = sel.step()
    return (None if picked is None else int(allowed[picked - k])), sel


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
    """Ordered node list over a feature pool.  Its rates and window side are
    derived, not stored: cumulative from the nodes', base_window the pool's."""

    nodes: list[NodeClassifier]
    feature_pool: FeaturePool
    f_target: float
    metadata: dict = field(default_factory=dict)
    stage_log: list = field(default_factory=list)

    @property
    def base_window(self) -> int:
        return self.feature_pool.params.base_window

    @property
    def cumulative(self) -> list[tuple[float, float]]:
        """(D, F) after each node: running products of the nodes' rates from 1.0."""
        out, d, f = [], 1.0, 1.0
        for node in self.nodes:
            d *= node.detection_rate
            f *= node.false_positive_rate
            out.append((d, f))
        return out


def lattice_corners(xs: range, ys: range, index) -> tuple[np.ndarray, np.ndarray]:
    """Top-left corners (x, y) of the windows at flat indices `index` of the
    lattice xs by ys, numbered in (y, x) order."""
    row = index // len(xs)  # with a multiply-subtract, several times faster than np.divmod
    return xs.start + (index - row * len(xs)) * xs.step, ys.start + row * ys.step


class _Stage(NamedTuple):
    """A node set up for one scale of a scan (_plan).  placements[t] is its
    stump t's feature placed at the scale (features.place), bounds[t] the
    least sum that passes the stump in the table's dtype (stumps._sum_bound;
    None when none does).  Bit t of a window's pass code is set when stump t
    passes it, for the first 8 stumps: lut[code] is their +/-c*polarity
    votes summed from 0 in stump order, margin = lut + the node threshold
    and keep = margin >= 0: bit for bit _stump_sum's sum in the same stump
    order plus the threshold, and the node's decision, for a node of up to 8
    stumps.  late holds the votes of further stumps, which add on to
    lut[code] in stump order before the threshold."""

    placements: list
    bounds: list
    lut: np.ndarray
    margin: np.ndarray
    keep: np.ndarray
    late: np.ndarray
    threshold: float


def _plan(model: CascadeModel, scales, dtype) -> list[list[_Stage]]:
    """stages[s][k], node k at scales[s] on integral tables of dtype: every
    stump's placement and sum bound for every scale in one vectorized step
    each, and each node's vote tables once."""
    chosen = [stump for node in model.nodes for stump in node.stumps]
    placed = place(model.feature_pool, [stump.feature_id for stump in chosen], scales)
    # A degenerate footprint raises when it is read; its bound is area 1's.
    area = np.maximum(np.array([[p.area for p in row] for row in placed], dtype=np.int64), 1)
    bounds = stumps._sum_bound(np.array([stump.threshold for stump in chosen]), area, dtype)
    nodes, start = [], 0  # per node: its stumps' span in chosen, then its vote tables
    for node in model.nodes:
        votes = node.coefficients * np.array([stump.polarity for stump in node.stumps])
        lut = np.zeros(1 << min(len(votes), 8))
        for t, vote in enumerate(votes[:8]):
            lut += np.where(np.arange(lut.size) >> t & 1, vote, -vote)
        margin = lut + node.node_threshold
        nodes.append((start, start + len(votes), lut, margin, margin >= 0, votes[8:], node.node_threshold))
        start += len(votes)
    return [[_Stage(row[a:b], bound_row[a:b], *tables) for a, b, *tables in nodes]
            for row, bound_row in zip(placed, bounds)]


def _decide(stage: _Stage, table, px, py, n: int, buffers: Buffers, every: bool):
    """(passing, margins): the indices of the n windows (haar_sums' px, py)
    that the node passes, ascending, and the node margins of every window
    (every) or of the passing ones.  A stump passes a sum by
    DecisionStump.passes's rule, sum >= its bound; the pass code's keep
    table decides, or a one-stump node's pass bit itself, and margins are
    looked up for the windows asked for only.  A node of more than 8 stumps
    adds its late votes over all n windows and decides on the margins."""
    code = buffers("code", n, np.uint8)
    acc = None
    for t, (sums, bound) in enumerate(zip(haar_sums(stage.placements, table, px, py, buffers), stage.bounds)):
        bits = code if t == 0 else buffers("bits", n, np.uint8)
        if bound is None:
            bits.fill(0)
        else:
            np.greater_equal(sums, bound, out=bits.view(bool).reshape(sums.shape))
        if 0 < t < 8:
            bits <<= t
            code |= bits
        elif t >= 8:
            vote = stage.late[t - 8]
            acc = (stage.lut[code] if acc is None else acc) + np.where(bits.view(bool), vote, -vote)
    if acc is not None:
        margins = acc + stage.threshold
        passing = np.flatnonzero(margins >= 0)
        return passing, margins if every else margins[passing]
    keep = stage.keep
    if keep.size == 2 and keep[0] != keep[1]:
        passing = np.flatnonzero(code.view(bool) if keep[1] else code == 0)
    else:
        passing = np.flatnonzero(keep[code])
    return passing, stage.margin[code if every else code[passing]]


def _evaluate(stages: list[_Stage], table, xs: range, ys: range, reached: int, buffers: Buffers):
    """evaluate_windows with its set-up done: the model's stages at the
    lattice's scale (_plan) and the buffers of the image."""
    n = len(xs) * len(ys)
    if not stages:
        return np.arange(n), np.zeros((1, n)), 0
    alive, first = _decide(stages[0], table, xs, ys, n, buffers, not reached)
    evals = n * len(stages[0].placements)
    # rows[k]: node k's margins of the kept windows.
    kept, rows = (alive, [first]) if reached else (np.arange(n), [first])
    for k, stage in enumerate(stages[1:], 1):
        if not alive.size:  # no window reaches this node, nor any after it
            rows += [np.full(kept.size, np.nan) for _ in stages[k:]]
            break
        survive, acc = _decide(stage, table, *lattice_corners(xs, ys, alive), alive.size, buffers, k >= reached)
        evals += alive.size * len(stage.placements)
        if k < reached:  # kept narrows to the windows that pass this node
            rows = [row[survive] for row in rows] + [acc]
            kept = alive = alive[survive]
        else:  # the kept windows rejected earlier did not reach this node
            rows.append(np.full(kept.size, np.nan))
            rows[-1][np.searchsorted(kept, alive)] = acc
            alive = alive[survive]
    return kept, np.vstack([np.zeros(kept.size)] + rows), evals


def evaluate_windows(model: CascadeModel, table: np.ndarray, xs: range, ys: range, reached: int,
                     scale: float = 1.0):
    """Run the cascade with early rejection on the lattice of windows whose
    top-left corners are (x, y) for y in ys and x in xs, at the given scale;
    windows are numbered flat in that (y, x) order.

    The first node sees every window and reads the integral table through
    slices over the lattice (haar_sums), deciding on its pass bits; later
    nodes gather on the windows still alive, placed by lattice_corners.
    Every stump is placed at the scale and its sum bound found once per
    call; the pyramid scan does that once per image for all its scales and
    calls the same evaluator (_plan, _evaluate).  Returns (kept, scores,
    evals):
    - kept, the ascending flat indices of the windows that passed at least
      `reached` nodes (every window for 0);
    - scores[d, i], the depth-d score of window kept[i]: 0 for d = 0, else
      node d-1's margin, accumulated in _stump_sum's stump order, and NaN
      where the window did not reach node d-1;
    - evals, the number of Haar evaluations.
    Raises ValueError unless 0 <= reached <= len(model.nodes).
    """
    if not 0 <= reached <= len(model.nodes):
        raise ValueError(f"reached must be in 0..{len(model.nodes)}, got {reached}")
    return _evaluate(_plan(model, [scale], table.dtype)[0], table, xs, ys, reached, Buffers())


def bootstrap_negatives(model: CascadeModel, reservoir, count: int, seed: int = 0,
                        stride: int = 4) -> np.ndarray:
    """Collect windows from the reservoir that the current cascade accepts.

    Candidate windows (base-window size, on a `stride` lattice) are evaluated
    once per image and taken in a seeded random order of the slots, numbered
    in (image, y, x) order; raises BootstrapExhaustedError when fewer than 5%
    of the request (at least one) are found.
    """
    if len(reservoir) == 0:
        raise ValueError("empty negative reservoir")
    bw = model.base_window
    lattices, starts, accepted = [], [], []  # per image: its lattice, first slot, accepted slots
    total = 0
    for image in reservoir:
        h, w = np.asarray(image).shape
        xs, ys = range(0, w - bw + 1, stride), range(0, h - bw + 1, stride)
        if len(xs) and len(ys):
            accepted.append(total + evaluate_windows(model, build_integral(image), xs, ys, len(model.nodes))[0])
        lattices.append((xs, ys))
        starts.append(total)
        total += len(xs) * len(ys)
    hit = np.zeros(total, dtype=bool)
    if accepted:
        hit[np.concatenate(accepted)] = True
    order = np.random.default_rng(seed).permutation(total)
    hits = order[hit[order]][:count]
    found = []
    for s in hits.tolist():
        i = bisect.bisect_right(starts, s) - 1
        x, y = lattice_corners(*lattices[i], s - starts[i])
        found.append(np.asarray(reservoir[i])[y : y + bw, x : x + bw])
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

    A validation_split share of the positive patches is held out once, to
    tune node thresholds, and handed to every node as the PatchSums view of
    their sums.  Each stage is its patches, the other positives then the
    current negatives, in sample order, handed to train_node as their view:
    no table of sums is built here, nor by any method.  After each stage
    the correctly rejected negatives leave the pool and the reservoir is
    scanned for fresh false positives; the next stage's patches are the kept
    ones then the fresh ones, so a hand-off holds patches and never sums.
    Training also stops when a node misses its goal or the reservoir runs
    dry.  The last stage_log record is {"stop_reason": ...}:
    f_target_met, goal_missed, bootstrap_exhausted, negatives_empty or
    max_stages.  The metadata records method, seed, d_min, f_max, f_target,
    gamma, asym_k, prune_epsilon, dual_pass and validation_split; it does
    not record ridge or max_stumps.  Raises
    ValueError unless feature_pool's base_window is the patches' side (such
    a model would not load), and when it holds no features.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if not 0 <= f_target <= 1:
        raise ValueError("f_target must be in [0, 1]")
    base_window = pool.positives.shape[1]
    if feature_pool.params.base_window != base_window:
        raise ValueError(f"feature pool base_window {feature_pool.params.base_window} != patch side {base_window}")
    if len(feature_pool) == 0:
        raise ValueError("the feature pool holds no features")
    extractor = FeatureExtractor(feature_pool)
    rng = np.random.default_rng(seed)

    order = rng.permutation(len(pool.positives))
    n_val = int(pool.validation_split * len(order))
    n_pos = len(order) - n_val
    validation = extractor.sums(pool.positives[np.sort(order[:n_val])]) if n_val else None
    # The stage's patches, training positives then negatives, are the only
    # copy of either: the negatives are its patches n_pos and up.
    patches = pool.positives[np.sort(order[n_val:])]
    if len(pool.negatives):
        patches = np.concatenate([patches, pool.negatives])
    target_negatives = len(patches) - n_pos

    scatter_cfg = scatter_cfg or scatter.ScatterConfig()
    boost_cfg = boost_cfg or boosting.BoostingConfig()
    model = CascadeModel(nodes=[], feature_pool=feature_pool, f_target=f_target, metadata={
        "method": method, "seed": seed, "d_min": goal.d_min, "f_max": goal.f_max, "f_target": f_target,
        "gamma": scatter_cfg.gamma, "asym_k": boost_cfg.asym_k, "prune_epsilon": boost_cfg.prune_epsilon,
        "dual_pass": scatter_cfg.dual_pass, "validation_split": pool.validation_split,
    })
    f_cum = 1.0
    stop_reason = None
    while f_target < f_cum and len(model.nodes) < MAX_STAGES:
        if len(patches) == n_pos:
            stop_reason = "negatives_empty"
            break
        started = time.perf_counter()
        labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(len(patches) - n_pos, dtype=int)])
        node, accepted = train_node(extractor.sums(patches), labels, goal, method, scatter_cfg=scatter_cfg,
                                    boost_cfg=boost_cfg, validation=validation, area=extractor.area)
        model.nodes.append(node)
        d_cum, f_cum = model.cumulative[-1]
        model.stage_log.append({
            "stage": len(model.nodes),
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
        # Keep only the negatives the new node accepted in training (false positives).
        cols = np.concatenate([np.arange(n_pos), n_pos + np.flatnonzero(accepted[n_pos:])])
        needed = target_negatives - (len(cols) - n_pos)
        fresh = patches[:0]
        if needed > 0:
            try:
                if len(pool.negative_reservoir) == 0:
                    raise BootstrapExhaustedError("empty negative reservoir")
                fresh = bootstrap_negatives(model, pool.negative_reservoir, needed,
                                            seed=int(rng.integers(2**31)))
            except BootstrapExhaustedError:
                stop_reason = "bootstrap_exhausted"
                break
        patches = np.concatenate([patches[cols], fresh])
    if stop_reason is None:
        stop_reason = "f_target_met" if f_cum <= f_target else "max_stages"
    model.stage_log.append({"stop_reason": stop_reason})
    return model
