"""Sample-weight machinery for boosting rounds.

Weights form a normalized distribution over training samples.  They are plain
numpy arrays; every operation here returns a fresh normalized array.  One
update rule, reweight, serves every boosted method: AdaBoost is its k = 1
case and AsymBoost adds the class-asymmetry factor of k > 1.  BGSLDA's
prune sums its edges on the stump outputs by stumps.row_sums: stumps alone
packs, unpacks and sums outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stumps
from .stumps import StumpTable

#: alpha clamps weighted errors to [ERROR_FLOOR, 1 - ERROR_FLOOR].
ERROR_FLOOR = 1e-8


@dataclass
class BoostingConfig:
    asym_k: float = 2.0
    prune_epsilon: float = 0.1

    def __post_init__(self):
        if self.asym_k <= 0:
            raise ValueError("asym_k must be positive")
        if self.prune_epsilon < 0:
            raise ValueError("prune_epsilon must be nonnegative")


@dataclass
class EdgeStats:
    """Best edge over a stump pool and the error bound it implies.

    beta_k = max_t sum_i u_i y_i h_t(x_i); e_k = (1 - beta_k) / 2.
    """

    beta_k: float
    e_k: float


def init_weights(labels) -> np.ndarray:
    """Class-balanced start: each positive gets 0.5/N_p, each negative 0.5/N_n."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels < 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes need at least one sample")
    u = np.where(labels > 0, 0.5 / n_pos, 0.5 / n_neg)
    return u


def alpha(e_t: float) -> float:
    """Vote coefficient log((1 - e) / e), with e clamped away from 0 and 1."""
    e = min(max(e_t, ERROR_FLOOR), 1.0 - ERROR_FLOOR)
    return float(np.log((1.0 - e) / e))


def _renormalize(u: np.ndarray) -> np.ndarray:
    z = float(u.sum())
    if z <= 0:
        raise ValueError("zero normalizer in reweighting")
    return u / z


def reweight(w, responses, labels, a: float, k: float = 1.0, rounds: int = 1) -> np.ndarray:
    """One boosting round: u <- u * exp(-(a/2) y h) * exp(y log sqrt(k) / rounds) / Z.

    `a` is the vote coefficient log((1-e)/e); the half exponent makes this the
    classic multiply-by-sqrt(e/(1-e)) update, after which the stump just
    selected has weighted error exactly 1/2.  k = 1 is AdaBoost: the
    asymmetry factor is exactly 1.  k > 1 is AsymBoost: rounds=1 applies the
    full multiplier at once (positive/negative ratio k), rounds=n amortizes it
    over a node trained in n rounds.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    yh = y * np.asarray(responses, dtype=np.float64)
    asym = np.exp(y * (np.log(np.sqrt(k)) / rounds))
    return _renormalize(w * np.exp(-0.5 * a * yh) * asym)


def prune_candidates(table: StumpTable, w, cfg: BoostingConfig) -> np.ndarray:
    """The ascending rows whose edges prune_stumps sums: those whose trained
    errors put them within reach of its band (prune_stumps' filter)."""
    w = np.asarray(w, dtype=np.float64)
    total = float(w.sum())
    approx = total - 2.0 * table.errors
    slack = math.ldexp((len(w) + 2) * total, -47)
    return np.flatnonzero(approx >= approx.max() - 2.0 * cfg.prune_epsilon - slack)


def compact_rows(rows: np.ndarray, keep) -> int:
    """Moves the rows where keep is set to the front of rows, in their order,
    in place, and returns their count.  Rows move a block at a time
    (stumps.blocks), each block through one copy, and a block already in
    place does not move."""
    kept = np.flatnonzero(keep)
    for part in stumps.blocks(len(kept), rows.shape[1] * rows.itemsize):
        block = kept[part]
        if block[0] != part.start or block[-1] != part.stop - 1:  # a later row moves up
            rows[part] = rows[block]  # a copy first: every source lies at or past the block's start
    return len(kept)


def prune_stumps(table: StumpTable, w, cfg: BoostingConfig, out: np.ndarray | None = None):
    """Keep stumps whose weighted error is within epsilon of the best bound.

    A stump's edge is sum_i w_i y_i h_j(x_i), its sum against the +1 row
    under the weights w y (stumps.row_sums, which alone packs, unpacks and
    sums outputs); beta_k is the best edge and e_k = (1 - beta_k) / 2.
    Returns (indices with edge >= beta_k - 2 epsilon, which is error <=
    e_k + epsilon, and EdgeStats); the stump attaining beta_k (the first,
    on ties) always survives.  out, when given, is a table of one row per
    candidate (prune_candidates) that StumpTable.responses builds the
    candidates' outputs in, once; the survivors' rows are then moved to its
    front, in order, in place (compact_rows), so that BGSLDA's selector
    reads them where they were built.

    Edges are summed for the candidates of a filter only.  The filter reads
    the errors the table was trained with, under the same nonnegative w:
    a_j = W - 2 err_j, W = sum(w), is the edge up to rounding, and the
    candidates are the rows with a_j >= max(a) - 2 epsilon - tau, where
    tau = 2**-47 (N + 2) W.
    The bound: with u = 2**-53 and g_k = k u / (1 - k u), the exact edge
    W - 2 err_j is within g_N W of the summed edge e_j (N terms of
    magnitude w_i, in any order) and within 13 g_(N+2) W of a_j (the
    trainer's cumulative sums, its subtraction and addition, err_minus's
    total, then W's sum and a_j's subtraction).  So |a_j - e_j| <= tau / 2,
    with room left for the rounding of the filter's own bound.
    No survivor is dropped: for m the row of max(a), beta_k >= e_m >=
    max(a) - tau / 2, so a row with e_j >= beta_k - 2 epsilon (the row
    attaining beta_k among them) has a_j >= e_j - tau / 2 >= max(a) -
    2 epsilon - tau.  row_sums sums each row alike whatever rows it comes
    with (tests/test_boosting.py checks it), so beta_k, its first index and
    the survivors are those of summing every row of the unpacked table.
    """
    if len(table) == 0:
        raise ValueError("empty stump table")
    w = np.asarray(w, dtype=np.float64)
    candidates = prune_candidates(table, w, cfg)
    outputs = table.responses(candidates, out=out)
    plus = stumps.packed_table(np.ones((1, len(w))), 0, len(w))
    edges = stumps.row_sums(outputs, plus, [w * table.labels])[0, 0]
    best = int(np.argmax(edges))
    beta_k = float(edges[best])
    e_k = 0.5 - 0.5 * beta_k
    # error <= e_k + eps is edge >= beta_k - 2 eps; comparing within the one
    # edges vector keeps exact ties (eps = 0) stable against rounding.
    keep = edges >= beta_k - 2.0 * cfg.prune_epsilon
    keep[best] = True
    if out is not None:
        compact_rows(out, keep)
    return candidates[keep], EdgeStats(beta_k, e_k)
