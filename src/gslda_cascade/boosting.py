"""Sample-weight machinery for boosting rounds.

Weights form a normalized distribution over training samples.  They are plain
numpy arrays; every operation here returns a fresh normalized array.  One
update rule, reweight, serves every boosted method: AdaBoost is its k = 1
case and AsymBoost adds the class-asymmetry factor of k > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def prune_stumps(table: StumpTable, w, cfg: BoostingConfig):
    """Keep stumps whose weighted error is within epsilon of the best bound.

    Computes beta_k as the best edge over the pool, e_k = (1 - beta_k)/2, and
    returns (indices with error <= e_k + epsilon, EdgeStats).  The stump
    attaining beta_k always survives.
    """
    if len(table) == 0:
        raise ValueError("empty stump table")
    w = np.asarray(w, dtype=np.float64)
    edges = np.einsum("mn,n->m", table.responses, w * table.labels)  # no float copy of the table
    best = int(np.argmax(edges))
    beta_k = float(edges[best])
    e_k = 0.5 - 0.5 * beta_k
    # error <= e_k + eps is edge >= beta_k - 2 eps; comparing within the one
    # edges vector keeps exact ties (eps = 0) stable against rounding.
    keep = edges >= beta_k - 2.0 * cfg.prune_epsilon
    keep[best] = True
    return np.flatnonzero(keep), EdgeStats(beta_k, e_k)
