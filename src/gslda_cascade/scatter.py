"""Greedy sparse linear discriminant analysis over weak-classifier outputs.

The objective is the generalized Rayleigh quotient w'S_b w / w'S_w w restricted
to a small feature subset.  For two classes S_b = b b' is rank one, so the best
eigenvalue of a subset l is the closed form b_l' (S_w^l)^{-1} b_l and forward
selection only needs a rank-one block update of the restricted inverse per
added feature.  Columns of the within-class scatter are produced on demand;
the full M x M matrix is never materialized.  GreedySelector holds the one
implementation of that update, of candidate scoring and of the backward
elimination pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Score assigned to candidates whose augmentation would be singular.
REJECTED = float("-inf")

# Denominators at or below this are treated as singular augmentations.
_SINGULAR_TOL = 1e-12

# The restricted inverse is recomputed by a direct solve whenever the subset
# size reaches a multiple of this, to keep long runs well conditioned.
_REFRESH_EVERY = 32


class DegenerateClassError(ValueError):
    """A class has no samples (or no weight mass)."""


class SingularAugmentationError(ValueError):
    """Adding the candidate makes the restricted within-class scatter singular."""


@dataclass
class ResponseMatrix:
    """Outputs of M candidate weak classifiers on N labeled samples.

    ``responses[i, j]`` is the +/-1 output of classifier j on sample i;
    ``labels`` holds the +/-1 class of each sample.
    """

    responses: np.ndarray
    labels: np.ndarray
    strict: bool = True

    def __post_init__(self):
        self.responses = np.asarray(self.responses)
        self.labels = np.asarray(self.labels)
        if self.responses.ndim != 2:
            raise ValueError("responses must be a 2-d (samples x classifiers) array")
        if self.labels.shape != (self.responses.shape[0],):
            raise ValueError("labels length must match the number of response rows")
        if not np.all(np.abs(self.labels) == 1):
            raise ValueError("labels must be -1 or +1")
        if self.n_pos < 1 or self.n_neg < 1:
            raise DegenerateClassError("degenerate class distribution")
        if self.strict and not np.all(np.abs(self.responses) == 1):
            raise ValueError("responses must be -1 or +1")

    @property
    def n_samples(self) -> int:
        return self.responses.shape[0]

    @property
    def n_features(self) -> int:
        return self.responses.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.labels > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.labels < 0))


@dataclass
class ScatterConfig:
    """Knobs of the sparse-LDA selection.

    gamma scales the negative-class share of the within-class scatter, ridge
    regularizes its diagonal (binary responses make duplicate or constant
    columns common), max_features is the cardinality budget, dual_pass enables
    backward elimination after the forward pass, and elim_fraction is the
    largest relative eigenvalue drop a removal may cause.
    """

    max_features: int
    gamma: float = 1.0
    ridge: float = 1e-6
    dual_pass: bool = False
    elim_fraction: float = 0.05

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.max_features < 1:
            raise ValueError("max_features must be at least 1")


@dataclass
class ScatterState:
    """Current feature subset with the recycled restricted inverse.

    ``inv_sw`` is the inverse of the within-class scatter restricted to
    ``selected`` (ridge included), ``b_restricted`` the between-class vector on
    the same rows, and ``eigenvalue`` equals b' inv_sw b.
    """

    selected: list[int] = field(default_factory=list)
    inv_sw: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    b_restricted: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eigenvalue: float = 0.0


class ScatterAccumulator:
    """Weighted class moments of a response matrix, queried by row subset.

    Boosting weights (which sum to 1) are rescaled by N so that a uniform
    distribution reproduces the plain unweighted scatter exactly.
    """

    def __init__(self, rm: ResponseMatrix, cfg: ScatterConfig, weights=None):
        self.cfg = cfg
        pos = rm.labels > 0
        neg = ~pos
        X = rm.responses
        if weights is None:
            wp = np.ones(int(pos.sum()))
            wn = np.ones(int(neg.sum()))
        else:
            w = np.asarray(weights, dtype=np.float64) * rm.n_samples
            if np.any(w < 0):
                raise ValueError("sample weights must be nonnegative")
            wp = w[pos]
            wn = w[neg]
        self.Xp = np.ascontiguousarray(X[pos].T, dtype=np.float64)  # (M, Np)
        self.Xn = np.ascontiguousarray(X[neg].T, dtype=np.float64)  # (M, Nn)
        self.wp = wp
        self.wn = wn
        self.Wp = float(wp.sum())
        self.Wn = float(wn.sum())
        if self.Wp <= 0 or self.Wn <= 0:
            raise DegenerateClassError("degenerate class distribution")
        self.mu_p = (self.Xp @ wp) / self.Wp
        self.mu_n = (self.Xn @ wn) / self.Wn
        self.n_pos = rm.n_pos
        self.n_neg = rm.n_neg
        self.n_features = rm.n_features
        self._diag = None

    def between_class(self) -> np.ndarray:
        """Rank-one factor b of S_b: sqrt(Np*Nn/N) times the class-mean gap."""
        n = self.n_pos + self.n_neg
        return np.sqrt(self.n_pos * self.n_neg / n) * (self.mu_p - self.mu_n)

    def diag(self) -> np.ndarray:
        """Diagonal of the within-class scatter, ridge included."""
        if self._diag is None:
            g = self.cfg.gamma
            sp = (self.Xp * self.Xp) @ self.wp - self.Wp * self.mu_p**2
            sn = (self.Xn * self.Xn) @ self.wn - self.Wn * self.mu_n**2
            self._diag = sp + g * sn + self.cfg.ridge
        return self._diag

    def cross(self, rows) -> np.ndarray:
        """Rows of the within-class scatter: S_w[rows, :], ridge on S[r, rows[r]]."""
        rows = np.asarray(rows, dtype=np.intp)
        g = self.cfg.gamma
        ap = (self.Xp[rows] * self.wp) @ self.Xp.T
        an = (self.Xn[rows] * self.wn) @ self.Xn.T
        out = (
            ap
            - self.Wp * np.outer(self.mu_p[rows], self.mu_p)
            + g * (an - self.Wn * np.outer(self.mu_n[rows], self.mu_n))
        )
        out[np.arange(len(rows)), rows] += self.cfg.ridge
        return out


def _augmented_inverse(inv, u, a):
    """Block inverse for subset l + {i} from (S_w^l)^{-1}, u and a = 1/denominator."""
    k = inv.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = inv + a * np.outer(u, u)
    out[:k, k] = -a * u
    out[k, :k] = -a * u
    out[k, k] = a
    return 0.5 * (out + out.T)


def lda_weights(state: ScatterState) -> np.ndarray:
    """Unit-norm discriminant direction inv_sw b on the selected subset."""
    if not state.selected:
        raise ValueError("empty state")
    if not np.any(state.b_restricted != 0.0):
        raise ValueError("zero between-class direction")
    w = state.inv_sw @ state.b_restricted
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise ValueError("zero between-class direction")
    return w / nrm


class GreedySelector:
    """Stepwise forward selection with candidate scores recycled per step.

    Every GSLDA path (forward_select and the cascade node trainers) goes
    through this class.  Single steps use the rank-one block update of the
    restricted inverse; the inverse is refreshed from a direct solve every
    _REFRESH_EVERY features.
    """

    def __init__(self, rm: ResponseMatrix, cfg: ScatterConfig, weights=None):
        self.cfg = cfg
        self.acc = ScatterAccumulator(rm, cfg, weights)
        self.b = self.acc.between_class()
        self.diag = self.acc.diag()
        self.selected: list[int] = []
        self.inv = np.zeros((0, 0))
        self.eig = 0.0
        self._rows = np.zeros((0, self.acc.n_features))  # S_w[selected, :]

    @classmethod
    def from_subset(cls, rm: ResponseMatrix, cfg: ScatterConfig, selected, weights=None):
        """Selector that starts from the subset `selected`.

        The restricted inverse comes from a direct solve rather than a chain
        of rank-one updates; an empty subset gives a fresh selector.
        """
        sel = cls(rm, cfg, weights)
        selected = list(selected)
        if selected:
            sel.selected = selected
            sel._rows = sel.acc.cross(selected)
            sel._refresh()
            sel._recompute_eig()
        return sel

    def candidate_scores(self, allowed=None) -> np.ndarray:
        """Eigenvalue of selected + {i} for every candidate i.

        Selected, disallowed and singular candidates score -inf.
        """
        m = self.acc.n_features
        if self.selected:
            u = self.inv @ self._rows  # (k, M)
            denom = self.diag - np.einsum("km,km->m", self._rows, u)
            num = (self.b[self.selected] @ u - self.b) ** 2
        else:
            denom = self.diag.copy()
            num = self.b**2
        scores = np.full(m, REJECTED)
        ok = denom > _SINGULAR_TOL
        scores[ok] = self.eig + num[ok] / denom[ok]
        if self.selected:
            scores[self.selected] = REJECTED
        if allowed is not None:
            mask = np.zeros(m, dtype=bool)
            mask[np.asarray(list(allowed), dtype=np.intp)] = True
            scores[~mask] = REJECTED
        return scores

    def step(self, allowed=None) -> int | None:
        """Augment with the best admissible candidate; None when there is none.

        Ties break toward the lowest feature index (np.argmax keeps the first
        maximum).
        """
        if len(self.selected) >= self.cfg.max_features:
            return None
        scores = self.candidate_scores(allowed)
        best = int(np.argmax(scores))
        if scores[best] == REJECTED:
            return None
        self.augment(best)
        return best

    def augment(self, i: int) -> None:
        """Add feature i by the rank-one block update of the restricted inverse.

        Raises SingularAugmentationError when the Schur complement of the new
        diagonal entry is not safely positive.
        """
        if i in self.selected:
            raise ValueError(f"feature {i} already selected")
        row_i = self.acc.cross([i])[0]
        if self.selected:
            s_li = self._rows[:, i]
            u = self.inv @ s_li
            denom = row_i[i] - float(s_li @ u)
        else:
            u = np.zeros(0)
            denom = row_i[i]
        if denom <= _SINGULAR_TOL:
            raise SingularAugmentationError("singular augmentation")
        self.inv = _augmented_inverse(self.inv, u, 1.0 / denom)
        self.selected.append(i)
        self._rows = np.vstack([self._rows, row_i[None, :]])
        if len(self.selected) % _REFRESH_EVERY == 0:
            self._refresh()
        self._recompute_eig()

    def _refresh(self):
        sw = self._rows[:, self.selected]
        inv = np.linalg.inv(sw)
        self.inv = 0.5 * (inv + inv.T)

    def _recompute_eig(self):
        b_r = self.b[self.selected]
        self.eig = float(b_r @ self.inv @ b_r)

    def eliminate(self) -> list[int]:
        """Backward pass: drop features whose removal barely lowers the eigenvalue.

        Repeats while the smallest eigenvalue decrease stays below
        elim_fraction of the current eigenvalue and at least two features
        remain.  Returns the removed feature indices.
        """
        removed = []
        while len(self.selected) >= 2:
            b_r = self.b[self.selected]
            pb = self.inv @ b_r
            drops = pb**2 / np.diag(self.inv)
            j = int(np.argmin(drops))
            if drops[j] >= self.cfg.elim_fraction * self.eig:
                break
            removed.append(self.selected[j])
            del self.selected[j]
            self._rows = np.delete(self._rows, j, axis=0)
            self._refresh()
            self._recompute_eig()
        return removed

    def state(self) -> ScatterState:
        return ScatterState(
            list(self.selected), self.inv.copy(), self.b[self.selected].copy(), self.eig
        )


def forward_select(rm: ResponseMatrix, cfg: ScatterConfig, w=None) -> ScatterState:
    """Greedy eigenvalue-maximizing selection of up to max_features features.

    Runs the backward pass afterwards when cfg.dual_pass is set.  Raises when
    not even a single feature is admissible.
    """
    if cfg.max_features > rm.n_features:
        raise ValueError("max_features exceeds the number of candidate features")
    sel = GreedySelector(rm, cfg, w)
    while len(sel.selected) < cfg.max_features:
        if sel.step() is None:
            break
    if not sel.selected:
        raise ValueError("no separating feature")
    if cfg.dual_pass:
        sel.eliminate()
    return sel.state()
