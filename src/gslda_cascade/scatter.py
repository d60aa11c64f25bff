"""Greedy sparse linear discriminant analysis over weak-classifier outputs.

The objective is the generalized Rayleigh quotient w'S_b w / w'S_w w restricted
to a small feature subset.  For two classes S_b = b b' is rank one, so the best
eigenvalue of a subset l is the closed form b_l' (S_w^l)^{-1} b_l and forward
selection only needs a rank-one block update of the restricted inverse per
added feature.  Columns of the within-class scatter are produced on demand;
the full M x M matrix is never materialized.  GreedySelector is the whole
layer: it holds the stump outputs as StumpTable.responses builds them, and
takes every sum of them from stumps.row_sums, which alone packs, unpacks
and sums outputs; it holds a closed-form diagonal and the weighted class
moments, and implements candidate scoring, the rank-one update, the
discriminant direction and the backward elimination pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stumps

#: Score assigned to candidates whose augmentation would be singular.
REJECTED = float("-inf")

# Denominators at or below this are treated as singular augmentations.
_SINGULAR_TOL = 1e-12

# The restricted inverse is recomputed by a direct solve whenever the subset
# size reaches a multiple of this, to keep long runs well conditioned.
_REFRESH_EVERY = 32

# The backward pass removes a feature only while the eigenvalue drop it causes
# stays below this fraction of the current eigenvalue.
_ELIM_FRACTION = 0.05


class DegenerateClassError(ValueError):
    """A class has no samples (or no weight mass)."""


@dataclass
class ScatterConfig:
    """Knobs of the sparse-LDA selection.

    gamma scales the negative-class share of the within-class scatter, ridge
    regularizes its diagonal (binary responses make duplicate or constant
    columns common), and dual_pass enables backward elimination after the
    forward pass.
    """

    gamma: float = 1.0
    ridge: float = 1e-6
    dual_pass: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")


def _augmented_inverse(inv, u, a):
    """Block inverse for subset l + {i} from (S_w^l)^{-1}, u and a = 1/denominator."""
    k = inv.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = inv + a * np.outer(u, u)
    out[:k, k] = -a * u
    out[k, :k] = -a * u
    out[k, k] = a
    return 0.5 * (out + out.T)


class GreedySelector:
    """Stepwise forward selection over an (M, N) table of stump outputs.

    bits holds the outputs, row j those of stump j on the N samples, as
    StumpTable.responses builds them (held as given when C-ordered, else
    copied to C order); labels holds the +/-1 class of each sample.
    Boosting weights (which sum to 1) are rescaled by N so that a uniform
    distribution reproduces the plain scatter; the scatter diagonal is
    W - W * mu**2 per class, as x * x = 1 for +/-1 outputs.  Every sum the
    selector takes is one of each row's class sums against a chosen row,
    by stumps.row_sums with the class weight vectors (each zero on the
    other class): against the +1 row for the class means, against the
    rows asked for in cross.  With weights=None they are 0/1 masks, whose
    sums row_sums counts exactly; each sum is bit for bit the one over the
    whole unpacked table either way.  Weights must be finite and
    nonnegative.  The selector starts from the subset `selected`, whose
    restricted inverse comes from a direct solve.  Single steps use the
    rank-one block update of the restricted inverse, which is refreshed
    from a direct solve every _REFRESH_EVERY features.
    """

    def __init__(self, bits, labels, cfg: ScatterConfig, weights=None, selected=()):
        bits = np.ascontiguousarray(bits)  # held C-ordered: row_sums needs contiguous rows
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("labels must be one class per sample")
        if not np.all(np.abs(labels) == 1):
            raise ValueError("labels must be -1 or +1")
        pos = labels > 0
        n_pos = int(pos.sum())
        n_neg = len(labels) - n_pos
        if n_pos < 1 or n_neg < 1:
            raise DegenerateClassError("degenerate class distribution")
        w = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=np.float64) * len(labels)
        if w.shape != labels.shape:
            raise ValueError("weights must hold one entry per sample")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("sample weights must be finite and nonnegative")
        self.cfg = cfg
        self.bits = bits
        self.wp = np.where(pos, w, 0.0)
        self.wn = np.where(pos, 0.0, w)
        self.Wp = float(self.wp.sum())
        self.Wn = float(self.wn.sum())
        if self.Wp <= 0 or self.Wn <= 0:
            raise DegenerateClassError("degenerate class distribution")
        # The class sums of each row are its sums against a row of +1 outputs.
        plus = stumps.packed_table(np.ones((1, len(labels))), 0, len(labels))
        sums = stumps.row_sums(bits, plus, [self.wp, self.wn])
        self.mu_p = sums[0, 0] / self.Wp
        self.mu_n = sums[1, 0] / self.Wn
        # Rank-one factor b of S_b: sqrt(Np*Nn/N) times the class-mean gap.
        self.b = np.sqrt(n_pos * n_neg / (n_pos + n_neg)) * (self.mu_p - self.mu_n)
        # Diagonal of the within-class scatter, ridge included: x * x = 1.
        sp = self.Wp - self.Wp * self.mu_p**2
        sn = self.Wn - self.Wn * self.mu_n**2
        self.diag = sp + cfg.gamma * sn + cfg.ridge
        self.selected: list[int] = list(selected)
        self.inv = np.zeros((0, 0))
        self.eig = 0.0
        # S_w[selected, :] is the prefix _rows of a buffer that grows by half
        # when full, so that a step appends its row in place.
        self._buf = np.empty((len(self.selected) + 1, len(bits)))
        if self.selected:
            self._buf[: len(self.selected)] = self.cross(self.selected)
            self._refresh()
            self._recompute_eig()

    @property
    def _rows(self) -> np.ndarray:
        return self._buf[: len(self.selected)]  # C-ordered, as np.einsum's sums depend on the layout

    def cross(self, rows) -> np.ndarray:
        """Rows of the within-class scatter: S_w[rows, :], ridge on S[r, rows[r]]."""
        rows = np.asarray(rows, dtype=np.intp)
        out, an = stumps.row_sums(self.bits, self.bits[rows], [self.wp, self.wn])
        # out - Wp mu_p mu_p' + gamma (an - Wn mu_n mu_n'), one operation at a
        # time in place, so that three (k, M) arrays are all it holds.
        outer = np.outer(self.mu_p[rows], self.mu_p)
        outer *= self.Wp
        out -= outer
        np.outer(self.mu_n[rows], self.mu_n, out=outer)
        outer *= self.Wn
        an -= outer
        del outer
        an *= self.cfg.gamma
        out += an
        out[np.arange(len(rows)), rows] += self.cfg.ridge
        return out

    def _scored(self):
        """(scores, u, c): scores[i] the eigenvalue of selected + {i}, -inf
        for selected and singular candidates; u = inv @ S_w[selected, :] and c
        every column's Schur complement, the one expression that both scores
        and admits a candidate."""
        u = self.inv @ self._rows
        c = self.diag - np.einsum("km,km->m", self._rows, u)
        num = (self.b[self.selected] @ u - self.b) ** 2
        scores = np.full(len(self.b), REJECTED)
        ok = c > _SINGULAR_TOL
        scores[ok] = self.eig + num[ok] / c[ok]
        scores[self.selected] = REJECTED
        return scores, u, c

    def step(self) -> int | None:
        """Augment with the best admissible candidate; None when there is none.

        Ties break toward the lowest feature index (np.argmax keeps the first
        maximum).  The pick's u and complement, as scored, make the update.
        """
        scores, u, c = self._scored()
        best = int(np.argmax(scores))
        if scores[best] == REJECTED:
            return None
        self._add(best, u[:, best], c[best])
        return best

    def _add(self, i, u, c):
        """Add feature i, of u and Schur complement c > _SINGULAR_TOL as
        _scored gives them, by the rank-one block update of the inverse."""
        self.inv = _augmented_inverse(self.inv, u, 1.0 / c)
        k = len(self.selected)
        if k == len(self._buf):
            grown = np.empty((k + k // 2 + 1, self._buf.shape[1]))
            grown[:k] = self._buf
            self._buf = grown
        self._buf[k] = self.cross([i])[0]
        self.selected.append(i)
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

    def direction(self) -> np.ndarray:
        """Unit-norm discriminant direction (S_w^l)^{-1} b_l on the selected subset."""
        if not self.selected:
            raise ValueError("no feature selected")
        b_r = self.b[self.selected]
        w = self.inv @ b_r
        nrm = float(np.linalg.norm(w))
        if not np.any(b_r != 0.0) or nrm == 0.0:
            raise ValueError("zero between-class direction")
        return w / nrm

    def eliminate(self) -> list[int]:
        """Backward pass: drop features whose removal barely lowers the eigenvalue.

        Repeats while the smallest eigenvalue decrease stays below
        _ELIM_FRACTION of the current eigenvalue and at least two features
        remain.  Returns the removed feature indices.
        """
        removed = []
        while len(self.selected) >= 2:
            b_r = self.b[self.selected]
            pb = self.inv @ b_r
            drops = pb**2 / np.diag(self.inv)
            j = int(np.argmin(drops))
            if drops[j] >= _ELIM_FRACTION * self.eig:
                break
            removed.append(self.selected[j])
            self._buf[j : len(self.selected) - 1] = self._buf[j + 1 : len(self.selected)]
            del self.selected[j]
            self._refresh()
            self._recompute_eig()
        return removed
