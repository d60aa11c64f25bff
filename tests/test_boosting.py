import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade import stumps
from gslda_cascade.boosting import (
    BoostingConfig,
    alpha,
    compact_rows,
    init_weights,
    prune_candidates,
    prune_stumps,
    reweight,
)
from gslda_cascade.stumps import StumpTable, StumpTrainer

import oracles
from oracles import packed, reweight_adaboost, table_of, unpacked, weighted_error


def make_table(error_fractions, n=100):
    """Stump table with prescribed weighted errors under uniform weights.

    All labels +1; row j outputs -1 on the first error_fractions[j] * n
    samples.
    """
    labels = np.ones(n, dtype=np.int8)
    rows = []
    for frac in error_fractions:
        k = int(round(frac * n))
        rows.append(np.concatenate([-np.ones(k, dtype=np.int8), np.ones(n - k, dtype=np.int8)]))
    responses = np.vstack(rows)
    w = np.full(n, 1.0 / n)
    errors = np.array([weighted_error(r, labels, w) for r in responses])
    return table_of(responses, errors, labels), w


class TestInitWeights:
    def test_balanced(self):
        u = init_weights(np.array([1, 1, -1, -1]))
        assert np.allclose(u, 0.25)

    def test_skewed_hand_values(self):
        u = init_weights(np.array([1, -1, -1, -1, -1]))
        assert u[0] == 0.5
        assert np.allclose(u[1:], 0.125)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            labels = np.where(rng.random(rng.integers(2, 50)) < 0.5, 1, -1)
            if abs(labels.sum()) == len(labels):
                continue
            assert init_weights(labels).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            init_weights(np.array([1, 1, 1]))


class TestAlpha:
    def test_no_skill_is_zero(self):
        assert alpha(0.5) == 0.0

    def test_quarter_error(self):
        assert alpha(0.25) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_antisymmetry(self):
        for e in (0.1, 0.3, 0.45):
            assert alpha(e) == pytest.approx(-alpha(1 - e), abs=1e-12)

    def test_clamped_at_extremes(self):
        assert np.isfinite(alpha(0.0))
        assert np.isfinite(alpha(1.0))


class TestReweightAdaboost:
    def test_zero_coefficient_is_identity(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        out = reweight(w, np.array([1, -1, 1, -1]), np.array([1, 1, -1, -1]), 0.0)
        assert np.allclose(out, w, atol=1e-15)

    def test_hand_case_misclassified_takes_half(self):
        # uniform 4 samples, one misclassified, a = log 3: the wrong sample's
        # weight becomes exactly 1/2 (and the stump's new error is 1/2).
        labels = np.array([1, 1, 1, 1])
        responses = np.array([-1, 1, 1, 1])
        out = reweight(np.full(4, 0.25), responses, labels, np.log(3.0))
        assert out[0] == pytest.approx(0.5, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_post_round_error_is_half(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 200
            values = np.round(rng.normal(size=n) * 2**16).astype(np.int32)  # integer sums
            labels = np.where(rng.random(n) < 0.3, 1, -1)
            w = rng.random(n)
            w /= w.sum()
            table = StumpTrainer(values[None, :], labels).train_all(w)
            (stump, _), err = table.stump(0), float(table.errors[0])
            if err < 1e-6:
                continue
            a = alpha(err)
            new_w = reweight(w, stump.responses(values, 1), labels, a)
            assert weighted_error(stump.responses(values, 1), labels, new_w) == pytest.approx(
                0.5, abs=1e-10
            )
            assert new_w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(new_w >= 0)


class TestReweightAsymboost:
    def test_k_one_equals_adaboost_bitwise(self):
        rng = np.random.default_rng(2)
        w = rng.random(50)
        w /= w.sum()
        labels = np.where(rng.random(50) < 0.5, 1, -1)
        responses = np.where(rng.random(50) < 0.5, 1, -1)
        a = 0.7
        ada = reweight_adaboost(w, responses, labels, a)
        asym = reweight(w, responses, labels, a, k=1.0)
        assert np.array_equal(ada, asym)

    def test_one_shot_multiplier_ratio_is_k(self):
        # exp(y log sqrt(k)) gives sqrt(k) vs 1/sqrt(k): raw ratio k.
        k = 4.0
        assert np.exp(np.log(np.sqrt(k))) / np.exp(-np.log(np.sqrt(k))) == pytest.approx(k)

    def test_equal_masses_shift_to_k_over_k_plus_one(self):
        # a = 0, k = 4, equal class masses: positives scale by sqrt(k), the
        # negatives by 1/sqrt(k), so positive mass becomes k/(k+1) = 0.8.
        labels = np.array([1, 1, -1, -1])
        w = np.full(4, 0.25)
        out = reweight(w, np.ones(4), labels, a=0.0, k=4.0)
        assert out[:2].sum() == pytest.approx(0.8, abs=1e-12)

    def test_amortized_rounds_compose_to_one_shot(self):
        labels = np.array([1, 1, 1, -1, -1, -1])
        w = np.full(6, 1.0 / 6)
        k = 9.0
        one_shot = reweight(w, np.ones(6), labels, 0.0, k)
        stepped = w
        for _ in range(3):
            stepped = reweight(stepped, np.ones(6), labels, 0.0, k, rounds=3)
        assert np.allclose(stepped, one_shot, atol=1e-12)

    def test_output_normalized(self):
        rng = np.random.default_rng(3)
        w = rng.random(30)
        w /= w.sum()
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        responses = np.where(rng.random(30) < 0.5, 1, -1)
        out = reweight(w, responses, labels, 1.2, k=3.0, rounds=5)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)


class TestPruneStumps:
    def test_hand_errors_with_epsilon(self):
        table, w = make_table([0.10, 0.12, 0.30, 0.45, 0.49])
        cfg = BoostingConfig(prune_epsilon=0.05)
        keep, stats = prune_stumps(table, w, cfg)
        assert list(keep) == [0, 1]
        assert stats.beta_k == pytest.approx(0.8, abs=1e-12)
        assert stats.e_k == pytest.approx(0.10, abs=1e-12)

    def test_zero_epsilon_keeps_only_minimal_error(self):
        table, w = make_table([0.2, 0.1, 0.1, 0.4])
        keep, _ = prune_stumps(table, w, BoostingConfig(prune_epsilon=0.0))
        assert set(keep) == {1, 2}

    def test_best_stump_always_survives(self):
        table, w = make_table([0.05, 0.2, 0.3])
        keep, stats = prune_stumps(table, w, BoostingConfig(prune_epsilon=0.0))
        assert 0 in keep
        assert stats.e_k == pytest.approx((1 - stats.beta_k) / 2)

    def test_empty_table_rejected(self):
        table = StumpTable(np.zeros(0, dtype=np.int8), np.zeros(0), np.ones(4, dtype=np.int8),
                           np.zeros((0, 4), dtype=np.int8), np.zeros(0, dtype=np.int32),
                           np.zeros((0, 2), dtype=np.uint16), np.zeros(0))
        with pytest.raises(ValueError):
            prune_stumps(table, np.full(4, 0.25), BoostingConfig())

    def test_edge_error_identity_exact_with_dyadic_weights(self):
        # With weights that are exact binary fractions the identity
        # edge = 1 - 2 * error holds with no rounding at all.
        rng = np.random.default_rng(4)
        n = 16
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        values = np.round(rng.normal(size=(6, n)) * 2**16).astype(np.int32)  # integer sums
        table = StumpTrainer(values, labels).train_all(np.full(n, 1.0 / 16))
        w = np.full(n, 1.0 / 16)
        edges = unpacked(table.responses(range(6)), n).astype(float) @ (w * labels)
        for j in range(6):
            assert edges[j] == 1.0 - 2.0 * table.errors[j]


def _same_prune(got, want):
    """Equal survivors and a bit-identical EdgeStats."""
    assert got[0].tolist() == want[0].tolist()
    assert np.array([got[1].beta_k, got[1].e_k]).tobytes() == np.array([want[1].beta_k, want[1].e_k]).tobytes()


class TestPruneMatchesOracle:
    """prune_stumps filters the rows by their trained errors and sums edges
    for the candidates only; it must give the whole-table oracle's
    survivors and EdgeStats bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1, 0.2, 0.125, 0.25, 1.0]),
           st.sampled_from(["random", "dyadic", "binades", "zeros", "wide"]))
    def test_matches_the_whole_table_oracle(self, seed, eps, kind):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 200)), int(rng.integers(1, 60))
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        # Coarse sums tie often; rows leaning on the labels make strong stumps.
        lean = rng.choice([0.0, 0.5, 2.0], size=(m, 1))
        values = np.round(4 * rng.normal(size=(m, n)) + lean * labels).astype(np.int32)
        if kind == "random":
            w = rng.random(n)
        elif kind == "dyadic":  # small multiples of 2**-p: every sum is exact, edges tie exactly
            w = rng.integers(0, 4, size=n) * 2.0 ** -int(rng.integers(0, 8))
            w[0] += 1.0
        elif kind == "binades":
            w = np.ldexp(1.0, rng.integers(-60, 0, size=n))
        elif kind == "zeros":
            w = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
            w[0] = 1.0
        else:  # unnormalized, magnitudes from 1e-20 to 1e20
            w = 10.0 ** rng.uniform(-20, 20, size=n)
        if kind not in ("dyadic", "wide"):
            w /= w.sum()
        table = StumpTrainer(values, labels).train_all(w)
        cfg = BoostingConfig(prune_epsilon=eps)
        got = prune_stumps(table, w, cfg)
        _same_prune(got, oracles.prune_stumps(table, w, cfg))
        if eps == 1.0 and kind != "wide" and w.sum() == 1.0:  # edges lie in [-1, 1]: every row survives
            assert got[0].tolist() == list(range(m))

    @pytest.mark.parametrize("eps, counts, kept", [
        (0.125, [4, 12, 13, 30], [0, 1]),  # row 1's edge is 0.625 = beta_k - 2 eps exactly
        (0.125, [30, 14, 14, 22, 23], [1, 2, 3]),  # rows 1 and 2 tie at beta_k; row 3 sits on the band
        (0.0, [9, 5, 5, 6], [1, 2]),
    ])
    def test_edge_exactly_on_the_band(self, eps, counts, kept):
        # 64 samples of weight 1/64: every edge is exact, so an edge equal
        # to beta_k - 2 eps survives, as the whole-table oracle keeps it.
        table, w = make_table([c / 64 for c in counts], n=64)
        cfg = BoostingConfig(prune_epsilon=eps)
        got = prune_stumps(table, w, cfg)
        _same_prune(got, oracles.prune_stumps(table, w, cfg))
        assert got[0].tolist() == kept

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.02, 0.1, 0.25, 1.0]), st.integers(0, 3),
           st.integers(1, 5))
    def test_single_build_matches_the_full_table(self, seed, eps, k, block_rows):
        # BGSLDA builds the candidates' outputs once, after its k chosen rows
        # in the selector's table, sums the edges on them there and compacts
        # the survivors in place: the survivors, their order and EdgeStats
        # must be the whole-table oracle's, the compacted rows those of the
        # whole response table, and the chosen rows untouched.  k shifts the
        # candidates' rows off the buffer's start, across compaction blocks
        # of block_rows rows.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 120)), int(rng.integers(1, 50))
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        lean = rng.choice([0.0, 0.5, 2.0], size=(m, 1))
        values = np.round(4 * rng.normal(size=(m, n)) + lean * labels).astype(np.int32)
        w = rng.random(n)
        w /= w.sum()
        table = StumpTrainer(values, labels).train_all(w)
        cfg = BoostingConfig(prune_epsilon=eps)
        head = packed(rng.choice(np.array([-1, 1], dtype=np.int8), size=(k, n)))
        rows = np.empty((k + len(prune_candidates(table, w, cfg)), stumps.words(n)), dtype=np.uint64)
        rows[:k] = head
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", rows.itemsize * rows.shape[1] * block_rows)
            got = prune_stumps(table, w, cfg, out=rows[k:])
        want = oracles.prune_stumps(table, w, cfg)
        _same_prune(got, want)
        kept = len(want[0])
        assert rows[:k].tobytes() == head.tobytes()
        assert rows[k : k + kept].tobytes() == table.responses(np.arange(m))[want[0]].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_compact_rows_keeps_the_order(self, seed, block_rows):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(0, 40)), int(rng.integers(1, 9))
        rows = rng.integers(-128, 128, size=(m, n)).astype(np.int8)
        keep = rng.random(m) < rng.choice([0.0, 0.3, 0.9, 1.0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", n * block_rows)
            kept = rows[keep]
            assert compact_rows(rows, keep) == len(kept)
        assert rows[: len(kept)].tobytes() == kept.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 17, 1000, 4097, 8191, 8193, 20_000]))
    def test_subset_edges_are_the_whole_table_edges(self, seed, n):
        # The prune sums edges for its candidates only: np.einsum must give
        # each row the same bits alone, among any rows, or in the whole table.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        responses = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
        signed = rng.random(n) * 10.0 ** rng.uniform(-5, 5, size=n) * np.where(rng.random(n) < 0.5, 1, -1)
        whole = np.einsum("mn,n->m", responses, signed)
        rows = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        assert np.einsum("mn,n->m", responses[rows], signed).tobytes() == whole[rows].tobytes()
        for j in rows[:3]:
            assert np.einsum("mn,n->m", responses[j : j + 1], signed).tobytes() == whole[j : j + 1].tobytes()


class TestBoostingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoostingConfig(asym_k=0.0)
        with pytest.raises(ValueError):
            BoostingConfig(prune_epsilon=-0.1)


def test_adaboost_converges_on_separable_toy():
    # Positives fill an interval on x with clear margins, so a handful of
    # stumps separates the set; twenty rounds must reach zero training error.
    rng = np.random.default_rng(5)
    n = 120
    x0 = np.concatenate(
        [rng.uniform(-0.4, 0.4, 50), rng.uniform(-2, -0.7, 35), rng.uniform(0.7, 2, 35)]
    )
    labels = np.array([1] * 50 + [-1] * 70)
    x = np.round(np.vstack([x0, rng.normal(size=n)]) * 2**16).astype(np.int32)  # integer sums
    w = init_weights(labels)
    margins = np.zeros(n)
    for _ in range(20):
        table = StumpTrainer(x, labels).train_all(w)
        j = int(np.argmin(table.errors))
        a = alpha(table.errors[j])
        row = table.stump(j)[1]
        margins += a * row
        w = reweight(w, row, labels, a)
    train_err = np.mean(np.where(margins >= 0, 1, -1) != labels)
    assert train_err == 0.0
