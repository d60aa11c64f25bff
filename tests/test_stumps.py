import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade import stumps
from gslda_cascade.stumps import DecisionStump, StumpTrainer

from oracles import exhaustive_stump, stump_table, stump_response, weighted_error


def uniform(n):
    return np.full(n, 1.0 / n)


def train_one(values, labels, weights):
    """The trainer on a single feature: (its stump, weighted error)."""
    table = StumpTrainer(np.asarray(values)[None, :], labels).train_all(weights)
    return table.stump(0), float(table.errors[0])


class TestDecisionStump:
    def test_sign_zero_is_positive(self):
        stump = DecisionStump(0, 3.0, 1)
        assert stump_response(stump, 3.0) == 1
        assert stump_response(stump, 2.999) == -1
        assert stump_response(DecisionStump(0, 3.0, -1), 3.0) == -1
        assert list(stump.responses(np.array([3.0, 2.999]))) == [1, -1]
        assert list(DecisionStump(0, 3.0, -1).responses(np.array([3.0]))) == [-1]

    def test_vector_responses_match_scalar(self):
        stump = DecisionStump(0, 0.5, -1)
        values = np.array([-1.0, 0.5, 2.0])
        assert list(stump.responses(values)) == [stump_response(stump, v) for v in values]

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            DecisionStump(0, 0.0, 2)


class TestTrainStump:
    def test_separable_hand_case(self):
        stump, err = train_one(
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([-1, -1, 1, 1]), uniform(4)
        )
        assert err == 0.0
        assert stump.threshold == 2.5
        assert stump.polarity == 1

    def test_all_positive_labels_constant_stump(self):
        stump, err = train_one(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]), uniform(3))
        assert err == 0.0
        assert stump.threshold == -np.inf
        assert stump.polarity == 1

    def test_identical_values_pick_better_constant(self):
        values = np.full(5, 7.0)
        labels = np.array([1, 1, 1, -1, -1])
        stump, err = train_one(values, labels, uniform(5))
        assert np.isinf(stump.threshold)
        assert err == pytest.approx(0.4, abs=1e-15)
        # constant +1 misclassifies the two negatives
        assert all(stump_response(stump, v) == 1 for v in values)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = 200
            values = rng.normal(size=n)
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            weights = rng.random(n)
            weights /= weights.sum()
            _, err = train_one(values, labels, weights)
            best_err, _, _ = exhaustive_stump(values, labels, weights)
            assert err == pytest.approx(best_err, abs=1e-12)

    def test_threshold_tiebreak_prefers_smaller(self):
        # err 0.25 at theta=1.5 (pol -1) and theta=3.5 (pol -1); smaller wins.
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, -1, 1, -1])
        stump, err = train_one(values, labels, uniform(4))
        assert err == pytest.approx(0.25)
        assert stump.threshold == 1.5
        assert stump.polarity == -1

    def test_polarity_tiebreak_prefers_plus(self):
        stump, err = train_one(np.array([5.0, 5.0]), np.array([1, -1]), uniform(2))
        assert err == pytest.approx(0.5)
        assert stump.polarity == 1
        assert stump.threshold == -np.inf

    def test_weight_scaling_leaves_choice_unchanged(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=50)
        labels = np.where(rng.random(50) < 0.5, 1, -1)
        weights = rng.random(50)
        s1, _ = train_one(values, labels, weights / weights.sum())
        s2, _ = train_one(values, labels, 7.0 * weights / weights.sum())
        assert (s1.threshold, s1.polarity) == (s2.threshold, s2.polarity)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimality_and_half_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        values = np.round(rng.normal(size=n), 2)  # rounded values force duplicates
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        weights = rng.random(n)
        weights /= weights.sum()
        stump, err = train_one(values, labels, weights)
        best_err, _, _ = exhaustive_stump(values, labels, weights)
        assert err <= best_err + 1e-12
        assert err <= 0.5 + 1e-12
        assert err == pytest.approx(weighted_error(stump.responses(values), labels, weights), abs=1e-12)


class TestBuildTable:
    def test_single_row_reduces_to_train_stump(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=30)
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        w = uniform(30)
        table = StumpTrainer(np.vstack([values, rng.normal(size=30)]), labels).train_all(w)
        stump, err = train_one(values, labels, w)
        assert table.thresholds[0] == stump.threshold
        assert table.polarity[0] == stump.polarity
        assert table.errors[0] == pytest.approx(err, abs=1e-15)

    def test_row_permutation_permutes_table(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(6, 40))
        labels = np.where(rng.random(40) < 0.5, 1, -1)
        w = uniform(40)
        perm = rng.permutation(6)
        t1 = StumpTrainer(values, labels).train_all(w)
        t2 = StumpTrainer(values[perm], labels).train_all(w)
        for out_row, in_row in enumerate(perm):
            assert t2.thresholds[out_row] == t1.thresholds[in_row]
            assert t2.errors[out_row] == t1.errors[in_row]
            assert np.array_equal(t2.responses[out_row], t1.responses[in_row])

    def test_errors_match_per_row_training(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(8, 25))
        labels = np.where(rng.random(25) < 0.4, 1, -1)
        w = rng.random(25)
        w /= w.sum()
        table = StumpTrainer(values, labels).train_all(w)
        for j in range(8):
            _, err = train_one(values[j], labels, w)
            assert table.errors[j] == pytest.approx(err, abs=1e-15)

    def test_responses_consistent_with_stumps(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(5, 20))
        labels = np.where(rng.random(20) < 0.5, 1, -1)
        table = StumpTrainer(values, labels).train_all(uniform(20))
        for j in range(len(table)):
            assert np.array_equal(table.responses[j], table.stump(j).responses(values[j]))

    def test_trainer_reuse_under_new_weights(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(4, 30))
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        trainer = StumpTrainer(values, labels)
        w2 = rng.random(30)
        w2 /= w2.sum()
        again = trainer.train_all(w2)
        fresh = StumpTrainer(values, labels).train_all(w2)
        assert np.array_equal(again.responses, fresh.responses)
        assert np.allclose(again.errors, fresh.errors)


class TestBlockedTable:
    """StumpTrainer walks the table in row blocks; across block boundaries it
    must give the whole-table oracle's outputs bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7))
    def test_matches_whole_table_oracle(self, seed, block_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        m = int(rng.integers(1, 41))
        if m % block_rows == 0 and block_rows > 1:
            m -= 1  # leave a short last block
        values = np.round(rng.normal(size=(m, n)), 1)  # ties within rows
        values[rng.random(m) < 0.1] = 0.5  # and some constant rows
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 8 * (n + 1) * block_rows)
            trainer = StumpTrainer(values, labels)
            for _ in range(2):  # the second weight vector reuses the trainer
                w = rng.random(n)
                w /= w.sum()
                table = trainer.train_all(w)
                thresholds, polarity, errors, responses = stump_table(values, labels, w)
                assert [table.stump(j).feature_id for j in range(len(table))] == list(range(m))
                assert table.polarity.tolist() == polarity.tolist()
                assert table.thresholds.tobytes() == thresholds.tobytes()
                assert table.errors.tobytes() == errors.tobytes()
                assert table.responses.dtype == responses.dtype
                assert table.responses.tobytes() == responses.tobytes()


class TestStableOrder:
    """The trainer sorts with numpy's unstable SIMD argsort and repairs ties
    with a second key sort; its order must be the stable argsort exactly."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7))
    def test_order_is_the_stable_argsort(self, seed, block_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        m = int(rng.integers(1, 30))
        # Few distinct values, so ties are heavy; 0.0 and -0.0 compare equal.
        palette = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf])
        values = rng.choice(palette[: int(rng.integers(1, len(palette) + 1))], size=(m, n))
        noisy = rng.random(m) < 0.3
        values[noisy] = np.where(rng.random((noisy.sum(), n)) < 0.5, values[noisy],
                                 np.round(rng.normal(size=(noisy.sum(), n)), 1))
        values[rng.random(m) < 0.15] = rng.choice(palette)  # constant rows
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        w = rng.random(n)
        w /= w.sum()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 8 * (n + 1) * block_rows)
            trainer = StumpTrainer(values, labels)
            table = trainer.train_all(w)
        assert trainer.order.dtype == np.int32
        assert np.array_equal(trainer.order, np.argsort(values, axis=1, kind="stable"))
        thresholds, polarity, errors, responses = stump_table(values, labels, w)
        assert table.thresholds.tobytes() == thresholds.tobytes()
        assert table.polarity.tolist() == polarity.tolist()
        assert table.errors.tobytes() == errors.tobytes()
        assert table.responses.tobytes() == responses.tobytes()


class TestNaN:
    def test_nan_row_rejected(self):
        # Trained silently once: threshold nan, and an error of 1/6 that its
        # all-+1 responses did not make.
        values = np.array([[0.0, 1.0, np.nan, 2.0, 3.0, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            StumpTrainer(values, np.array([1, 1, -1, -1, 1, -1]))

    def test_nan_in_a_later_block_rejected(self):
        values = np.arange(40.0).reshape(8, 5)
        values[6, 2] = np.nan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 8 * 6 * 3)  # blocks of three rows
            with pytest.raises(ValueError, match="NaN"):
                StumpTrainer(values, np.array([1, -1, 1, -1, 1]))


class TestMemoryBound:
    def test_blocked_training_memory(self):
        rng = np.random.default_rng(7)
        m, n = 1500, 700
        values = np.round(rng.normal(size=(m, n)), 2)
        labels = np.where(rng.random(n) < 0.3, 1, -1)
        w = rng.random(n)
        w /= w.sum()
        trainer = StumpTrainer(values, labels)
        held = sum(v.nbytes for v in vars(trainer).values() if isinstance(v, np.ndarray))
        assert held <= 1.75 * values.nbytes

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = trainer.train_all(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess = peak - table.responses.nbytes - table.errors.nbytes
        assert excess < 16 * stumps._BLOCK_BYTES


class TestWeightedError:
    def test_perfect_and_inverted(self):
        labels = np.array([1, -1, 1, -1])
        w = uniform(4)
        assert weighted_error(labels, labels, w) == 0.0
        assert weighted_error(-labels, labels, w) == 1.0

    def test_half_right_hand_count(self):
        labels = np.array([1, 1, -1, -1])
        responses = np.array([1, -1, -1, 1])
        assert weighted_error(responses, labels, uniform(4)) == pytest.approx(0.5)
