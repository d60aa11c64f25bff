import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade import stumps
from gslda_cascade.features import FeatureExtractor, PatchSums, PoolParams, build_pool
from gslda_cascade.stumps import _LIMITS, DecisionStump, StumpTrainer

from oracles import exhaustive_stump, stump_response, stump_table, thresholds_of, weighted_error


def uniform(n):
    return np.full(n, 1.0 / n)


def sums_of(values):
    """Continuous values as an int32 table of sums: 2**16 times them, rounded."""
    return np.round(values * 2**16).astype(np.int32)


def every_row(table):
    """The table's outputs on its samples, every row in order."""
    return table.responses(np.arange(len(table)))


def train_one(values, labels, weights):
    """The trainer on a single feature: (its stump, weighted error)."""
    table = StumpTrainer(np.asarray(values)[None, :], labels).train_all(weights)
    return table.stump(0)[0], float(table.errors[0])


class TestDecisionStump:
    def test_sign_zero_is_positive(self):
        stump = DecisionStump(0, 3.0, 1)
        assert stump_response(stump, 3.0) == 1
        assert stump_response(stump, 2.999) == -1
        assert stump_response(DecisionStump(0, 3.0, -1), 3.0) == -1
        assert list(stump.responses(np.array([3000, 2999]), 1000)) == [1, -1]  # the values 3.0 and 2.999
        assert list(DecisionStump(0, 3.0, -1).responses(np.array([3]), 1)) == [-1]

    def test_vector_responses_match_scalar(self):
        stump = DecisionStump(0, 0.5, -1)
        sums = np.array([-2, 1, 4])  # the values -1.0, 0.5 and 2.0
        assert list(stump.responses(sums, 2)) == [stump_response(stump, v) for v in sums / 2]

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            DecisionStump(0, 0.0, 2)


class TestTrainStump:
    def test_separable_hand_case(self):
        stump, err = train_one(np.array([1, 2, 3, 4]), np.array([-1, -1, 1, 1]), uniform(4))
        assert err == 0.0
        assert stump.threshold == 2.5
        assert stump.polarity == 1

    def test_all_positive_labels_constant_stump(self):
        stump, err = train_one(np.array([1, 2, 3]), np.array([1, 1, 1]), uniform(3))
        assert err == 0.0
        assert stump.threshold == -np.inf
        assert stump.polarity == 1

    def test_identical_values_pick_better_constant(self):
        values = np.full(5, 7)
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
            values = sums_of(rng.normal(size=n))
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            weights = rng.random(n)
            weights /= weights.sum()
            _, err = train_one(values, labels, weights)
            best_err, _, _ = exhaustive_stump(values, labels, weights)
            assert err == pytest.approx(best_err, abs=1e-12)

    def test_threshold_tiebreak_prefers_smaller(self):
        # err 0.25 at theta=1.5 (pol -1) and theta=3.5 (pol -1); smaller wins.
        values = np.array([1, 2, 3, 4])
        labels = np.array([1, -1, 1, -1])
        stump, err = train_one(values, labels, uniform(4))
        assert err == pytest.approx(0.25)
        assert stump.threshold == 1.5
        assert stump.polarity == -1

    def test_polarity_tiebreak_prefers_plus(self):
        stump, err = train_one(np.array([5, 5]), np.array([1, -1]), uniform(2))
        assert err == pytest.approx(0.5)
        assert stump.polarity == 1
        assert stump.threshold == -np.inf

    def test_weight_scaling_leaves_choice_unchanged(self):
        rng = np.random.default_rng(1)
        values = sums_of(rng.normal(size=50))
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
        values = np.round(100 * rng.normal(size=n)).astype(np.int32)  # rounded sums force duplicates
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        weights = rng.random(n)
        weights /= weights.sum()
        stump, err = train_one(values, labels, weights)
        best_err, _, _ = exhaustive_stump(values, labels, weights)
        assert err <= best_err + 1e-12
        assert err <= 0.5 + 1e-12
        assert err == pytest.approx(weighted_error(stump.responses(values, 1), labels, weights), abs=1e-12)


class TestBuildTable:
    def test_single_row_reduces_to_train_stump(self):
        rng = np.random.default_rng(2)
        values = sums_of(rng.normal(size=30))
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        w = uniform(30)
        table = StumpTrainer(np.vstack([values, sums_of(rng.normal(size=30))]), labels).train_all(w)
        stump, err = train_one(values, labels, w)
        assert thresholds_of(table)[0] == stump.threshold
        assert table.polarity[0] == stump.polarity
        assert table.errors[0] == pytest.approx(err, abs=1e-15)

    def test_row_permutation_permutes_table(self):
        rng = np.random.default_rng(3)
        values = sums_of(rng.normal(size=(6, 40)))
        labels = np.where(rng.random(40) < 0.5, 1, -1)
        w = uniform(40)
        perm = rng.permutation(6)
        t1 = StumpTrainer(values, labels).train_all(w)
        t2 = StumpTrainer(values[perm], labels).train_all(w)
        for out_row, in_row in enumerate(perm):
            assert thresholds_of(t2)[out_row] == thresholds_of(t1)[in_row]
            assert t2.errors[out_row] == t1.errors[in_row]
            assert np.array_equal(t2.responses([out_row])[0], t1.responses([in_row])[0])

    def test_errors_match_per_row_training(self):
        rng = np.random.default_rng(4)
        values = sums_of(rng.normal(size=(8, 25)))
        labels = np.where(rng.random(25) < 0.4, 1, -1)
        w = rng.random(25)
        w /= w.sum()
        table = StumpTrainer(values, labels).train_all(w)
        for j in range(8):
            _, err = train_one(values[j], labels, w)
            assert table.errors[j] == pytest.approx(err, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
           st.sampled_from([2**4, 2**20, 2**31, 2**40, 2**63]),
           st.sampled_from(["uniform", "binades", "zeros", "dyadic", "wide"]))
    def test_responses_consistent_with_stumps(self, seed, block_rows, dtype, reach, kind):
        # Training decides a sum by the sum at its slot, the scan and node
        # retuning by DecisionStump.passes: they must agree on every sum, the
        # dtype's extremes and the +/-inf thresholds of constant rows too.
        rng = np.random.default_rng(seed)
        table, area, labels = integer_table(rng, block_rows, dtype, reach)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 16 * (table.shape[1] + 1) * block_rows)
            trained = StumpTrainer(table, labels, area).train_all(draw_weights(rng, table.shape[1], kind))
        for j in range(len(trained)):
            stump, outputs = trained.stump(j)
            assert np.array_equal(trained.responses([j])[0], stump.responses(table[j], area[j]))
            assert outputs.tobytes() == trained.responses([j])[0].tobytes()

    def test_trainer_reuse_under_new_weights(self):
        rng = np.random.default_rng(6)
        values = sums_of(rng.normal(size=(4, 30)))
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        trainer = StumpTrainer(values, labels)
        w2 = rng.random(30)
        w2 /= w2.sum()
        again = trainer.train_all(w2)
        fresh = StumpTrainer(values, labels).train_all(w2)
        assert np.array_equal(every_row(again), every_row(fresh))
        assert np.allclose(again.errors, fresh.errors)


def draw_weights(rng, n, kind):
    """Weights for the oracle tests; all but "uniform" make float sums depend
    on their order, so only the oracle's own summation order matches."""
    if kind == "binades":  # powers of two over ~1,000 binades, subnormals included
        return np.ldexp(1.0, rng.integers(-1074, -50, size=n))
    if kind == "zeros":  # exact zeros, sometimes a whole class's
        w = rng.random(n)
        w[rng.random(n) < 0.5] = 0.0
        return w
    if kind == "dyadic":  # all equal: sums are exact, so errors tie exactly
        return np.full(n, 2.0 ** -int(rng.integers(0, 8)))
    if kind == "wide":  # magnitudes from 1e-20 to 1e20
        return 10.0 ** rng.uniform(-20, 20, size=n)
    w = rng.random(n)
    return w / w.sum()


class TestBlockedTable:
    """StumpTrainer walks the table in row blocks; across block boundaries it
    must give the whole-table oracle's outputs bit for bit, whose two float64
    cumulative sums it must reproduce exactly under any weights."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7),
           st.sampled_from(["uniform", "binades", "zeros", "dyadic", "wide"]))
    def test_matches_whole_table_oracle(self, seed, block_rows, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        m = int(rng.integers(1, 41))
        if m % block_rows == 0 and block_rows > 1:
            m -= 1  # leave a short last block
        values = np.round(10 * rng.normal(size=(m, n))).astype(np.int32)  # ties within rows
        values[rng.random(m) < 0.1] = 5  # and some constant rows
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        with pytest.MonkeyPatch.context() as mp:
            # train_all's blocks of block_rows rows of N + 1 complex128 entries
            mp.setattr(stumps, "_BLOCK_BYTES", 16 * (n + 1) * block_rows)
            trainer = StumpTrainer(values, labels)
            for _ in range(2):  # the second weight vector reuses the trainer
                w = draw_weights(rng, n, kind)
                table = trainer.train_all(w)
                thresholds, polarity, errors, responses = stump_table(values, labels, w)
                chosen = [table.stump(j) for j in range(len(table))]
                assert [stump.feature_id for stump, _ in chosen] == list(range(m))
                assert np.array([outputs for _, outputs in chosen]).tobytes() == responses.tobytes()
                assert table.polarity.tolist() == polarity.tolist()
                assert thresholds_of(table).tobytes() == thresholds.tobytes()
                assert table.errors.tobytes() == errors.tobytes()
                assert every_row(table).dtype == responses.dtype
                assert every_row(table).tobytes() == responses.tobytes()


class TestStableOrder:
    """A table too wide for int64 keys sorts with numpy's unstable SIMD
    argsort, then one key sort of run numbers; its order must be the stable
    argsort exactly."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7))
    def test_order_is_the_stable_argsort(self, seed, block_rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        m = int(rng.integers(1, 30))
        # Few distinct sums, so ties are heavy; a row holding -2**63 and a
        # sum >= 0 spans 2**63 or more, past int64 keys.
        palette = np.array([-(2**63), -(2**62), -1, 0, 1, 2**40, 2**63 - 1])
        values = rng.choice(palette[: int(rng.integers(1, len(palette) + 1))], size=(m, n))
        noisy = rng.random(m) < 0.3
        values[noisy] = np.where(rng.random((noisy.sum(), n)) < 0.5, values[noisy],
                                 rng.integers(-5, 6, size=(noisy.sum(), n)))
        values[rng.random(m) < 0.15] = rng.choice(palette)  # constant rows
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        w = rng.random(n)
        w /= w.sum()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 8 * (n + 1) * block_rows)
            trainer = StumpTrainer(values, labels)
            table = trainer.train_all(w)
        assert trainer.order.dtype == np.uint16  # N <= 65,536
        assert np.array_equal(trainer.order, np.argsort(values, axis=1, kind="stable"))
        thresholds, polarity, errors, responses = stump_table(values, labels, w)
        assert thresholds_of(table).tobytes() == thresholds.tobytes()
        assert table.polarity.tolist() == polarity.tolist()
        assert table.errors.tobytes() == errors.tobytes()
        assert every_row(table).tobytes() == responses.tobytes()


def integer_table(rng, block_rows, dtype, reach):
    """(table, area, labels): an (M, N) table of dtype within +/-reach, with
    few distinct sums, so ties are heavy, the extremes of the span, noisy
    rows and constant rows, M leaving a short last block of block_rows."""
    n = int(rng.integers(2, 300))
    m = int(rng.integers(1, 30))
    if m % block_rows == 0 and block_rows > 1:
        m -= 1  # leave a short last block
    info = np.iinfo(dtype)
    low, high = max(-reach, info.min), min(reach, info.max)
    palette = np.concatenate([[low, high, 0], rng.integers(low, high, size=8, endpoint=True)])
    table = rng.choice(palette[: int(rng.integers(1, len(palette) + 1))], size=(m, n)).astype(dtype)
    noisy = rng.random(m) < 0.3
    table[noisy] = rng.integers(low, high, size=(noisy.sum(), n), endpoint=True)
    table[rng.random(m) < 0.15] = rng.choice(palette)  # constant rows
    area = rng.integers(1, 600, size=m)
    return table, area, np.where(rng.random(n) < 0.4, 1, -1)


class TestTrainOnce:
    """A trainer without keep_order, as GSLDA's, sorts each of train_all's
    row blocks in its loop and keeps no order: its table must be the
    stored-order trainer's bit for bit, across block boundaries, on tied
    sums, non-unit areas, zero weights and every key width (run numbers
    included), on every call."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([np.int32, np.int64]),
           st.sampled_from([2**4, 2**20, 2**31, 2**40, 2**62]),
           st.sampled_from(["uniform", "binades", "zeros", "dyadic", "wide"]))
    def test_matches_the_stored_order(self, seed, block_rows, dtype, reach, kind):
        rng = np.random.default_rng(seed)
        table, area, labels = integer_table(rng, block_rows, dtype, reach)
        n = table.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            # train_all's blocks of block_rows rows; the stored order is sorted in blocks twice as tall
            mp.setattr(stumps, "_BLOCK_BYTES", 16 * (n + 1) * block_rows)
            once = StumpTrainer(table, labels, area, keep_order=False)
            assert once.order is None and once._ties is None
            for _ in range(2):
                w = draw_weights(rng, n, kind)
                got = once.train_all(w)
                expected = StumpTrainer(table, labels, area).train_all(w)
                assert thresholds_of(got).tobytes() == thresholds_of(expected).tobytes()
                for name in ("polarity", "errors", "slots", "cols"):
                    a, b = getattr(got, name), getattr(expected, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert got.sums is table and np.array_equal(got.labels, expected.labels)


class TestView:
    """A trainer handed the features.PatchSums view of a stage's patches
    holds no sums.  The stored-order trainer extracts each row block once,
    for its sort in __init__, and train_all then reads no sums at all; the
    one-pass trainer extracts each block in train_all.  Both must give the
    extracted table's StumpTable bit for bit, on int32 and int64
    (wide-pixel) sums and across blocks, and stump(j) extracts row j alone."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["8-bit", "wide"]), st.integers(1, 7), st.booleans(),
           st.sampled_from(["uniform", "binades", "zeros", "dyadic", "wide"]))
    def test_matches_the_extracted_table(self, seed, pixels, block_rows, keep_order, kind):
        rng = np.random.default_rng(seed)
        extractor = FeatureExtractor(build_pool(PoolParams(8, stride=2, subsample=int(rng.integers(1, 4)))))
        n = int(rng.integers(2, 60))
        patches = rng.integers(0, 256 if pixels == "8-bit" else 2**26, size=(n, 8, 8))
        patches = patches.astype(np.uint8) if pixels == "8-bit" else patches
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        table, area = extractor.extract(patches), extractor.area
        reads = []  # per read of the view: the rows extracted
        view_read = PatchSums.__getitem__

        def spy(view, key):
            out = view_read(view, key)
            if not isinstance(key, (int, np.integer)):  # an integer key reads through view[[key]]
                reads.append(len(out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 16 * (n + 1) * block_rows)
            mp.setattr(PatchSums, "__getitem__", spy)
            view = extractor.sums(patches)
            trainer = StumpTrainer(view, labels, area, keep_order)
            assert sum(reads) == (len(area) if keep_order else 0)  # the sort's
            for outputs in (None, np.empty(table.shape, dtype=np.int8)):
                reads.clear()
                w = draw_weights(rng, n, kind)
                got = trainer.train_all(w, outputs)
                # The stored order reads nothing unless asked for every
                # output; one pass extracts every row once more.
                alone = keep_order and outputs is None
                assert (reads == []) if alone else (sum(reads) == len(area))
                expected = StumpTrainer(table, labels, area).train_all(w)
                if outputs is not None:
                    assert outputs.tobytes() == expected.responses(np.arange(len(area))).tobytes()
                reads.clear()
                assert thresholds_of(got).tobytes() == thresholds_of(expected).tobytes()
                assert reads == [1] * len(area)  # each stump(j) extracts row j alone
                for name in ("polarity", "errors", "slots", "cols"):
                    a, b = getattr(got, name), getattr(expected, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert got.sums is view
                rows = rng.integers(0, len(area), size=5)
                assert got.responses(rows).tobytes() == expected.responses(rows).tobytes()


class TestResponses:
    """StumpTable.responses builds the outputs of the rows asked for from the
    trainer's table, a block of rows at a time: they must be the whole-table
    oracle's rows, in the order asked, repeats and no rows included."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
           st.sampled_from(["uniform", "binades", "zeros", "dyadic", "wide"]))
    def test_rows_match_the_oracle(self, seed, block_rows, dtype, kind):
        rng = np.random.default_rng(seed)
        table, area, labels = integer_table(rng, block_rows, dtype, 2**40)
        m, n = table.shape
        w = draw_weights(rng, n, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", table.itemsize * n * block_rows)
            trained = StumpTrainer(table, labels, area).train_all(w)
            expected = stump_table(table / area[:, None], labels, w)[3]
            drawn = rng.integers(0, m, size=int(rng.integers(1, 3 * m + 2))).tolist()
            for rows in ([], drawn, list(range(m))[::-1], [m - 1, 0, m - 1]):
                got = trained.responses(rows)
                assert got.shape == (len(rows), n) and got.dtype == np.int8
                assert got.tobytes() == expected[rows].tobytes()
                into = np.zeros((len(rows) + 2, n), dtype=np.int8)
                inner = into[1:-1]
                assert trained.responses(rows, out=inner) is inner
                assert inner.tobytes() == expected[rows].tobytes()
                assert not into[0].any() and not into[-1].any()

    def test_infinite_thresholds(self):
        # A +inf threshold passes no sum, the dtype's largest included; a
        # -inf one passes every sum, the smallest included.
        sums = np.array([[5, 5, 5], [1, 2, 3], [3, 1, 2], [-(2**31), 2**31 - 1, 0]], dtype=np.int32)
        seen = set()
        for labels, w in ((np.array([1, -1, -1]), np.array([0.75 * 2**-52, 0.5, 0.5])),
                          (np.array([1, 1, 1]), np.full(3, 1 / 3)),
                          (np.array([-1, 1, -1]), np.array([0.5, 0.25, 0.25]))):
            trained = StumpTrainer(sums, labels).train_all(w)
            expected = stump_table(sums, labels, w)[3]
            thresholds = thresholds_of(trained)
            seen.update(thresholds[np.isinf(thresholds)].tolist())
            rows = [3, 0, 0, 2, 1]
            assert trained.responses(rows).tobytes() == expected[rows].tobytes()
        assert seen == {-np.inf, np.inf}


class TestIntegerKeys:
    """An integer table sorts by one key sort of rank << bits | index; its
    order and tie bits must be the stable argsort's at every key width,
    and its training must equal the oracle's on the values sums / area."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.sampled_from([np.int32, np.int64]),
           st.sampled_from([2**4, 2**20, 2**24, 2**31, 2**40, 2**60]))
    def test_key_order_is_the_stable_argsort(self, seed, block_rows, dtype, reach):
        rng = np.random.default_rng(seed)
        table, area, labels = integer_table(rng, block_rows, dtype, reach)
        n = table.shape[1]
        w = rng.random(n)
        w /= w.sum()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", 8 * (n + 1) * block_rows)
            trainer = StumpTrainer(table, labels, area)
            trained = trainer.train_all(w)
        stable = np.argsort(table, axis=1, kind="stable")
        assert trainer.order.dtype == np.uint16  # N <= 65,536
        assert np.array_equal(trainer.order, stable)
        ordered = np.take_along_axis(table, stable, axis=1)
        ties = np.unpackbits(trainer._ties, axis=1, count=n - 1).astype(bool)
        assert np.array_equal(ties, ordered[:, 1:] == ordered[:, :-1])
        if reach < 2**50:  # where distinct sums keep distinct values and midpoints
            thresholds, polarity, errors, responses = stump_table(table / area[:, None], labels, w)
            assert thresholds_of(trained).tobytes() == thresholds.tobytes()
            assert trained.polarity.tolist() == polarity.tolist()
            assert trained.errors.tobytes() == errors.tobytes()
            assert every_row(trained).tobytes() == responses.tobytes()

    @pytest.mark.parametrize("dtype, low, high, key_dtype, ranked", [
        (np.int32, -5, 5, np.int32, True),
        (np.int32, -(2**28), 2**28 - 1, np.int32, True),  # the largest key is 2**31 - 1
        (np.int32, -(2**28), 2**28, np.int64, True),
        (np.int32, -(2**31), 2**31 - 1, np.int64, True),
        (np.int64, -(2**40), 2**40, np.int64, True),
        (np.int64, -(2**62), 2**62, np.int32, False),
        (np.float64, -5, 5, None, False),  # once sorted by run numbers; now rejected
    ], ids=["int32-keys", "widest-int32-keys", "narrowest-int64-keys", "int32-table-int64-keys", "int64-keys",
            "too-wide-run-numbers", "float-run-numbers"])
    def test_key_width_follows_the_span(self, dtype, low, high, key_dtype, ranked):
        table = np.array([[high, low, high, 0], [1, 1, 1, 1]], dtype=dtype)
        if key_dtype is None:  # no float table reaches the key sort
            with pytest.raises(ValueError, match="signed integer"):
                StumpTrainer(table, np.array([1, -1, 1, -1]))
            return
        bits = (table.shape[1] - 1).bit_length()
        keys = stumps._sort_keys(table, bits)
        assert keys.dtype == key_dtype
        keys.sort(axis=1)
        # Ranks are the distances from the row minimum, or run numbers.
        assert (keys[0] >> bits).tolist() == ([0, -low, high - low, high - low] if ranked else [0, 1, 2, 2])
        assert (keys & ((1 << bits) - 1)).tolist() == [[1, 3, 0, 2], [0, 1, 2, 3]]

    def test_stump_thresholded_at_inf(self):
        # (P + N) - N rounds above P here, so the least error is "all -1" by
        # polarity +1 at slot N, the threshold +inf: no sum reaches it, not
        # even the largest sum of the table's dtype.
        labels, w = np.array([1, -1, -1]), np.array([0.75 * 2**-52, 0.5, 0.5])
        tables = [(np.array([[5, 5, 5]]), np.array([3]))]
        tables += [(np.full((1, 3), np.iinfo(t).max, dtype=t), np.array([a])) for t in _LIMITS for a in (1, 3)]
        for sums, area in tables:
            trained = StumpTrainer(sums, labels, area).train_all(w)
            thresholds, polarity, errors, responses = stump_table(sums / area[:, None], labels, w)
            assert thresholds_of(trained).tolist() == thresholds.tolist() == [np.inf]
            assert trained.polarity.tolist() == polarity.tolist() == [1]
            assert trained.errors.tobytes() == errors.tobytes()
            assert every_row(trained).tolist() == responses.tolist() == [[-1, -1, -1]]
            stump, outputs = trained.stump(0)
            assert stump.responses(sums[0], area[0]).tolist() == outputs.tolist() == [-1, -1, -1]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sum_bound_splits_the_sums_as_the_division_does(data):
    # The float quotient the one rule replaces: numpy's division of the
    # integer sums by the area, in every dtype the rule serves (int8 for the
    # toy's +/-1 pool, int32 and int64 for extraction and the integral tables).
    dtype = data.draw(st.sampled_from(list(_LIMITS)))
    lo, hi = _LIMITS[dtype]
    area = data.draw(st.integers(1, 2**18))
    kind = data.draw(st.sampled_from(["quotient", "below", "above", "inf", "beyond int32"]))
    if kind == "inf":
        threshold = data.draw(st.sampled_from([-np.inf, np.inf]))
    elif kind == "beyond int32":
        threshold = data.draw(st.sampled_from([-1, 1])) * (2**31 + data.draw(st.integers(-2, 2**20))) / area
    else:
        threshold = data.draw(st.one_of(st.integers(-1000, 1000), st.integers(-(2**40), 2**40),
                                        st.integers(lo, hi), st.sampled_from([lo, hi]))) / area
        if kind != "quotient":
            threshold = float(np.nextafter(threshold, -np.inf if kind == "below" else np.inf))
    bound = stumps._sum_bound(threshold, area, dtype)
    assert bound is None or lo <= bound <= hi
    # Every s around the bound, or below the max when no s passes, and the
    # dtype's extremes.
    at = hi if bound is None else bound
    s = np.array(sorted({lo, hi, *range(max(at - 3, lo), min(at + 4, hi + 1))}), dtype=dtype)
    quotient = s / area >= threshold
    assert np.array_equal(quotient, np.zeros(s.size, dtype=bool) if bound is None else s >= bound)
    assert np.array_equal(DecisionStump(0, threshold, 1).passes(s, area), quotient)


@pytest.mark.parametrize("n,dtype", [(65_536, np.uint16), (65_537, np.int32)])
def test_order_dtype_at_the_uint16_boundary(n, dtype):
    # Sample indices up to 65,535 fit uint16; one more sample needs int32.
    rng = np.random.default_rng(n)
    table = rng.integers(0, 50, size=(3, n), dtype=np.int32)  # heavy ties
    trainer = StumpTrainer(table, np.where(rng.random(n) < 0.5, 1, -1))
    stable = np.argsort(table, axis=1, kind="stable")
    assert trainer.order.dtype == dtype
    assert np.array_equal(trainer.order, stable)
    ordered = np.take_along_axis(table, stable, axis=1)
    ties = np.unpackbits(trainer._ties, axis=1, count=n - 1).astype(bool)
    assert np.array_equal(ties, ordered[:, 1:] == ordered[:, :-1])


class TestMemoryBound:
    def test_blocked_training_memory(self):
        rng = np.random.default_rng(7)
        m, n = 1500, 700
        values = np.round(100 * rng.normal(size=(m, n))).astype(np.int64)  # 8 bytes an entry, as float64
        labels = np.where(rng.random(n) < 0.3, 1, -1)
        w = rng.random(n)
        w /= w.sum()
        trainer = StumpTrainer(values, labels)
        held = sum(v.nbytes for v in vars(trainer).values() if isinstance(v, np.ndarray))
        assert held <= 1.75 * values.nbytes
        # Integer sums, as extraction gives them: 4 bytes of table, 2 of
        # uint16 order and 1/8 of packed tie bits per entry, against 8 for the
        # same table in float64.  An int32 order or a bool tie mask would not fit.
        sums = rng.integers(-(2**20), 2**20, size=(m, n), dtype=np.int32)
        trainer = StumpTrainer(sums, labels, np.full(m, 24))
        held = sum(v.nbytes for v in vars(trainer).values() if isinstance(v, np.ndarray))
        assert held <= 1.02 * (4 + 2 + 1 / 8) / 8 * sums.astype(np.float64).nbytes

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = trainer.train_all(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess = peak - table.errors.nbytes
        assert excess < 3 * stumps._BLOCK_BYTES  # 2.53x for the int32 table here

    def test_training_once_holds_the_table_alone(self):
        # Without keep_order the trainer holds no order or tie bits, and
        # train_all's temporaries stay near its blocks' whatever M is: the
        # block's keys stand in for its order and its ranks use the gather's
        # buffer.  An (M, N) uint16 order (2 budgets here) would break it.
        rng = np.random.default_rng(8)
        m, n = 1500, 700
        labels = np.where(rng.random(n) < 0.3, 1, -1)
        w = rng.random(n)
        w /= w.sum()
        for high in (2**20, 2**40):  # int32 keys, then int64 keys
            sums = rng.integers(-high, high, size=(m, n), dtype=np.int32 if high < 2**31 else np.int64)
            trainer = StumpTrainer(sums, labels, np.full(m, 24), keep_order=False)
            held = sum(v.nbytes for v in vars(trainer).values() if isinstance(v, np.ndarray))
            assert held == sums.nbytes + trainer.area.nbytes + trainer.labels.nbytes
            tracemalloc.start()
            try:
                table = trainer.train_all(w)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            excess = peak - table.errors.nbytes
            assert excess < 3.25 * stumps._BLOCK_BYTES, excess / stumps._BLOCK_BYTES


class TestInputChecks:
    def test_table_must_hold_signed_integers(self):
        # Stage tables hold signed integer sums.  A float table once took a
        # path of its own, which had to reject NaN.
        labels = np.array([1, -1, 1, -1])
        for dtype in (np.float64, np.float32, bool, np.uint8, np.uint64):
            with pytest.raises(ValueError, match="signed integer"):
                StumpTrainer(np.array([[0, 1, 1, 0]], dtype=dtype), labels)
        with pytest.raises(ValueError, match="signed integer"):
            StumpTrainer(np.array([[0.0, 1.0, np.nan, 2.0]]), labels)

    def test_area_must_be_positive(self):
        # area [0, 1] once trained to the threshold inf with a RuntimeWarning.
        values, labels = np.array([[1, 2, 3], [4, 5, 6]]), np.array([1, -1, 1])
        for area in ([0, 1], [1, -2], [1, np.nan], [1, np.inf]):
            with pytest.raises(ValueError, match="area"):
                StumpTrainer(values, labels, area)

    def test_area_needs_one_entry_per_row(self):
        # A short area once raised a bare IndexError from inside train_all.
        values, labels = np.array([[1, 2, 3], [4, 5, 6]]), np.array([1, -1, 1])
        for area in ([1], [1, 2, 3], [[1, 2]], 4):
            with pytest.raises(ValueError, match="area"):
                StumpTrainer(values, labels, area)
        assert StumpTrainer(values, labels, [2, 3]).area.tolist() == [2.0, 3.0]

    def test_weights_need_shape_n(self):
        # A scalar weight once broadcast and trained without an error.
        trainer = StumpTrainer(np.array([[1, 2, 3, 4]]), np.array([1, -1, 1, -1]))
        for weights in (0.25, np.full(3, 0.25), np.full((1, 4), 0.25), np.full(5, 0.2)):
            with pytest.raises(ValueError, match="weights"):
                trainer.train_all(weights)


class TestNaN:
    def test_nan_row_rejected(self):
        # Trained silently once: threshold nan, and an error of 1/6 that its
        # all-+1 responses did not make.  A NaN needs a float table, which
        # the trainer now rejects by its dtype.
        values = np.array([[0.0, 1.0, np.nan, 2.0, 3.0, np.nan]])
        with pytest.raises(ValueError, match="signed integer"):
            StumpTrainer(values, np.array([1, 1, -1, -1, 1, -1]))



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
