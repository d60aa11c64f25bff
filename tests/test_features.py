from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gslda_cascade.features import (
    KINDS,
    FeatureExtractor,
    FeaturePool,
    PoolParams,
    build_integral,
    build_pool,
    haar_values,
)
from oracles import HaarFeature, enumerate_haar, eval_haar, extract, integral_image


def direct_rect_sum(image, x0, y0, x1, y1):
    return int(np.sum(image[y0:y1, x0:x1]))


def direct_eval(feature, image):
    """Pixel-loop evaluation on the base window (scale 1)."""
    acc = 0
    for wgt, x0, y0, x1, y1 in feature.rects():
        acc += wgt * direct_rect_sum(image, x0, y0, x1, y1)
    return acc / (feature.w * feature.h)


def feature_index(pool, kind, x, y, w, h):
    """Row of the pool feature with this kind and footprint."""
    rows = (pool.kind == KINDS.index(kind)) & (pool.box == [x, y, x + w, y + h]).all(axis=1)
    (j,) = np.flatnonzero(rows)
    return int(j)


def haar_at(pool, j, image, offset_x=0, offset_y=0, scale=1.0):
    """The package's vectorized evaluation at a single placement."""
    table = build_integral(image)
    return float(haar_values(pool, j, table, np.array([offset_x]), np.array([offset_y]), scale)[0])


def feature_at(feature, image, offset_x=0, offset_y=0, scale=1.0):
    """haar_at for the pool feature matching an oracle feature."""
    pool = build_pool(PoolParams(base_window=feature.base_window))
    j = feature_index(pool, feature.kind, feature.x, feature.y, feature.w, feature.h)
    return haar_at(pool, j, image, offset_x, offset_y, scale)


class TestIntegralImage:
    def test_two_by_two_ones(self):
        table = build_integral(np.ones((2, 2), dtype=int))
        assert table[2, 2] == 4

    def test_all_zero(self):
        table = build_integral(np.zeros((3, 5), dtype=int))
        assert np.all(table == 0)

    def test_zero_borders(self):
        rng = np.random.default_rng(0)
        table = build_integral(rng.integers(0, 256, size=(4, 7)))
        assert np.all(table[0, :] == 0)
        assert np.all(table[:, 0] == 0)

    def test_every_rectangle_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(8, 8))
        ii = integral_image(image)
        for y0 in range(9):
            for y1 in range(y0, 9):
                for x0 in range(9):
                    for x1 in range(x0, 9):
                        assert ii.rect_sum(x0, y0, x1, y1) == direct_rect_sum(
                            image, x0, y0, x1, y1
                        )

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            build_integral(np.zeros((0, 3)))


class TestEnumerateHaar:
    def test_two_rect_horizontal_count_matches_brute_force(self):
        pool = build_pool(PoolParams(base_window=4))
        count = 0
        for y in range(4):
            for x in range(4):
                for h in range(1, 4 - y + 1):
                    for w in range(1, 4 - x + 1):
                        if w % 2 == 0:
                            count += 1
        assert np.sum(pool.kind == KINDS.index("two-rect-horizontal")) == count

    def test_minimal_window_single_feature_per_fitting_kind(self):
        pool = build_pool(PoolParams(base_window=2, min_size=2))
        kinds, counts = np.unique(pool.kind, return_counts=True)
        assert {KINDS[k] for k in kinds} == {
            "two-rect-horizontal",
            "two-rect-vertical",
            "four-rect-diagonal",
        }
        assert all(counts == 1)

    def test_deterministic_and_injective(self):
        a = build_pool(PoolParams(base_window=8, stride=2, min_size=2))
        b = build_pool(PoolParams(base_window=8, stride=2, min_size=2))
        for name in ("kind", "box", "rects"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        keys = [(k, *box) for k, box in zip(a.kind.tolist(), a.box.tolist())]
        assert len(set(keys)) == len(keys)

    def test_ordering_kind_y_x_h_w(self):
        pool = build_pool(PoolParams(base_window=6))
        x0, y0, x1, y1 = pool.box.T
        keys = list(zip(pool.kind.tolist(), y0.tolist(), x0.tolist(), (y1 - y0).tolist(), (x1 - x0).tolist()))
        assert keys == sorted(keys)

    def test_footprints_inside_window(self):
        pool = build_pool(PoolParams(base_window=6, stride=2))
        assert np.all(pool.box[:, 2] <= 6) and np.all(pool.box[:, 3] <= 6)

    def test_pool_subsampling(self):
        full = build_pool(PoolParams(base_window=6))
        thinned = build_pool(PoolParams(base_window=6, subsample=7))
        for name in ("kind", "box", "rects"):
            assert np.array_equal(getattr(thinned, name), getattr(full, name)[::7])

    @pytest.mark.parametrize("params", [
        PoolParams(base_window=4, min_size=5),
        PoolParams(base_window=4, min_size=0),
        PoolParams(base_window=4, stride=0),
    ], ids=["min-size-above-window", "min-size-zero", "stride-zero"])
    def test_invalid_parameters_rejected_like_the_oracle(self, params):
        with pytest.raises(ValueError):
            enumerate_haar(params.base_window, params.stride, params.min_size)
        with pytest.raises(ValueError):
            build_pool(params)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_enumeration(self, data):
        base_window = data.draw(st.integers(1, 12))
        stride = data.draw(st.integers(1, 4))
        min_size = data.draw(st.integers(1, base_window))
        subsample = data.draw(st.integers(1, 9))
        pool = build_pool(PoolParams(base_window, stride, min_size, subsample))
        features = enumerate_haar(base_window, stride, min_size)[::subsample]
        assert len(pool) == len(features)
        for j, f in enumerate(features):
            assert KINDS[pool.kind[j]] == f.kind
            assert pool.box[j].tolist() == [f.x, f.y, f.x + f.w, f.y + f.h]
            rects = f.rects()
            assert pool.rects[j, : len(rects)].tolist() == [list(r) for r in rects]
            assert not pool.rects[j, len(rects):].any()  # zero padding

    @pytest.mark.parametrize("feature", [
        ("triangle", 0, 0, 2, 2),
        ("two-rect-horizontal", 0, 0, 0, 2),
        ("two-rect-horizontal", 0, 0, 3, 2),
        ("two-rect-horizontal", 6, 0, 4, 2),
    ], ids=["unknown-kind", "without-extent", "not-subdividing", "outside-window"])
    def test_oracle_rejects_invalid_feature(self, feature):
        with pytest.raises(ValueError):
            HaarFeature(*feature, base_window=8)


class TestEvalHaar:
    def test_constant_image_two_rect_is_zero(self):
        image = np.full((8, 8), 37, dtype=int)
        f = HaarFeature("two-rect-horizontal", 1, 1, 4, 5, base_window=8)
        assert feature_at(f, image) == 0.0

    def test_three_and_four_rect_zero_on_constant(self):
        image = np.full((9, 9), 11, dtype=int)
        for kind, w, h in (
            ("three-rect-horizontal", 6, 4),
            ("three-rect-vertical", 4, 6),
            ("four-rect-diagonal", 4, 4),
        ):
            assert feature_at(HaarFeature(kind, 0, 0, w, h, base_window=9), image) == 0.0

    def test_half_split_antisymmetry(self):
        image = np.zeros((6, 6), dtype=int)
        image[:, :3] = 255  # white left, black right
        f = HaarFeature("two-rect-horizontal", 0, 0, 6, 6, base_window=6)
        v = feature_at(f, image)
        assert v == pytest.approx(255.0 / 2)  # half the area at full contrast
        mirrored = image[:, ::-1]
        assert feature_at(f, mirrored) == -v

    def test_matches_direct_pixel_loop(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(12, 12))
        pool = build_pool(PoolParams(base_window=12, stride=3, min_size=3, subsample=17))
        for j, f in enumerate(enumerate_haar(12, stride=3, min_size=3)[::17]):
            assert haar_at(pool, j, image) == direct_eval(f, image)

    def test_integer_scale_matches_pixel_doubled_image(self):
        # Doubling every pixel doubles each rounded corner exactly, so the
        # area-normalized value is unchanged.
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(8, 8))
        doubled = np.kron(image, np.ones((2, 2), dtype=int))
        f = HaarFeature("four-rect-diagonal", 1, 2, 4, 4, base_window=8)
        assert feature_at(f, doubled, scale=2.0) == feature_at(f, image)

    def test_out_of_bounds_rejected(self):
        # Only the scalar reference checks bounds; the scan keeps every
        # window inside the image.
        ii = integral_image(np.zeros((10, 10), dtype=int))
        f = HaarFeature("two-rect-vertical", 4, 4, 2, 4, base_window=24)
        with pytest.raises(ValueError, match="footprint out of bounds"):
            eval_haar(f, ii, offset_x=8, offset_y=8)

    @pytest.mark.parametrize("x, y, scale", [
        (-1, 0, 1.0), (0, -1, 1.0), (9, 0, 1.0), (0, 10, 1.0), (7, 0, 2.0), (0, 9, 2.0),
    ], ids=["left", "top", "right", "bottom", "right-scaled", "bottom-scaled"])
    def test_footprint_outside_table_raises(self, x, y, scale):
        # Feature 0 of this pool has the footprint (0, 0, 2, 1): (0, 0, 4, 2) at scale 2.
        pool = build_pool(PoolParams(base_window=4))
        assert pool.box[0].tolist() == [0, 0, 2, 1]
        table = build_integral(np.ones((10, 10), dtype=int))
        edge_x, edge_y = 10 - round(2 * scale), 10 - round(scale)  # the last fitting offsets
        fitting = haar_values(pool, 0, table, np.array([0, edge_x]), np.array([edge_y, 0]), scale)
        assert fitting.tolist() == [0.0, 0.0]
        with pytest.raises(IndexError):
            haar_values(pool, 0, table, np.array([0, x, edge_x]), np.array([edge_y, y, 0]), scale)

    def test_offset_shifts_window(self):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(20, 20))
        f = HaarFeature("two-rect-vertical", 1, 1, 3, 4, base_window=8)
        assert feature_at(f, image, offset_x=5, offset_y=7) == direct_eval(
            f, image[7:15, 5:13]
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracle_at_pyramid_scales(self, data):
        base_window = data.draw(st.integers(2, 12))
        stride = data.draw(st.integers(1, 3))
        min_size = data.draw(st.integers(1, base_window))
        subsample = data.draw(st.integers(1, 9))
        pool = build_pool(PoolParams(base_window, stride, min_size, subsample))
        features = enumerate_haar(base_window, stride, min_size)[::subsample]
        assume(features)  # some windows admit no feature at this min_size
        scale = 1.2 ** data.draw(st.integers(0, 8))
        side = int(np.floor(base_window * scale + 0.5))  # the scan's window side
        # Never square, so that mixing up the row length of the table shows.
        extra = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
        image = np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(
            0, 256, size=(side + extra[0], side + extra[1]))
        ii = integral_image(image)
        px, py = (a.ravel() for a in np.meshgrid(np.arange(image.shape[1] - side + 1),
                                                 np.arange(image.shape[0] - side + 1)))
        if data.draw(st.booleans()):
            # An unordered subset with repeats, as later cascade nodes see.
            subset = data.draw(st.lists(st.integers(0, px.size - 1), min_size=1, max_size=2 * px.size))
            px, py = px[subset], py[subset]
        for j in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)):
            values = haar_values(pool, j, ii.table, px, py, scale)
            for x, y, value in zip(px.tolist(), py.tolist(), values.tolist()):
                expected = eval_haar(features[j], ii, x, y, scale)
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()


class TestFeatureExtractor:
    def test_matches_scalar_evaluation_bitwise(self):
        rng = np.random.default_rng(5)
        patches = rng.integers(0, 256, size=(9, 8, 8))
        pool = build_pool(PoolParams(base_window=8, stride=2, min_size=2, subsample=5))
        values = FeatureExtractor(pool).extract(patches)
        for j, f in enumerate(enumerate_haar(8, stride=2, min_size=2)[::5]):
            for i in range(9):
                ii = integral_image(patches[i])
                assert values[j, i] == eval_haar(f, ii)

    def test_shape(self):
        patches = np.zeros((3, 6, 6), dtype=int)
        pool = build_pool(PoolParams(base_window=6, subsample=67))
        assert len(pool) == 10
        assert FeatureExtractor(pool).extract(patches).shape == (10, 3)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_oracles_bitwise(self, data):
        base_window = data.draw(st.integers(2, 8))
        stride = data.draw(st.integers(1, 3))
        min_size = data.draw(st.integers(1, base_window))
        subsample = data.draw(st.integers(1, 9))
        pool = build_pool(PoolParams(base_window, stride, min_size, subsample))
        features = enumerate_haar(base_window, stride, min_size)[::subsample]
        assume(features)  # some windows admit no feature at this min_size
        n = data.draw(st.integers(1, 4))
        # Patches may be larger than the base window, and need not be square.
        h, w = (base_window + data.draw(st.integers(0, 3)) for _ in range(2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        content = data.draw(st.sampled_from(["random", "all-255", "0-or-255"]))
        if content == "all-255":  # the largest table entries
            patches = np.full((n, h, w), 255, dtype=np.uint8)
        elif content == "0-or-255":  # the largest feature sums
            patches = (255 * rng.integers(0, 2, size=(n, h, w))).astype(np.uint8)
        else:
            patches = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
        values = FeatureExtractor(pool).extract(patches)
        assert values.shape == (len(pool), n)
        assert values.tobytes() == extract(pool, patches).tobytes()
        tables = [integral_image(p) for p in patches]
        for j, feature in enumerate(features):
            for i, ii in enumerate(tables):
                assert np.float64(values[j, i]).tobytes() == np.float64(eval_haar(feature, ii)).tobytes()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_up_to_the_float64_guard(self, sign):
        def folded_l1(feature):  # summed |weight| of a feature's distinct corners
            weights = Counter()
            for wgt, x0, y0, x1, y1 in feature.rects():
                for corner, s in (((x1, y1), 1), ((x1, y0), -1), ((x0, y1), -1), ((x0, y0), 1)):
                    weights[corner] += s * wgt
            return sum(abs(v) for v in weights.values())

        pool = build_pool(PoolParams(base_window=6))
        h, w = 7, 8
        reach = max(folded_l1(f) for f in enumerate_haar(6)) * h * w  # per unit of pixel value
        limit = -(-(2**53) // reach)  # the least pixel value whose sums could reach 2**53
        bits = np.random.default_rng(0).integers(0, 2, size=(4, h, w))
        bits[0] = 1  # all ones: its table holds the largest entry, pixel value * h * w
        below = sign * (limit - 1) * bits
        assert FeatureExtractor(pool).extract(below).tobytes() == extract(pool, below).tobytes()
        with pytest.raises(ValueError, match="2\\*\\*53"):
            FeatureExtractor(pool).extract(sign * limit * bits)

    def test_empty_pool(self):
        pool = build_pool(PoolParams(base_window=2))
        empty = FeaturePool(pool.params, pool.kind[:0], pool.box[:0], pool.rects[:0])
        assert FeatureExtractor(empty).extract(np.zeros((3, 2, 2), dtype=np.uint8)).shape == (0, 3)

    def test_patches_smaller_than_the_pool_rejected(self):
        pool = build_pool(PoolParams(base_window=6))
        with pytest.raises(IndexError):
            FeatureExtractor(pool).extract(np.zeros((2, 6, 5), dtype=np.uint8))
