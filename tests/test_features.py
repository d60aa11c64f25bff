import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gslda_cascade.features import (
    _BLOCK_BYTES,
    KINDS,
    FeatureExtractor,
    PoolParams,
    _corners_of,
    build_integral,
    build_pool,
    haar_sums,
    place,
)
from oracles import (
    HaarFeature,
    enumerate_haar,
    eval_haar,
    extract,
    fold_corners,
    integral_image,
    pool_features,
)


def direct_rect_sum(image, x0, y0, x1, y1):
    return int(np.sum(image[y0:y1, x0:x1]))


def direct_eval(feature, image):
    """Pixel-loop evaluation on the base window (scale 1)."""
    acc = 0
    for wgt, x0, y0, x1, y1 in feature.rects():
        acc += wgt * direct_rect_sum(image, x0, y0, x1, y1)
    return acc / (feature.w * feature.h)


def values_of(extractor, patches):
    """The extractor's exact sums over the footprint areas: the values."""
    return extractor.extract(patches) / extractor.area[:, None]


def feature_index(pool, kind, x, y, w, h):
    """Row of the pool feature with this kind and footprint."""
    rows = (pool.kind == KINDS.index(kind)) & (pool.box == [x, y, x + w, y + h]).all(axis=1)
    (j,) = np.flatnonzero(rows)
    return int(j)


def sums_at(pool, j, table, px, py, scale=1.0):
    """haar_sums of pool feature j placed at scale, and the placed area."""
    ((placement,),) = place(pool, [j], [scale])
    (sums,) = haar_sums([placement], table, px, py)
    return sums, placement.area


def haar_at(pool, j, image, offset_x=0, offset_y=0, scale=1.0):
    """The package's vectorized evaluation at a single placement: its sum
    over the area."""
    sums, area = sums_at(pool, j, build_integral(image), np.array([offset_x]), np.array([offset_y]), scale)
    return float(sums[0] / area)


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
        assert np.array_equal(build_integral(image), ii.table)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, object])
    def test_non_integer_pixels_rejected(self, dtype):
        # Summed as int64, 0.6 would truncate to an all-zero table.
        image = np.full((3, 3), 0.6, dtype=dtype)
        with pytest.raises(ValueError, match="pixels must be bool or integer"):
            build_integral(image)
        with pytest.raises(ValueError, match="pixels must be bool or integer"):
            FeatureExtractor(build_pool(PoolParams(3))).sums(np.stack([image, image]))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int32_while_sixteen_times_the_largest_entry_stays_below_2_to_the_31(self, sign):
        # An 8 x 8 image of one value v has max|table| = 64|v|: 16 * 64 * 2**21 = 2**31.
        for pixel, dtype in ((2**21 - 1, np.int32), (2**21, np.int64), (2**24, np.int64)):
            image = np.full((8, 8), sign * pixel)
            table = build_integral(image)
            assert table.dtype == dtype
            assert np.array_equal(table, integral_image(image).table)
        assert build_integral(np.full((480, 480), 255, dtype=np.uint8)).dtype == np.int32


    def test_unsigned_images_sum_straight_into_their_final_dtype(self):
        # An unsigned image's largest entry is its total, known before the
        # sums: 16 * 64 * (2**21 - 1) < 2**31 <= 16 * 64 * 2**21.
        for pixel, dtype in ((2**21 - 1, np.int32), (2**21, np.int64)):
            image = np.full((8, 8), pixel, dtype=np.uint32)
            table = build_integral(image)
            assert table.dtype == dtype
            assert np.array_equal(table, integral_image(image).table)
        image = np.random.default_rng(2).integers(0, 256, size=(480, 480), dtype=np.uint8)
        assert np.array_equal(build_integral(image.astype(bool)), integral_image(image.astype(bool)).table)
        tracemalloc.start()
        try:
            table = build_integral(image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # No int64 pass or int32 copy beside the int32 table.
        assert table.dtype == np.int32 and peak < 1.2 * table.nbytes
        assert np.array_equal(table, integral_image(image).table)


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
        for name in ("kind", "box"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(_corners_of(a.kind, a.box), _corners_of(b.kind, b.box))
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
        for name in ("kind", "box"):
            assert np.array_equal(getattr(thinned, name), getattr(full, name)[::7])
        assert np.array_equal(_corners_of(thinned.kind, thinned.box),
                              _corners_of(full.kind, full.box)[::7])

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

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_enumeration(self, data):
        # Any stride, and subsamples past the count.  A fresh pool decodes
        # the ids it is asked for, in any order, and nothing else.
        base_window = data.draw(st.integers(1, 12))
        stride = data.draw(st.integers(1, 16))
        min_size = data.draw(st.integers(1, base_window))
        everything = enumerate_haar(base_window, stride, min_size)
        subsample = data.draw(st.integers(1, 9) | st.integers(max(len(everything), 1), len(everything) + 9))
        pool = build_pool(PoolParams(base_window, stride, min_size, subsample))
        expected = everything[::subsample]
        assert len(pool) == len(expected)
        ids = [0, len(expected) - 1] if expected else []
        ids += data.draw(st.lists(st.integers(0, len(expected) - 1), max_size=20)) if expected else []
        kind, box = pool.rows(ids)
        assert [(KINDS[k], *b) for k, b in zip(kind.tolist(), box.tolist())] == [
            (f.kind, f.x, f.y, f.x + f.w, f.y + f.h) for f in (expected[j] for j in ids)]
        assert "_every" not in vars(pool)
        corners = _corners_of(pool.kind, pool.box)
        for j, f in enumerate(expected):
            assert KINDS[pool.kind[j]] == f.kind
            assert pool.box[j].tolist() == [f.x, f.y, f.x + f.w, f.y + f.h]
            folded = fold_corners(f)
            assert corners[j, : len(folded)].tolist() == [list(c) for c in folded]
            assert not corners[j, len(folded):].any()  # zero padding

    def test_corner_counts_and_weights_bound_the_int32_reads(self):
        # build_integral picks int32 when 16 * max|table| < 2**31: that
        # needs every feature's summed |corner weight| to be at most 16.
        pool = build_pool(PoolParams(base_window=12))
        corners = _corners_of(pool.kind, pool.box)
        weights = corners[:, :, 0]
        assert np.abs(weights).sum(axis=1).max() <= 16
        # Every first corner is the footprint's top-left, of weight +1:
        # extract takes its rows without a multiply.
        assert np.all(weights[:, 0] == 1) and np.array_equal(corners[:, 0, 1:], pool.box[:, :2])
        counts = dict(zip(KINDS, (6, 6, 8, 8, 9)))
        for k, kind in enumerate(KINDS):
            assert np.all((weights[pool.kind == k] != 0).sum(axis=1) == counts[kind])

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
        fitting, _ = sums_at(pool, 0, table, np.array([0, edge_x]), np.array([edge_y, 0]), scale)
        assert fitting.tolist() == [0, 0]
        with pytest.raises(IndexError):
            sums_at(pool, 0, table, np.array([0, x, edge_x]), np.array([edge_y, y, 0]), scale)

    @pytest.mark.parametrize("x, y, scale", [
        (-1, 0, 1.0), (0, -1, 1.0), (9, 0, 1.0), (0, 10, 1.0), (7, 0, 2.0), (0, 9, 2.0),
    ], ids=["left", "top", "right", "bottom", "right-scaled", "bottom-scaled"])
    def test_lattice_footprint_outside_table_raises(self, x, y, scale):
        # As above, with the offending window at one end of a lattice whose
        # other end is the opposite edge.
        pool = build_pool(PoolParams(base_window=4))
        table = build_integral(np.ones((10, 10), dtype=int))
        edge_x, edge_y = 10 - round(2 * scale), 10 - round(scale)

        def span(lo, hi):  # the two-point lattice lo, hi
            return range(lo, hi + 1, hi - lo)

        fitting, _ = sums_at(pool, 0, table, span(0, edge_x), span(0, edge_y), scale)
        assert fitting.ravel().tolist() == [0] * 4
        with pytest.raises(IndexError):
            sums_at(pool, 0, table, span(min(0, x), max(edge_x, x)), span(min(0, y), max(edge_y, y)), scale)

    def test_descending_lattice_rejected(self):
        pool = build_pool(PoolParams(base_window=4))
        table = build_integral(np.ones((10, 10), dtype=int))
        with pytest.raises(ValueError, match="ascend"):
            sums_at(pool, 0, table, range(4, -1, -2), range(3), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_lattice_read_equals_gather_and_oracle(self, data):
        base_window = data.draw(st.integers(2, 10))
        min_size = data.draw(st.integers(1, base_window))
        subsample = data.draw(st.integers(1, 7))
        pool = build_pool(PoolParams(base_window, 1, min_size, subsample))
        features = enumerate_haar(base_window, 1, min_size)[::subsample]
        assume(features)
        scale = 1.2 ** data.draw(st.integers(0, 8))
        side = int(np.floor(base_window * scale + 0.5))
        h, w = (side + data.draw(st.integers(0, 7)) for _ in range(2))
        image = np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(0, 256, size=(h, w))
        ii = integral_image(image)
        table = build_integral(image)
        j = data.draw(st.integers(0, len(pool) - 1))
        fx0, fy0, fx1, fy1 = (int(np.floor(v * scale + 0.5)) for v in pool.box[j])

        def axis(length, start, stop):
            # Ends at the scan's last window or where the footprint touches
            # the table's last column (row); shift 1 to 3, possibly one window.
            last = data.draw(st.sampled_from([length - side, length - stop]))
            shift = data.draw(st.integers(1, 3))
            count = data.draw(st.integers(1, (last + start) // shift + 1))
            return range(last - (count - 1) * shift, last + 1, shift)

        xs, ys = axis(w, fx0, fx1), axis(h, fy0, fy1)
        sums, area = sums_at(pool, j, table, xs, ys, scale)
        px, py = (a.ravel() for a in np.meshgrid(np.array(xs), np.array(ys)))
        assert sums.shape == (len(ys), len(xs))
        gathered, gathered_area = sums_at(pool, j, table, px, py, scale)
        assert sums.dtype == gathered.dtype == table.dtype
        assert np.array_equal(sums.ravel(), gathered) and area == gathered_area
        for x, y, value in zip(px.tolist(), py.tolist(), (sums.ravel() / area).tolist()):
            expected = eval_haar(features[j], ii, x, y, scale)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_below_scale_one(self, data):
        # Below scale 1 two corners of a feature can round to one pixel;
        # each must still be read with its own weight.
        base_window = data.draw(st.integers(2, 16))
        pool = build_pool(PoolParams(base_window))
        scale = data.draw(st.floats(0.05, 1.0, exclude_max=True))
        fx0, fy0, fx1, fy1 = np.floor(scale * pool.box.T + 0.5)
        placeable = np.flatnonzero((fx1 > fx0) & (fy1 > fy0))  # degenerate footprints raise
        assume(placeable.size)
        side = int(np.floor(base_window * scale + 0.5))
        h, w = (side + data.draw(st.integers(0, 5)) for _ in range(2))
        image = np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(0, 256, size=(h, w))
        ii = integral_image(image)
        table = build_integral(image)
        shift = data.draw(st.integers(1, 2))
        xs, ys = range(0, w - side + 1, shift), range(0, h - side + 1, shift)
        px, py = (a.ravel() for a in np.meshgrid(np.array(xs), np.array(ys)))
        features = pool_features(pool)
        for j in data.draw(st.lists(st.sampled_from(placeable.tolist()), min_size=1, max_size=5)):
            sums, area = sums_at(pool, j, table, xs, ys, scale)
            gathered, gathered_area = sums_at(pool, j, table, px, py, scale)
            assert np.array_equal(sums.ravel(), gathered) and area == gathered_area
            for x, y, value in zip(px.tolist(), py.tolist(), (sums.ravel() / area).tolist()):
                expected = eval_haar(features[j], ii, x, y, scale)
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()

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
        table = build_integral(image)
        px, py = (a.ravel() for a in np.meshgrid(np.arange(image.shape[1] - side + 1),
                                                 np.arange(image.shape[0] - side + 1)))
        if data.draw(st.booleans()):
            # An unordered subset with repeats, as later cascade nodes see.
            subset = data.draw(st.lists(st.integers(0, px.size - 1), min_size=1, max_size=2 * px.size))
            px, py = px[subset], py[subset]
        for j in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)):
            sums, area = sums_at(pool, j, table, px, py, scale)
            for x, y, value in zip(px.tolist(), py.tolist(), (sums / area).tolist()):
                expected = eval_haar(features[j], ii, x, y, scale)
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()


class TestFeatureExtractor:
    def test_matches_scalar_evaluation_bitwise(self):
        rng = np.random.default_rng(5)
        patches = rng.integers(0, 256, size=(9, 8, 8))
        pool = build_pool(PoolParams(base_window=8, stride=2, min_size=2, subsample=5))
        values = values_of(FeatureExtractor(pool), patches)
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
        values = values_of(FeatureExtractor(pool), patches)
        assert values.shape == (len(pool), n)
        assert values.tobytes() == extract(pool, patches).tobytes()
        tables = [integral_image(p) for p in patches]
        for j, feature in enumerate(features):
            for i, ii in enumerate(tables):
                assert np.float64(values[j, i]).tobytes() == np.float64(eval_haar(feature, ii)).tobytes()
        # The scan's reader gives the same integer sums and areas.
        extractor = FeatureExtractor(pool)
        sums = extractor.extract(patches)
        for i, patch in enumerate(patches):
            table = build_integral(patch)
            for j in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)):
                read, area = sums_at(pool, j, table, range(1), range(1))
                assert read.ravel().tolist() == [sums[j, i]] and area == extractor.area[j]

    @staticmethod
    def reach_per_unit(h, w):
        """The base-window-6 pool's bound max|table| * summed |weights| per
        unit of pixel value, on h x w patches whose first is all ones."""
        def folded_l1(feature):  # summed |weight| of a feature's distinct corners
            return sum(abs(wgt) for wgt, _, _ in fold_corners(feature))

        return max(folded_l1(f) for f in enumerate_haar(6)) * h * w

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_up_to_the_float64_guard(self, sign):
        pool = build_pool(PoolParams(base_window=6))
        h, w = 7, 8
        reach = self.reach_per_unit(h, w)
        # The least pixel value whose sums could reach 2**50, from where a
        # trained stump could decide a sum otherwise than DecisionStump.passes.
        limit = -(-(2**50) // reach)
        bits = np.random.default_rng(0).integers(0, 2, size=(4, h, w))
        bits[0] = 1  # all ones: its table holds the largest entry, pixel value * h * w
        below = sign * (limit - 1) * bits
        extractor = FeatureExtractor(pool)
        assert extractor.extract(below).dtype == np.int64
        assert values_of(extractor, below).tobytes() == extract(pool, below).tobytes()
        with pytest.raises(ValueError, match="2\\*\\*50"):
            FeatureExtractor(pool).extract(sign * limit * bits)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sums_are_int32_below_2_to_the_31(self, sign):
        pool = build_pool(PoolParams(base_window=6))
        h, w = 7, 8
        limit = -(-(2**31) // self.reach_per_unit(h, w))  # the least pixel value reaching 2**31
        bits = np.random.default_rng(1).integers(0, 2, size=(4, h, w))
        bits[0] = 1
        extractor = FeatureExtractor(pool)
        for pixel, dtype in ((limit - 1, np.int32), (limit, np.int64)):
            patches = sign * pixel * bits
            sums = extractor.extract(patches)
            assert sums.dtype == dtype
            assert (sums / extractor.area[:, None]).tobytes() == extract(pool, patches).tobytes()
        assert extractor.extract(np.full((2, 24, 24), 255, dtype=np.uint8)[:, :h, :w]).dtype == np.int32

    def test_empty_pool(self):
        empty = build_pool(PoolParams(base_window=1))  # no kind fits a 1x1 window
        assert FeatureExtractor(empty).extract(np.zeros((3, 2, 2), dtype=np.uint8)).shape == (0, 3)

    def test_view_reads_the_extracted_rows(self):
        # A stage is handed over as the PatchSums view of its patches: any
        # rows read from it, by index, slice or index array, in any order and
        # with repeats, are the extracted table's rows in the table's dtype,
        # and np.asarray of it is the table.
        pool = build_pool(PoolParams(base_window=6, subsample=7))
        extractor = FeatureExtractor(pool)
        rng = np.random.default_rng(3)
        small = rng.integers(0, 256, size=(4, 6, 6), dtype=np.uint8)
        large = small.astype(np.int64) << 24  # sums past int32
        unsigned = large.astype(np.uint32)  # the reach alone gives its dtype
        for patches, dtype in ((small, np.int32), (large, np.int64), (unsigned, np.int64)):
            table, view = extractor.extract(patches), extractor.sums(patches)
            assert table.dtype == view.dtype == dtype and view.shape == table.shape == (len(pool), 4)
            assert len(view) == len(pool)
            rows = rng.integers(0, len(pool), size=9)
            assert view[rows].dtype == dtype and np.array_equal(view[rows], table[rows])
            assert np.array_equal(view[3:11], table[3:11]) and np.array_equal(view[-4], table[-4])
            assert view[[]].shape == (0, 4)
            assert np.asarray(view).tobytes() == table.tobytes() and extractor.extract(view).dtype == dtype

    def test_no_patches(self):
        pool = build_pool(PoolParams(base_window=6, subsample=67))
        extractor = FeatureExtractor(pool)
        assert extractor.extract(np.zeros((0, 6, 6), dtype=np.uint8)).shape == (10, 0)
        view = extractor.sums(np.zeros((0, 6, 6), dtype=np.uint8))
        assert view.shape == (10, 0) and view[3:].shape == (7, 0) and view[2].shape == (0,)

    def test_transient_memory_does_not_grow_with_the_pool(self):
        # Extraction builds the folded corners, gather rows and weights of one
        # block of features at a time, so beside its output it holds the
        # patches' integral tables, one block of gathered rows and one
        # block's corners, whatever the pool's size.  Corners built for the
        # whole 24 x 24 pool (162,336 features) up front took 53.4 MB here.
        patches = np.random.default_rng(4).integers(0, 256, size=(100, 24, 24), dtype=np.uint8)
        for params in (PoolParams(base_window=12), PoolParams(base_window=24)):
            extractor = FeatureExtractor(build_pool(params))  # decodes and keeps the pool's kinds and boxes
            tracemalloc.start()
            try:
                out = extractor.extract(patches)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.dtype == np.int32
            assert peak - out.nbytes < 6 * _BLOCK_BYTES, (len(extractor.pool), peak - out.nbytes)
            if params.base_window == 12:  # 655 features a block: the oracle across block boundaries
                assert (out / extractor.area[:, None]).tobytes() == extract(extractor.pool, patches).tobytes()

    def test_patches_smaller_than_the_pool_rejected(self):
        pool = build_pool(PoolParams(base_window=6))
        with pytest.raises(IndexError):
            FeatureExtractor(pool).extract(np.zeros((2, 6, 5), dtype=np.uint8))
