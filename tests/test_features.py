import numpy as np
import pytest

from gslda_cascade.features import (
    KINDS,
    FeatureExtractor,
    HaarFeature,
    PoolParams,
    build_integral,
    build_pool,
    enumerate_haar,
    haar_values,
)
from oracles import eval_haar


def direct_rect_sum(image, x0, y0, x1, y1):
    return int(np.sum(image[y0:y1, x0:x1]))


def direct_eval(feature, image):
    """Pixel-loop evaluation on the base window (scale 1)."""
    acc = 0
    for wgt, x0, y0, x1, y1 in feature.rects():
        acc += wgt * direct_rect_sum(image, x0, y0, x1, y1)
    return acc / (feature.w * feature.h)


def haar_at(feature, image, offset_x=0, offset_y=0, scale=1.0):
    """The package's vectorized evaluation at a single placement."""
    table = build_integral(image).table
    return float(haar_values(feature, table, np.array([offset_x]), np.array([offset_y]), scale)[0])


class TestIntegralImage:
    def test_two_by_two_ones(self):
        ii = build_integral(np.ones((2, 2), dtype=int))
        assert ii.table[2, 2] == 4

    def test_all_zero(self):
        ii = build_integral(np.zeros((3, 5), dtype=int))
        assert np.all(ii.table == 0)

    def test_zero_borders(self):
        rng = np.random.default_rng(0)
        ii = build_integral(rng.integers(0, 256, size=(4, 7)))
        assert np.all(ii.table[0, :] == 0)
        assert np.all(ii.table[:, 0] == 0)

    def test_every_rectangle_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(8, 8))
        ii = build_integral(image)
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
        feats = [f for f in enumerate_haar(4) if f.kind == "two-rect-horizontal"]
        count = 0
        for y in range(4):
            for x in range(4):
                for h in range(1, 4 - y + 1):
                    for w in range(1, 4 - x + 1):
                        if w % 2 == 0:
                            count += 1
        assert len(feats) == count

    def test_minimal_window_single_feature_per_fitting_kind(self):
        feats = enumerate_haar(2, min_size=2)
        by_kind = {}
        for f in feats:
            by_kind.setdefault(f.kind, []).append(f)
        assert set(by_kind) == {
            "two-rect-horizontal",
            "two-rect-vertical",
            "four-rect-diagonal",
        }
        assert all(len(v) == 1 for v in by_kind.values())

    def test_deterministic_and_injective(self):
        a = enumerate_haar(8, stride=2, min_size=2)
        b = enumerate_haar(8, stride=2, min_size=2)
        assert a == b
        keys = [(f.kind, f.x, f.y, f.w, f.h) for f in a]
        assert len(set(keys)) == len(keys)

    def test_ordering_kind_y_x_h_w(self):
        feats = enumerate_haar(6)
        keys = [(KINDS.index(f.kind), f.y, f.x, f.h, f.w) for f in feats]
        assert keys == sorted(keys)

    def test_footprints_inside_window(self):
        for f in enumerate_haar(6, stride=2):
            assert f.x + f.w <= 6 and f.y + f.h <= 6

    def test_pool_subsampling(self):
        full = enumerate_haar(6)
        thinned = build_pool(PoolParams(base_window=6, subsample=7))
        assert thinned == full[::7]


class TestEvalHaar:
    def test_constant_image_two_rect_is_zero(self):
        image = np.full((8, 8), 37, dtype=int)
        f = HaarFeature("two-rect-horizontal", 1, 1, 4, 5, base_window=8)
        assert haar_at(f, image) == 0.0

    def test_three_and_four_rect_zero_on_constant(self):
        image = np.full((9, 9), 11, dtype=int)
        for kind, w, h in (
            ("three-rect-horizontal", 6, 4),
            ("three-rect-vertical", 4, 6),
            ("four-rect-diagonal", 4, 4),
        ):
            assert haar_at(HaarFeature(kind, 0, 0, w, h, base_window=9), image) == 0.0

    def test_half_split_antisymmetry(self):
        image = np.zeros((6, 6), dtype=int)
        image[:, :3] = 255  # white left, black right
        f = HaarFeature("two-rect-horizontal", 0, 0, 6, 6, base_window=6)
        v = haar_at(f, image)
        assert v == pytest.approx(255.0 / 2)  # half the area at full contrast
        mirrored = image[:, ::-1]
        assert haar_at(f, mirrored) == -v

    def test_matches_direct_pixel_loop(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(12, 12))
        for f in enumerate_haar(12, stride=3, min_size=3)[::17]:
            assert haar_at(f, image) == direct_eval(f, image)

    def test_integer_scale_matches_pixel_doubled_image(self):
        # Doubling every pixel doubles each rounded corner exactly, so the
        # area-normalized value is unchanged.
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(8, 8))
        doubled = np.kron(image, np.ones((2, 2), dtype=int))
        f = HaarFeature("four-rect-diagonal", 1, 2, 4, 4, base_window=8)
        assert haar_at(f, doubled, scale=2.0) == haar_at(f, image)

    def test_out_of_bounds_rejected(self):
        # Only the scalar reference checks bounds; the scan keeps every
        # window inside the image.
        ii = build_integral(np.zeros((10, 10), dtype=int))
        f = HaarFeature("two-rect-vertical", 4, 4, 2, 4, base_window=24)
        with pytest.raises(ValueError, match="footprint out of bounds"):
            eval_haar(f, ii, offset_x=8, offset_y=8)

    def test_offset_shifts_window(self):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(20, 20))
        f = HaarFeature("two-rect-vertical", 1, 1, 3, 4, base_window=8)
        assert haar_at(f, image, offset_x=5, offset_y=7) == direct_eval(
            f, image[7:15, 5:13]
        )


class TestFeatureExtractor:
    def test_matches_scalar_evaluation_bitwise(self):
        rng = np.random.default_rng(5)
        patches = rng.integers(0, 256, size=(9, 8, 8))
        pool = enumerate_haar(8, stride=2, min_size=2)[::5]
        values = FeatureExtractor(pool).extract(patches)
        for j, f in enumerate(pool):
            for i in range(9):
                ii = build_integral(patches[i])
                assert values[j, i] == eval_haar(f, ii)

    def test_shape(self):
        patches = np.zeros((3, 6, 6), dtype=int)
        pool = enumerate_haar(6)[:10]
        assert FeatureExtractor(pool).extract(patches).shape == (10, 3)

