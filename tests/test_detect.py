import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade.cascade import CascadeModel, NodeClassifier
from gslda_cascade.detect import (
    DetectionWindow,
    Detections,
    GroundTruthBox,
    match_detections,
    merge_detections,
    overlap_ratio,
    roc_curve,
    scan_image,
)
from gslda_cascade.features import PoolParams, build_pool
from gslda_cascade.stumps import DecisionStump
from oracles import decide_window, integral_image, pyramid_windows
from oracles import merge_detections as pairwise_merge_detections
from oracles import roc_curve as rescan_roc_curve


def empty_model(base=8):
    feats = build_pool(PoolParams(base, stride=2, min_size=2))
    return CascadeModel(nodes=[], feature_pool=feats, f_target=0.5)


def hand_model(base=8, thresholds=(0.0,), node_thresholds=None):
    """Single-feature nodes with controllable node thresholds."""
    feats = build_pool(PoolParams(base, stride=2, min_size=2))
    nodes = []
    node_thresholds = node_thresholds or [0.5] * len(thresholds)
    for t, nt in zip(thresholds, node_thresholds):
        nodes.append(NodeClassifier([DecisionStump(5, t, 1)], [1.0], nt, "adaboost"))
    return CascadeModel(nodes=nodes, feature_pool=feats, f_target=0.5)


class TestScanImage:
    def test_exact_base_window_single_scan(self):
        model = empty_model(base=8)
        rng = np.random.default_rng(0)
        wins = scan_image(model, rng.integers(0, 256, size=(8, 8)))[0].windows()
        assert len(wins) == 1
        assert (wins[0].x, wins[0].y, wins[0].side) == (0, 0, 8)

    def test_window_count_matches_enumeration_oracle(self):
        model = empty_model(base=24)
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(100, 100))
        wins, scanned, _ = scan_image(model, image, scale_factor=1.2, step=1.0)
        wins = wins.windows()
        oracle = pyramid_windows(100, 100, 24, 1.2, 1.0)
        assert len(wins) == len(oracle)
        assert scanned == len(oracle)
        got = {(w.x, w.y, w.side) for w in wins}
        assert got == {(x, y, side) for x, y, side, _ in oracle}

    def test_small_image_empty_result(self):
        model = empty_model(base=24)
        assert len(scan_image(model, np.zeros((10, 10), dtype=int))[0]) == 0

    def test_empty_model_accepts_everything(self):
        model = empty_model(base=8)
        rng = np.random.default_rng(2)
        wins = scan_image(model, rng.integers(0, 256, size=(20, 20)))[0].windows()
        assert len(wins) == len(pyramid_windows(20, 20, 8, 1.2, 1.0))
        assert all(w.stages_passed == 0 for w in wins)

    def test_vectorized_matches_scalar_evaluation(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(30, 30))
        model = hand_model(base=8, thresholds=(2.0, -3.0), node_thresholds=[0.5, 0.5])
        accepted = {(w.x, w.y, w.side) for w in scan_image(model, image)[0].windows()}
        ii = integral_image(image)
        for x, y, side, scale in pyramid_windows(30, 30, 8, 1.2, 1.0):
            ok, _, _, _ = decide_window(model, ii, x, y, scale)
            assert ok == ((x, y, side) in accepted)

    def test_early_exit_matches_full_evaluation(self):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(40, 40))
        model = hand_model(base=8, thresholds=(1.0, -1.0, 4.0), node_thresholds=[0.5] * 3)
        fast = scan_image(model, image)[0].windows()
        ii = integral_image(image)
        slow = []  # (x, y, side, stages) of the windows accepted without early exit
        for x, y, side, scale in pyramid_windows(40, 40, 8, 1.2, 1.0):
            ok, stages, _, _ = decide_window(model, ii, x, y, scale, early_exit=False)
            if ok:
                slow.append((x, y, side, stages))
        assert [(w.x, w.y, w.side) for w in fast] == [s[:3] for s in slow]
        assert [w.stages_passed for w in fast] == [s[3] for s in slow]

    def test_profile_counts_stump_evaluations(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(8, 8))
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        stumps_ = [DecisionStump(i, 0.0, 1) for i in (1, 4, 9)]
        reject = NodeClassifier(stumps_, [1.0, 1.0, 1.0], -1e18, "adaboost")
        model = CascadeModel(nodes=[reject], feature_pool=feats, f_target=0.5)
        wins, scanned, evals = scan_image(model, image)
        assert len(wins) == 0
        assert scanned == 1
        assert evals == 3


class TestOverlapRatio:
    def test_identical_is_one(self):
        assert overlap_ratio(2, 3, 10, 10, 2, 3, 10, 10) == 1.0

    def test_disjoint_is_zero(self):
        assert overlap_ratio(0, 0, 5, 5, 10, 10, 5, 5) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.integers(0, 20, size=2).tolist() + rng.integers(1, 15, size=2).tolist()
            b = rng.integers(0, 20, size=2).tolist() + rng.integers(1, 15, size=2).tolist()
            r1 = overlap_ratio(*a, *b)
            r2 = overlap_ratio(*b, *a)
            assert r1 == r2
            assert 0.0 <= r1 <= 1.0


class TestMergeDetections:
    def test_single_window_kept_with_min_neighbors_one(self):
        win = DetectionWindow(3, 4, 10, 1.5, 2)
        assert merge_detections(Detections.of([win]), min_neighbors=1).windows() == [win]

    def test_two_disjoint_windows(self):
        a = DetectionWindow(0, 0, 10, 1.0, 1)
        b = DetectionWindow(30, 30, 10, 2.0, 1)
        assert len(merge_detections(Detections.of([a, b]), min_neighbors=1)) == 2

    def test_five_identical_collapse_to_same(self):
        wins = [DetectionWindow(5, 6, 12, float(i), 1) for i in range(5)]
        merged = merge_detections(Detections.of(wins), min_neighbors=2).windows()
        assert len(merged) == 1
        out = merged[0]
        assert (out.x, out.y, out.side) == (5, 6, 12)
        assert out.score == 4.0

    def test_min_neighbors_filters_singletons(self):
        a = DetectionWindow(0, 0, 10, 1.0, 1)
        b = DetectionWindow(1, 1, 10, 2.0, 1)
        c = DetectionWindow(40, 40, 10, 3.0, 1)
        merged = merge_detections(Detections.of([a, b, c]), min_neighbors=2).windows()
        assert len(merged) == 1
        assert merged[0].x in (0, 1)  # averaged pair, singleton dropped

    def test_transitive_chaining(self):
        # a~b and b~c overlap, a~c barely do not: one chained group.
        a = DetectionWindow(0, 0, 12, 1.0, 1)
        b = DetectionWindow(3, 0, 12, 1.0, 1)
        c = DetectionWindow(6, 0, 12, 1.0, 1)
        assert overlap_ratio(0, 0, 12, 12, 6, 0, 12, 12) < 0.5
        merged = merge_detections(Detections.of([a, b, c]), min_neighbors=3)
        assert len(merged) == 1

    @pytest.mark.parametrize("dx,dy", [(4, 0), (0, 4), (-4, 0), (0, -4)])
    def test_overlap_of_exactly_half_links(self, dx, dy):
        # Side 12 shifted by 4: intersection 96, union 192.
        a = DetectionWindow(10, 10, 12, 1.0, 1)
        b = DetectionWindow(10 + dx, 10 + dy, 12, 2.0, 2)
        assert overlap_ratio(a.x, a.y, 12, 12, b.x, b.y, 12, 12) == 0.5
        merged = merge_detections(Detections.of([a, b]), min_neighbors=2).windows()
        assert merged == [DetectionWindow(10 + dx // 2, 10 + dy // 2, 12, 2.0, 2)]
        assert merged == pairwise_merge_detections([a, b], min_neighbors=2)
        c = DetectionWindow(10 + dx * 5 // 4, 10 + dy * 5 // 4, 12, 3.0, 1)  # shifted by 5: below half
        assert len(merge_detections(Detections.of([a, c]), min_neighbors=2)) == 0

    @given(st.lists(st.tuples(st.integers(-5, 40), st.integers(-5, 40), st.integers(1, 24),
                              st.floats(-4, 4, allow_nan=False), st.integers(0, 5)), max_size=40),
           st.lists(st.integers(0, 39), max_size=10), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_oracle(self, rows, repeats, min_neighbors):
        wins = [DetectionWindow(*row) for row in rows]
        wins += [wins[i % len(wins)] for i in repeats if wins]  # duplicates
        got = merge_detections(Detections.of(wins), min_neighbors).windows()
        assert got == pairwise_merge_detections(wins, min_neighbors)

    def test_pyramid_scan_matches_pairwise_oracle(self):
        rng = np.random.default_rng(12)
        image = rng.integers(0, 256, size=(40, 40))
        model = hand_model(base=8, thresholds=(2.0,), node_thresholds=[0.5])
        wins = scan_image(model, image)[0]
        assert len(wins) >= 1000
        for min_neighbors in (1, 2):
            got = merge_detections(wins, min_neighbors).windows()
            assert got == pairwise_merge_detections(wins.windows(), min_neighbors)


class TestMatchDetections:
    def test_identical_detection_is_tp(self):
        truth = GroundTruthBox("im0", 10, 10, 16, 16)
        det = [("im0", DetectionWindow(10, 10, 16, 1.0, 1))]
        res = match_detections(det, [truth])
        assert (res.true_positives, res.false_positives, res.missed) == (1, 0, 0)

    def test_double_detection_counts_one_fp(self):
        truth = GroundTruthBox("im0", 10, 10, 16, 16)
        det = [
            ("im0", DetectionWindow(10, 10, 16, 2.0, 1)),
            ("im0", DetectionWindow(11, 10, 16, 1.0, 1)),
        ]
        res = match_detections(det, [truth])
        assert (res.true_positives, res.false_positives, res.missed) == (1, 1, 0)

    def test_disjoint_detection_is_fp(self):
        truth = GroundTruthBox("im0", 0, 0, 10, 10)
        det = [("im0", DetectionWindow(50, 50, 10, 1.0, 1))]
        res = match_detections(det, [truth])
        assert (res.true_positives, res.false_positives, res.missed) == (0, 1, 1)

    def test_image_id_separation(self):
        truth = GroundTruthBox("im1", 10, 10, 16, 16)
        det = [("im0", DetectionWindow(10, 10, 16, 1.0, 1))]
        res = match_detections(det, [truth])
        assert (res.true_positives, res.false_positives, res.missed) == (0, 1, 1)

    def test_conservation_identities(self):
        rng = np.random.default_rng(7)
        truths = [
            GroundTruthBox(f"im{i % 3}", int(rng.integers(0, 40)), int(rng.integers(0, 40)), 12, 12)
            for i in range(8)
        ]
        detections = [
            (f"im{int(rng.integers(0, 3))}",
             DetectionWindow(int(rng.integers(0, 48)), int(rng.integers(0, 48)), 12,
                             float(rng.random()), 1))
            for _ in range(15)
        ]
        res = match_detections(detections, truths)
        assert res.true_positives + res.missed == len(truths)
        assert res.true_positives + res.false_positives == len(detections)


class TestRocCurve:
    def _scene(self, rng):
        return [("scene0", rng.integers(0, 256, size=(40, 40)))]

    def test_depth_mode_point_count_and_monotone_fp(self):
        rng = np.random.default_rng(8)
        images = self._scene(rng)
        truths = [GroundTruthBox("scene0", 0, 0, 8, 8)]
        model = hand_model(base=8, thresholds=(0.0, 1.0, 2.0), node_thresholds=[0.2, 0.2, 0.2])
        points, _ = roc_curve(model, images, truths, mode="depth", min_neighbors=1)
        assert len(points) == 3
        by_depth = sorted(points, key=lambda p: p.operating_point)
        fps = [p.false_positives for p in sorted(points, key=lambda p: int(p.operating_point.split("=")[1]))]
        assert fps == sorted(fps, reverse=True)
        assert all(p.false_positives >= 0 for p in by_depth)

    def test_threshold_mode_includes_infinite_cutoff(self):
        rng = np.random.default_rng(9)
        images = self._scene(rng)
        truths = [GroundTruthBox("scene0", 0, 0, 8, 8)]
        model = hand_model(base=8, thresholds=(0.0,), node_thresholds=[0.5])
        points, _ = roc_curve(model, images, truths, mode="threshold", min_neighbors=1)
        inf_points = [p for p in points if p.operating_point == "threshold=inf"]
        assert len(inf_points) == 1
        assert inf_points[0].false_positives == 0
        assert inf_points[0].detection_rate == 0.0

    def test_points_sorted_by_false_positives(self):
        rng = np.random.default_rng(10)
        images = self._scene(rng)
        truths = [GroundTruthBox("scene0", 5, 5, 8, 8)]
        model = hand_model(base=8, thresholds=(0.0, 0.5), node_thresholds=[0.3, 0.3])
        points, _ = roc_curve(model, images, truths, mode="depth", min_neighbors=1)
        fps = [p.false_positives for p in points]
        assert fps == sorted(fps)

    def test_empty_test_set_rejected(self):
        model = hand_model(base=8)
        with pytest.raises(ValueError, match="empty test set"):
            roc_curve(model, [], [GroundTruthBox("x", 0, 0, 4, 4)])
        with pytest.raises(ValueError, match="empty test set"):
            roc_curve(model, [("a", np.zeros((10, 10)))], [])

    @pytest.mark.parametrize("mode", ["depth", "threshold"])
    @pytest.mark.parametrize("thresholds,node_thresholds", [
        ((0.0,), [0.5]),
        ((-2.0, 1.0, 3.0), [0.5, 0.2, 0.5]),
    ])
    def test_one_scan_equals_rescans(self, mode, thresholds, node_thresholds):
        rng = np.random.default_rng(11)
        images = [(f"scene{i}", rng.integers(0, 256, size=(22, 26))) for i in range(2)]
        truths = [GroundTruthBox("scene0", 4, 4, 8, 8), GroundTruthBox("scene1", 14, 10, 10, 10)]
        model = hand_model(base=8, thresholds=thresholds, node_thresholds=node_thresholds)
        got = roc_curve(model, images, truths, mode=mode, min_neighbors=1)
        assert got == rescan_roc_curve(model, images, truths, mode=mode, min_neighbors=1)
