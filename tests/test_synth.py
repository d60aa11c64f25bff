import numpy as np
import pytest

from gslda_cascade.model_io import DatasetManifest, load_manifest, read_ground_truth, save_manifest
from gslda_cascade.pgm import read_pgm
from gslda_cascade.synth import ToyDatasetSpec, axis_stump_pool, generate_synthetic_faces, generate_toy


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("ground_truth", ["truth.csv", None])
def test_manifest_round_trip(tmp_path, ground_truth):
    manifest = DatasetManifest(str(tmp_path), ["pos/a.pgm", "pos/b.pgm"], ["neg/c.pgm"],
                               ["reservoir/r.pgm"], ground_truth)
    save_manifest(manifest, str(tmp_path / "manifest.json"))
    assert load_manifest(str(tmp_path / "manifest.json")) == manifest


def test_manifest_without_positives_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"negatives": []}')
    with pytest.raises(ValueError, match="positives"):
        load_manifest(str(path))


def small_corpus(root, seed):
    return generate_synthetic_faces(str(root), seed=seed, n_pos=4, n_neg=4, size=8, n_reservoir=1, n_scenes=3)


def test_same_seed_same_files(tmp_path):
    small_corpus(tmp_path / "a", 7)
    small_corpus(tmp_path / "b", 7)
    small_corpus(tmp_path / "c", 8)
    a = tree_bytes(tmp_path / "a")
    assert a == tree_bytes(tmp_path / "b")
    assert a != tree_bytes(tmp_path / "c")
    assert len(a) == 4 + 4 + 1 + 3 + 2  # patches, reservoir, scenes, truth CSV, manifest


def test_truth_boxes_lie_inside_their_scenes(tmp_path):
    manifest = small_corpus(tmp_path, 3)
    truths = read_ground_truth(manifest.path(manifest.ground_truth))
    assert truths
    for box in truths:
        h, w = read_pgm(manifest.path(box.image_id)).shape
        assert (box.w, box.h) == (8, 8)
        assert 0 <= box.x <= w - box.w and 0 <= box.y <= h - box.h


def test_size_below_8_rejected(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic_faces(str(tmp_path), size=7, n_pos=1, n_neg=1, n_reservoir=0, n_scenes=0)
    for count in ("n_pos", "n_neg", "n_reservoir", "n_scenes"):
        with pytest.raises(ValueError, match="at least 0"):
            generate_synthetic_faces(str(tmp_path), **{"n_pos": 1, "n_neg": 1, "n_reservoir": 0,
                                                       "n_scenes": 0, count: -1})
    assert list(tmp_path.iterdir()) == []


def test_generate_toy_class_counts():
    points, labels = generate_toy(ToyDatasetSpec(n_pos=30, n_neg=170, seed=2))
    assert points.shape == (200, 2)
    assert np.sum(labels == 1) == 30
    assert np.sum(labels == -1) == 170


@pytest.mark.parametrize("n_pos, n_neg", [(10, 40), (100, 900)])
def test_axis_stump_pool_rows_match_descriptors(n_pos, n_neg):
    points, _ = generate_toy(ToyDatasetSpec(n_pos=n_pos, n_neg=n_neg, seed=1))
    rows, descriptors = axis_stump_pool(points)
    assert rows.shape == (len(descriptors), len(points))
    assert set(np.unique(rows)) <= {-1.0, 1.0}
    for axis in (0, 1):
        per_axis = sum(1 for a, _ in descriptors if a == axis)
        assert per_axis == min(128, len(np.unique(points[:, axis])) - 1)
    for row, (axis, threshold) in zip(rows, descriptors):
        assert np.array_equal(row, np.where(points[:, axis] >= threshold, 1.0, -1.0))
