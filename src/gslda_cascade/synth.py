"""Synthetic corpora: a desk-scale face-like patch dataset and the 2-D
skewed toy set used to compare selection criteria.

All generators are pure functions of their seed; corpora written to disk are
byte-identical across runs.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .model_io import DatasetManifest, save_manifest
from .pgm import write_pgm


def _face_patch(rng, size: int) -> np.ndarray:
    """Two dark dots over a dark bar on a light background, with jitter."""
    base = int(rng.integers(140, 210))
    patch = np.clip(base + rng.normal(0, 12, size=(size, size)), 0, 255)
    eye = max(2, size // 8)
    ey = size // 4 + int(rng.integers(-1, 2))
    ex1 = size // 4 + int(rng.integers(-1, 2))
    ex2 = size - size // 4 - eye + int(rng.integers(-1, 2))
    dark = rng.integers(5, 60)
    patch[ey : ey + eye, ex1 : ex1 + eye] = dark + rng.normal(0, 6, (eye, eye))
    patch[ey : ey + eye, ex2 : ex2 + eye] = dark + rng.normal(0, 6, (eye, eye))
    my = (2 * size) // 3 + int(rng.integers(-1, 2))
    mx = size // 4 + int(rng.integers(-1, 2))
    mw = size // 2
    mh = max(1, size // 8)
    patch[my : my + mh, mx : mx + mw] = dark + rng.normal(0, 6, (mh, mw))
    return np.clip(patch, 0, 255).astype(np.uint8)


def _texture_patch(rng, size: int) -> np.ndarray:
    """Structured clutter: noise, gradients, blocks or stripes."""
    style = int(rng.integers(4))
    if style == 0:
        patch = rng.integers(0, 256, size=(size, size)).astype(float)
    elif style == 1:
        gx, gy = rng.uniform(-8, 8, 2)
        yy, xx = np.mgrid[0:size, 0:size]
        patch = 128 + gx * (xx - size / 2) + gy * (yy - size / 2) + rng.normal(0, 20, (size, size))
    elif style == 2:
        patch = np.full((size, size), float(rng.integers(30, 220)))
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.integers(0, size, 2)
            w, h = rng.integers(2, max(3, size // 2), 2)
            patch[y : y + h, x : x + w] = rng.integers(0, 256)
        patch += rng.normal(0, 10, (size, size))
    else:
        period = int(rng.integers(2, 6))
        yy, xx = np.mgrid[0:size, 0:size]
        axis = xx if rng.random() < 0.5 else yy
        patch = 96 + 96 * np.sin(2 * np.pi * axis / period + rng.uniform(0, 6.28))
        patch += rng.normal(0, 15, (size, size))
    return np.clip(patch, 0, 255).astype(np.uint8)


def _background_image(rng, h: int, w: int) -> np.ndarray:
    """Face-free clutter canvas assembled from texture tiles."""
    image = np.clip(128 + rng.normal(0, 25, (h, w)), 0, 255)
    for _ in range(int(rng.integers(6, 14))):
        size = int(rng.integers(6, max(8, min(h, w) // 2)))
        y = int(rng.integers(0, h - size + 1))
        x = int(rng.integers(0, w - size + 1))
        image[y : y + size, x : x + size] = _texture_patch(rng, size)
    return image.astype(np.uint8)


def generate_synthetic_faces(
    out_dir: str,
    seed: int = 0,
    n_pos: int = 1000,
    n_neg: int = 1000,
    size: int = 16,
    n_reservoir: int = 10,
    n_scenes: int = 6,
) -> DatasetManifest:
    """Write a PGM corpus: positive patches, negative patches, face-free
    reservoir images for bootstrapping, and scene images with planted faces
    plus a ground-truth CSV."""
    if size < 8:
        raise ValueError("size must be at least 8")
    if min(n_pos, n_neg, n_reservoir, n_scenes) < 0:
        raise ValueError("n_pos, n_neg, n_reservoir and n_scenes must be at least 0")
    rng = np.random.default_rng(seed)
    for sub in ("pos", "neg", "reservoir", "scenes"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    positives, negatives, reservoir = [], [], []
    for i in range(n_pos):
        rel = f"pos/p{i:05d}.pgm"
        write_pgm(os.path.join(out_dir, rel), _face_patch(rng, size))
        positives.append(rel)
    for i in range(n_neg):
        rel = f"neg/n{i:05d}.pgm"
        write_pgm(os.path.join(out_dir, rel), _texture_patch(rng, size))
        negatives.append(rel)
    big = size * 6
    for i in range(n_reservoir):
        rel = f"reservoir/r{i:03d}.pgm"
        write_pgm(os.path.join(out_dir, rel), _background_image(rng, big, big))
        reservoir.append(rel)

    truth_rows = []
    for i in range(n_scenes):
        rel = f"scenes/s{i:03d}.pgm"
        scene = _background_image(rng, big, big).astype(np.uint8)
        for _ in range(int(rng.integers(1, 4))):
            x = int(rng.integers(0, big - size + 1))
            y = int(rng.integers(0, big - size + 1))
            scene[y : y + size, x : x + size] = _face_patch(rng, size)
            truth_rows.append((rel, x, y, size, size))
        write_pgm(os.path.join(out_dir, rel), scene)

    truth_rel = "truth.csv"
    with open(os.path.join(out_dir, truth_rel), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "x", "y", "w", "h"])
        writer.writerows(truth_rows)

    manifest = DatasetManifest(
        root=os.path.abspath(out_dir),
        positives=positives,
        negatives=negatives,
        negative_reservoir=reservoir,
        ground_truth=truth_rel,
    )
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


@dataclass
class ToyDatasetSpec:
    """Skewed 2-D set: a compact positive cluster inside broad negatives."""

    n_pos: int = 100
    n_neg: int = 2000
    seed: int = 0
    pos_sigma: float = 0.4
    ring_radius: float = 1.6
    ring_sigma: float = 0.45
    clutter_fraction: float = 0.35
    clutter_extent: float = 3.5

    def __post_init__(self):
        if self.n_pos < 1:
            raise ValueError("n_pos must be positive")
        if self.n_neg < self.n_pos:
            raise ValueError("toy set is skewed by construction: n_neg >= n_pos")


def generate_toy(spec: ToyDatasetSpec):
    """Returns (points (N, 2), labels (N,) in {-1, +1})."""
    rng = np.random.default_rng(spec.seed)
    pos = rng.normal(0.0, spec.pos_sigma, size=(spec.n_pos, 2))
    n_clutter = int(spec.clutter_fraction * spec.n_neg)
    n_ring = spec.n_neg - n_clutter
    angles = rng.uniform(0, 2 * np.pi, n_ring)
    radii = rng.normal(spec.ring_radius, spec.ring_sigma, n_ring)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    clutter = rng.uniform(-spec.clutter_extent, spec.clutter_extent, size=(n_clutter, 2))
    points = np.vstack([pos, ring, clutter])
    labels = np.concatenate([np.ones(spec.n_pos, dtype=int), -np.ones(spec.n_neg, dtype=int)])
    return points, labels


#: axis_stump_pool keeps at most this many evenly spaced thresholds per axis.
THRESHOLDS_PER_AXIS = 128


def axis_stump_pool(points: np.ndarray):
    """Candidate decision-stump pool on the two coordinates.

    Returns (pool responses as a (M, N) int8 matrix of +/-1 values sign(x_axis
    - threshold), descriptors [(axis, threshold), ...]).  Node training treats
    each candidate's output as an integer feature sum of area 1, so reweighted
    rounds may flip its polarity or fall back to a constant vote.
    """
    rows, descriptors = [], []
    for axis in (0, 1):
        values = np.unique(points[:, axis])  # sorted
        mids = 0.5 * (values[:-1] + values[1:])
        if len(mids) > THRESHOLDS_PER_AXIS:
            mids = mids[np.linspace(0, len(mids) - 1, THRESHOLDS_PER_AXIS).astype(int)]
        rows.append(np.where(points[:, axis] >= mids[:, None], np.int8(1), np.int8(-1)))
        descriptors += [(axis, float(thr)) for thr in mids]
    return np.vstack(rows), descriptors
