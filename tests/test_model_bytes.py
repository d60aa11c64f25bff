"""Pinned model bytes: synth a small corpus, train every method through the
CLI and compare each model file's sha256 with the digest the current kernels
produce.

Extraction, the stump sort and train_all are rewritten for speed under the
rule that the models stay byte-identical; this test keeps that rule standing.
A change that moves a digest changes what training produces, and says so
where it re-pins.  The GSLDA scatter sums floats in the order the BLAS build
picks, so a different BLAS may move the last bits of a coefficient and with
them a digest.
"""

import hashlib

import pytest

from gslda_cascade import cli

TRAIN = ["--subsample", "16", "--max-stumps", "20", "--f-target", "0.001"]

DIGESTS = {
    "gslda": "400a80ea4c1b8f41aae9acc22f4abf1aac7671fd5654b02176be3f1b916d62f4",
    "gslda --dual-pass": "ab966b3341acf2847fc1a654c705291e3a45c8fcf893b706fef23604e0d5beca",
    "bgslda1": "5b32d7bb8dc7ededa2d50a811e74a3a207cbb320670cc5cdcd26975ae94b07a6",
    "bgslda2": "e5f158a6c5dfd6a662c5a9300a974ce892e81366726b28eb9bdd1429272a0c94",
    "adaboost": "4e93fd31303ba56ec5d9243143c9fd9184d0e523234e443ca49f30f56825a381",
    "asymboost": "a0fc7f180535021a29f73ddf7c5b18f9e44324937882967437a43e75e07724ed",
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    assert cli.main(["synth", "--out", str(root / "corpus"), "--n-pos", "100", "--n-neg", "200",
                     "--reservoir", "2", "--scenes", "1", "--seed", "0"]) == 0
    return str(root / "corpus" / "manifest.json")


@pytest.mark.parametrize("variant", list(DIGESTS))
def test_model_bytes_are_pinned(manifest, variant, tmp_path):
    out = tmp_path / "model.json"
    method, *flags = variant.split()
    assert cli.main(["train", "--data", manifest, "--out", str(out), "--method", method, *flags, *TRAIN]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[variant]
