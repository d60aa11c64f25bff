"""Pinned model and scan bytes: synth a small corpus, train every method
through the CLI and compare each model file's sha256 with the digest the
current kernels produce; then scan the corpus with the gslda model and pin
the detections (merged and raw) and both ROC CSVs the same way.

Extraction, the stump sort and train_all are rewritten for speed under the
rule that the models stay byte-identical; this test keeps that rule standing.
A change that moves a digest changes what training produces, and says so
where it re-pins.  With unit weights every sum the GSLDA scatter takes over
the +/-1 stump table is an exact integer, so only the bgslda digests, whose
sums are weighted, depend on the order in which numpy adds them.  They also
depend on which expression computes a candidate's Schur complement: the
selector scores and admits a candidate by one, and another one rounds the
weighted sums differently and moves the last bits of the LDA coefficients
and node thresholds.  A different BLAS build may still round the small
products of the restricted inverse differently and move the last bits of
any LDA coefficient.  The scan path
(haar_sums, evaluate_windows, the pyramid scan, merge and the writers) is
rewritten for speed under the same rule.  The toy report is pinned too: the
toy is the one command that trains from an ndarray table, not a view.
"""

import hashlib
from pathlib import Path

import pytest

from gslda_cascade import cli

TRAIN = ["--subsample", "16", "--max-stumps", "20", "--f-target", "0.001"]

DIGESTS = {
    "gslda": "400a80ea4c1b8f41aae9acc22f4abf1aac7671fd5654b02176be3f1b916d62f4",
    "gslda --dual-pass": "ab966b3341acf2847fc1a654c705291e3a45c8fcf893b706fef23604e0d5beca",
    "bgslda1": "8b3b4d7bef8b398fdf13a44c180c0615831ac5e7db96f1e16cf0bc746507d712",
    "bgslda2": "afc2057c4d7d7ffb274bbae1b22697dc889a1f675b0f41bc346fbb0567409b3d",
    "adaboost": "4e93fd31303ba56ec5d9243143c9fd9184d0e523234e443ca49f30f56825a381",
    "asymboost": "a0fc7f180535021a29f73ddf7c5b18f9e44324937882967437a43e75e07724ed",
    # Without held-out positives the training positives double as validation.
    "adaboost --validation-split 0": "1fda883c1f94cc5b7d3cd690f10b42f23b3f04a3695a4f2ae5c9f26dc6418b8a",
    "gslda --validation-split 0": "66779d824cfdce1f4e39796a83a5e2e914d0df21e1ab68e91983afc163f70d93",
}

# The detect rows name the one scene s000.pgm, by its file name in the scenes directory.
SCAN_DIGESTS = {
    "detect --no-merge": "59452924d7b4b0d95ad03722822c13aebb975856b57934611afc45066400537d",
    "detect": "d2e9be9f359f5f9788e4d76e34f06396c74df20d84d052f21fe3b86f20360734",
    "eval --mode depth": "a50f799ba4a004370f38e01790a815cc171be7d7a8a019d41a729dcdd105c405",
    "eval --mode threshold": "2fbdbb75f4fd613317fc0e9cd12648f5218c63b5b193090e485a247dba7cde0c",
}


TOY = ["toy", "--n-pos", "20", "--n-neg", "200", "--rounds", "4", "--trials", "3"]
TOY_DIGEST = "1a24188e773cfa150f59f84fb53754c2f9e3e123bbf30803e2bc465619bc5066"


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


@pytest.fixture(scope="module")
def gslda_model(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    assert cli.main(["train", "--data", manifest, "--out", str(out), "--method", "gslda", *TRAIN]) == 0
    return str(out)


@pytest.mark.parametrize("command", list(SCAN_DIGESTS))
def test_scan_bytes_are_pinned(manifest, gslda_model, command, tmp_path):
    # detect names a directory's rows by file name and eval by the ground
    # truth's image ids, so the bytes do not depend on where the corpus lies.
    name, *flags = command.split()
    data = str(Path(manifest).parent / "scenes") if name == "detect" else manifest
    out = tmp_path / "out.csv"
    assert cli.main([name, gslda_model, data, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_DIGESTS[command]


def test_toy_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "toy.json"
    assert cli.main([*TOY, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TOY_DIGEST
