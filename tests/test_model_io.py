import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gslda_cascade.cascade import CascadeModel, NodeClassifier
from gslda_cascade.detect import DetectionTable, Detections, scan_image
from gslda_cascade.features import PoolParams, build_pool
from gslda_cascade.model_io import (
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    write_detections_csv,
)
from gslda_cascade.stumps import DecisionStump
from oracles import write_detections_csv as write_rows_csv


def payload():
    """A valid two-node model on an 8-pixel base window, as written to disk."""
    features = build_pool(PoolParams(base_window=8, stride=2, min_size=2))
    nodes = [
        NodeClassifier([DecisionStump(0, 1.5, 1), DecisionStump(2, -3.0, -1)], [0.5, 0.25], -0.1, "gslda",
                       detection_rate=0.99, false_positive_rate=0.4),
        NodeClassifier([DecisionStump(1, 0.0, 1)], [1.0], 0.0, "adaboost", goal_met=False,
                       false_positive_rate=0.5),
    ]
    model = CascadeModel(nodes, features, 0.01, metadata={"method": "gslda"})
    return json.loads(json.dumps(model_to_dict(model)))


def set_path(p, path, value):
    for key in path[:-1]:
        p = p[key]
    p[path[-1]] = value


@pytest.mark.parametrize("pool", ["enumerated"])
def test_round_trip(pool, tmp_path):
    p = payload()
    assert p["feature_pool"]["type"] == pool  # the only pool type
    assert model_to_dict(model_from_dict(copy.deepcopy(p))) == p
    path = tmp_path / "model.json"
    path.write_text(json.dumps(p))
    assert model_to_dict(load_model(str(path))) == p


def infinite_threshold_model():
    model = model_from_dict(payload())
    model.nodes[0].stumps = [DecisionStump(0, float("inf"), 1), DecisionStump(2, float("-inf"), -1)]
    return model


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_infinite_thresholds_are_standard_json(tmp_path):
    model = infinite_threshold_model()
    path = tmp_path / "model.json"
    save_model(model, str(path))
    stumps = strict_json(path.read_text())["nodes"][0]["stumps"]
    assert [row[1] for row in stumps] == ["inf", "-inf"]
    loaded = load_model(str(path))
    assert [s.threshold for s in loaded.nodes[0].stumps] == [float("inf"), float("-inf")]
    assert model_to_dict(loaded) == model_to_dict(model)


def test_legacy_infinity_tokens_load(tmp_path):
    p = model_to_dict(infinite_threshold_model())
    for row in p["nodes"][0]["stumps"]:
        row[1] = float(row[1])
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(p))
    assert "Infinity" in path.read_text() and "-Infinity" in path.read_text()
    loaded = load_model(str(path))
    assert [s.threshold for s in loaded.nodes[0].stumps] == [float("inf"), float("-inf")]


MALFORMED = {
    "node without stumps": [(("nodes", 0, "stumps"), []), (("nodes", 0, "coefficients"), [])],
    "stage rate not a pair": [(("stage_rates",), [5])],
    "stage rates short": [(("stage_rates",), [[0.99, 0.4]])],
    "cumulative long": [(("cumulative",), [[1, 1], [1, 1], [1, 1]])],
    "cumulative pair of strings": [(("cumulative", 1), ["a", "b"])],
    # The rate lists are copies of the nodes' rates and their running products.
    "stage rate one ulp off the node's": [(("stage_rates", 1, 1), float(np.nextafter(0.5, 1)))],
    "cumulative one ulp off the products": [(("cumulative", 1, 1), float(np.nextafter(0.2, 0)))],
    # The pool's enumeration parameters, rejected as the oracle's enumerate_haar rejects them.
    "feature outside base window": [(("feature_pool", "min_size"), 9)],
    "feature without extent": [(("feature_pool", "min_size"), 0)],
    "feature coordinate not integer": [(("feature_pool", "stride"), "2")],
    "enumerated pool stride zero": [(("feature_pool", "stride"), 0)],
    "enumerated pool field missing": [(("feature_pool",), {"type": "enumerated", "base_window": 8, "stride": 2,
                                                           "min_size": 2})],
    # The pool types older versions also read.
    "explicit pool type": [(("feature_pool",), {"type": "explicit",
                                                "features": [["two-rect-horizontal", 0, 0, 4, 2]]})],
    "none pool type": [(("feature_pool",), {"type": "none"})],
    "feature_id out of range": [(("nodes", 1, "stumps", 0, 0), 10**6)],
    "stump threshold not a number": [(("nodes", 1, "stumps", 0), [1, "0.5", 1])],
    "stump threshold other string": [(("nodes", 1, "stumps", 0), [1, "Infinity", 1])],
    "coefficient not a number": [(("nodes", 0, "coefficients", 1), None)],
    "coefficient beyond float range": [(("nodes", 0, "coefficients", 1), 10**400)],
    "node_threshold beyond float range": [(("nodes", 1, "node_threshold"), -(10**400))],
    "stage rate beyond float range": [(("stage_rates", 0, 1), 10**400)],
    "enumerated pool subsample zero": [(("feature_pool",), {"type": "enumerated", "base_window": 8, "stride": 2,
                                                             "min_size": 2, "subsample": 0})],
    "enumerated pool on another window": [(("feature_pool",), {"type": "enumerated", "base_window": 6, "stride": 2,
                                                                "min_size": 2, "subsample": 1})],
    # JSON true where an integer belongs; each would load as 1.
    "format_version true": [(("format_version",), True)],
    "base_window true": [(("base_window",), True), (("feature_pool", "base_window"), True)],
    "pool stride true": [(("feature_pool", "stride"), True)],
    "feature_id true": [(("nodes", 1, "stumps", 0, 0), True)],
    "polarity true": [(("nodes", 1, "stumps", 0, 2), True)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_raises_format_error(case):
    p = payload()
    for path, value in MALFORMED[case]:
        set_path(p, path, value)
    with pytest.raises(ModelFormatError):
        model_from_dict(p)


def test_feature_ids_are_bounded_by_the_subsampled_count():
    # The pool of the payload holds 580 features; every 7th of them is 83,
    # the last of which is full index 574.
    p = payload()
    p["feature_pool"]["subsample"] = 7
    size = len(build_pool(PoolParams(base_window=8, stride=2, min_size=2, subsample=7)))
    assert size == 83
    set_path(p, ("nodes", 1, "stumps", 0, 0), size - 1)
    assert model_from_dict(copy.deepcopy(p)).nodes[1].stumps[0].feature_id == size - 1
    set_path(p, ("nodes", 1, "stumps", 0, 0), size)
    with pytest.raises(ModelFormatError, match="feature_id out of range"):
        model_from_dict(p)


def test_load_and_scan_decode_only_the_named_features():
    # A model on the whole 24x24 pool, 162,336 features: loading it and
    # scanning an image decode its stumps' features alone.  The whole pool's
    # kinds and boxes would take 6.5 MB.
    p = payload()
    p["base_window"] = 24
    p["feature_pool"].update(base_window=24, stride=1, min_size=1, subsample=1)
    for (i, j), fid in zip([(0, 0), (0, 1), (1, 0)], [162_335, 81_000, 4_321]):
        set_path(p, ("nodes", i, "stumps", j, 0), fid)
    image = np.random.default_rng(0).integers(0, 256, size=(40, 40), dtype=np.uint8)
    tracemalloc.start()
    try:
        model = model_from_dict(p)
        scan_image(model, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.feature_pool) == 162_336
    assert "_every" not in vars(model.feature_pool)
    assert peak < 2_000_000, peak


# Every number model_from_dict reads, as a path into the payload.
NUMBERS = {
    "stump threshold": ("nodes", 0, "stumps", 0, 1),
    "coefficient": ("nodes", 0, "coefficients", 1),
    "node_threshold": ("nodes", 1, "node_threshold"),
    "detection_rate": ("nodes", 0, "detection_rate"),
    "false_positive_rate": ("nodes", 0, "false_positive_rate"),
    "stage_rates": ("stage_rates", 1, 0),
    "cumulative": ("cumulative", 0, 1),
    "f_target": ("f_target",),
}


@pytest.mark.parametrize("field", sorted(NUMBERS))
def test_nan_raises_format_error(field, tmp_path):
    p = payload()
    set_path(p, NUMBERS[field], float("nan"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(p))
    assert "NaN" in path.read_text()
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_non_utf8_file_raises_format_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def paths(node, prefix=()):
    """Every key path into a JSON tree, the root's () first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_model_raises_only_format_error(data):
    p = payload()
    for _ in range(data.draw(st.integers(1, 3))):
        candidates = list(paths(p))[1:]
        if not candidates:  # every key was deleted
            break
        path = data.draw(st.sampled_from(candidates))
        parent = p
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        model_from_dict(p)
    except ModelFormatError:
        pass


# Image ids with the characters csv quotes or passes through, and scores
# whose repr takes every form: negative, signed zero, subnormal, integral,
# exponent.
IMAGE_IDS = st.text(st.sampled_from(list('ab,"\' \r\n\té\u00fc\u4e2d\U0001f600')), max_size=6)
SCORES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 2.0, -3.0, 1e16, 1.5e300, -1e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def detection_tables(draw):
    # Scores are drawn freely, or from a small set holding both zeros, so
    # that an image repeats scores and may hold 0.0 and -0.0 together.
    few = [0.0, -0.0] + draw(st.lists(SCORES, min_size=1, max_size=2))
    scores_from = draw(st.sampled_from([SCORES, st.sampled_from(few)]))
    images = []
    for image_id in draw(st.lists(IMAGE_IDS, max_size=4)):
        n = draw(st.integers(0, 8))
        ints = draw(st.lists(st.integers(-2**40, 2**40), min_size=4 * n, max_size=4 * n))
        ints = np.array(ints, dtype=np.int64).reshape(n, 4)
        scores = np.array(draw(st.lists(scores_from, min_size=n, max_size=n)), dtype=np.float64)
        images.append((image_id, Detections(ints[:, 0], ints[:, 1], ints[:, 2], scores, ints[:, 3])))
    return DetectionTable(images)


_REPEATS = np.array([0.0, -0.0, 2.5, 0.0, -0.0, 2.5, 1e-7])


def _dets(x, y, side, score):
    x, y, side = (np.asarray(v, dtype=np.int64) for v in (x, y, side))
    return Detections(x, y, side, np.asarray(score, dtype=np.float64), np.ones(len(x), dtype=np.int64))


# Every digit width up to the int64 extremes, and the minus sign, in each
# integer column.
_WIDTHS = np.array([-2**63, 2**63 - 1, -1, 0, 9, 10, 99, 100])
# An id mixing non-ASCII characters with the ones csv quotes, and a NUL.
_ODD_ID = 'é,"中"\x00\U0001f600'
# About 5,000 windows as a scan keeps them: ordered by side, then y, then x,
# on a 480-pixel image, with the few distinct scores of a shallow cascade.
_rng = np.random.default_rng(0)
_side = _rng.choice([16, 19, 23, 27, 33, 39], 5000)
_y, _x = (_rng.integers(0, 481 - _side) for _ in range(2))
_order = np.lexsort((_x, _y, _side))
_SCAN = _dets(_x[_order], _y[_order], _side[_order], _rng.choice([-0.25, 0.5, 1.0000000000000002, 1.75], 5000))


@settings(max_examples=200, deadline=None)
@given(table=detection_tables())
@example(table=DetectionTable([("a", Detections(*np.arange(21).reshape(3, 7), _REPEATS, np.ones(7, int))),
                               ("b", Detections(*np.zeros((3, 2), int), _REPEATS[[1, 0]], np.ones(2, int)))]))
@example(table=DetectionTable([("w", _dets(_WIDTHS, _WIDTHS[::-1], np.roll(_WIDTHS, 3), _REPEATS[[0, 1] * 4]))]))
@example(table=DetectionTable([("a", _dets([1], [2], [16], [0.5])), ("empty", _dets([], [], [], [])),
                               ("b", _dets([3, 3], [4, 4], [19, 19], [-0.0, 0.0]))]))
@example(table=DetectionTable([(_ODD_ID, _dets([5, 6], [7, 8], [16, 16], [1.5, 2.5]))]))
@example(table=DetectionTable([("m00.pgm", _SCAN)]))
def test_detections_csv_bytes_match_row_writer(table, tmp_path_factory):
    out = tmp_path_factory.mktemp("csv")
    write_detections_csv(table, str(out / "new.csv"))
    write_rows_csv([(image_id, w) for image_id, dets in table.images for w in dets.windows()],
                   str(out / "old.csv"))
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
