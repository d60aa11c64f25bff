"""File formats: model JSON, dataset manifest, ground-truth and detection
CSVs, ROC CSV.

Model files are schema-checked on load and written deterministically (sorted
keys, fixed separators); floats round-trip exactly through Python's
shortest-repr decimal serialization.  The files are standard JSON: the +/-inf
sentinel thresholds of stumps are written as the strings "inf" and "-inf"
(older files with the bare tokens Infinity / -Infinity still load).  The
feature pool is stored by its enumeration parameters, as
{"type": "enumerated", "base_window", "stride", "min_size", "subsample"}, the
only pool type.  On load features.build_pool checks the parameters and
counts the pool in closed form; no feature is decoded until the scan places
the ones the model names.  The file's base_window, stage_rates (each node's
[d, f]) and cumulative (their running products) are checked copies of what
the pool and the nodes give: a file whose copy differs is rejected.

The detections CSV is written from a detect.DetectionTable, image by image
from each Detections' arrays: the header image_id,x,y,side,score, then one
row per window, every row ending in \r\n.  Integers are written with str and
scores with repr, so they read back exactly.  Per image, each distinct x, y
and side is formatted once, and each distinct score once (told apart by its
bits, so 0.0 and -0.0 stay apart); the rows are then assembled as bytes,
with no Python per row.  An image id is quoted as the csv module quotes it
(a comma, quote or line break puts it in quotes, a quote doubles) and encoded
as the file's text mode encodes it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os

import numpy as np

from .cascade import CascadeModel, NodeClassifier
from .detect import DetectionTable, Detections, GroundTruthBox, ROCPoint
from .features import PoolParams, build_pool
from .stumps import DecisionStump

FORMAT_VERSION = 1

# Infinite stump thresholds as written to disk, and back.
_INF_NAMES = {float("inf"): "inf", float("-inf"): "-inf"}
_INF_VALUES = {name: value for value, name in _INF_NAMES.items()}


class ModelFormatError(ValueError):
    """The model file violates the schema."""


@dataclasses.dataclass
class DatasetManifest:
    """File-level description of a training/eval corpus."""

    root: str
    positives: list[str]
    negatives: list[str]
    negative_reservoir: list[str] = dataclasses.field(default_factory=list)
    ground_truth: str | None = None

    def path(self, rel: str) -> str:
        return os.path.join(self.root, rel)


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    payload = {
        "positives": manifest.positives,
        "negatives": manifest.negatives,
        "negative_reservoir": manifest.negative_reservoir,
        "ground_truth": manifest.ground_truth,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_manifest(path: str) -> DatasetManifest:
    """Read a manifest; ValueError unless it is an object whose three path
    lists hold only strings and whose ground_truth is a string or null."""
    with open(path) as fh:
        payload = json.load(fh)
    root = os.path.dirname(os.path.abspath(path))
    if not isinstance(payload, dict):
        raise ValueError(f"manifest {path}: must be a JSON object")
    payload = {"negative_reservoir": [], "ground_truth": None, **payload}
    for key in ("positives", "negatives", "negative_reservoir"):
        if not isinstance(payload.get(key), list) or not all(isinstance(p, str) for p in payload[key]):
            raise ValueError(f"manifest {path}: missing or invalid field {key!r}")
    if not isinstance(payload["ground_truth"], (str, type(None))):
        raise ValueError(f"manifest {path}: invalid field 'ground_truth'")
    return DatasetManifest(
        root=root,
        positives=payload["positives"],
        negatives=payload["negatives"],
        negative_reservoir=payload["negative_reservoir"],
        ground_truth=payload["ground_truth"],
    )


def model_to_dict(model: CascadeModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "base_window": model.base_window,
        "f_target": model.f_target,
        "feature_pool": {"type": "enumerated", **dataclasses.asdict(model.feature_pool.params)},
        "nodes": [
            {
                "stumps": [[s.feature_id, _INF_NAMES.get(s.threshold, s.threshold), s.polarity]
                           for s in n.stumps],
                "coefficients": [float(c) for c in n.coefficients],
                "node_threshold": n.node_threshold,
                "trained_by": n.trained_by,
                "goal_met": n.goal_met,
                "detection_rate": n.detection_rate,
                "false_positive_rate": n.false_positive_rate,
            }
            for n in model.nodes
        ],
        "stage_rates": [[n.detection_rate, n.false_positive_rate] for n in model.nodes],
        "cumulative": [[d, f] for d, f in model.cumulative],
        "metadata": model.metadata,
    }


def save_model(model: CascadeModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _is_int(value) -> bool:
    """An int, but not a bool (JSON's true and false)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(payload: dict, name: str, kind, where: str):
    _expect(name in payload, f"{where}: missing field {name!r}")
    value = payload[name]
    _expect(_is_int(value) if kind is int else isinstance(value, kind), f"{where}: field {name!r} must be {kind}")
    return value


def _is_number(value) -> bool:
    """An int or float, but not a bool, not NaN (the one value unequal to
    itself) and not an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        value = float(value)
    except OverflowError:
        return False
    return value == value


def _number(payload: dict, name: str, where: str) -> float:
    _expect(name in payload, f"{where}: missing field {name!r}")
    _expect(_is_number(payload[name]), f"{where}: field {name!r} must be a number")
    return float(payload[name])


def _rate_pairs(payload: dict, name: str, expected: list[tuple[float, float]]) -> None:
    """Check the file's list `name`: one number pair [d, f] per node, equal to expected's."""
    rows = _field(payload, name, list, "model file")
    _expect(len(rows) == len(expected), f"model file: {name} needs one [d, f] pair per node")
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == 2 and all(_is_number(v) for v in row),
                f"{name}[{i}]: expected [d, f]")
        _expect(tuple(row) == expected[i], f"{name}[{i}]: differs from the nodes' rates")


def model_from_dict(payload: dict) -> CascadeModel:
    """Schema-checked model; every violation raises ModelFormatError."""
    _expect(isinstance(payload, dict), "model file: top level must be an object")
    version = _field(payload, "format_version", int, "model file")
    _expect(version == FORMAT_VERSION, f"model file: unknown format_version {version}")
    base_window = _field(payload, "base_window", int, "model file")
    f_target = _number(payload, "f_target", "model file")

    pool_payload = _field(payload, "feature_pool", dict, "model file")
    pool_type = _field(pool_payload, "type", str, "feature_pool")
    _expect(pool_type == "enumerated", f"feature_pool: unknown type {pool_type!r}")
    pool_params = PoolParams(**{f.name: _field(pool_payload, f.name, int, "feature_pool")
                                for f in dataclasses.fields(PoolParams)})
    _expect(pool_params.base_window == base_window, "feature_pool: base_window differs from the model's")
    try:
        feature_pool = build_pool(pool_params)
    except ValueError as exc:
        raise ModelFormatError(f"feature_pool: {exc}") from exc

    nodes_payload = _field(payload, "nodes", list, "model file")
    nodes = []
    for i, np_ in enumerate(nodes_payload):
        where = f"nodes[{i}]"
        _expect(isinstance(np_, dict), f"{where}: must be an object")
        stump_rows = _field(np_, "stumps", list, where)
        stumps = []
        for j, row in enumerate(stump_rows):
            _expect(
                isinstance(row, list) and len(row) == 3,
                f"{where}.stumps[{j}]: expected [feature_id, threshold, polarity]",
            )
            fid, thr, pol = row
            _expect(_is_int(fid), f"{where}.stumps[{j}]: feature_id must be an integer")
            if isinstance(thr, str):
                _expect(thr in _INF_VALUES, f"{where}.stumps[{j}]: threshold string must be 'inf' or '-inf'")
                thr = _INF_VALUES[thr]
            _expect(_is_number(thr), f"{where}.stumps[{j}]: threshold must be a number")
            _expect(not isinstance(pol, bool) and pol in (-1, 1), f"{where}.stumps[{j}]: polarity must be -1 or +1")
            _expect(0 <= fid < len(feature_pool), f"{where}.stumps[{j}]: feature_id out of range")
            stumps.append(DecisionStump(fid, float(thr), int(pol)))
        _expect(stumps, f"{where}: needs at least one stump")
        coefficients = _field(np_, "coefficients", list, where)
        _expect(len(coefficients) == len(stumps), f"{where}: coefficients length mismatch")
        _expect(all(_is_number(c) for c in coefficients), f"{where}: coefficients must be numbers")
        nodes.append(
            NodeClassifier(
                stumps=stumps,
                coefficients=[float(c) for c in coefficients],
                node_threshold=_number(np_, "node_threshold", where),
                trained_by=_field(np_, "trained_by", str, where),
                goal_met=_field(np_, "goal_met", bool, where),
                detection_rate=_number(np_, "detection_rate", where),
                false_positive_rate=_number(np_, "false_positive_rate", where),
            )
        )
    model = CascadeModel(nodes, feature_pool, f_target, _field(payload, "metadata", dict, "model file"))
    _rate_pairs(payload, "stage_rates", [(n.detection_rate, n.false_positive_rate) for n in nodes])
    _rate_pairs(payload, "cumulative", model.cumulative)
    return model


def load_model(path: str) -> CascadeModel:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ModelFormatError(f"model file {path}: invalid JSON ({exc})") from exc
    return model_from_dict(payload)


def write_stage_log(entries: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")


def read_ground_truth(path: str) -> list[GroundTruthBox]:
    boxes = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"image_id", "x", "y", "w", "h"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: ground truth needs columns image_id,x,y,w,h")
        for row in reader:
            fields = [row[name] for name in ("image_id", "x", "y", "w", "h")]
            try:
                if None in fields:  # csv's value for the fields a short row lacks
                    raise ValueError("row has too few fields")
                boxes.append(GroundTruthBox(fields[0], *map(int, fields[1:])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return boxes


def _text_table(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a uint8 table, each padded with NULs to
    the longest."""
    table = np.array(texts, dtype=np.bytes_)
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def _image_rows(head: bytes, dets: Detections) -> bytes:
    """One image's CSV rows: head (its quoted id and a comma), then x, y,
    side and score.  Each distinct value is formatted once, with the comma or
    line end after it; the rows gather these texts into one NUL-padded byte
    buffer, whose padding is then dropped."""
    fields = []
    for values in (dets.x, dets.y, dets.side):
        distinct, which = np.unique(values, return_inverse=True)
        fields.append((_text_table([f"{v}," for v in distinct.tolist()]), which))
    # Scores keyed by their bits, so that 0.0 and -0.0 stay apart.
    bits, which = np.unique(dets.score.view(np.int64), return_inverse=True)
    fields.append((_text_table([f"{s!r}\r\n" for s in bits.view(np.float64).tolist()]), which))
    rows = np.empty((len(dets), len(head) + sum(table.shape[1] for table, _ in fields)), dtype=np.uint8)
    rows[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    at = len(head)
    for table, which in fields:
        # Each row's cell as one void item, so that numpy copies it as one block.
        cell = np.dtype((np.void, table.shape[1]))
        np.take(table.view(cell)[:, 0], which, out=rows[:, at:at + table.shape[1]].view(cell)[:, 0])
        at += table.shape[1]
    keep = rows != 0
    keep[:, :len(head)] = True  # an id may hold a NUL; the formatted values never do
    return rows[keep].tobytes()


def write_detections_csv(rows: DetectionTable, path: str) -> None:
    """Write the detections CSV (see the module docstring), one byte write
    per image with windows: each value is formatted once per image and the
    rows are assembled as bytes by _image_rows."""
    with open(path, "w", newline="") as fh:
        out = fh.buffer  # the rows are bytes; their ids are encoded as the text mode would
        out.write(b"image_id,x,y,side,score\r\n")
        for image_id, dets in rows.images:
            if not len(dets):  # no rows, so its id is never encoded
                continue
            head = io.StringIO()
            csv.writer(head).writerow([image_id, ""])  # two fields: an empty id stays unquoted
            out.write(_image_rows(head.getvalue()[:-2].encode(fh.encoding, fh.errors), dets))


def write_roc_csv(points: list[ROCPoint], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["operating_point", "false_positives", "detection_rate"])
        for p in points:
            writer.writerow([p.operating_point, p.false_positives, repr(p.detection_rate)])
