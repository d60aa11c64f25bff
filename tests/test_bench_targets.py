"""The traced benchmark wraps package callables by name from outside the
package (bench/layers.py), so a rename there goes unnoticed by the bench: the
target is only reported missing.  This test makes such a rename fail."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Known breakage: bootstrap now runs the vectorized evaluator, and the bench
# still names the scalar per-window method it replaced.
KNOWN_MISSING = ["cascade.CascadeModel.decide_window"]


def resolve(module: str, attr: str):
    owner = importlib.import_module(f"gslda_cascade.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    missing = [f"{t.module}.{t.attr}" for t in layers.TARGETS if not callable(resolve(t.module, t.attr))]
    assert missing == KNOWN_MISSING
