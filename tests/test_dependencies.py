"""numpy is the package's only runtime dependency: every import in
src/gslda_cascade is the standard library, numpy or the package itself, and
the detect and eval commands load no part of numpy they do not use.  No
package name is there for the tests alone: every name a test imports from
the package, and every method or property of a package class that a test
reads, is used by the package or the bench.  The packed form of stump
outputs is known to stumps.py alone: no other package module names the
bit-level kernels, dtype or helpers."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gslda_cascade

SOURCES = sorted(Path(gslda_cascade.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gslda_cascade"}


def imported_roots(tree):
    """Top-level module names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "features.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_numpy_floor_has_bitwise_count():
    # stumps.row_sums counts packed outputs by np.bitwise_count, new in numpy 2.0.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floors = [dep.removeprefix("numpy>=") for dep in project["dependencies"] if dep.startswith("numpy>=")]
    assert len(floors) == 1 and tuple(int(part) for part in floors[0].split(".")[:2]) >= (2, 0), floors


def test_guard_catches_a_foreign_import():
    tree = ast.parse("import os\nfrom scipy import linalg\nfrom . import features\nimport numpy.linalg\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["scipy"]


BIT_LEVEL = {"bitwise_count", "packbits", "unpackbits", "uint64", "stumps.pack", "stumps.unpack", "stumps.words"}
# features sums unsigned pixels in a uint64 accumulator; it never meets stump outputs.
EXEMPT = {"features.py": {"uint64"}}


def bit_level_names(tree) -> set[str]:
    """The BIT_LEVEL names a module reads, calls or imports: as a Name, as an
    Attribute (stumps.X off the stumps module) or as a name imported from
    stumps."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "stumps":
                names.add(f"stumps.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "stumps":
            names.update(f"stumps.{alias.name}" for alias in node.names)
    return names & BIT_LEVEL


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "stumps.py"], ids=lambda p: p.name)
def test_only_stumps_holds_bit_level_code(path):
    found = bit_level_names(ast.parse(path.read_text(), filename=str(path))) - EXEMPT.get(path.name, set())
    assert sorted(found) == []


def test_bit_level_guard_flags_names_attributes_and_imports():
    tree = ast.parse("import numpy as np\nfrom . import stumps\nfrom .stumps import unpack, blocks\n"
                     "np.bitwise_count(x)\nx.view(np.uint64)\nstumps.words(3)\nstumps.row_sums(a, b, w)\n"
                     "stumps.packed_table((), 2, 3)\nnp.packbits(y)\n")
    assert bit_level_names(tree) == {"bitwise_count", "uint64", "stumps.words", "stumps.unpack", "packbits"}


def referenced(paths) -> set[str]:
    """Every name that the modules at paths read or call, as a Name or an
    Attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def imports_for_tests_alone(tree, used) -> list[tuple[str, str]]:
    """(module, name) of each name the module imports from a package module
    that used does not hold; an imported module is exempt."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "gslda_cascade":
            module = importlib.import_module(node.module)
            out += [(node.module, alias.name) for alias in node.names
                    if alias.name not in used and not inspect.ismodule(getattr(module, alias.name))]
    return out


def class_members(tree) -> set[str]:
    """The non-dunder methods and properties of the classes a module defines:
    their def statements and their name = property(...) assignments."""
    members = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    members.add(node.name)
                elif isinstance(node, ast.Assign) and getattr(getattr(node.value, "func", None), "id", None) == "property":
                    members.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in members if not (name.startswith("__") and name.endswith("__"))}


def members_for_tests_alone(tree, members, used) -> list[str]:
    """The members a module reads as an Attribute that used does not hold."""
    return sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & members - used)


def used_outside_the_tests() -> set[str]:
    return referenced([*SOURCES, *sorted((ROOT / "bench").glob("*.py"))])


def test_every_package_name_the_tests_import_is_used_outside_them():
    """A package name that only tests reach belongs in tests/oracles.py."""
    used = used_outside_the_tests()
    found = [(path.name, *pair) for path in sorted((ROOT / "tests").glob("*.py"))
             for pair in imports_for_tests_alone(ast.parse(path.read_text()), used)]
    assert found == []


def test_every_class_member_the_tests_read_is_used_outside_them():
    """A method or property of a package class that only tests read, through
    an instance, belongs in tests/oracles.py as a function of the instance."""
    members = set().union(*(class_members(ast.parse(path.read_text())) for path in SOURCES))
    used = used_outside_the_tests()
    found = [(path.name, name) for path in sorted((ROOT / "tests").glob("*.py"))
             for name in members_for_tests_alone(ast.parse(path.read_text()), members, used)]
    assert found == []


def test_test_only_guard_flags_names_and_exempts_modules():
    tree = ast.parse("from gslda_cascade import cascade, features\nfrom gslda_cascade.cascade import "
                     "train_node, METHODS\nimport gslda_cascade.scatter\nfrom numpy import zeros\n")
    assert imports_for_tests_alone(tree, {"METHODS"}) == [("gslda_cascade.cascade", "train_node")]


def test_test_only_guard_flags_methods_and_properties():
    package = ast.parse("class Table:\n    def stump(self, j): ...\n    def __len__(self): ...\n"
                        "    thresholds = property(lambda self: 0)\n    @property\n    def bound(self): ...\n"
                        "    labels: list\n")
    members = class_members(package)
    assert members == {"stump", "thresholds", "bound"}
    tests = ast.parse("t.stump(0)\nt.thresholds\nt.bound\nt.labels\nlen(t)\nt.__len__()\n")
    assert members_for_tests_alone(tests, members, {"stump"}) == ["bound", "thresholds"]


def _fresh_run(tmp_path, argv, prelude=""):
    """(exit code, whether numpy.random was imported) of one CLI command run
    in a fresh interpreter, after the prelude statement."""
    src = str(Path(gslda_cascade.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"{prelude}\nimport sys\nfrom gslda_cascade import cli\n"
            f"print(cli.main({argv!r}), 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    return int(out[-2]), out[-1] == "True"


def test_detect_and_eval_never_import_numpy_random(tmp_path):
    # numpy loads numpy.random on first use only, and importing it raises a
    # fresh process's peak RSS by several MB; the scan needs no random
    # numbers, so a stray import would raise the detect workloads' floor.
    from gslda_cascade import cli
    from gslda_cascade.cascade import CascadeModel, NodeClassifier
    from gslda_cascade.features import PoolParams, build_pool
    from gslda_cascade.model_io import save_model
    from gslda_cascade.stumps import DecisionStump

    assert cli.main(["synth", "--out", str(tmp_path / "corpus"), "--n-pos", "0", "--n-neg", "0",
                     "--reservoir", "0", "--scenes", "2", "--seed", "0"]) == 0
    node = NodeClassifier([DecisionStump(5, 0.0, 1)], [1.0], 0.5, "adaboost")
    save_model(CascadeModel([node], build_pool(PoolParams(24)), 0.5), str(tmp_path / "model.json"))
    detect = ["detect", "model.json", "corpus/scenes", "--out", "detections.csv"]
    evaluate = ["eval", "model.json", "corpus/manifest.json", "--out", "roc.csv"]
    assert _fresh_run(tmp_path, detect) == (0, False)
    assert _fresh_run(tmp_path, evaluate) == (0, False)
    assert _fresh_run(tmp_path, detect, "import numpy.random") == (0, True)  # the probe sees an import
