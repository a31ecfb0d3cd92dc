"""Import weight: importing a layer loads only that layer.

Each check runs a fresh interpreter, so what it sees in ``sys.modules`` is
what the import itself loaded, not what earlier tests left behind.  The
serving process (``repro serve``, the benchmark's server child) must start
without scipy, networkx, the models, the experiment harness, the KG
builders or the analysis tools; ``import repro`` alone must load no
subpackage.  The rest of the file checks that the lazy top-level package
still offers every name it did when it imported eagerly.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SERVING_IMPORTS = (
    "from repro.serving import RecommendService, ScoreIndex, RecommendServer\n"
    "from repro.store import ArtifactStore\n"
)

SERVING_MUST_NOT_LOAD = (
    "scipy",
    "networkx",
    "repro.experiments",
    "repro.models",
    "repro.kg",
    "repro.analysis",
)


def _run(code, sanitize=None):
    """Run ``code`` in a fresh interpreter on ``src``; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SANITIZE", None)
    if sanitize is not None:
        env["REPRO_SANITIZE"] = sanitize
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


def _loaded_after(imports):
    """Sorted ``sys.modules`` keys of a fresh interpreter after ``imports``."""
    code = imports + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(_run(code))


# ------------------------------------------------------------ import weight
def test_serving_imports_load_no_training_stack():
    loaded = set(_loaded_after(SERVING_IMPORTS))
    assert not loaded & set(SERVING_MUST_NOT_LOAD)


def test_import_repro_loads_no_subpackage():
    loaded = _loaded_after("import repro\n")
    assert [m for m in loaded if m.startswith("repro.")] == []


def test_experiments_load_no_networkx():
    assert "networkx" not in _loaded_after("import repro.experiments\n")


# ------------------------------------------------------- sanitizer install
_SANITIZED_SERVING = SERVING_IMPORTS + """
import numpy as np
from repro.analysis.sanitizer import SanitizerError, is_enabled
from repro.autograd import Tensor
from repro.kernels import dispatch

assert is_enabled()
entity = Tensor(np.ones((3, 2)))
entity.data[0, 0] = np.nan  # after construction, so only the op can see it
rows = np.array([0])
try:
    dispatch.transr_energy(
        entity, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2, 2))),
        rows, rows, np.array([1]),
    )
except SanitizerError as err:
    print(err.op, err.kind)
"""


def test_repro_sanitize_instruments_through_serving_import():
    assert _run(_SANITIZED_SERVING, sanitize="1").split() == ["transr_energy", "nan"]


def test_sanitizer_not_imported_when_unset():
    assert "repro.analysis.sanitizer" not in _loaded_after(SERVING_IMPORTS)


# ------------------------------------------------------------- lazy surface
def test_dir_lists_every_export():
    assert set(repro.__all__) <= set(dir(repro))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018


def test_subpackage_reachable_as_attribute():
    code = "import repro\nprint(repro.kg.build_ckg.__module__)\n"
    assert _run(code).strip() == "repro.kg.ckg"


def test_export_is_the_defining_object():
    from repro import CKAT
    from repro.models.ckat import CKAT as defined

    assert CKAT is defined


def test_type_checking_imports_mirror_the_lazy_table():
    """reprolint resolves ``repro.<name>`` through the import statements of
    ``repro/__init__.py``; its ``TYPE_CHECKING`` block must name exactly the
    lazily exported names, each from its table module."""
    tree = ast.parse((SRC / "repro" / "__init__.py").read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    )
    imported = {
        alias.name: node.module
        for node in block.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == repro._EXPORTS
    assert set(imported) == set(repro.__all__) - {"__version__"}
