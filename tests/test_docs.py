"""Doc-reference check: the prose must not name files or modules that are gone.

Every backticked repository path (``src/…``, ``tests/…``, ``benchmarks/…``,
``examples/…``) in the top-level docs must exist, and every dotted
``repro.…`` name must import or resolve by attribute lookup.  Paths under
``benchmarks/results/`` are benchmark outputs (gitignored) and are skipped.
"""

import glob
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
GENERATED = "benchmarks/results/"

BACKTICKED = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|examples)/[\w./*-]*")
DOTTED_NAME = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(name: str) -> bool:
    """True if ``name`` is a module, or a module plus an attribute chain."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def missing_paths(text: str):
    for span in BACKTICKED.findall(text):
        for path in REPO_PATH.findall(span):
            path = path.rstrip(".")
            if not path.startswith(GENERATED) and not glob.glob(str(ROOT / path)):
                yield path


def unresolved_names(text: str):
    return sorted(name for name in set(DOTTED_NAME.findall(text)) if not _resolves(name))


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    assert list(missing_paths((ROOT / doc).read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    assert unresolved_names((ROOT / doc).read_text(encoding="utf-8")) == []


def test_checker_flags_stale_references():
    text = "see `src/repro/no_such.py`, `tests/test_docs.py` and repro.no_such.thing"
    assert list(missing_paths(text)) == ["src/repro/no_such.py"]
    assert unresolved_names(text) == ["repro.no_such.thing"]
    assert unresolved_names("repro.eval.sharded_evaluate and repro.cli") == []
