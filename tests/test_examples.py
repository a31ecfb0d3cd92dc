"""Example-script health checks.

Full example runs take minutes; these tests guarantee the cheaper
invariants: every example parses, imports cleanly (catching API drift), and
exposes a ``main`` entry point.  The quickstart — the example a new user
runs first — is additionally executed end to end.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleHealth:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLE_FILES}
        assert {
            "quickstart",
            "ooi_data_discovery",
            "gage_knowledge_sources",
            "cross_facility",
            "cold_start_analysis",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_imports_and_has_main(self, path):
        module = load_example(path)
        assert callable(getattr(module, "main", None)), f"{path.stem} lacks main()"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_has_module_docstring(self, path):
        module = load_example(path)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_quickstart_runs_end_to_end(self, capsys, monkeypatch):
        """The first-contact example must actually work."""
        module = load_example(EXAMPLES_DIR / "quickstart.py")
        # Shrink the budget so the test stays fast; the example's own
        # defaults are exercised manually / by the run scripts.
        from repro.models.base import FitConfig as RealFitConfig

        def tiny_fit_config(*args, **kwargs):
            kwargs["epochs"] = min(kwargs.get("epochs", 3), 3)
            kwargs.pop("verbose", None)
            return RealFitConfig(*args, **kwargs)

        monkeypatch.setattr(module, "FitConfig", tiny_fit_config)
        module.main()
        out = capsys.readouterr().out
        assert "top-10 recommendations" in out
        assert "recall@20" in out


class TestGraphConnectivityExample:
    def test_runs_end_to_end(self, capsys):
        module = load_example(EXAMPLES_DIR / "graph_connectivity.py")
        module.main()
        out = capsys.readouterr().out
        assert "hop reachability" in out
        assert "high-order paths" in out
