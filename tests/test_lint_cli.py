"""CLI contract for ``repro lint``: exit codes 0/1/2, output formats, one
``--select`` over lexical and graph codes, ``--changed-since`` from any
working directory, and the acceptance gate that the repository's own
``src`` tree lints clean."""

import json
import pathlib
import subprocess

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def dirty_file(tmp_path):
    p = tmp_path / "dirty.py"
    p.write_text("import pickle\n")
    return p


@pytest.fixture
def clean_file(tmp_path):
    p = tmp_path / "clean.py"
    p.write_text("VALUE = 1\n")
    return p


def test_exit_zero_on_clean_tree(clean_file, capsys):
    assert main(["lint", "--no-cache", str(clean_file)]) == 0
    assert "clean: 0 findings in 1 file(s)" in capsys.readouterr().out


def test_exit_one_on_findings(dirty_file, capsys):
    assert main(["lint", "--no-cache", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out
    assert "dirty.py:1:" in out


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main(["lint", "--no-cache", str(tmp_path / "ghost")]) == 2
    assert "internal error" in capsys.readouterr().err


def test_exit_two_on_unknown_select(clean_file, capsys):
    assert main(["lint", "--no-cache", "--select", "RPL999", str(clean_file)]) == 2
    assert "RPL999" in capsys.readouterr().err


def test_json_format_parses(dirty_file, capsys):
    assert main(["lint", "--no-cache", "--format", "json", str(dirty_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["summary"]["by_code"] == {"RPL005": 1}


def test_select_filters_rules(tmp_path, capsys):
    p = tmp_path / "two.py"
    p.write_text("import pickle\ndef f(x=[]):\n    return x\n")
    assert main(["lint", "--no-cache", "--select", "RPL006", str(p)]) == 1
    out = capsys.readouterr().out
    assert "RPL006" in out and "RPL005" not in out


def test_repository_src_tree_is_clean(capsys):
    """Acceptance criterion: `repro lint src` exits 0 on the final tree."""
    assert main(["lint", "--no-cache", str(REPO_ROOT / "src")]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_select_accepts_graph_codes(tmp_path, capsys):
    p = tmp_path / "serving"
    p.mkdir()
    (tmp_path / "__init__.py").write_text("", encoding="utf-8")
    (p / "__init__.py").write_text("", encoding="utf-8")
    # One lexical violation (pickle) and one graph violation (blocking call).
    (p / "app.py").write_text(
        "import pickle\nimport time\n\n\nasync def handler():\n    time.sleep(1)\n",
        encoding="utf-8",
    )
    assert main(["lint", "--no-cache", "--select", "RPL005,RPL013", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out and "RPL013" in out
    assert main(["lint", "--no-cache", "--select", "RPL013", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" not in out and "RPL013" in out
    assert main(["lint", "--no-cache", "--select", "RPL999", str(tmp_path)]) == 2
    assert "RPL999" in capsys.readouterr().err


def _git(repo, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def changed_repo(tmp_path):
    """A git repo whose ``pkg/`` holds one committed-and-unchanged, one
    tracked-and-modified and one untracked file, each importing pickle."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "old.py").write_text("import pickle\n")
    (pkg / "tracked.py").write_text("VALUE = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    (pkg / "tracked.py").write_text("import pickle\n")
    (pkg / "fresh.py").write_text("import pickle\n")
    return tmp_path


@pytest.mark.parametrize("where", ["root", "subdir", "absolute"])
def test_changed_since_from_any_directory(changed_repo, monkeypatch, capsys, where):
    cwd, target = {
        "root": (changed_repo, "pkg"),
        "subdir": (changed_repo / "pkg", "."),
        "absolute": (changed_repo / "pkg", str(changed_repo / "pkg")),
    }[where]
    monkeypatch.chdir(cwd)
    assert main(["lint", "--no-cache", "--changed-since", "HEAD", target]) == 1
    out = capsys.readouterr().out
    assert "tracked.py:1:" in out and "fresh.py:1:" in out
    assert "old.py" not in out
