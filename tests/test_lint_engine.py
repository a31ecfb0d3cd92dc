"""Engine-level reprolint tests: suppressions, JSON schema stability, rule
selection, parse-error handling, and file discovery."""

import json

import pytest

from repro.analysis.lint import (
    SCHEMA_VERSION,
    Finding,
    LintConfig,
    collect_files,
    known_codes,
    lint_source,
    render_json,
    render_text,
    run_lint,
    summarize,
)
from repro.analysis.lint.findings import PARSE_ERROR_CODE
from repro.analysis.lint.registry import all_rules, rules_for

STRICT = LintConfig(exempt_paths=())
MODEL_PATH = "src/repro/models/mod.py"

BAD_LINE = "import numpy as np\nx = np.random.rand(3)\n"


# -------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_matching_code_suppressed(self):
        src = "import numpy as np\nx = np.random.rand(3)  # reprolint: disable=RPL001\n"
        assert lint_source(src, path=MODEL_PATH, config=STRICT) == []

    def test_non_matching_code_kept(self):
        src = "import numpy as np\nx = np.random.rand(3)  # reprolint: disable=RPL005\n"
        assert [f.code for f in lint_source(src, path=MODEL_PATH, config=STRICT)] == ["RPL001"]

    def test_bare_disable_suppresses_everything(self):
        src = "import numpy as np\nx = np.zeros(3), np.random.rand(3)  # reprolint: disable\n"
        assert lint_source(src, path=MODEL_PATH, config=STRICT) == []

    def test_multiple_codes_one_comment(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros(3), np.random.rand(3)  # reprolint: disable=RPL001,RPL004\n"
        )
        assert lint_source(src, path=MODEL_PATH, config=STRICT) == []

    def test_suppression_is_line_scoped(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # reprolint: disable=RPL001\n"
            "y = np.random.rand(3)\n"
        )
        findings = lint_source(src, path=MODEL_PATH, config=STRICT)
        assert [(f.code, f.line) for f in findings] == [("RPL001", 3)]

    def test_marker_inside_string_not_a_suppression(self):
        src = (
            "import numpy as np\n"
            'doc = "# reprolint: disable=RPL001"\n'
            "x = np.random.rand(3)\n"
        )
        assert [f.code for f in lint_source(src, path=MODEL_PATH, config=STRICT)] == ["RPL001"]


# --------------------------------------------------------------- JSON schema
class TestJsonSchema:
    def test_document_shape_is_stable(self):
        findings = lint_source(BAD_LINE, path=MODEL_PATH, config=STRICT)
        doc = json.loads(render_json(findings, files_checked=1))
        assert list(doc) == ["schema_version", "tool", "files_checked", "findings", "summary"]
        assert doc["schema_version"] == SCHEMA_VERSION == 2
        assert doc["tool"] == "reprolint"
        assert doc["files_checked"] == 1
        assert doc["summary"] == {"total": 1, "by_code": {"RPL001": 1}}
        (entry,) = doc["findings"]
        assert list(entry) == ["code", "rule", "path", "line", "col", "end_col", "message"]
        assert entry["end_col"] > entry["col"]
        assert entry["code"] == "RPL001"
        assert entry["path"] == MODEL_PATH
        assert entry["line"] == 2

    def test_clean_document(self):
        doc = json.loads(render_json([], files_checked=4))
        assert doc["findings"] == []
        assert doc["summary"] == {"total": 0, "by_code": {}}

    def test_text_rendering(self):
        findings = lint_source(BAD_LINE, path=MODEL_PATH, config=STRICT)
        text = render_text(findings, files_checked=1)
        assert f"{MODEL_PATH}:2:" in text
        assert "RPL001" in text
        assert render_text([], files_checked=3).startswith("clean: 0 findings")


# ----------------------------------------------------------------- selection
class TestSelection:
    def test_select_restricts_rules(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n), np.random.rand(n)\n"
        config = LintConfig(select=frozenset({"RPL004"}), exempt_paths=())
        assert [f.code for f in lint_source(src, path=MODEL_PATH, config=config)] == ["RPL004"]

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="RPL999"):
            rules_for(frozenset({"RPL999"}))

    def test_known_codes_cover_rule_set(self):
        # One registry: lexical visitors and graph checkers validate together.
        assert set(known_codes()) == {f"RPL{i:03d}" for i in range(1, 16)}
        assert rules_for(frozenset({"RPL013"})) == []

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.code.startswith("RPL")
            assert rule.name
            assert len(rule.description) > 20


# --------------------------------------------------------------- parse error
def test_syntax_error_is_rpl000_finding():
    findings = lint_source("def broken(:\n", path=MODEL_PATH, config=STRICT)
    assert [f.code for f in findings] == [PARSE_ERROR_CODE]
    assert findings[0].rule == "parse-error"
    assert "does not parse" in findings[0].message


# ------------------------------------------------------------ file discovery
class TestCollectFiles:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nope"])

    def test_directories_expanded_and_deduplicated(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (sub / "notes.txt").write_text("not python\n")
        files = collect_files([tmp_path, tmp_path / "a.py"])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_cache_dirs_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        assert [f.name for f in collect_files([tmp_path])] == ["real.py"]


# -------------------------------------------------------------------- reports
def test_run_lint_aggregates_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("import pickle\n")
    (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n")
    report = run_lint([tmp_path])
    assert report.files_checked == 2
    assert [f.code for f in report.findings] == ["RPL006", "RPL005"]  # sorted by path
    assert report.exit_code == 1
    assert summarize(report.findings) == {"RPL005": 1, "RPL006": 1}


def test_clean_report_exit_code(tmp_path):
    (tmp_path / "ok.py").write_text("VALUE = 1\n")
    report = run_lint([tmp_path])
    assert report.findings == []
    assert report.exit_code == 0


def test_findings_order_stable():
    a = Finding(path="a.py", line=3, col=0, code="RPL004", message="m", rule="r")
    b = Finding(path="a.py", line=1, col=0, code="RPL001", message="m", rule="r")
    assert sorted([a, b]) == [b, a]


def test_findings_sorted_by_rule_not_by_end_col():
    # end_col is informational: two findings at one location sort by code
    # even when their end columns disagree with that order.
    a = Finding(path="a.py", line=1, col=0, code="RPL004", message="m", rule="r", end_col=2)
    b = Finding(path="a.py", line=1, col=0, code="RPL001", message="m", rule="r", end_col=9)
    assert sorted([a, b]) == [b, a]
