"""Interprocedural lint tests: fixture packages with ``# expect:`` markers
pin each RPL011–RPL014 finding to an exact location, clean twins must stay
silent, suppressions work for every graph code, the per-file cache hits warm
(lexical findings included), invalidates on change and never serves results
computed under another path policy, and the baseline ratchet absorbs known
findings while failing new ones."""

import ast
import dataclasses
import json
import pathlib
import re
import shutil

import pytest

from repro.analysis.lint import LintConfig, run_lint
from repro.analysis.lint.graph import (
    GRAPH_CODES,
    apply_baseline,
    load_baseline,
    summarize_module,
    write_baseline,
)
from repro.analysis.lint.graph.program import ProgramGraph
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "graph"
PROJ = FIXTURES / "proj"

#: Path/module policy matching the fixture package instead of src/repro,
#: restricted to the graph rules (the fixtures are not lexically clean).
FIXTURE_CONFIG = LintConfig(
    select=GRAPH_CODES,
    exempt_paths=(),
    taint_sink_paths=("models/", "serving/", "eval/"),
    dtype_sink_paths=("models/",),
    async_paths=("serving/",),
    kernel_consumer_paths=("models/", "eval/", "serving/"),
    funnel_modules=("proj.kernels.dispatch",),
    kernel_backend_modules=("proj.kernels.backend",),
)

_EXPECT = re.compile(r"#\s*expect:\s*(RPL\d+)")
_DISABLE = re.compile(r"#\s*reprolint:\s*disable=(RPL\d+)")


def _markers(root, pattern=_EXPECT):
    out = set()
    for p in sorted(pathlib.Path(root).rglob("*.py")):
        for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            m = pattern.search(line)
            if m:
                out.add((str(p).replace("\\", "/"), i, m.group(1)))
    return out


def _run(root=PROJ, cache=None, select=None):
    config = FIXTURE_CONFIG
    if select is not None:
        config = dataclasses.replace(config, select=frozenset(select))
    return run_lint([root], config=config, cache_path=cache)


# -------------------------------------------------------------- exact firing
def test_fixture_findings_match_expect_markers_exactly():
    rep = _run()
    got = {(f.path, f.line, f.code) for f in rep.findings}
    assert got == _markers(PROJ)


@pytest.mark.parametrize("code", sorted(["RPL011", "RPL012", "RPL013", "RPL014"]))
def test_each_rule_has_true_positive_fixture(code):
    rep = _run(select={code})
    got = {(f.path, f.line, f.code) for f in rep.findings}
    expected = {m for m in _markers(PROJ) if m[2] == code}
    assert expected, f"fixture tree has no {code} marker"
    assert got == expected


def test_clean_twins_stay_silent():
    rep = _run()
    reported_lines = {(f.path, f.line) for f in rep.findings}
    # Seeded / uniform / funneled twins sit in the same files; every finding
    # must be on a marked line, so twins are provably silent.
    for path, line, _ in {(f.path, f.line, f.code) for f in rep.findings}:
        assert (path, line) in {(m[0], m[1]) for m in _markers(PROJ)}
    assert len(reported_lines) == len(_markers(PROJ))


def test_findings_sorted_and_carry_end_col():
    rep = _run()
    assert rep.findings == sorted(rep.findings)
    assert all(f.end_col > f.col for f in rep.findings)


# -------------------------------------------------------------- suppressions
def test_suppression_escape_hatch_works_for_every_graph_code(tmp_path):
    """Each fixture carries a suppressed twin per code; stripping the
    disable comments must make those exact lines fire."""
    suppressed = _markers(PROJ, _DISABLE)
    assert {m[2] for m in suppressed} == GRAPH_CODES
    rep = _run()
    reported = {(f.path, f.line) for f in rep.findings}
    for path, line, _ in suppressed:
        assert (path, line) not in reported

    stripped = tmp_path / "proj"
    shutil.copytree(PROJ, stripped)
    for p in stripped.rglob("*.py"):
        p.write_text(
            re.sub(r"\s*# reprolint: disable=RPL\d+", "", p.read_text(encoding="utf-8")),
            encoding="utf-8",
        )
    rep2 = _run(root=stripped)
    reported2 = {(f.path, f.line, f.code) for f in rep2.findings}
    for path, line, code in suppressed:
        moved = (str(stripped / pathlib.Path(path).relative_to(PROJ)).replace("\\", "/"), line, code)
        assert moved in reported2, f"stripping the disable did not surface {moved}"


# -------------------------------------------------------------------- cache
def test_warm_run_hits_cache_and_agrees(tmp_path):
    cache = tmp_path / "cache.json"
    cold = _run(cache=cache)
    warm = _run(cache=cache)
    assert cold.cache_misses == cold.files_checked and cold.cache_hits == 0
    assert warm.cache_hits == warm.files_checked and warm.cache_misses == 0
    assert warm.findings == cold.findings


def test_cache_invalidates_only_changed_files(tmp_path):
    tree = tmp_path / "proj"
    shutil.copytree(PROJ, tree)
    cache = tmp_path / "cache.json"
    _run(root=tree, cache=cache)
    target = tree / "models" / "net.py"
    target.write_text(
        target.read_text(encoding="utf-8") + "\n\nEXTRA = 1\n", encoding="utf-8"
    )
    rep = _run(root=tree, cache=cache)
    assert rep.cache_misses == 1
    assert rep.cache_hits == rep.files_checked - 1


def test_edited_rules_discard_the_cache(tmp_path, monkeypatch):
    from repro.analysis.lint.graph import cache as cache_mod

    cache = tmp_path / "cache.json"
    _run(cache=cache)
    monkeypatch.setattr(cache_mod, "_engine_version", lambda: "edited-rules")
    rep = _run(cache=cache)
    assert rep.cache_hits == 0 and rep.cache_misses == rep.files_checked


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    cache = tmp_path / "cache.json"
    cache.write_text("{not json", encoding="utf-8")
    rep = _run(cache=cache)
    assert rep.cache_misses == rep.files_checked
    # and the run repaired the cache for next time
    assert json.loads(cache.read_text(encoding="utf-8"))["entries"]


#: Fixture policy with every rule on: the tree has lexical and graph findings.
ALL_RULES_CONFIG = dataclasses.replace(FIXTURE_CONFIG, select=None)


def test_warm_run_caches_lexical_and_graph_findings(tmp_path):
    cache = tmp_path / "cache.json"
    cold = run_lint([PROJ], config=ALL_RULES_CONFIG)
    assert {f.code for f in cold.findings} & GRAPH_CODES
    assert {f.code for f in cold.findings} - GRAPH_CODES
    run_lint([PROJ], config=ALL_RULES_CONFIG, cache_path=cache)
    warm = run_lint([PROJ], config=ALL_RULES_CONFIG, cache_path=cache)
    assert warm.cache_misses == 0 and warm.cache_hits == warm.files_checked
    assert warm.findings == cold.findings


def test_cache_never_serves_another_path_policy(tmp_path):
    cache = tmp_path / "cache.json"
    shipped = run_lint([PROJ], cache_path=cache)
    assert shipped.findings == []  # the default policy exempts fixtures/
    cold = run_lint([PROJ], config=ALL_RULES_CONFIG)
    warm = run_lint([PROJ], config=ALL_RULES_CONFIG, cache_path=cache)
    assert warm.cache_misses == warm.files_checked
    assert warm.findings == cold.findings != []


def test_select_on_warm_cache_equals_cold_selected_run(tmp_path):
    cache = tmp_path / "cache.json"
    run_lint([PROJ], config=ALL_RULES_CONFIG, cache_path=cache)
    for select in ({"RPL009"}, {"RPL001", "RPL013"}, {"RPL014"}):
        config = dataclasses.replace(ALL_RULES_CONFIG, select=frozenset(select))
        cold = run_lint([PROJ], config=config)
        warm = run_lint([PROJ], config=config, cache_path=cache)
        assert warm.cache_misses == 0
        assert warm.findings == cold.findings
        assert {f.code for f in cold.findings} == select


# ------------------------------------------------------------------ baseline
def test_baseline_absorbs_known_findings_and_reports_stale(tmp_path):
    rep = _run()
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, rep.findings)
    entries = load_baseline(baseline)
    new, matched, stale = apply_baseline(rep.findings, entries)
    assert new == [] and matched == len(rep.findings) and stale == []

    # A finding missing from the baseline fails the run.
    new2, _, _ = apply_baseline(rep.findings, entries[1:])
    assert len(new2) == 1

    # A fixed finding leaves its entry stale (reported, not failing).
    new3, matched3, stale3 = apply_baseline(rep.findings[1:], entries)
    assert new3 == [] and matched3 == len(rep.findings) - 1 and len(stale3) == 1


def test_malformed_baseline_fails_loudly(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(bad)
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(bad)


# ------------------------------------------------------------------- engine
def test_unknown_graph_select_raises():
    with pytest.raises(ValueError):
        _run(select={"RPL999"})


def test_module_naming_walks_up_through_init_files():
    summaries = {
        str(p).replace("\\", "/"): summarize_module(
            ast.parse(p.read_text(encoding="utf-8")), str(p)
        )
        for p in sorted(PROJ.rglob("*.py"))
    }
    graph = ProgramGraph(summaries)
    net = str(PROJ / "models" / "net.py").replace("\\", "/")
    assert graph.module_name(net) == "proj.models.net"
    assert "proj.models.net.fit" in graph.functions
    assert "proj.serving.app.Counter" in graph.classes
    assert graph.classes["proj.serving.app.Counter"]["lock_attrs"] == ["_lock"]


def test_summary_is_json_roundtrippable():
    source = (PROJ / "serving" / "app.py").read_text(encoding="utf-8")
    summary = summarize_module(ast.parse(source), "proj/serving/app.py")
    assert json.loads(json.dumps(summary)) == summary
    handler = summary["functions"]["handler"]
    assert handler["async"] is True
    hop_calls = [c for c in summary["functions"]["handler_ok"]["calls"] if c.get("hop")]
    assert hop_calls, "asyncio.to_thread call not marked as executor hop"


# ------------------------------------------------------------------- CLI
def test_cli_fixture_tree_clean_under_default_policy(capsys):
    code = main(["lint", "--no-cache", str(PROJ)])
    out = capsys.readouterr().out
    # Default config exempts fixtures/ paths: the fixture tree is clean under
    # the shipped policy (that's what keeps `make lint` quiet), exit 0.
    assert code == 0
    assert "clean" in out


def test_cli_graph_on_src_tree_is_clean(capsys):
    select = ",".join(sorted(GRAPH_CODES))
    assert main(["lint", "--no-cache", "--select", select, str(REPO_ROOT / "src")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_baseline_ratchet_roundtrip(tmp_path, capsys):
    # A blocking sleep under serving/ that the default policy does flag.
    tree = tmp_path / "mini" / "serving"
    tree.mkdir(parents=True)
    (tmp_path / "mini" / "__init__.py").write_text("", encoding="utf-8")
    (tree / "__init__.py").write_text("", encoding="utf-8")
    (tree / "app.py").write_text(
        "import time\n\n\nasync def handler():\n    time.sleep(1)\n",
        encoding="utf-8",
    )
    baseline = tmp_path / "baseline.json"
    assert main(["lint", "--no-cache", str(tmp_path / "mini")]) == 1
    assert "RPL013" in capsys.readouterr().out

    assert (
        main(
            [
                "lint",
                "--no-cache",
                "--write-baseline",
                str(baseline),
                str(tmp_path / "mini"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert load_baseline(baseline)

    assert (
        main(
            [
                "lint",
                "--no-cache",
                "--baseline",
                str(baseline),
                str(tmp_path / "mini"),
            ]
        )
        == 0
    )
    assert "clean" in capsys.readouterr().out

    # Fix the finding: the baseline entry goes stale but does not fail.
    (tree / "app.py").write_text(
        "import asyncio\n\n\nasync def handler():\n    await asyncio.sleep(1)\n",
        encoding="utf-8",
    )
    assert (
        main(
            [
                "lint",
                "--no-cache",
                "--baseline",
                str(baseline),
                str(tmp_path / "mini"),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "no longer matches" in captured.err
