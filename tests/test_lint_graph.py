"""Interprocedural lint tests: a fixture package with ``# expect:`` markers
pins each RPL013 finding to an exact location, clean twins must stay
silent, suppressions work for every graph code, the per-file cache hits warm
(lexical findings included), invalidates on change and never serves results
computed under another path policy, and RPL013 flags a blocking call
planted in a copy of the real server."""

import ast
import dataclasses
import json
import pathlib
import re
import shutil

import pytest

from repro.analysis.lint import LintConfig, run_lint
from repro.analysis.lint.context import collect_aliases
from repro.analysis.lint.graph import GRAPH_CODES, summarize_module
from repro.analysis.lint.graph.program import ProgramGraph
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "graph"
PROJ = FIXTURES / "proj"

#: Path policy for the fixture package, restricted to the graph rule (the
#: fixtures are not lexically clean).
FIXTURE_CONFIG = LintConfig(select=GRAPH_CODES, exempt_paths=())

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


@pytest.mark.parametrize("code", sorted(GRAPH_CODES))
def test_each_rule_has_true_positive_fixture(code):
    rep = _run(select={code})
    got = {(f.path, f.line, f.code) for f in rep.findings}
    expected = {m for m in _markers(PROJ) if m[2] == code}
    assert expected, f"fixture tree has no {code} marker"
    assert got == expected


def test_clean_twins_stay_silent():
    rep = _run()
    reported_lines = {(f.path, f.line) for f in rep.findings}
    # Locked / buffered / executor-hop twins sit in the same files; every finding
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
    for select in ({"RPL009"}, {"RPL001", "RPL013"}, {"RPL013"}):
        config = dataclasses.replace(ALL_RULES_CONFIG, select=frozenset(select))
        cold = run_lint([PROJ], config=config)
        warm = run_lint([PROJ], config=config, cache_path=cache)
        assert warm.cache_misses == 0
        assert warm.findings == cold.findings
        assert {f.code for f in cold.findings} == select


# ------------------------------------------------------------------- engine
def test_unknown_graph_select_raises():
    with pytest.raises(ValueError):
        _run(select={"RPL999"})


def test_module_naming_walks_up_through_init_files():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PROJ.rglob("*.py"))}
    summaries = {
        str(p).replace("\\", "/"): summarize_module(tree, str(p), collect_aliases(tree))
        for p, tree in trees.items()
    }
    graph = ProgramGraph(summaries)
    net = str(PROJ / "models" / "net.py").replace("\\", "/")
    assert graph.module_name(net) == "proj.models.net"
    assert "proj.models.net.fit" in graph.functions
    assert "proj.serving.app.Counter" in graph.classes
    assert graph.classes["proj.serving.app.Counter"]["lock_attrs"] == ["_lock"]


def test_summary_is_json_roundtrippable():
    tree = ast.parse((PROJ / "serving" / "app.py").read_text(encoding="utf-8"))
    summary = summarize_module(tree, "proj/serving/app.py", collect_aliases(tree))
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


# ------------------------------------------------ RPL013 on the real server
@pytest.mark.parametrize(
    "anchor",
    [
        # An asyncio.Protocol callback: every request starts here.
        "    def data_received(self, data: bytes) -> None:\n",
        # A loop.call_soon target: every /recommend batch is scored here.
        "    def _flush(self) -> None:\n",
    ],
    ids=["protocol_callback", "call_soon_target"],
)
def test_rpl013_flags_sleep_planted_in_server_loop_callback(tmp_path, anchor):
    """A ``time.sleep`` in a sync function the event loop runs is flagged.

    The serving package is copied and the sleep planted at the first line
    of the method's body; the rest of the copy is the shipped code.
    """
    pkg = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro" / "serving", pkg / "serving")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    server = pkg / "serving" / "server.py"
    source = server.read_text(encoding="utf-8")
    body = source.index(anchor) + len(anchor)
    if source[body:].lstrip().startswith('"""'):  # plant after the docstring
        opening = source.index('"""', body)
        body = source.index("\n", source.index('"""', opening + 3)) + 1
    planted = source[:body] + "        time.sleep(0.01)\n" + source[body:]
    server.write_text(planted, encoding="utf-8")
    line = planted[:body].count("\n") + 1

    report = run_lint([pkg], config=LintConfig(), cache_path=None)
    hits = {(pathlib.Path(f.path).name, f.line) for f in report.findings if f.code == "RPL013"}
    assert ("server.py", line) in hits
