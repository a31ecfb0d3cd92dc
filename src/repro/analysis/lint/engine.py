"""The reprolint engine: one parse per file feeds every rule.

A run has two stages:

1. **Per file** (:func:`analyze_source`): one ``ast.parse`` feeds both the
   lexical rules — a single walk maintains the lexical state they rely on
   (enclosing function/class stacks, ``with no_grad():`` depth) and
   dispatches each node to the rules subscribed to its type — and
   :func:`~repro.analysis.lint.graph.summary.summarize_module`, the
   function-summary extractor of the interprocedural rules.  The stage
   returns the module summary, the inline-suppression map and the raw
   lexical findings; the content-hash
   :class:`~repro.analysis.lint.graph.cache.SummaryCache` stores exactly
   that, so a warm run parses nothing.
2. **Per program** (:func:`run_lint`): one
   :class:`~repro.analysis.lint.graph.program.ProgramGraph` over every
   summary, the RPL011–RPL014 checkers over it, then rule selection and
   suppressions, applied once over all findings from the cached maps.

Exit-code contract (consumed by ``make verify`` and CI):

- **0** — clean (no findings),
- **1** — findings reported,
- **2** — internal error (bad rule selection, unreadable path, engine bug).

A *syntax error in a linted file* is a finding (``RPL000``), not an internal
error: a broken file in the tree is the tree's problem, and CI should report
it like any other violation instead of crashing.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.analysis.lint.context import DEFAULT_CONFIG, LintConfig, LintContext
from repro.analysis.lint.findings import PARSE_ERROR_CODE, Finding
from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.rules import GRAPH_CHECKERS
from repro.analysis.lint.graph.summary import summarize_module
from repro.analysis.lint.registry import all_rules, rules_for
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.suppressions import apply_suppressions, parse_suppressions

__all__ = [
    "LintReport",
    "analyze_source",
    "lint_source",
    "lint_file",
    "collect_files",
    "run_lint",
]

PathLike = Union[str, pathlib.Path]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: List[Finding]
    files_checked: int
    cache_hits: int
    cache_misses: int

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN


class _Walker:
    """Single-pass AST walker maintaining lexical state and dispatching rules."""

    def __init__(self, ctx: LintContext, dispatch: Dict[Type[ast.AST], List[Rule]]):
        self.ctx = ctx
        self.dispatch = dispatch

    def walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, ast.Call):
            ctx.call_func_ids.add(id(node.func))
        for rule in self.dispatch.get(type(node), ()):
            rule.check(node, ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            ctx.function_stack.append(node)
            self._walk_children(node)
            ctx.function_stack.pop()
        elif isinstance(node, ast.ClassDef):
            ctx.class_stack.append(node)
            self._walk_children(node)
            ctx.class_stack.pop()
        elif isinstance(node, (ast.With, ast.AsyncWith)) and self._is_no_grad(node):
            ctx.nograd_depth += 1
            self._walk_children(node)
            ctx.nograd_depth -= 1
        else:
            self._walk_children(node)

    def _walk_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.walk(child)

    def _is_no_grad(self, node: ast.AST) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id == "no_grad":
                    return True
                if isinstance(func, ast.Attribute) and func.attr == "no_grad":
                    return True
        return False


def _build_dispatch(rules: Sequence[Rule]) -> Dict[Type[ast.AST], List[Rule]]:
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    return dispatch


def analyze_source(source: str, path: str, config: LintConfig = DEFAULT_CONFIG) -> dict:
    """The per-file stage: parse ``source`` once, run every lexical rule and
    summarize the module.

    Returns the JSON-serializable ``{"summary", "suppressions", "findings"}``
    dict the cache stores.  The findings are neither selected nor
    suppressed; ``path`` drives the path policy.
    """
    norm = str(path).replace("\\", "/")
    try:
        tree = ast.parse(source, filename=norm)
    except SyntaxError as err:
        finding = Finding(
            path=norm,
            line=err.lineno or 0,
            col=err.offset or 0,
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {err.msg}",
            rule="parse-error",
        )
        return {
            "summary": {"error": finding.render()},
            "suppressions": {},
            "findings": [dataclasses.asdict(finding)],
        }
    ctx = LintContext(norm, tree, config)
    _Walker(ctx, _build_dispatch(all_rules())).walk(tree)
    return {
        "summary": summarize_module(tree, norm),
        # JSON object keys must be strings; ``apply_suppressions`` recognises
        # the "*" wildcard by membership, so it survives the round-trip.
        "suppressions": {
            str(line): sorted(codes) for line, codes in parse_suppressions(source).items()
        },
        "findings": [dataclasses.asdict(f) for f in ctx.findings],
    }


def _select_and_suppress(
    findings: List[Finding], results: Dict[str, dict], config: LintConfig
) -> List[Finding]:
    """Keep the selected codes (parse errors always), then drop findings an
    inline ``# reprolint: disable`` comment covers."""
    if config.select is not None:
        findings = [
            f for f in findings if f.code in config.select or f.code == PARSE_ERROR_CODE
        ]
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    for path, group in by_path.items():
        raw = results[path]["suppressions"]
        suppressed = {int(line): frozenset(codes) for line, codes in raw.items()}
        kept.extend(apply_suppressions(group, suppressed))
    return kept


def lint_source(
    source: str, path: str = "<string>", config: LintConfig = DEFAULT_CONFIG
) -> List[Finding]:
    """Lint one in-memory module with the lexical rules (the interprocedural
    rules need a whole tree: use :func:`run_lint`)."""
    rules_for(config.select)  # validate selection eagerly
    norm = str(path).replace("\\", "/")
    result = analyze_source(source, norm, config)
    findings = [Finding(**f) for f in result["findings"]]
    return _select_and_suppress(findings, {norm: result}, config)


def lint_file(path: PathLike, config: LintConfig = DEFAULT_CONFIG) -> List[Finding]:
    """Lint one file on disk (reported path is the path as given)."""
    p = pathlib.Path(path)
    source = p.read_text(encoding="utf-8")
    return lint_source(source, path=p.as_posix(), config=config)


def collect_files(paths: Sequence[PathLike]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, deduplicated list of ``.py`` files.

    Raises ``FileNotFoundError`` for a nonexistent input path (surfaced by the
    CLI as an internal error, exit 2 — a typo'd path must not report "clean").
    """
    out: List[pathlib.Path] = []
    seen = set()
    for path in paths:
        p = pathlib.Path(path)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if p.is_dir():
            candidates: Tuple[pathlib.Path, ...] = tuple(sorted(p.rglob("*.py")))
        else:
            candidates = (p,)
        for c in candidates:
            if any(part in _SKIP_DIRS for part in c.parts):
                continue
            key = c.resolve()
            if key in seen:
                continue
            seen.add(key)
            out.append(c)
    return out


def run_lint(
    paths: Sequence[PathLike],
    config: Optional[LintConfig] = None,
    cache_path: Optional[PathLike] = None,
) -> LintReport:
    """Run every selected rule over every Python file under ``paths``.

    ``cache_path`` of ``None`` disables the per-file cache (cold run);
    otherwise results for unchanged files are loaded from it and the file is
    refreshed at the end of the run.
    """
    config = config or DEFAULT_CONFIG
    rules_for(config.select)  # validate selection eagerly (ValueError → exit 2)
    files = collect_files(paths)
    policy = dataclasses.asdict(dataclasses.replace(config, select=None))
    cache = SummaryCache(
        pathlib.Path(cache_path) if cache_path else None,
        policy=json.dumps(policy, sort_keys=True),
    )

    def stage(source: str, norm: str) -> dict:
        return analyze_source(source, norm, config)

    results = {str(f).replace("\\", "/"): cache.analyze(f, stage) for f in files}
    cache.prune(results)
    cache.save()

    findings = [Finding(**f) for result in results.values() for f in result["findings"]]
    checkers = [
        checker
        for code, checker in GRAPH_CHECKERS
        if config.select is None or code in config.select
    ]
    if checkers:
        graph = ProgramGraph({path: result["summary"] for path, result in results.items()})
        for checker in checkers:
            findings.extend(checker(graph, config))
    return LintReport(
        findings=sorted(set(_select_and_suppress(findings, results, config))),
        files_checked=len(files),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
