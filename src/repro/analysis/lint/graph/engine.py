"""Graph-lint driver: summarize (with cache) -> build graph -> run rules.

:func:`run_graph_lint` is the programmatic entry point behind
``repro lint --graph``.  One run:

1. collects files exactly like the lexical engine (same skip dirs, same
   ordering guarantees);
2. obtains a summary per file through the content-hash
   :class:`~repro.analysis.lint.graph.cache.SummaryCache` — warm runs skip
   parsing entirely for unchanged files, which is what makes incremental
   graph lint cheap enough for ``make lint-changed``;
3. builds one :class:`~repro.analysis.lint.graph.program.ProgramGraph` and
   runs the RPL011–RPL014 checkers over it;
4. applies the same inline-suppression comments as the lexical engine
   (``# reprolint: disable=RPL013``), using the suppression maps captured in
   the summaries so no re-tokenization is needed on warm runs.

Selection (`select={"RPL013"}`), path policy, and analysis depth live in
:class:`GraphConfig`; baselines are applied by the caller (the CLI) so the
report always carries the raw findings.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.analysis.lint.engine import collect_files
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.rules import GRAPH_CHECKERS
from repro.analysis.lint.suppressions import apply_suppressions

__all__ = [
    "GraphConfig",
    "DEFAULT_GRAPH_CONFIG",
    "GraphLintReport",
    "graph_codes",
    "run_graph_lint",
]

PathLike = Union[str, pathlib.Path]


def graph_codes() -> FrozenSet[str]:
    """The rule codes implemented by the graph engine."""
    return frozenset(code for code, _ in GRAPH_CHECKERS)


@dataclasses.dataclass(frozen=True)
class GraphConfig:
    """Path policy and tuning for one graph-lint run.

    Path fields are substring matches against posix-normalized file paths
    (same convention as the lexical :class:`LintConfig`); module fields are
    dotted-module prefixes.
    """

    select: Optional[FrozenSet[str]] = None
    """Graph rule codes to run; ``None`` runs all of RPL011–RPL014."""

    exempt_paths: Tuple[str, ...] = ("tests/", "fixtures/", "conftest")
    """Call sites in these files are never reported (test code may seed or
    block however it likes)."""

    taint_sink_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/", "serving/")
    """RPL011: functions defined here are determinism-sensitive sinks — an
    unseeded RNG argument reaching them is a violation."""

    dtype_sink_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/", "kernels/dispatch")
    """RPL012: calls into functions defined here are checked for mixed
    float64/float32 arguments."""

    async_paths: Tuple[str, ...] = ("serving/",)
    """RPL013: ``async def`` functions here are handlers; blocking work they
    reach is reported at the last call site inside these paths."""

    funnel_consumer_paths: Tuple[str, ...] = ("models/", "eval/", "serving/")
    """RPL014: layers that must stay behind the funnels."""

    funnel_modules: Tuple[str, ...] = ("repro.io", "repro.store", "repro.kernels.dispatch")
    """RPL014: sanctioned funnel modules — escape propagation stops here."""

    kernel_backend_modules: Tuple[str, ...] = ("repro.kernels.numpy_backend",)
    """RPL014: raw kernel implementations (calling these directly bypasses
    the oracle fallback and the sanitizer/profiler instrumentation)."""

    max_depth: int = 8
    """Bound on interprocedural evaluation and taint-propagation depth."""


DEFAULT_GRAPH_CONFIG = GraphConfig()


@dataclasses.dataclass
class GraphLintReport:
    """Outcome of one graph-lint run."""

    findings: List[Finding]
    files_checked: int
    cache_hits: int
    cache_misses: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _validate_select(select: Optional[FrozenSet[str]]) -> None:
    if select is None:
        return
    unknown = set(select) - set(graph_codes())
    if unknown:
        raise ValueError(
            f"unknown graph rule code(s): {', '.join(sorted(unknown))} "
            f"(graph rules: {', '.join(sorted(graph_codes()))})"
        )


def run_graph_lint(
    paths: Sequence[PathLike],
    config: GraphConfig = DEFAULT_GRAPH_CONFIG,
    cache_path: Optional[PathLike] = None,
) -> GraphLintReport:
    """Run the interprocedural rules over every ``.py`` file under ``paths``.

    ``cache_path`` of ``None`` disables the summary cache (cold run);
    otherwise summaries for unchanged files are loaded from it and the file
    is refreshed at the end of the run.
    """
    _validate_select(config.select)
    files = collect_files(paths)
    cache = SummaryCache(pathlib.Path(cache_path) if cache_path else None)
    summaries: Dict[str, dict] = {}
    for f in files:
        summary, _ = cache.summarize(f)
        summaries[str(f).replace("\\", "/")] = summary
    cache.prune(summaries.keys())
    cache.save()

    graph = ProgramGraph(summaries)
    findings: List[Finding] = []
    for code, checker in GRAPH_CHECKERS:
        if config.select is not None and code not in config.select:
            continue
        findings.extend(checker(graph, config))

    findings = _apply_file_suppressions(findings, summaries)
    findings = sorted(set(findings))
    return GraphLintReport(
        findings=findings,
        files_checked=len(files),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def _apply_file_suppressions(
    findings: List[Finding], summaries: Dict[str, dict]
) -> List[Finding]:
    """Honor ``# reprolint: disable=...`` comments using the cached
    suppression maps (no re-tokenization on warm runs)."""
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    for path, group in by_path.items():
        raw = summaries.get(path, {}).get("suppressions", {})
        suppressed = {int(line): frozenset(codes) for line, codes in raw.items()}
        kept.extend(apply_suppressions(group, suppressed))
    return kept
