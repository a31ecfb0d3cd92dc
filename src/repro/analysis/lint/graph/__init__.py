"""Interprocedural analysis for reprolint.

Where the :mod:`repro.analysis.lint.rules` visitors are per-file and
lexical, this package reduces every linted module to a function summary,
stitches the summaries into one module/call graph, and runs the one rule
that needs it:

- **RPL013** async/lock discipline: blocking calls reachable from the
  serving layer's event-loop code (``async def`` handlers, protocol
  callbacks, ``call_soon`` targets) without an executor hop, and
  lock-owning classes written without their lock from handler-reachable
  code.

The summaries come from the lint engine's single per-file parse and are
cached with the lexical findings by file content hash (see
:mod:`~repro.analysis.lint.graph.cache`).  Entry point:
:func:`repro.analysis.lint.run_lint`; CLI: ``repro lint``.
"""

from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.rules import GRAPH_CODES
from repro.analysis.lint.graph.summary import SUMMARY_VERSION, summarize_module

__all__ = [
    "ProgramGraph",
    "SummaryCache",
    "SUMMARY_VERSION",
    "GRAPH_CODES",
    "summarize_module",
]
