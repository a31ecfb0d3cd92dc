"""Interprocedural analysis for reprolint.

Where the :mod:`repro.analysis.lint.rules` visitors are per-file and
lexical, this package reduces every linted module to a function summary,
stitches the summaries into one module/call graph with abstract dataflow,
and runs four rule families over it:

- **RPL011** determinism taint: an unseeded RNG value flowing (through
  calls, returns, and default arguments) into model/autograd/eval/serving
  entry points;
- **RPL012** dtype lattice: float64 values meeting float32 values at a call
  into the float32 fast path (the static twin of the runtime upcast
  sanitizer);
- **RPL013** async/lock discipline: blocking calls reachable from the
  serving layer's event-loop code (``async def`` handlers, protocol
  callbacks, ``call_soon`` targets) without an executor hop, and
  lock-owning classes written without their lock from handler-reachable
  code;
- **RPL014** funnel escape: call paths from models/eval/serving into raw
  kernel backends or the ``np.save`` family that bypass the
  dispatch/store/io funnels through helpers.

The summaries come from the lint engine's single per-file parse and are
cached with the lexical findings by file content hash (see
:mod:`~repro.analysis.lint.graph.cache`).  Entry point:
:func:`repro.analysis.lint.run_lint`; CLI: ``repro lint``.
"""

from repro.analysis.lint.graph.baseline import (
    BASELINE_SCHEMA_VERSION,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.rules import GRAPH_CODES
from repro.analysis.lint.graph.summary import SUMMARY_VERSION, summarize_module

__all__ = [
    "ProgramGraph",
    "SummaryCache",
    "SUMMARY_VERSION",
    "GRAPH_CODES",
    "BASELINE_SCHEMA_VERSION",
    "summarize_module",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
]
