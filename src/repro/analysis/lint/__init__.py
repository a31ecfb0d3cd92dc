"""reprolint — project-aware static analysis for the reproduction.

One engine, one parse per file.  The lexical rules are visitors over that
parse; the interprocedural rules run over a program graph built from the
per-module summaries extracted from the same parse:

- **RPL000** the file does not parse (a finding, not an internal error);
- **RPL001/RPL002** seeded randomness: no legacy global ``np.random`` state
  or unseeded generators; no hardcoded seeds inside functions;
- **RPL003** no wall-clock reads in result paths;
- **RPL004** explicit dtypes on the float32 fast path;
- **RPL005** pickle-free serialization;
- **RPL006** no mutable default arguments;
- **RPL007** tape-safe ``Tensor.data`` mutation;
- **RPL008** no ``np.add.at`` scatter in the gradient engine;
- **RPL009** raw numpy save/load only inside the persistence funnels;
- **RPL010** kernel consumers import ``repro.kernels.dispatch`` only;
- **RPL011** (graph) unseeded RNG values reaching determinism sinks;
- **RPL012** (graph) float64/float32 mixing at fast-path calls;
- **RPL013** (graph) blocking work or unlocked writes reachable from
  ``async def`` serving handlers;
- **RPL014** (graph) call paths escaping the kernel/persistence funnels
  through helpers;
- **RPL015** optimizers are driven by the training engine, not model code.

:func:`run_lint` caches each file's parse results (module summary,
suppression map, lexical findings) by content hash, so a warm run parses
nothing.  See DESIGN.md §8 and §12 for the rationale behind each rule and
README for CLI usage (``repro lint``).

Suppress a finding inline with ``# reprolint: disable=RPL00x`` on its line.
"""

from repro.analysis.lint.context import DEFAULT_CONFIG, LintConfig
from repro.analysis.lint.engine import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    LintReport,
    collect_files,
    lint_file,
    lint_source,
    run_lint,
)
from repro.analysis.lint.findings import (
    SCHEMA_VERSION,
    Finding,
    render_json,
    render_text,
    summarize,
)
from repro.analysis.lint.registry import all_rules, known_codes, register
from repro.analysis.lint.rules.base import Rule

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "LintReport",
    "Finding",
    "Rule",
    "register",
    "all_rules",
    "known_codes",
    "lint_source",
    "lint_file",
    "collect_files",
    "run_lint",
    "render_text",
    "render_json",
    "summarize",
    "SCHEMA_VERSION",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL_ERROR",
]
