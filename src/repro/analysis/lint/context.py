"""Per-file lint state shared by all rules.

:class:`LintContext` carries everything a rule may consult while the engine
walks one module's AST:

- the (posix-normalized) file path and the :class:`LintConfig` path policy;
- an import-alias table mapping local names to dotted module paths, so rules
  match **fully-qualified** targets (``numpy.random.default_rng``,
  ``time.time``) regardless of how the file spelled the import;
- the lexical stacks the engine maintains during the walk (enclosing
  functions/classes, ``with no_grad():`` nesting depth);
- the findings accumulator.

Rules never inspect raw import statements themselves — they call
:meth:`LintContext.qualname` and compare against dotted names.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.lint.findings import Finding

__all__ = ["LintConfig", "LintContext", "DEFAULT_CONFIG", "collect_aliases", "resolve_qualname"]


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Path policy and rule selection for one lint run (lexical and graph
    rules alike).

    ``*_paths`` fields are substring matches against the posix-normalized
    file path; ``*_modules`` fields are dotted-module prefixes.  An empty
    tuple disables the corresponding gate.
    """

    select: Optional[FrozenSet[str]] = None
    """Rule codes to run; ``None`` runs every rule.  Applied after the
    per-file cache, so it is not part of the cache key."""

    exempt_paths: Tuple[str, ...] = ("tests/", "fixtures/", "conftest")
    """Test and fixture code, which may pin seeds, use throwaway generators
    or block freely: the randomness and funnel rules skip these files, and
    graph findings are never reported at call sites inside them."""

    dtype_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/")
    """Paths on the float32-sensitive fast path where RPL004 requires every
    array-creating call to pass an explicit ``dtype``."""

    wallclock_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/")
    """Paths feeding reported results, where RPL003 forbids wall-clock reads
    (``time.perf_counter`` for duration telemetry remains allowed)."""

    scatter_paths: Tuple[str, ...] = ("autograd/",)
    """Paths inside the gradient engine, where RPL008 flags ``np.add.at``:
    every scatter-add there targets a parameter-shaped buffer by
    construction, and should emit a
    :class:`~repro.autograd.sparse.SparseRowGrad` instead."""

    persistence_paths: Tuple[str, ...] = ("repro/io/", "repro/store/")
    """The sanctioned persistence funnels: only here may code call the raw
    numpy save/load entry points (RPL009).  Everything else goes through
    :mod:`repro.io` checkpoints or :mod:`repro.store` artifacts, which own
    atomic writes, ``allow_pickle=False`` and verification."""

    optimizer_funnel_paths: Tuple[str, ...] = ("models/",)
    """Model code, where RPL015 forbids constructing or driving optimizers:
    parameter updates flow through the :mod:`repro.train` engine (which owns
    step scheduling and checkpointed optimizer state); auxiliary phases use
    the engine's step callable."""

    kernel_consumer_paths: Tuple[str, ...] = ("models/", "eval/", "serving/")
    """Layers that must stay behind the kernel/persistence funnels.  RPL010
    requires every ``repro.kernels`` import here to name ``dispatch`` — the
    oracle fallback and the sanitizer/profiler instrumentation live there,
    and raw backend imports silently bypass both (``serving/`` scores every
    request through the same funnel, so its ranking stays bit-identical to
    offline evaluation).  RPL014 follows call paths out of these layers
    into raw backends or the ``np.save`` family through helpers."""

    taint_sink_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/", "serving/")
    """RPL011: functions defined here are determinism-sensitive sinks — an
    unseeded RNG argument reaching them is a violation."""

    dtype_sink_paths: Tuple[str, ...] = ("models/", "autograd/", "eval/", "kernels/dispatch")
    """RPL012: calls into functions defined here are checked for mixed
    float64/float32 arguments."""

    async_paths: Tuple[str, ...] = ("serving/",)
    """RPL013: ``async def`` functions here are handlers; blocking work they
    reach is reported at the last call site inside these paths."""

    funnel_modules: Tuple[str, ...] = ("repro.io", "repro.store", "repro.kernels.dispatch")
    """RPL014: sanctioned funnel modules (dotted prefixes) — escape
    propagation stops here."""

    kernel_backend_modules: Tuple[str, ...] = ("repro.kernels.numpy_backend",)
    """RPL014: raw kernel implementations (dotted prefixes); calling these
    directly bypasses the oracle fallback and the instrumentation."""


DEFAULT_CONFIG = LintConfig()


def _matches(path: str, needles: Tuple[str, ...]) -> bool:
    return any(n in path for n in needles)


class LintContext:
    """Mutable per-file state handed to every rule invocation."""

    def __init__(self, path: str, tree: ast.AST, config: LintConfig = DEFAULT_CONFIG):
        self.path = path.replace("\\", "/")
        self.config = config
        self.findings: List[Finding] = []
        #: lexical stacks, maintained by the engine's walker
        self.function_stack: List[ast.AST] = []
        self.class_stack: List[ast.ClassDef] = []
        self.nograd_depth: int = 0
        #: ids of Call.func nodes, so attribute rules can skip expressions
        #: already examined as call targets (avoids double reports).
        self.call_func_ids: Set[int] = set()
        self.aliases = collect_aliases(tree)

    # ----------------------------------------------------------- path policy
    @property
    def in_exempt_path(self) -> bool:
        return _matches(self.path, self.config.exempt_paths)

    @property
    def in_dtype_path(self) -> bool:
        return _matches(self.path, self.config.dtype_paths)

    @property
    def in_wallclock_path(self) -> bool:
        return _matches(self.path, self.config.wallclock_paths)

    @property
    def in_scatter_path(self) -> bool:
        return _matches(self.path, self.config.scatter_paths)

    @property
    def in_persistence_path(self) -> bool:
        return _matches(self.path, self.config.persistence_paths)

    @property
    def in_kernel_consumer_path(self) -> bool:
        return _matches(self.path, self.config.kernel_consumer_paths)

    @property
    def in_optimizer_funnel_path(self) -> bool:
        return _matches(self.path, self.config.optimizer_funnel_paths)

    # -------------------------------------------------------------- lexical
    @property
    def enclosing_function(self) -> Optional[ast.AST]:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def in_no_grad(self) -> bool:
        return self.nograd_depth > 0

    def in_init_method(self) -> bool:
        """True when the innermost enclosing function is ``__init__`` of a class."""
        fn = self.enclosing_function
        return (
            fn is not None
            and getattr(fn, "name", "") == "__init__"
            and bool(self.class_stack)
        )

    # ------------------------------------------------------------ reporting
    def report(self, rule, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=rule.code,
                message=message,
                rule=rule.name,
                end_col=getattr(node, "end_col_offset", None) or 0,
            )
        )

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted path of ``node`` through this file's import table."""
        return resolve_qualname(node, self.aliases)


def collect_aliases(tree: ast.AST) -> Dict[str, str]:
    """Import-alias table of a module: local name -> dotted path."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import numpy.random`` binds "numpy"; the attribute walk in
                # resolve_qualname() makes the full dotted path resolvable.
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports cannot be external modules
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_qualname(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an expression to a dotted path via an import table.

    ``np.random.default_rng`` → ``"numpy.random.default_rng"`` when the
    file did ``import numpy as np``; returns ``None`` for expressions
    whose root is not an imported name.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))
