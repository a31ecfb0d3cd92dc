"""RPL010 — fused-kernel access outside the dispatch funnel.

The fused kernels (:mod:`repro.kernels.numpy_backend`) are
raw-ndarray routines with no tape; the **only** sanctioned way for model and
evaluation code to reach them is :mod:`repro.kernels.dispatch`, which owns
the Tensor-building wrappers the sanitizer/profiler instrument and the test
oracles swap out.  A model importing the backend module directly produces
tensors the instrumentation never sees and calls the parity tests cannot
reroute.  The rule flags any ``repro.kernels`` import other than
``dispatch`` in the consumer paths; a deliberate exception (a parity test, a
kernel benchmark) lives outside those paths or carries an explicit
``# reprolint: disable=RPL010`` stating the justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.lint.context import LintContext
from repro.analysis.lint.registry import register
from repro.analysis.lint.rules.base import Rule

__all__ = ["KernelImportFunnelRule"]

_PACKAGE = "repro.kernels"
_ALLOWED = "repro.kernels.dispatch"


def _offending_targets(node: ast.AST) -> Iterator[Tuple[str, str]]:
    """Yield ``(spelling, target)`` for kernel imports that bypass dispatch."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            name = alias.name
            if name == _PACKAGE or (
                name.startswith(_PACKAGE + ".") and name != _ALLOWED
            ):
                yield f"import {name}", name
    elif isinstance(node, ast.ImportFrom) and node.module:
        if node.module == _PACKAGE:
            for alias in node.names:
                if alias.name != "dispatch":
                    yield (
                        f"from {_PACKAGE} import {alias.name}",
                        f"{_PACKAGE}.{alias.name}",
                    )
        elif node.module.startswith(_PACKAGE + ".") and node.module != _ALLOWED:
            yield f"from {node.module} import ...", node.module


@register
class KernelImportFunnelRule(Rule):
    """RPL010: models/eval must reach fused kernels via dispatch only."""

    code = "RPL010"
    name = "kernel-dispatch-funnel"
    description = (
        "direct imports of repro.kernels backends bypass the dispatch "
        "funnel — the oracle fallback and sanitizer/profiler "
        "instrumentation live in repro.kernels.dispatch; import that "
        "instead, or suppress with a comment stating why a raw backend is "
        "required here."
    )
    node_types = (ast.Import, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not ctx.in_kernel_consumer_path or ctx.in_exempt_path:
            return
        for spelling, target in _offending_targets(node):
            ctx.report(
                self,
                node,
                f"{spelling!r} reaches around the kernel dispatch funnel — "
                f"use 'from {_PACKAGE} import dispatch' ({target} is an "
                "implementation backend), or justify with a suppression",
            )
