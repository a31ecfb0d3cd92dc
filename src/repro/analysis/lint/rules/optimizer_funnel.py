"""RPL015 — optimizer access outside the training-engine funnel.

Every parameter update in the codebase flows through :mod:`repro.train`:
the engine builds the optimizer and decides when ``step`` runs, and model
auxiliary phases receive an engine-built *step callable* instead of the
optimizer itself.  A model that constructs its own optimizer — or drives
``optimizer.step()`` / ``zero_grad()`` inside its hooks — creates updates
the engine cannot see: they desynchronize the global step counter the
lazy-Adam row decay depends on and break checkpoint resume (the rogue
optimizer's slots never reach the training checkpoint).

The rule therefore flags, in model paths: (a) importing the optimizer
classes or the bare ``adam_update`` step from :mod:`repro.autograd`; (b) attribute calls of ``step`` / ``zero_grad``
on names that look like optimizers.  The engine, tests and benchmarks live
outside the gated paths; a deliberate exception carries
``# reprolint: disable=RPL015`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.context import LintContext
from repro.analysis.lint.registry import register
from repro.analysis.lint.rules.base import Rule

__all__ = ["OptimizerFunnelRule"]

_OPTIMIZER_MODULES = ("repro.autograd", "repro.autograd.optim")
_OPTIMIZER_NAMES = frozenset({"Optimizer", "Adam", "adam_update"})
_DRIVE_METHODS = frozenset({"step", "zero_grad"})


def _offending_imports(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro.autograd.optim":
                yield f"import {alias.name}"
    elif isinstance(node, ast.ImportFrom) and node.module:
        if node.module in _OPTIMIZER_MODULES:
            for alias in node.names:
                if alias.name in _OPTIMIZER_NAMES:
                    yield f"from {node.module} import {alias.name}"


def _looks_like_optimizer(expr: ast.AST) -> bool:
    """Heuristic: ``optimizer.step()``, ``self.optim.zero_grad()``, etc."""
    if isinstance(expr, ast.Name):
        return "optim" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "optim" in expr.attr.lower()
    return False


@register
class OptimizerFunnelRule(Rule):
    """RPL015: model code must not construct or drive optimizers."""

    code = "RPL015"
    name = "optimizer-engine-funnel"
    description = (
        "model code importing optimizer classes or calling "
        "optimizer.step()/zero_grad() bypasses the repro.train engine "
        "funnel — the engine owns when steps run and what reaches the "
        "checkpoint; use the engine-provided step callable in "
        "extra_epoch_step, or suppress with a justification."
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not ctx.in_optimizer_funnel_path or ctx.in_exempt_path:
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for spelling in _offending_imports(node):
                ctx.report(
                    self,
                    node,
                    f"{spelling!r} pulls an optimizer into model code — "
                    "parameter updates belong to repro.train executors; take "
                    "the engine's step callable instead, or justify with a "
                    "suppression",
                )
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DRIVE_METHODS
            and _looks_like_optimizer(func.value)
        ):
            ctx.report(
                self,
                node,
                f"'{ast.unparse(func)}()' drives the optimizer from model code — "
                "updates flow through repro.train (the engine epoch loop or "
                "its step callable), or justify with a suppression",
            )
