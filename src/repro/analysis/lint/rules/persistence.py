"""RPL009 — ad-hoc numpy persistence outside the sanctioned funnels.

Every array that reaches disk must go through :mod:`repro.io` (checkpoints)
or :mod:`repro.store` (content-addressed artifacts): those layers are where
atomic tmp+rename writes, ``allow_pickle=False``, hash verification and
memory-mapping discipline live.  A stray ``np.savez``/``np.load`` elsewhere
silently opts out of all four — a truncated file then surfaces as a numpy
parse error deep in a run instead of a verified-miss rebuild, and a pickled
object array becomes a code-execution hazard.  The rule flags direct calls
to the numpy persistence entry points outside the funnel paths; a deliberate
exception (a one-off analysis script reading foreign data) carries an
explicit ``# reprolint: disable=RPL009`` stating the justification.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.context import LintContext
from repro.analysis.lint.registry import register
from repro.analysis.lint.rules.base import Rule

__all__ = ["AdHocPersistenceRule"]

#: Fully-qualified numpy persistence entry points the funnel layers wrap.
#: The memmap/fromfile family is included so no code can grow a private
#: on-disk array format on the side: payloads go through ArtifactStore like
#: every other array, keeping sha256 verification and atomic writes.
_PERSISTENCE_CALLS = frozenset(
    {
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.load",
        "numpy.memmap",
        "numpy.fromfile",
        "numpy.lib.format.open_memmap",
    }
)


@register
class AdHocPersistenceRule(Rule):
    """RPL009: numpy save/load outside ``repro.io`` / ``repro.store``."""

    code = "RPL009"
    name = "ad-hoc-persistence"
    description = (
        "direct np.save/np.savez/np.load/np.memmap/np.fromfile/open_memmap "
        "bypasses the persistence funnels (repro.io checkpoints, repro.store "
        "artifacts) and their atomic-write / allow_pickle=False / "
        "verification guarantees; route through those layers, or suppress "
        "with a comment stating why raw numpy persistence is required here."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if ctx.in_persistence_path or ctx.in_exempt_path:
            return
        assert isinstance(node, ast.Call)
        qual = ctx.qualname(node.func)
        if qual not in _PERSISTENCE_CALLS:
            return
        ctx.report(
            self,
            node,
            f"{qual.replace('numpy', 'np')} outside the persistence funnel — "
            "use repro.io (checkpoints) or repro.store (artifacts), or "
            "justify with a suppression",
        )
