"""Rule registry: rules self-register at import via the :func:`register` decorator.

Keeping registration declarative means adding a rule is one new module under
:mod:`repro.analysis.lint.rules` — the engine, CLI, and docs all pick it up
from the registry without edits.  The interprocedural rules are the
entries of :data:`~repro.analysis.lint.graph.rules.GRAPH_CHECKERS`;
:func:`known_codes` and :func:`rules_for` validate both sets as one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Type

if TYPE_CHECKING:  # avoid a circular import: rules import the registry
    from repro.analysis.lint.rules.base import Rule

__all__ = ["register", "all_rules", "rules_for", "known_codes"]

_REGISTRY: Dict[str, "Type[Rule]"] = {}


def register(rule_cls: "Type[Rule]") -> "Type[Rule]":
    """Class decorator adding ``rule_cls`` to the global registry.

    Codes must be unique; a duplicate registration is a programming error.
    """
    code = rule_cls.code
    if not code or not code.startswith("RPL"):
        raise ValueError(f"rule {rule_cls.__name__} has invalid code {code!r}")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule code {code}: {existing.__name__} and {rule_cls.__name__}")
    _REGISTRY[code] = rule_cls
    return rule_cls


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule.
    from repro.analysis.lint import rules  # noqa: F401


def known_codes() -> List[str]:
    """Every rule code — lexical visitors and graph checkers — sorted."""
    _ensure_loaded()
    from repro.analysis.lint.graph.rules import GRAPH_CODES

    return sorted(set(_REGISTRY) | GRAPH_CODES)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered (lexical) rule, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rules_for(select: Optional[FrozenSet[str]] = None) -> List[Rule]:
    """Instances of the selected lexical rules (all when ``select`` is None).

    Graph codes are valid selections with no lexical rule.  Raises
    ``ValueError`` on unknown codes so typos in ``--select`` surface as CLI
    errors instead of silently linting nothing.
    """
    if select is None:
        return all_rules()
    unknown = sorted(set(select) - set(known_codes()))
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    return [_REGISTRY[code]() for code in sorted(select) if code in _REGISTRY]
