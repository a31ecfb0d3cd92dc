"""Whole-program view over per-module summaries.

:class:`ProgramGraph` stitches the :mod:`~repro.analysis.lint.graph.summary`
dicts for every linted file into one queryable structure:

- **module naming** — a file's dotted module name is recovered by walking up
  through directories whose ``__init__.py`` is part of the same linted tree,
  so both ``src/repro/...`` and fixture packages resolve without importing
  anything;
- **qualified-name resolution** — dotted paths from import-alias tables are
  resolved to project functions/classes, following package ``__init__``
  re-exports chains;
- **static types** — a conservative class-of-value judgment from parameter
  and return annotations, constructor calls, and ``__init__`` attribute
  assignments, used to resolve method call targets (one level of base-class
  lookup);
- **file handles** — whether a value is the result of ``open()`` /
  ``.open()``, followed through local names and ``__init__``-assigned
  attributes, so RPL013 can tell a blocking ``fh.write()`` from a
  buffer's.

Everything is depth-bounded and cycle-guarded; unknown stays unknown rather
than guessing.  The deliberate unsoundness (dynamic dispatch, ``getattr``,
``*args`` fan-out, monkeypatching) is catalogued in DESIGN §12.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ProgramGraph", "FnInfo", "ResolvedTarget", "MAX_EVAL_DEPTH"]

MAX_EVAL_DEPTH = 8


@dataclasses.dataclass(frozen=True)
class FnInfo:
    """One project function: where it lives and its raw summary."""

    fqn: str
    module: str
    path: str
    qualpath: str
    summary: dict


@dataclasses.dataclass(frozen=True)
class ResolvedTarget:
    """Resolution of one call site's target.

    kind: ``"fn"`` (project function, ``name`` is its fqn, ``self_offset``
    is 1 for instance/class method calls through a receiver), ``"class"``
    (constructor, ``name`` is the class fqn), ``"ext"`` (external dotted
    qual), ``"builtin"`` (bare unresolved name), or ``"unknown"``.
    """

    kind: str
    name: str = ""
    self_offset: int = 0


_UNKNOWN_TARGET = ResolvedTarget("unknown")


def _refkey(ref) -> str:
    return json.dumps(ref, separators=(",", ":"))


class ProgramGraph:
    """Queryable whole-program structure built from module summaries."""

    def __init__(self, summaries: Dict[str, dict]):
        #: path -> module summary (parse-error pseudo-summaries included)
        self.summaries = {p.replace("\\", "/"): s for p, s in summaries.items()}
        self._paths = set(self.summaries)
        self.modules: Dict[str, dict] = {}
        self.functions: Dict[str, FnInfo] = {}
        self.classes: Dict[str, dict] = {}
        self.class_modules: Dict[str, str] = {}
        self._build_tables()
        self._edges: Optional[Dict[str, List[Tuple[int, str]]]] = None
        self._type_memo: Dict[tuple, Optional[str]] = {}
        self._type_in_progress: set = set()
        self._target_memo: Dict[tuple, ResolvedTarget] = {}

    # ------------------------------------------------------------- building
    def module_name(self, path: str) -> str:
        """Dotted module name by walking up through linted ``__init__.py``."""
        p = PurePosixPath(path.replace("\\", "/"))
        parts = [] if p.stem == "__init__" else [p.stem]
        parent = p.parent
        while parent.name and str(parent / "__init__.py") in self._paths:
            parts.insert(0, parent.name)
            parent = parent.parent
        return ".".join(parts) if parts else p.stem

    def _build_tables(self) -> None:
        for path, summary in self.summaries.items():
            if "error" in summary:
                continue
            module = self.module_name(path)
            self.modules[module] = summary
            for qualpath, fn in summary.get("functions", {}).items():
                fqn = f"{module}.{qualpath}" if module else qualpath
                self.functions[fqn] = FnInfo(fqn, module, path, qualpath, fn)
            for cls_name, cls in summary.get("classes", {}).items():
                cls_fqn = f"{module}.{cls_name}" if module else cls_name
                self.classes[cls_fqn] = cls
                self.class_modules[cls_fqn] = module

    # ------------------------------------------------------ name resolution
    def resolve_qual(self, dotted: str, _seen: Optional[set] = None) -> ResolvedTarget:
        """Resolve a dotted path to a project function/class, following
        package-``__init__`` re-exports; anything else is external."""
        if _seen is None:
            _seen = set()
        if dotted in _seen:
            return ResolvedTarget("ext", dotted)
        _seen.add(dotted)
        if dotted in self.functions:
            return ResolvedTarget("fn", dotted)
        if dotted in self.classes:
            return ResolvedTarget("class", dotted)
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            summary = self.modules.get(module)
            if summary is None:
                continue
            alias = summary.get("aliases", {}).get(parts[i])
            if alias is not None:
                rest = parts[i + 1 :]
                rewritten = ".".join([alias] + rest)
                if rewritten != dotted:
                    resolved = self.resolve_qual(rewritten, _seen)
                    if resolved.kind != "ext":
                        return resolved
            break
        return ResolvedTarget("ext", dotted)

    def resolve_annotation(self, module: str, ann: Optional[str]) -> Optional[str]:
        """Annotation spec -> class fqn (``".Name"`` means module-local)."""
        if ann is None:
            return None
        if ann.startswith("."):
            candidate = f"{module}{ann}" if module else ann[1:]
            return candidate if candidate in self.classes else None
        resolved = self.resolve_qual(ann)
        return resolved.name if resolved.kind == "class" else None

    def find_method(self, class_fqn: str, attr: str) -> Optional[str]:
        """Locate ``attr`` on a class or (one level) its bases."""
        cls = self.classes.get(class_fqn)
        if cls is None:
            return None
        candidate = f"{class_fqn}.{attr}"
        if candidate in self.functions:
            return candidate
        module = self.class_modules.get(class_fqn, "")
        for base in cls.get("bases", []):
            base_fqn = self.resolve_annotation(module, base) or (
                base if base in self.classes else None
            )
            if base_fqn is None:
                resolved = self.resolve_qual(base)
                base_fqn = resolved.name if resolved.kind == "class" else None
            if base_fqn is not None:
                candidate = f"{base_fqn}.{attr}"
                if candidate in self.functions:
                    return candidate
        return None

    def resolve_target(self, fn: FnInfo, site: dict) -> ResolvedTarget:
        key = (fn.fqn, _refkey(site.get("t", ["u"])), site.get("line"), site.get("col"))
        cached = self._target_memo.get(key)
        if cached is not None:
            return cached
        resolved = self._resolve_target(fn, site.get("t", ["u"]))
        self._target_memo[key] = resolved
        return resolved

    def _resolve_target(self, fn: FnInfo, tspec) -> ResolvedTarget:
        if not tspec:
            return _UNKNOWN_TARGET
        tag = tspec[0]
        if tag == "q":
            return self.resolve_qual(tspec[1])
        if tag == "l":
            name = tspec[1]
            # nested def in this function
            if name in fn.summary.get("locals", {}):
                nested = f"{fn.module}.{fn.qualpath}.{name}" if fn.module else f"{fn.qualpath}.{name}"
                if nested in self.functions:
                    return ResolvedTarget("fn", nested)
            module_fqn = f"{fn.module}.{name}" if fn.module else name
            if module_fqn in self.functions:
                return ResolvedTarget("fn", module_fqn)
            if module_fqn in self.classes:
                return ResolvedTarget("class", module_fqn)
            alias = self.modules.get(fn.module, {}).get("aliases", {}).get(name)
            if alias is not None:
                return self.resolve_qual(alias)
            return ResolvedTarget("builtin", name)
        if tag == "m":
            base_ref, attr = tspec[1], tspec[2]
            base_type = self.type_of(fn, base_ref)
            if base_type is not None:
                method = self.find_method(base_type, attr)
                if method is not None:
                    info = self.functions[method]
                    offset = 1 if info.summary.get("kind") in ("method", "classmethod") else 0
                    return ResolvedTarget("fn", method, self_offset=offset)
            return ResolvedTarget("unknown", attr)
        return _UNKNOWN_TARGET

    # ---------------------------------------------------------- static types
    def type_of(self, fn: FnInfo, ref, depth: int = 0) -> Optional[str]:
        """Best-effort class fqn of a value reference (None when unknown)."""
        if depth > MAX_EVAL_DEPTH or not ref:
            return None
        key = (fn.fqn, _refkey(ref))
        if key in self._type_memo:
            return self._type_memo[key]
        if key in self._type_in_progress:
            return None
        self._type_in_progress.add(key)
        try:
            result = self._type_of(fn, ref, depth)
        finally:
            self._type_in_progress.discard(key)
        self._type_memo[key] = result
        return result

    def _self_class(self, fn: FnInfo) -> Optional[str]:
        cls = fn.summary.get("class")
        if cls is None or fn.summary.get("kind") not in ("method", "classmethod"):
            return None
        fqn = f"{fn.module}.{cls}" if fn.module else cls
        return fqn if fqn in self.classes else None

    def _type_of(self, fn: FnInfo, ref, depth: int) -> Optional[str]:
        tag = ref[0]
        summary = fn.summary
        if tag == "n":
            name = ref[1]
            ann = summary.get("annots", {}).get(name)
            resolved = self.resolve_annotation(fn.module, ann)
            if resolved is not None:
                return resolved
            params = summary.get("params", [])
            if params and params[0] == name and name not in summary.get("assigns", {}):
                own = self._self_class(fn)
                if own is not None:
                    return own
            assigned = summary.get("assigns", {}).get(name)
            if assigned is not None:
                return self.type_of(fn, assigned, depth + 1)
            return None
        if tag == "r":
            calls = summary.get("calls", [])
            if ref[1] >= len(calls):
                return None
            site = calls[ref[1]]
            target = self.resolve_target(fn, site)
            if target.kind == "class":
                return target.name
            if target.kind == "fn":
                callee = self.functions[target.name]
                return self.resolve_annotation(callee.module, callee.summary.get("rann"))
            return None
        if tag == "a":
            base_type = self.type_of(fn, ref[1], depth + 1)
            if base_type is None:
                return None
            entry = self.classes[base_type].get("attrs", {}).get(ref[2])
            if entry is None:
                return None
            module = self.class_modules.get(base_type, "")
            resolved = self.resolve_annotation(module, entry.get("ann"))
            if resolved is not None:
                return resolved
            init = self.functions.get(f"{base_type}.__init__")
            if init is not None:
                return self.type_of(init, entry.get("ref", ["u"]), depth + 1)
            return None
        return None

    # ---------------------------------------------------------- file handles
    def is_file(self, fn: FnInfo, ref, depth: int = 0) -> bool:
        """Whether a value reference is an open file handle: the result of
        builtin ``open()`` or of an unresolved ``.open()`` method call,
        through local names and ``self`` attributes assigned in
        ``__init__``."""
        if depth > MAX_EVAL_DEPTH or not ref:
            return False
        tag = ref[0]
        if tag == "n":
            assigned = fn.summary.get("assigns", {}).get(ref[1])
            return assigned is not None and self.is_file(fn, assigned, depth + 1)
        if tag == "r":
            calls = fn.summary.get("calls", [])
            if ref[1] >= len(calls):
                return False
            target = self.resolve_target(fn, calls[ref[1]])
            if target.kind == "builtin":
                return target.name == "open"
            return target.kind == "unknown" and target.name == "open"
        if tag == "a":
            base_type = self.type_of(fn, ref[1])
            if base_type is None:
                return False
            entry = self.classes[base_type].get("attrs", {}).get(ref[2])
            init = self.functions.get(f"{base_type}.__init__")
            if entry is None or init is None:
                return False
            return self.is_file(init, entry.get("ref", ["u"]), depth + 1)
        return False

    # ----------------------------------------------------------- call graph
    def _build_edges(self) -> None:
        edges: Dict[str, List[Tuple[int, str]]] = {}
        for fqn, fn in self.functions.items():
            out: List[Tuple[int, str]] = []
            for i, site in enumerate(fn.summary.get("calls", [])):
                target = self.resolve_target(fn, site)
                callee_fqn: Optional[str] = None
                if target.kind == "fn":
                    callee_fqn = target.name
                elif target.kind == "class":
                    init = f"{target.name}.__init__"
                    if init in self.functions:
                        callee_fqn = init
                if callee_fqn is not None:
                    out.append((i, callee_fqn))
            edges[fqn] = out
        self._edges = edges

    @property
    def call_edges(self) -> Dict[str, List[Tuple[int, str]]]:
        """fqn -> [(call_site_index, callee_fqn)] over project functions."""
        if self._edges is None:
            self._build_edges()
        return self._edges  # type: ignore[return-value]

    # -------------------------------------------------------------- iteration
    def iter_functions(self) -> Iterator[FnInfo]:
        for fqn in sorted(self.functions):
            yield self.functions[fqn]

    def class_of_method(self, fn: FnInfo) -> Optional[str]:
        cls = fn.summary.get("class")
        if cls is None:
            return None
        fqn = f"{fn.module}.{cls}" if fn.module else cls
        return fqn if fqn in self.classes else None
