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
- **abstract kinds** — a demand-driven, memoized evaluator mapping value
  references to sets of kind tags (``f64``, ``f32``, ``rng?`` unseeded RNG,
  ``rng`` seeded RNG, ``file``, ``none``, …).  Evaluation is call-site
  sensitive: a call result is computed by re-evaluating the callee's return
  references under the caller's argument kinds, so ``ensure_rng(seed)`` and
  ``ensure_rng(None)`` get different answers.  With no bindings, parameters
  evaluate to symbolic ``param:i`` kinds and ``default_rng(param)`` to
  ``rngc:i`` ("unseeded iff argument *i* is None") — the conditional-sink
  signal RPL011's caller-propagation worklist consumes.

Everything is depth-bounded and cycle-guarded; unknown stays unknown rather
than guessing.  The deliberate unsoundness (dynamic dispatch, ``getattr``,
``*args`` fan-out, monkeypatching) is catalogued in DESIGN §12.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = ["ProgramGraph", "FnInfo", "ResolvedTarget", "MAX_EVAL_DEPTH"]

MAX_EVAL_DEPTH = 8

Kinds = FrozenSet[str]

UNK: Kinds = frozenset({"unk"})

_CONST_KINDS = {
    "none": frozenset({"none"}),
    "int": frozenset({"int"}),
    "bool": frozenset({"bool"}),
    "pyfloat": frozenset({"pyfloat"}),
    "str": frozenset({"str"}),
}

#: numpy creators defaulting to float64 when no dtype is passed.
_F64_DEFAULT_CREATORS = frozenset(
    {
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.linspace",
        "numpy.eye",
        "numpy.identity",
        "numpy.random.standard_normal",
    }
)

#: numpy converters whose output dtype follows the input (modulo an explicit
#: dtype argument); python floats densify to float64.
_PASSTHROUGH_CREATORS = frozenset(
    {"numpy.array", "numpy.asarray", "numpy.ascontiguousarray", "numpy.asfortranarray"}
)

#: elementwise/reduction quals whose result kind follows the first argument.
_PASSTHROUGH_QUALS = frozenset(
    {
        "numpy.sqrt",
        "numpy.exp",
        "numpy.log",
        "numpy.abs",
        "numpy.tanh",
        "numpy.dot",
        "numpy.matmul",
        "numpy.mean",
        "numpy.sum",
        "numpy.clip",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.vstack",
        "numpy.hstack",
        "numpy.copy",
    }
)

_RNG_CONSTRUCTORS = frozenset({"numpy.random.default_rng", "numpy.random.RandomState"})

#: methods whose result kind follows the receiver.
_KIND_PRESERVING_METHODS = frozenset(
    {
        "copy",
        "reshape",
        "ravel",
        "flatten",
        "transpose",
        "squeeze",
        "clip",
        "round",
        "mean",
        "sum",
        "max",
        "min",
        "take",
    }
)

_DTYPE_QUAL_KINDS = {
    "numpy.float64": "f64",
    "numpy.double": "f64",
    "numpy.float32": "f32",
    "numpy.single": "f32",
    "numpy.int32": "int",
    "numpy.int64": "int",
    "numpy.intp": "int",
}

_DTYPE_STR_KINDS = {
    "float64": "f64",
    "f8": "f64",
    "double": "f64",
    "float32": "f32",
    "f4": "f32",
    "int32": "int",
    "int64": "int",
}

#: scalar kinds that an array float kind absorbs in a binop.
_ABSORBED_SCALARS = frozenset({"pyfloat", "int", "bool"})


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
        self.module_paths: Dict[str, str] = {}
        self.functions: Dict[str, FnInfo] = {}
        self.classes: Dict[str, dict] = {}
        self.class_modules: Dict[str, str] = {}
        self._build_tables()
        self._edges: Optional[Dict[str, List[Tuple[int, str]]]] = None
        self._callers: Optional[Dict[str, List[Tuple[str, int]]]] = None
        self._kind_memo: Dict[tuple, Kinds] = {}
        self._kind_in_progress: set = set()
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
            self.module_paths[module] = path
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
        if tag == "p":
            params = summary.get("params", [])
            i = ref[1]
            if i >= len(params):
                return None
            if i == 0:
                own = self._self_class(fn)
                if own is not None:
                    return own
            ann = summary.get("annots", {}).get(params[i].lstrip("*"))
            return self.resolve_annotation(fn.module, ann)
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

    # -------------------------------------------------------- kind evaluation
    def eval_kinds(
        self,
        fn: FnInfo,
        ref,
        bindings: Optional[List[Kinds]] = None,
        depth: int = 0,
    ) -> Kinds:
        """Abstract kind set of a value reference inside ``fn``.

        ``bindings`` gives concrete kind sets for the function's parameters
        (call-site sensitivity); without them parameters are symbolic.
        """
        if depth > MAX_EVAL_DEPTH or not ref:
            return UNK
        bkey = (
            None
            if bindings is None
            else tuple(tuple(sorted(b)) for b in bindings)
        )
        key = (fn.fqn, _refkey(ref), bkey)
        cached = self._kind_memo.get(key)
        if cached is not None:
            return cached
        if key in self._kind_in_progress:
            return UNK
        self._kind_in_progress.add(key)
        try:
            result = self._eval_kinds(fn, ref, bindings, depth)
        finally:
            self._kind_in_progress.discard(key)
        self._kind_memo[key] = result
        return result

    def _param_kinds(
        self, fn: FnInfo, index: int, bindings: Optional[List[Kinds]]
    ) -> Kinds:
        if bindings is not None:
            if index < len(bindings):
                return bindings[index]
            return UNK
        return frozenset({f"param:{index}"})

    def _eval_kinds(
        self, fn: FnInfo, ref, bindings: Optional[List[Kinds]], depth: int
    ) -> Kinds:
        tag = ref[0]
        summary = fn.summary
        if tag == "c":
            return _CONST_KINDS.get(ref[1], UNK)
        if tag == "u":
            return UNK
        if tag == "p":
            return self._param_kinds(fn, ref[1], bindings)
        if tag == "p?":
            params = summary.get("params", [])
            if ref[1] in params:
                return self._param_kinds(fn, params.index(ref[1]), bindings)
            return UNK
        if tag == "n":
            name = ref[1]
            assigned = summary.get("assigns", {}).get(name)
            if assigned is not None:
                return self.eval_kinds(fn, assigned, bindings, depth + 1)
            params = summary.get("params", [])
            if name in params:
                return self._param_kinds(fn, params.index(name), bindings)
            alias = self.modules.get(fn.module, {}).get("aliases", {}).get(name)
            if alias is not None:
                return self._qual_kinds(alias)
            return UNK
        if tag == "q":
            return self._qual_kinds(ref[1])
        if tag == "s":
            return self.eval_kinds(fn, ref[1], bindings, depth + 1)
        if tag == "b":
            left = self.eval_kinds(fn, ref[1], bindings, depth + 1)
            right = self.eval_kinds(fn, ref[2], bindings, depth + 1)
            joined = left | right
            if joined & {"f64", "f32"}:
                joined = joined - _ABSORBED_SCALARS
            return joined or UNK
        if tag == "j":
            out: Kinds = frozenset()
            for sub in ref[1:]:
                out = out | self.eval_kinds(fn, sub, bindings, depth + 1)
            return out or UNK
        if tag == "a":
            return self._attr_kinds(fn, ref, bindings, depth)
        if tag == "r":
            calls = summary.get("calls", [])
            if ref[1] >= len(calls):
                return UNK
            return self.call_result_kinds(fn, calls[ref[1]], bindings, depth + 1)
        return UNK

    def _qual_kinds(self, dotted: str) -> Kinds:
        kind = _DTYPE_QUAL_KINDS.get(dotted)
        if kind is not None:
            return frozenset({kind})
        if dotted in ("numpy.pi", "numpy.e", "math.pi", "math.e"):
            return frozenset({"pyfloat"})
        return UNK

    def _attr_kinds(
        self, fn: FnInfo, ref, bindings: Optional[List[Kinds]], depth: int
    ) -> Kinds:
        base_type = self.type_of(fn, ref[1])
        if base_type is None:
            return UNK
        entry = self.classes[base_type].get("attrs", {}).get(ref[2])
        if entry is None:
            return UNK
        init = self.functions.get(f"{base_type}.__init__")
        if init is None:
            return UNK
        # Evaluate the __init__-time value in the constructor's own frame
        # (symbolic parameters): seeded/unseeded-ness decided at construction
        # survives into every later read of the attribute.
        return self.eval_kinds(init, entry.get("ref", ["u"]), None, depth + 1)

    # -------------------------------------------------------------- call eval
    def arg_kinds_at_site(
        self,
        fn: FnInfo,
        site: dict,
        bindings: Optional[List[Kinds]] = None,
        depth: int = 0,
    ) -> List[Tuple[Optional[str], Kinds]]:
        """Kind sets for every argument at a call site: ``(kwname, kinds)``
        pairs, kwname None for positionals."""
        out: List[Tuple[Optional[str], Kinds]] = []
        for arg in site.get("args", []):
            out.append((None, self.eval_kinds(fn, arg, bindings, depth + 1)))
        for name, ref in site.get("kw", {}).items():
            out.append((name, self.eval_kinds(fn, ref, bindings, depth + 1)))
        return out

    def _callee_bindings(
        self,
        caller: FnInfo,
        site: dict,
        callee: FnInfo,
        self_offset: int,
        bindings: Optional[List[Kinds]],
        depth: int,
    ) -> List[Kinds]:
        params = callee.summary.get("params", [])
        result: List[Kinds] = [UNK] * len(params)
        bound = set(range(self_offset))
        pos_index = self_offset
        for arg in site.get("args", []):
            if pos_index >= len(params) or params[pos_index].startswith("*"):
                break  # *args swallows the rest: give up on positional mapping
            result[pos_index] = self.eval_kinds(caller, arg, bindings, depth + 1)
            bound.add(pos_index)
            pos_index += 1
        by_name = {p.lstrip("*"): i for i, p in enumerate(params)}
        for name, ref in site.get("kw", {}).items():
            i = by_name.get(name)
            if i is not None:
                result[i] = self.eval_kinds(caller, ref, bindings, depth + 1)
                bound.add(i)
        # Only parameters with no argument at this site fall back to the
        # callee's declared defaults (evaluated in the callee's own frame).
        # An explicitly-passed argument keeps its kinds even when unknown —
        # ``ensure_rng(config.seed)`` must not collapse to the None default.
        defaults = callee.summary.get("defaults", {})
        for i, p in enumerate(params):
            if i not in bound and p.lstrip("*") in defaults:
                result[i] = self.eval_kinds(
                    callee, defaults[p.lstrip("*")], None, depth + 1
                )
        return result

    def call_result_kinds(
        self,
        fn: FnInfo,
        site: dict,
        bindings: Optional[List[Kinds]],
        depth: int,
    ) -> Kinds:
        if depth > MAX_EVAL_DEPTH:
            return UNK
        target = self.resolve_target(fn, site)
        if target.kind == "ext":
            return self._external_call_kinds(fn, site, target.name, bindings, depth)
        if target.kind == "builtin":
            if target.name == "open":
                return frozenset({"file"})
            if target.name == "float":
                return frozenset({"pyfloat"})
            if target.name in ("int", "len", "round"):
                return frozenset({"int"})
            if target.name == "str":
                return frozenset({"str"})
            return UNK
        if target.kind == "class":
            return UNK  # instances carry no kind; types flow via type_of
        if target.kind == "fn":
            callee = self.functions[target.name]
            callee_bindings = self._callee_bindings(
                fn, site, callee, target.self_offset, bindings, depth
            )
            returns = callee.summary.get("returns", [])
            if not returns:
                return frozenset({"none"})
            out: Kinds = frozenset()
            for ret in returns:
                out = out | self.eval_kinds(callee, ret, callee_bindings, depth + 1)
            return out or UNK
        # Unresolved method call: model by method name.
        tspec = site.get("t", ["u"])
        if tspec[0] == "m":
            return self._method_call_kinds(fn, site, tspec, bindings, depth)
        return UNK

    def _dtype_kind(
        self, fn: FnInfo, ref, bindings: Optional[List[Kinds]], depth: int
    ) -> Optional[str]:
        """Resolve a ``dtype=`` argument reference to a kind tag."""
        if not ref or depth > MAX_EVAL_DEPTH:
            return None
        tag = ref[0]
        if tag == "q":
            return _DTYPE_QUAL_KINDS.get(ref[1])
        if tag == "c" and ref[1] == "str" and len(ref) > 2:
            return _DTYPE_STR_KINDS.get(ref[2])
        if tag == "n":
            assigned = fn.summary.get("assigns", {}).get(ref[1])
            if assigned is not None:
                return self._dtype_kind(fn, assigned, bindings, depth + 1)
            alias = self.modules.get(fn.module, {}).get("aliases", {}).get(ref[1])
            if alias is not None:
                return _DTYPE_QUAL_KINDS.get(alias)
        return None

    def _dtype_arg(self, site: dict) -> Optional[list]:
        return site.get("kw", {}).get("dtype")

    def _external_call_kinds(
        self,
        fn: FnInfo,
        site: dict,
        dotted: str,
        bindings: Optional[List[Kinds]],
        depth: int,
    ) -> Kinds:
        if dotted in _RNG_CONSTRUCTORS:
            args = site.get("args", [])
            seed_ref = args[0] if args else site.get("kw", {}).get("seed")
            if seed_ref is None:
                return frozenset({"rng?"})
            seed_kinds = self.eval_kinds(fn, seed_ref, bindings, depth + 1)
            out = set()
            for k in seed_kinds:
                if k == "none":
                    out.add("rng?")
                elif k.startswith("param:"):
                    out.add("rngc:" + k.split(":", 1)[1])
                elif k == "unk":
                    out.add("rng")  # unknown seed: assume seeded (no FP storm)
                else:
                    out.add("rng")
            return frozenset(out) or frozenset({"rng"})
        if dotted in ("numpy.float64", "numpy.double"):
            return frozenset({"f64"})
        if dotted in ("numpy.float32", "numpy.single"):
            return frozenset({"f32"})
        if dotted in _F64_DEFAULT_CREATORS:
            dt = self._dtype_arg(site)
            if dt is not None:
                kind = self._dtype_kind(fn, dt, bindings, depth)
                return frozenset({kind}) if kind else UNK
            return frozenset({"f64"})
        if dotted in _PASSTHROUGH_CREATORS:
            dt = self._dtype_arg(site)
            if dt is not None:
                kind = self._dtype_kind(fn, dt, bindings, depth)
                return frozenset({kind}) if kind else UNK
            args = site.get("args", [])
            if args:
                kinds = self.eval_kinds(fn, args[0], bindings, depth + 1)
                if "pyfloat" in kinds:
                    kinds = (kinds - {"pyfloat"}) | {"f64"}
                return kinds
            return UNK
        if dotted in _PASSTHROUGH_QUALS:
            args = site.get("args", [])
            if args:
                return self.eval_kinds(fn, args[0], bindings, depth + 1)
            return UNK
        if dotted == "pathlib.Path":
            return UNK
        return UNK

    def _method_call_kinds(
        self,
        fn: FnInfo,
        site: dict,
        tspec,
        bindings: Optional[List[Kinds]],
        depth: int,
    ) -> Kinds:
        attr = tspec[2]
        if attr == "open":
            return frozenset({"file"})
        if attr == "astype":
            args = site.get("args", [])
            dt = self._dtype_arg(site) or (args[0] if args else None)
            kind = self._dtype_kind(fn, dt, bindings, depth) if dt is not None else None
            return frozenset({kind}) if kind else UNK
        if attr in _KIND_PRESERVING_METHODS:
            return self.eval_kinds(fn, tspec[1], bindings, depth + 1)
        if attr == "item":
            return frozenset({"pyfloat"})
        return UNK

    # ----------------------------------------------------------- call graph
    def _build_edges(self) -> None:
        edges: Dict[str, List[Tuple[int, str]]] = {}
        callers: Dict[str, List[Tuple[str, int]]] = {}
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
                    callers.setdefault(callee_fqn, []).append((fqn, i))
            edges[fqn] = out
        self._edges = edges
        self._callers = callers

    @property
    def call_edges(self) -> Dict[str, List[Tuple[int, str]]]:
        """fqn -> [(call_site_index, callee_fqn)] over project functions."""
        if self._edges is None:
            self._build_edges()
        return self._edges  # type: ignore[return-value]

    def callers_of(self, fqn: str) -> List[Tuple[str, int]]:
        if self._callers is None:
            self._build_edges()
        return self._callers.get(fqn, [])  # type: ignore[union-attr]

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
