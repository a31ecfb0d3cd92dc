"""Per-module function summaries for the interprocedural lint engine.

One :func:`summarize_module` call reduces every function of a module —
parsed once by the lint engine, whose lexical rules walk the same tree — to
a JSON-serializable :data:`FunctionSummary` dict: its parameters and their
annotations, a flow-insensitive map of local assignments, one record per
call site, and its writes to ``self`` attributes with the locks held.  The
whole-program engine (:mod:`~repro.analysis.lint.graph.program`) never
re-reads source — it resolves these summaries, which is what makes the
content-hash cache (:mod:`~repro.analysis.lint.graph.cache`) sufficient for
warm runs.

Abstract **value references** describe where a value came from without
keeping the AST around (all plain lists, so summaries round-trip through
JSON); they carry what RPL013 resolves — the static class of a method
call's receiver and whether a value is an open file::

    ["c"]                 a literal constant
    ["r", i]              the result of call site i of this function
    ["n", name]           a local (or enclosing-scope) name, resolved lazily
    ["q", dotted]         an imported attribute path ("numpy.float64")
    ["a", ref, attr]      attribute read off another value ("self._fh")
    ["u"]                 anything else (calls inside it are still recorded)

Call **target references** are the same idea for the callee expression::

    ["q", dotted]         resolvable through the import-alias table
    ["l", name]           a bare name (same-module function, builtin, …)
    ["m", ref, attr]      method call on a value
    ["u"]                 anything else

Known unsoundness (by design, documented in DESIGN §12): dynamic dispatch
through ``getattr``/dicts of callables, monkeypatching, ``*args`` fan-out,
and reassignment order inside loops (the assignment map is last-write-wins,
flow-insensitive).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional

from repro.analysis.lint.context import resolve_qualname

__all__ = ["SUMMARY_VERSION", "summarize_module"]

#: Bump whenever the summary shape changes — stale cache entries are then
#: misses, never misreads.
SUMMARY_VERSION = 3

Ref = List[Any]

UNKNOWN: Ref = ["u"]

#: Calls that hand a callable to another thread/executor: the call itself is
#: non-blocking, and the callee it ships is sanctioned to block.
_EXECUTOR_HOP_QUALS = frozenset({"asyncio.to_thread"})
_EXECUTOR_HOP_METHODS = frozenset({"run_in_executor"})


_WRAPPER_ANNOTATIONS = {"Optional", "Union", "Annotated", "Final", "ClassVar", "List", "Sequence"}


def _annotation_name(node: Optional[ast.AST], aliases: Dict[str, str]) -> Optional[str]:
    """Extract the class a type annotation names.

    Returns a dotted path when the name routes through the alias table, or
    ``".Name"`` (leading dot) for a bare name to be resolved against the
    defining module's own classes at graph-build time.  ``Optional[X]`` and
    friends unwrap to ``X``; string annotations are parsed.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if base_name in _WRAPPER_ANNOTATIONS:
            inner = node.slice
            if isinstance(inner, ast.Tuple):
                for elt in inner.elts:
                    if not (isinstance(elt, ast.Constant) and elt.value is None):
                        return _annotation_name(elt, aliases)
                return None
            return _annotation_name(inner, aliases)
        return _annotation_name(base, aliases)
    if isinstance(node, ast.Attribute):
        return resolve_qualname(node, aliases)
    if isinstance(node, ast.Name):
        return aliases.get(node.id, "." + node.id)
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Summarizes one function body (without descending into nested defs)."""

    def __init__(self, fn: ast.AST, aliases: Dict[str, str], class_name: Optional[str]):
        self.fn = fn
        self.aliases = aliases
        self.class_name = class_name
        self.calls: List[dict] = []
        self.assigns: Dict[str, Ref] = {}
        self.annots: Dict[str, Optional[str]] = {}
        self.awrites: List[dict] = []
        self.locals_defs: Dict[str, str] = {}
        self._lock_stack: List[str] = []
        self._call_index: Dict[int, int] = {}
        self.params: List[str] = []
        self._extract_signature()

    # ------------------------------------------------------------ signature
    def _extract_signature(self) -> None:
        args = getattr(self.fn, "args", None)
        if args is None:
            return
        for a in list(args.posonlyargs) + list(args.args):
            self.params.append(a.arg)
            if a.annotation is not None:
                self.annots[a.arg] = _annotation_name(a.annotation, self.aliases)
        if args.vararg:
            self.params.append("*" + args.vararg.arg)
        for a in args.kwonlyargs:
            self.params.append(a.arg)
            if a.annotation is not None:
                self.annots[a.arg] = _annotation_name(a.annotation, self.aliases)
        if args.kwarg:
            self.params.append("**" + args.kwarg.arg)

    @property
    def _self_name(self) -> Optional[str]:
        if self.class_name is None or not self.params:
            return None
        first = self.params[0]
        return first if not first.startswith("*") else None

    # ------------------------------------------------------------ value refs
    def _ref(self, node: Optional[ast.AST]) -> Ref:
        if node is None:
            return list(UNKNOWN)
        if isinstance(node, ast.Constant):
            return ["c"]
        if isinstance(node, ast.Name):
            return ["n", node.id]
        if isinstance(node, ast.Attribute):
            qual = resolve_qualname(node, self.aliases)
            if qual is not None:
                return ["q", qual]
            return ["a", self._ref(node.value), node.attr]
        if isinstance(node, ast.Call):
            return ["r", self._record_call(node)]
        if isinstance(node, ast.Await):
            return self._ref(node.value)
        if isinstance(node, ast.NamedExpr):
            ref = self._ref(node.value)
            if isinstance(node.target, ast.Name):
                self.assigns[node.target.id] = ref
            return ref
        # Every other shape (operators, subscripts, containers,
        # comprehensions, …): the value is unknown, but any calls buried
        # inside still matter for reachability/blocking analysis — record
        # them (idempotently).
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub)
        return list(UNKNOWN)

    def _target_ref(self, func: ast.AST) -> Ref:
        if isinstance(func, ast.Name):
            return ["l", func.id]
        if isinstance(func, ast.Attribute):
            qual = resolve_qualname(func, self.aliases)
            if qual is not None:
                return ["q", qual]
            return ["m", self._ref(func.value), func.attr]
        return list(UNKNOWN)

    # ----------------------------------------------------------------- calls
    def _record_call(self, node: ast.Call) -> int:
        existing = self._call_index.get(id(node))
        if existing is not None:
            return existing
        # Reserve the slot before evaluating args: a nested call recorded
        # while building the arg refs must not race for the same index.
        self._call_index[id(node)] = len(self.calls)
        self.calls.append({})
        target = self._target_ref(node.func)
        hop = False
        if target[0] == "q" and target[1] in _EXECUTOR_HOP_QUALS:
            hop = True
        elif target[0] == "m" and target[2] in _EXECUTOR_HOP_METHODS:
            hop = True
        args = [self._ref(a) for a in node.args if not isinstance(a, ast.Starred)]
        for kw in node.keywords:
            if kw.arg is not None:
                self._ref(kw.value)  # records the calls inside the argument
        record = {
            "t": target,
            "args": args,
            "line": node.lineno,
            "col": node.col_offset,
            "end": getattr(node, "end_col_offset", None) or 0,
            "hop": hop,
        }
        index = self._call_index[id(node)]
        self.calls[index] = record
        return index

    # ---------------------------------------------------------------- visits
    def visit_Call(self, node: ast.Call) -> None:
        # Arguments are captured by _record_call via _ref (which records
        # nested calls recursively); only keyword-less ** and * spreads and
        # the func expression still need a walk for completeness of nested
        # call discovery.
        self._record_call(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        ref = self._ref(node.value)
        for target in node.targets:
            self._assign_target(target, ref, node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ref = self._ref(node.value) if node.value is not None else list(UNKNOWN)
        if isinstance(node.target, ast.Name):
            self.annots[node.target.id] = _annotation_name(node.annotation, self.aliases)
        self._assign_target(node.target, ref, node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._ref(node.value)
        if isinstance(node.target, ast.Name):
            self.assigns[node.target.id] = list(UNKNOWN)
        elif isinstance(node.target, ast.Attribute):
            self._record_attr_write(node.target, node)

    def _assign_target(self, target: ast.AST, ref: Ref, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.assigns[target.id] = ref
        elif isinstance(target, ast.Attribute):
            self._record_attr_write(target, stmt, ref)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, list(UNKNOWN), stmt)

    def _record_attr_write(
        self, target: ast.Attribute, stmt: ast.AST, ref: Optional[Ref] = None
    ) -> None:
        base = target.value
        if not (isinstance(base, ast.Name) and base.id == self._self_name):
            return
        self.awrites.append(
            {
                "attr": target.attr,
                "ref": ref if ref is not None else list(UNKNOWN),
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "end": getattr(stmt, "end_col_offset", None) or 0,
                "locks": list(self._lock_stack),
            }
        )

    # ------------------------------------------------------------------ with
    def _with_lock_names(self, node: ast.AST) -> List[str]:
        names = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == self._self_name
            ):
                names.append(expr.attr)
        return names

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.AST) -> None:
        names = self._with_lock_names(node)
        for item in node.items:
            # _ref records any call (``with open(p) as f:``) and gives the
            # bound name the call's result, so file-kind tracking survives.
            ref = self._ref(item.context_expr)
            if item.optional_vars is not None:
                self._assign_target(item.optional_vars, ref, node)
        self._lock_stack.extend(names)
        for stmt in node.body:
            self.visit(stmt)
        del self._lock_stack[len(self._lock_stack) - len(names) :]

    def visit_For(self, node: ast.For) -> None:
        self._assign_target(node.target, list(UNKNOWN), node)
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    # Nested definitions become their own summaries; here we only remember
    # that the name is locally bound so call resolution stays module-local.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.locals_defs[node.name] = node.name

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.locals_defs[node.name] = node.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.locals_defs[node.name] = node.name

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # opaque; calls inside lambdas are not summarized

    def summary(self) -> dict:
        for stmt in self.fn.body:
            self.visit(stmt)
        decorators = [
            resolve_qualname(d, self.aliases) or getattr(d, "id", None)
            for d in getattr(self.fn, "decorator_list", [])
        ]
        kind = "function"
        if self.class_name is not None:
            kind = "method"
            if "staticmethod" in decorators:
                kind = "staticmethod"
            elif "classmethod" in decorators:
                kind = "classmethod"
        return {
            "async": isinstance(self.fn, ast.AsyncFunctionDef),
            "kind": kind,
            "class": self.class_name,
            "params": self.params,
            "annots": self.annots,
            "rann": _annotation_name(getattr(self.fn, "returns", None), self.aliases),
            "assigns": self.assigns,
            "calls": self.calls,
            "awrites": self.awrites,
            "locals": self.locals_defs,
        }


#: Constructors whose assignment marks an attribute as "the owning lock".
_LOCK_QUALS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "asyncio.Lock",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)


def _class_summary(
    node: ast.ClassDef, aliases: Dict[str, str], functions: Dict[str, dict]
) -> dict:
    """Class-level facts: init-assigned attributes, lock attrs, bases."""
    attrs: Dict[str, dict] = {}
    lock_attrs: List[str] = []
    init = functions.get(f"{node.name}.__init__")
    if init is not None:
        for write in init["awrites"]:
            ref = write["ref"]
            entry = attrs.setdefault(write["attr"], {"ref": ref, "ann": None})
            entry["ref"] = ref
            if ref[0] == "r":
                call = init["calls"][ref[1]]
                if call["t"][0] == "q" and call["t"][1] in _LOCK_QUALS:
                    if write["attr"] not in lock_attrs:
                        lock_attrs.append(write["attr"])
        # Annotation info for attrs assigned straight from annotated params
        # (`self.logger = logger` with `logger: Optional[RunLogger]`).
        for attr, entry in attrs.items():
            ref = entry["ref"]
            if ref[0] == "n" and ref[1] in init["annots"]:
                entry["ann"] = init["annots"][ref[1]]
    bases = []
    for base in node.bases:
        qual = resolve_qualname(base, aliases)
        if qual is not None:
            bases.append(qual)
        elif isinstance(base, ast.Name):
            bases.append("." + base.id)
    return {"bases": bases, "attrs": attrs, "lock_attrs": lock_attrs}


def summarize_module(tree: ast.Module, path: str, aliases: Dict[str, str]) -> dict:
    """Reduce one parsed module to its JSON-serializable summary dict.

    ``aliases`` is the module's import-alias table
    (:func:`~repro.analysis.lint.context.collect_aliases`), which the
    engine builds once per file for the lexical rules and this summary.
    """
    norm = str(path).replace("\\", "/")
    functions: Dict[str, dict] = {}

    def extract_function(
        fn: ast.AST, qualprefix: str, class_name: Optional[str]
    ) -> None:
        qualpath = f"{qualprefix}{fn.name}"
        functions[qualpath] = _FunctionExtractor(fn, aliases, class_name).summary()
        # Nested defs: summarized under a dotted path; calls to them resolve
        # through the parent's `locals` table.
        for stmt in ast.walk(fn):
            if stmt is fn:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_key = f"{qualpath}.{stmt.name}"
                if inner_key not in functions:
                    functions[inner_key] = _FunctionExtractor(
                        stmt, aliases, class_name
                    ).summary()

    classes: Dict[str, dict] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, "", None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extract_function(item, f"{node.name}.", node.name)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            class_fns = {
                key: fn for key, fn in functions.items() if key.startswith(node.name + ".")
            }
            classes[node.name] = _class_summary(node, aliases, class_fns)

    return {
        "version": SUMMARY_VERSION,
        "path": norm,
        "aliases": aliases,
        "functions": functions,
        "classes": classes,
    }
