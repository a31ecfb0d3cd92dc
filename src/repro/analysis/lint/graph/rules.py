"""Interprocedural rule families over a :class:`ProgramGraph`.

Each checker takes the graph plus the
:class:`~repro.analysis.lint.context.LintConfig` path policy and returns
plain :class:`~repro.analysis.lint.findings.Finding` lists; the engine owns
selection, suppression and ordering, the CLI owns baselines.

- **RPL011** (`graph-rng-taint`): an unseeded RNG (``default_rng()`` with no
  seed, or a seed that is ``None``) flowing into a function defined under
  the determinism-sensitive paths.  Detection is call-site sensitive and
  propagates *conditional* sinks to callers: a helper that forwards its
  ``seed`` parameter into a sink makes every caller passing ``None`` (or an
  unseeded generator) a violation at **that caller's** call site.
- **RPL012** (`graph-dtype-mix`): float64 and float32 values meeting at one
  call into the numeric fast path — the static twin of the runtime upcast
  sanitizer.  Uniform-precision calls are never flagged; serving's
  deliberate all-float64 scoring stays clean.
- **RPL013** (`graph-async-discipline`): blocking work (file I/O,
  ``time.sleep``, persistence, subprocess) reachable from ``async def``
  handlers in the serving layer without an executor hop
  (``asyncio.to_thread`` / ``run_in_executor``); plus writes to attributes
  of lock-owning classes from handler-reachable code without the lock held.
- **RPL014** (`graph-funnel-escape`): call paths from the consumer layers
  (models/eval/serving) that reach raw kernel backends or the ``np.save``
  family through helpers, bypassing the dispatch/store/io funnels.
  Propagation stops inside the funnel modules: going *through* the funnel
  is the sanctioned route.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.graph.program import MAX_EVAL_DEPTH, FnInfo, ProgramGraph

__all__ = [
    "check_rpl011",
    "check_rpl012",
    "check_rpl013",
    "check_rpl014",
    "GRAPH_CHECKERS",
    "GRAPH_CODES",
]


def _matches(path: str, needles) -> bool:
    return any(n in path for n in needles)


def _site_finding(code: str, rule: str, fn: FnInfo, site: dict, message: str) -> Finding:
    return Finding(
        path=fn.path,
        line=site.get("line", 0),
        col=site.get("col", 0),
        code=code,
        message=message,
        rule=rule,
        end_col=site.get("end", 0),
    )


def _short(fqn: str) -> str:
    parts = fqn.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) > 1 else fqn


# =========================================================== RPL011: RNG taint

def check_rpl011(graph: ProgramGraph, config) -> List[Finding]:
    """Determinism taint: unseeded RNG values reaching taint-sink calls.

    Pass 1 flags direct ``rng?`` arguments at sink call sites; conditional
    taints (``rngc:i`` — tainted iff param *i* is None) seed a worklist that
    walks callers to find the concrete ``None``/unseeded origin, reporting at
    the outermost call site with the propagation chain in the message.
    """
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, int]] = set()
    # (fqn, param_index, mode): mode "taint" = violated by an unseeded RNG
    # argument; mode "none" = violated by a None argument (the forwarded-seed
    # shape of ``ensure_rng``).
    work: deque = deque()
    queued: Set[Tuple[str, int, str]] = set()

    def report(fn: FnInfo, site: dict, message: str) -> None:
        key = (fn.path, site.get("line", 0), site.get("col", 0))
        if key in reported:
            return
        reported.add(key)
        findings.append(_site_finding("RPL011", "graph-rng-taint", fn, site, message))

    def queue(fqn: str, index: int, mode: str, chain: Tuple[str, ...]) -> None:
        if len(chain) > MAX_EVAL_DEPTH:
            return
        if (fqn, index, mode) in queued:
            return
        queued.add((fqn, index, mode))
        work.append((fqn, index, mode, chain))

    # Pass 1: direct flows and seed conditional sinks at sink-call sites.
    for fn in graph.iter_functions():
        if _matches(fn.path, config.exempt_paths):
            continue
        for site_idx, callee_fqn in graph.call_edges.get(fn.fqn, []):
            callee = graph.functions[callee_fqn]
            if not _matches(callee.path, config.taint_sink_paths):
                continue
            if callee_fqn == fn.fqn:
                continue
            site = fn.summary["calls"][site_idx]
            for _, kinds in graph.arg_kinds_at_site(fn, site):
                if "rng?" in kinds:
                    report(
                        fn,
                        site,
                        "unseeded RNG flows into determinism-sensitive "
                        f"'{_short(callee_fqn)}' ({callee.path}); thread a seeded "
                        "generator (repro.utils.rng.ensure_rng with an explicit "
                        "seed) instead",
                    )
                for k in kinds:
                    if k.startswith("param:"):
                        queue(fn.fqn, int(k.split(":", 1)[1]), "taint", (callee_fqn,))
                    elif k.startswith("rngc:"):
                        queue(fn.fqn, int(k.split(":", 1)[1]), "none", (callee_fqn,))

    # Pass 2: propagate conditional sinks to callers.
    while work:
        fqn, index, mode, chain = work.popleft()
        sink = graph.functions.get(fqn)
        if sink is None:
            continue
        params = sink.summary.get("params", [])
        if index >= len(params):
            continue
        pname = params[index].lstrip("*")
        for caller_fqn, site_idx in graph.callers_of(fqn):
            caller = graph.functions[caller_fqn]
            if _matches(caller.path, config.exempt_paths) or caller_fqn == fqn:
                continue
            site = caller.summary["calls"][site_idx]
            target = graph.resolve_target(caller, site)
            offset = target.self_offset if target.kind == "fn" else 0
            ref, from_default = _arg_ref_for_param(sink, site, index, offset)
            if ref is None:
                continue
            holder = sink if from_default else caller
            kinds = graph.eval_kinds(holder, ref, None)
            via = f"via parameter '{pname}' of '{_short(fqn)}' into '{_short(chain[0])}'"
            if mode == "taint" and "rng?" in kinds:
                report(caller, site, f"unseeded RNG flows {via}")
            if mode == "none" and "none" in kinds:
                report(
                    caller,
                    site,
                    f"None seed makes the RNG unseeded {via}; pass an explicit seed",
                )
            for k in kinds:
                if k.startswith("param:"):
                    j = int(k.split(":", 1)[1])
                    queue(caller_fqn, j, mode, chain + (fqn,))
                elif k.startswith("rngc:") and mode == "taint":
                    j = int(k.split(":", 1)[1])
                    queue(caller_fqn, j, "none", chain + (fqn,))
    return findings


def _arg_ref_for_param(
    callee: FnInfo, site: dict, index: int, self_offset: int
) -> Tuple[Optional[list], bool]:
    """The reference bound to callee parameter ``index`` at this site.

    Returns ``(ref, from_default)``; ``from_default`` means the ref lives in
    the callee's frame (an omitted argument falling back to the default).
    """
    params = callee.summary.get("params", [])
    pname = params[index].lstrip("*")
    kw = site.get("kw", {})
    if pname in kw:
        return kw[pname], False
    pos = index - self_offset
    args = site.get("args", [])
    if 0 <= pos < len(args):
        return args[pos], False
    default = callee.summary.get("defaults", {}).get(pname)
    if default is not None:
        return default, True
    return None, False


# ========================================================= RPL012: dtype mix

def check_rpl012(graph: ProgramGraph, config) -> List[Finding]:
    """Dtype lattice: float64 meeting float32 at a fast-path call site.

    Evaluates every argument's kind set at calls into ``dtype_sink_paths``;
    a site where one argument may be f64 and another may be f32 silently
    upcasts (or truncates) inside the kernel, so it is flagged.
    """
    findings: List[Finding] = []
    for fn in graph.iter_functions():
        if _matches(fn.path, config.exempt_paths):
            continue
        for site_idx, callee_fqn in graph.call_edges.get(fn.fqn, []):
            callee = graph.functions[callee_fqn]
            if not _matches(callee.path, config.dtype_sink_paths):
                continue
            if callee_fqn == fn.fqn:
                continue
            site = fn.summary["calls"][site_idx]
            kinds_per_arg = [k for _, k in graph.arg_kinds_at_site(fn, site)]
            has64 = any("f64" in k for k in kinds_per_arg)
            has32 = any("f32" in k for k in kinds_per_arg)
            if has64 and has32:
                findings.append(
                    _site_finding(
                        "RPL012",
                        "graph-dtype-mix",
                        fn,
                        site,
                        "float64 and float32 values meet at this call into "
                        f"'{_short(callee_fqn)}' ({callee.path}); numpy will "
                        "silently upcast — convert explicitly at the boundary",
                    )
                )
    return findings


# ================================================== RPL013: async discipline

#: External calls that block the event loop outright.
_BLOCKING_QUALS = frozenset(
    {
        "time.sleep",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.load",
        "numpy.savetxt",
        "numpy.loadtxt",
        "json.dump",
        "json.load",
        "pickle.dump",
        "pickle.load",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.rmdir",
    }
)

#: Path-like methods that hit the filesystem regardless of receiver kind.
_BLOCKING_METHODS_ALWAYS = frozenset(
    {"write_text", "read_text", "write_bytes", "read_bytes", "unlink", "mkdir", "touch"}
)

#: Stream methods that block only when the receiver is a real file handle.
_BLOCKING_METHODS_ON_FILE = frozenset(
    {"write", "read", "readline", "readlines", "writelines", "flush", "close"}
)


def _site_blocking_reason(graph: ProgramGraph, fn: FnInfo, site: dict) -> Optional[str]:
    target = graph.resolve_target(fn, site)
    if target.kind == "fn" or target.kind == "class":
        return None  # project calls are handled transitively
    tspec = site.get("t", ["u"])
    if tspec[0] == "q" and tspec[1] in _BLOCKING_QUALS:
        return f"'{tspec[1]}'"
    if tspec[0] == "l" and tspec[1] == "open":
        return "'open()'"
    if tspec[0] == "m":
        attr = tspec[2]
        if attr == "open":
            return f"'.{attr}()'"
        if attr in _BLOCKING_METHODS_ALWAYS:
            return f"'.{attr}()'"
        if attr in _BLOCKING_METHODS_ON_FILE:
            kinds = graph.eval_kinds(fn, tspec[1], None)
            if "file" in kinds:
                return f"'.{attr}()' on a file handle"
    return None


def _blocking_witness(
    graph: ProgramGraph, fqn: str, memo: Dict[str, Optional[str]], visiting: Set[str]
) -> Optional[str]:
    """First blocking reason reachable from ``fqn`` (non-hop paths only)."""
    if fqn in memo:
        return memo[fqn]
    if fqn in visiting:
        return None
    visiting.add(fqn)
    fn = graph.functions[fqn]
    witness: Optional[str] = None
    edge_sites = {i: callee for i, callee in graph.call_edges.get(fqn, [])}
    for i, site in enumerate(fn.summary.get("calls", [])):
        if site.get("hop"):
            continue
        reason = _site_blocking_reason(graph, fn, site)
        if reason is not None:
            witness = reason
            break
        callee = edge_sites.get(i)
        if callee is not None:
            inner = _blocking_witness(graph, callee, memo, visiting)
            if inner is not None:
                witness = f"'{_short(callee)}' -> {inner}"
                break
    visiting.discard(fqn)
    memo[fqn] = witness
    return witness


def _handler_reachable(graph: ProgramGraph, config) -> Set[str]:
    """Project functions reachable from serving-layer async handlers."""
    roots = [
        fn.fqn
        for fn in graph.iter_functions()
        if fn.summary.get("async")
        and _matches(fn.path, config.async_paths)
        and not _matches(fn.path, config.exempt_paths)
    ]
    seen: Set[str] = set(roots)
    queue = deque(roots)
    while queue:
        fqn = queue.popleft()
        fn = graph.functions[fqn]
        calls = fn.summary.get("calls", [])
        for i, callee in graph.call_edges.get(fqn, []):
            if i < len(calls) and calls[i].get("hop"):
                continue
            if callee not in seen:
                seen.add(callee)
                queue.append(callee)
    return seen


def check_rpl013(graph: ProgramGraph, config) -> List[Finding]:
    """Async/lock discipline inside ``async_paths``.

    Sub-rule A: blocking calls (time.sleep, file I/O, subprocess, ...)
    reachable from an async handler without an executor hop
    (``asyncio.to_thread`` / ``run_in_executor``) — reported at the
    serving-side boundary call.  Sub-rule B: writes to attributes of a
    lock-owning class performed outside a ``with self.<lock>:`` block.
    """
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, int]] = set()
    reachable = _handler_reachable(graph, config)
    memo: Dict[str, Optional[str]] = {}

    def report(fn: FnInfo, loc: dict, message: str) -> None:
        key = (fn.path, loc.get("line", 0), loc.get("col", 0))
        if key in reported:
            return
        reported.add(key)
        findings.append(
            _site_finding("RPL013", "graph-async-discipline", fn, loc, message)
        )

    for fqn in sorted(reachable):
        fn = graph.functions[fqn]
        if not _matches(fn.path, config.async_paths):
            continue  # report at the serving-side boundary only
        if _matches(fn.path, config.exempt_paths):
            continue
        edge_sites = {i: callee for i, callee in graph.call_edges.get(fqn, [])}
        for i, site in enumerate(fn.summary.get("calls", [])):
            if site.get("hop"):
                continue
            reason = _site_blocking_reason(graph, fn, site)
            if reason is not None:
                report(
                    fn,
                    site,
                    f"blocking call {reason} is reachable from an async handler; "
                    "move it behind asyncio.to_thread()/run_in_executor()",
                )
                continue
            callee = edge_sites.get(i)
            if callee is None:
                continue
            callee_fn = graph.functions[callee]
            if _matches(callee_fn.path, config.async_paths):
                continue  # its own serving-side sites get reported directly
            witness = _blocking_witness(graph, callee, memo, set())
            if witness is not None:
                report(
                    fn,
                    site,
                    f"'{_short(callee)}' blocks ({witness}) and is called from "
                    "async-handler-reachable code without an executor hop",
                )

    # Lock discipline: handler-reachable methods of lock-owning classes must
    # hold the owning lock when writing shared attributes.
    for fqn in sorted(reachable):
        fn = graph.functions[fqn]
        if _matches(fn.path, config.exempt_paths):
            continue
        cls_fqn = graph.class_of_method(fn)
        if cls_fqn is None:
            continue
        lock_attrs = graph.classes[cls_fqn].get("lock_attrs", [])
        if not lock_attrs or fn.qualpath.endswith("__init__"):
            continue
        for write in fn.summary.get("awrites", []):
            if write["attr"] in lock_attrs:
                continue
            if any(lock in write.get("locks", []) for lock in lock_attrs):
                continue
            report(
                fn,
                write,
                f"attribute 'self.{write['attr']}' of lock-owning "
                f"'{_short(cls_fqn)}' is written from handler-reachable code "
                f"without holding 'self.{lock_attrs[0]}'",
            )
    return findings


# ==================================================== RPL014: funnel escape

_SAVE_SINKS = frozenset(
    {"numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.load"}
)


def _in_modules(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _direct_sink(graph: ProgramGraph, fn: FnInfo, site: dict, config) -> Optional[str]:
    target = graph.resolve_target(fn, site)
    if target.kind == "ext" and target.name in _SAVE_SINKS:
        return f"'{target.name}'"
    if target.kind == "fn":
        callee = graph.functions[target.name]
        if _in_modules(callee.module, config.kernel_backend_modules):
            return f"raw kernel '{_short(target.name)}'"
    if target.kind == "class":
        init = graph.functions.get(f"{target.name}.__init__")
        if init is not None and _in_modules(init.module, config.kernel_backend_modules):
            return f"raw kernel '{_short(target.name)}'"
    return None


def _escape_witness(
    graph: ProgramGraph,
    fqn: str,
    config,
    memo: Dict[str, Optional[str]],
    visiting: Set[str],
) -> Optional[str]:
    if fqn in memo:
        return memo[fqn]
    if fqn in visiting:
        return None
    fn = graph.functions[fqn]
    if _in_modules(fn.module, config.funnel_modules):
        memo[fqn] = None  # the funnel absorbs: going through it is sanctioned
        return None
    visiting.add(fqn)
    witness: Optional[str] = None
    edge_sites = {i: callee for i, callee in graph.call_edges.get(fqn, [])}
    for i, site in enumerate(fn.summary.get("calls", [])):
        reason = _direct_sink(graph, fn, site, config)
        if reason is not None:
            witness = reason
            break
        callee = edge_sites.get(i)
        if callee is not None:
            inner = _escape_witness(graph, callee, config, memo, visiting)
            if inner is not None:
                witness = f"'{_short(callee)}' -> {inner}"
                break
    visiting.discard(fqn)
    memo[fqn] = witness
    return witness


def check_rpl014(graph: ProgramGraph, config) -> List[Finding]:
    """Funnel escape: consumer code reaching raw kernels or ``np.save``
    family outside the sanctioned dispatch/store funnels.

    A DFS from each consumer-path function finds an escape witness —
    a call chain that hits a kernel-backend module or persistence sink
    without passing through a ``funnel_modules`` entry; propagation is
    absorbed (stops) inside funnel modules themselves.
    """
    findings: List[Finding] = []
    memo: Dict[str, Optional[str]] = {}
    for fn in graph.iter_functions():
        if not _matches(fn.path, config.kernel_consumer_paths):
            continue
        if _matches(fn.path, config.exempt_paths):
            continue
        if _in_modules(fn.module, config.funnel_modules):
            continue
        edge_sites = {i: callee for i, callee in graph.call_edges.get(fn.fqn, [])}
        for i, site in enumerate(fn.summary.get("calls", [])):
            reason = _direct_sink(graph, fn, site, config)
            if reason is not None:
                findings.append(
                    _site_finding(
                        "RPL014",
                        "graph-funnel-escape",
                        fn,
                        site,
                        f"direct {reason} call bypasses the dispatch/store funnel; "
                        "route through repro.kernels.dispatch or repro.store",
                    )
                )
                continue
            callee = edge_sites.get(i)
            if callee is None:
                continue
            callee_fn = graph.functions[callee]
            if _in_modules(callee_fn.module, config.funnel_modules):
                continue
            if _matches(callee_fn.path, config.kernel_consumer_paths):
                continue  # reported at that function's own sites
            witness = _escape_witness(graph, callee, config, memo, set())
            if witness is not None:
                findings.append(
                    _site_finding(
                        "RPL014",
                        "graph-funnel-escape",
                        fn,
                        site,
                        f"'{_short(callee)}' reaches {witness}, bypassing the "
                        "dispatch/store funnel through a helper",
                    )
                )
    return findings


GRAPH_CHECKERS = (
    ("RPL011", check_rpl011),
    ("RPL012", check_rpl012),
    ("RPL013", check_rpl013),
    ("RPL014", check_rpl014),
)

#: The rule codes implemented over the program graph.
GRAPH_CODES = frozenset(code for code, _ in GRAPH_CHECKERS)
