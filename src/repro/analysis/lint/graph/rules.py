"""The interprocedural rule, RPL013, over a :class:`ProgramGraph`.

The checker takes the graph plus the
:class:`~repro.analysis.lint.context.LintConfig` path policy and returns
plain :class:`~repro.analysis.lint.findings.Finding` lists; the engine owns
selection, suppression and ordering.

**RPL013** (`graph-async-discipline`): blocking work (file I/O,
``time.sleep``, persistence, subprocess) reachable from what the serving
event loop runs — ``async def`` handlers, ``asyncio`` protocol callbacks
and ``loop.call_soon`` targets — without an executor hop
(``asyncio.to_thread`` / ``run_in_executor``); plus writes to attributes
of lock-owning classes from handler-reachable code without the lock held.
It is the one rule that needs the call graph: the blocking call usually
sits in a library frame several calls below the serving code that
reaches it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.graph.program import FnInfo, ProgramGraph

__all__ = ["check_rpl013", "GRAPH_CHECKERS", "GRAPH_CODES"]


def _matches(path: str, needles) -> bool:
    return any(n in path for n in needles)


def _short(fqn: str) -> str:
    parts = fqn.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) > 1 else fqn


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
            if graph.is_file(fn, tspec[1]):
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


#: ``asyncio`` protocol classes: the event loop calls their callbacks
#: synchronously, so each callback runs on the loop like an ``async def``.
_PROTOCOL_BASES = frozenset(
    {
        "asyncio.BaseProtocol",
        "asyncio.Protocol",
        "asyncio.BufferedProtocol",
        "asyncio.DatagramProtocol",
        "asyncio.SubprocessProtocol",
    }
)
_PROTOCOL_CALLBACKS = frozenset(
    {
        "connection_made",
        "connection_lost",
        "data_received",
        "eof_received",
        "pause_writing",
        "resume_writing",
        "get_buffer",
        "buffer_updated",
        "datagram_received",
        "error_received",
        "pipe_data_received",
        "pipe_connection_lost",
        "process_exited",
    }
)

#: Event-loop scheduling methods and the position of the callback each runs.
_LOOP_CALLBACK_ARG = {"call_soon": 0, "call_soon_threadsafe": 0, "call_later": 1, "call_at": 1}


def _is_protocol_callback(graph: ProgramGraph, fn: FnInfo) -> bool:
    if fn.qualpath.rsplit(".", 1)[-1] not in _PROTOCOL_CALLBACKS:
        return False
    cls_fqn = graph.class_of_method(fn)
    return cls_fqn is not None and any(
        base in _PROTOCOL_BASES for base in graph.classes[cls_fqn].get("bases", [])
    )


def _scheduled_callbacks(graph: ProgramGraph, fn: FnInfo) -> List[str]:
    """Project functions ``fn`` hands to ``loop.call_soon`` and its kin."""
    out = []
    for site in fn.summary.get("calls", []):
        tspec = site.get("t", ["u"])
        if tspec[0] != "m" or tspec[2] not in _LOOP_CALLBACK_ARG:
            continue
        args = site.get("args", [])
        position = _LOOP_CALLBACK_ARG[tspec[2]]
        if position >= len(args):
            continue
        ref = args[position]
        # The callback is a value, not a call: read it as the call target
        # it would be (`self._flush` as `self._flush()`).
        as_target = {"a": ["m"] + ref[1:], "n": ["l"] + ref[1:], "q": ref}.get(ref[0])
        if as_target is None:
            continue
        target = graph.resolve_target(fn, {"t": as_target})
        if target.kind == "fn":
            out.append(target.name)
    return out


def _handler_reachable(graph: ProgramGraph, config) -> Set[str]:
    """Project functions reachable from what runs on the serving event loop.

    Roots are the functions under ``async_paths`` that the loop runs: every
    ``async def``, every ``asyncio`` protocol callback (``data_received``
    and its kin), and every function scheduled with ``loop.call_soon`` /
    ``call_soon_threadsafe`` / ``call_later`` / ``call_at``.
    """
    serving = [
        fn
        for fn in graph.iter_functions()
        if _matches(fn.path, config.async_paths) and not _matches(fn.path, config.exempt_paths)
    ]
    roots = [
        fn.fqn for fn in serving if fn.summary.get("async") or _is_protocol_callback(graph, fn)
    ]
    for fn in serving:
        roots.extend(_scheduled_callbacks(graph, fn))
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
            Finding(
                path=fn.path,
                line=loc.get("line", 0),
                col=loc.get("col", 0),
                code="RPL013",
                message=message,
                rule="graph-async-discipline",
                end_col=loc.get("end", 0),
            )
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


GRAPH_CHECKERS = (("RPL013", check_rpl013),)

#: The rule codes implemented over the program graph.
GRAPH_CODES = frozenset(code for code, _ in GRAPH_CHECKERS)
