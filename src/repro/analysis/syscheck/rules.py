"""RS-series rules: resource lifecycle and process safety.

Each rule consumes the :class:`~repro.analysis.syscheck.facts.SysFacts`
of the program and emits :class:`~repro.analysis.lint.Violation`
records; findings are reported only in the rule's path scope
(:data:`~repro.analysis.syscheck.model.SYS_SCOPE` by default) and
honour the shared ``# lint: disable=RSxxx`` pragma system.  The rule
catalogue lives in ``docs/analysis.md``.
"""

from __future__ import annotations

import ast

from ..lint import Rule, Violation, register_rule
from ..program import call_name, dotted, kwarg, own_nodes
from .facts import FuncInfo, SysFacts, _blocking_reason
from .model import DURABLE_WRITER_PATHS, EAGER_KINDS, SYS_SCOPE


class SysRule(Rule):
    """An RS rule: findings default to the multi-process layers."""

    default_paths = SYS_SCOPE


@register_rule
class ReleaseOnAllPaths(SysRule):
    """RS001: a resource handle must be released on every path."""

    rule_id = "RS001"
    name = "release-on-all-paths"
    description = (
        "SharedMemory/file/Process/Thread handles must be closed, "
        "unlinked or joined on every control-flow path (with, "
        "try/finally, or unconditional straight-line release)."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for info in facts.infos:
            for acq in info.acquisitions:
                out.extend(self._check_acq(facts, info, acq))
        return out

    def _check_acq(self, facts, info, acq) -> list[Violation]:
        out = []
        what = (f"the {acq.kind} from {acq.from_helper}()"
                if acq.from_helper else f"this {acq.kind}")
        if acq.discarded:
            origin = (f"{acq.from_helper}() returns a live {acq.kind}"
                      if acq.from_helper
                      else f"a {acq.kind} handle is created")
            out.append(self.violation(
                info.fn.path, acq.call,
                f"{origin} and discarded at the call site: the handle "
                f"can never be released -- bind it and release on every "
                f"path",
            ))
            return out
        if acq.bulk and not acq.bulk_guarded:
            out.append(self.violation(
                info.fn.path, acq.call,
                f"bulk {acq.kind} acquisition in a loop is not "
                f"exception-safe: a mid-loop failure leaks every handle "
                f"acquired so far -- wrap the loop in try/except and "
                f"release the partial set",
            ))
        if acq.escaped:
            return out  # ownership transferred (stored/returned/passed)
        if acq.kind in ("process", "thread") and not acq.started:
            return out  # no OS state before .start()
        if not acq.releases:
            out.append(self.violation(
                info.fn.path, acq.call,
                f"{what} acquired here is never released in "
                f"{info.fn.qualname}() on any path",
            ))
            return out
        if any(r.covered_by_finally for r in acq.releases):
            return out
        # Method calls on a process/thread handle (h.start()) raising
        # mean no OS state exists yet: not a leak window.
        excl = acq.var if acq.kind not in EAGER_KINDS else None
        fin = next((r for r in acq.releases if r.finally_after_acq), None)
        if fin is not None:
            lo = getattr(acq.stmt, "end_lineno", acq.stmt.lineno)
            if facts.risky_between(info, lo, fin.guard_try.lineno,
                                     exclude_receiver=excl):
                out.append(self.violation(
                    info.fn.path, acq.call,
                    f"{what} is acquired before the try/finally that "
                    f"releases it (line {fin.guard_try.lineno}): an "
                    f"exception in between leaks the handle -- acquire "
                    f"inside the try block",
                ))
            return out
        unconditional = [r for r in acq.releases if not r.conditional]
        if not unconditional:
            out.append(self.violation(
                info.fn.path, acq.call,
                f"{what} is released only on some paths (line(s) "
                f"{', '.join(str(r.line) for r in acq.releases)}): "
                f"branches that skip the release leak the handle",
            ))
            return out
        first = min(unconditional, key=lambda r: r.line)
        lo = getattr(acq.stmt, "end_lineno", acq.stmt.lineno)
        if facts.risky_between(info, lo, first.line,
                                 exclude_receiver=excl):
            out.append(self.violation(
                info.fn.path, acq.call,
                f"{what} is released at line {first.line} but a call "
                f"in between can raise and leak the handle -- use "
                f"try/finally or a with block",
            ))
        return out


@register_rule
class SegmentOwnership(SysRule):
    """RS002: shared_memory create/unlink ownership discipline."""

    rule_id = "RS002"
    name = "segment-ownership"
    description = (
        "The side that creates a shared_memory segment (create=True) "
        "must also unlink it; attach-only sides must never unlink."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for path, creates in facts.shm_creates.items():
            attaches = facts.shm_attaches[path]
            unlinks = facts.shm_unlinks[path]
            if creates and not unlinks:
                for node in creates:
                    out.append(self.violation(
                        path, node,
                        "SharedMemory(create=True) without any "
                        ".unlink() in this module: the segment "
                        "outlives every process of the world",
                    ))
            if attaches and not creates and unlinks:
                for node in unlinks:
                    out.append(self.violation(
                        path, node,
                        "attach-only module calls .unlink(): only "
                        "the creating side owns segment removal "
                        "(double-unlink races the owner)",
                    ))
        return out


@register_rule
class LockAcrossBlocking(SysRule):
    """RS003: no blocking call while holding a lock."""

    rule_id = "RS003"
    name = "lock-across-blocking"
    description = (
        "A lock held across join/recv/sleep/queue-get/file IO "
        "serializes every other thread behind one slow operation "
        "(and deadlocks if the blocked peer needs the same lock). "
        "Waiting on the held condition itself is exempt."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for info in facts.infos:
            for lc in info.locked_calls:
                held = ", ".join(sorted(lc.held))
                reason = _blocking_reason(lc.call, lc.held)
                if reason is not None:
                    out.append(self.violation(
                        info.fn.path, lc.call,
                        f"blocking call under lock ({held}): {reason} "
                        f"-- move it outside the locked region",
                    ))
                    continue
                target = facts.resolve(lc.call, info)
                if target is None:
                    continue
                bearing = facts.bearing_reason(target)
                if bearing is not None:
                    out.append(self.violation(
                        info.fn.path, lc.call,
                        f"{target.fn.qualname}() blocks while {held} is "
                        f"held: {bearing} -- move the call outside the "
                        f"locked region",
                    ))
        return out


@register_rule
class SpawnSafety(SysRule):
    """RS004: what crosses the spawn boundary must survive pickling."""

    rule_id = "RS004"
    name = "spawn-safety"
    description = (
        "Process targets/args must be module-level and picklable; "
        "module-level mutable state read in a spawn target is copied "
        "per child and silently diverges."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for info in facts.infos:
            for call in info.spawn_sites:
                out.extend(self._check_spawn(facts, info, call))
        return out

    def _check_spawn(self, facts, info, call) -> list[Violation]:
        out = []
        target = kwarg(call, "target")
        if isinstance(target, ast.Lambda):
            out.append(self.violation(
                info.fn.path, call,
                "lambda spawn target cannot cross the process boundary "
                "(not picklable under the spawn start method)",
            ))
        elif isinstance(target, (ast.Name, ast.Attribute)):
            text = dotted(target)
            bare = text.rsplit(".", 1)[-1]
            tinfo = facts.spawn_target(info, call)
            if text.startswith("self."):
                out.append(self.violation(
                    info.fn.path, call,
                    f"bound-method spawn target {text} pickles the "
                    f"whole owning object across the process boundary",
                ))
            elif tinfo is not None and not tinfo.fn.module_level:
                out.append(self.violation(
                    info.fn.path, call,
                    f"nested function {bare}() is not picklable under "
                    f"the spawn start method -- hoist it to module level",
                ))
            elif tinfo is not None:
                mutables = facts.module_mutables[tinfo.fn.path]
                read = sorted({
                    n.id for n in ast.walk(tinfo.fn.node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id in mutables
                })
                if read:
                    out.append(self.violation(
                        info.fn.path, call,
                        f"spawn target {bare}() reads module-level "
                        f"mutable state ({', '.join(read)}): each child "
                        f"gets a private copy that silently diverges "
                        f"from the parent",
                    ))
        args = kwarg(call, "args")
        if isinstance(args, (ast.Tuple, ast.List)) and any(
            isinstance(e, ast.Lambda) for e in args.elts
        ):
            out.append(self.violation(
                info.fn.path, call,
                "lambda in spawn args cannot cross the process boundary "
                "(not picklable)",
            ))
        return out


@register_rule
class ThreadJoinOnShutdown(SysRule):
    """RS005: non-daemon threads need a join on the shutdown path."""

    rule_id = "RS005"
    name = "thread-join-on-shutdown"
    description = (
        "A non-daemon thread without a join keeps the interpreter "
        "alive past shutdown; a fire-and-forget thread can touch "
        "freed resources after the owner exits."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for info in facts.infos:
            bound_ctors = {id(a.call) for a in info.acquisitions
                           if a.kind == "thread"}
            for acq in info.acquisitions:
                if acq.kind != "thread" or acq.from_helper is not None:
                    continue
                if acq.daemon is True or acq.escaped:
                    continue
                if not any(r.method == "join" for r in acq.releases):
                    out.append(self.violation(
                        info.fn.path, acq.call,
                        f"non-daemon thread {acq.var!r} is never joined "
                        f"in {info.fn.qualname}(): it outlives every "
                        f"shutdown path -- join it (or mark daemon=True "
                        f"and join before releasing shared state)",
                    ))
            for node in own_nodes(info.fn.node):
                if (isinstance(node, ast.Call)
                        and call_name(node) == "Thread"
                        and id(node) not in bound_ctors):
                    daemon = kwarg(node, "daemon")
                    if (isinstance(daemon, ast.Constant)
                            and daemon.value is True):
                        continue
                    if not info.has_any_join:
                        out.append(self.violation(
                            info.fn.path, node,
                            f"fire-and-forget non-daemon thread in "
                            f"{info.fn.qualname}() has no join on any "
                            f"shutdown path",
                        ))
        return out


@register_rule
class AtomicDurableWrite(SysRule):
    """RS006: durable writers write only through the atomic-write helper."""

    rule_id = "RS006"
    name = "atomic-durable-write"
    description = (
        "Durable state (checkpoints, result cache, baselines) is written "
        "only through repro.resilience.durable: atomic_write, or a "
        "collective writer that fsyncs its tmp and promotes it with "
        "atomic_replace -- so a crash can never leave a torn file and "
        "the rename itself survives power loss."
    )
    default_paths = DURABLE_WRITER_PATHS

    def check(self, facts: SysFacts) -> list[Violation]:
        out: list[Violation] = []
        for info in facts.infos:
            where = f"{info.fn.qualname}()"
            for call in info.write_opens:
                if info.calls_atomic_replace and info.calls_fsync:
                    continue
                if info.calls_atomic_replace:
                    msg = (f"durable write in {where} promotes without "
                           f"os.fsync: the data can vanish on power loss "
                           f"after the rename is visible")
                elif info.calls_replace:
                    msg = (f"durable write in {where} hand-rolls "
                           f"os.replace: the rename is never fsynced to "
                           f"its directory -- write through atomic_write")
                else:
                    msg = (f"non-atomic durable write in {where}: "
                           f"open(..., 'w') -- write through atomic_write "
                           f"(tmp, fsync, rename, directory fsync)")
                out.append(self.violation(info.fn.path, call, msg))
            for call in info.path_writes:
                out.append(self.violation(
                    info.fn.path, call,
                    f"Path.write_text/write_bytes in {where} is "
                    f"non-atomic: a crash mid-write leaves a torn file "
                    f"-- write through atomic_write",
                ))
        return out


@register_rule
class KillWindowHazard(SysRule):
    """RS007: SIGKILL-exposed code must not own persistent state."""

    rule_id = "RS007"
    name = "kill-window-hazard"
    description = (
        "Code running in a kill-supervised child (a Process spawn "
        "target) can be SIGKILLed between any heartbeat publish and "
        "the parent's kill watermark: OS-persistent resources it "
        "creates (named segments, non-atomic files) are orphaned."
    )

    def check(self, facts: SysFacts) -> list[Violation]:
        exposed: dict[FuncInfo, None] = {}
        for info in facts.infos:
            for call in info.spawn_sites:
                tinfo = facts.spawn_target(info, call)
                if tinfo is None:
                    continue
                exposed[tinfo] = None
                # one level of same-file callees
                for node in own_nodes(tinfo.fn.node):
                    if isinstance(node, ast.Call):
                        callee = facts.resolve(node, tinfo)
                        if callee is not None and callee.fn.path == tinfo.fn.path:
                            exposed[callee] = None
        out: list[Violation] = []
        for info in exposed:
            for acq in info.acquisitions:
                if acq.kind == "segment" and acq.create:
                    out.append(self.violation(
                        info.fn.path, acq.call,
                        f"{info.fn.qualname}() runs in a kill-supervised "
                        f"child but creates a named segment: a SIGKILL "
                        f"between the heartbeat publish and the kill "
                        f"watermark orphans it -- create in the parent, "
                        f"attach in the child",
                    ))
            if not (info.calls_replace or info.calls_atomic_replace):
                for call in info.write_opens:
                    out.append(self.violation(
                        info.fn.path, call,
                        f"{info.fn.qualname}() runs in a kill-supervised "
                        f"child and writes a file non-atomically: a "
                        f"SIGKILL mid-write leaves a torn file -- use "
                        f"atomic_write (the tmp is sweepable after the "
                        f"kill)",
                    ))
        return out
