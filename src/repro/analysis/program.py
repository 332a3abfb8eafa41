"""The one whole-program model every static analysis family reads.

:class:`Program` parses each analyzed file exactly once into a
:class:`~repro.analysis.lint.SourceFile` and builds the tables the
families share:

* one **function table** -- a :class:`Function` row (path, name,
  qualname, class, node, module-level flag) per ``def``;
* one table of **module-level constants** per file;
* one **call resolver** (:meth:`Program.resolve`) that maps a call site
  to the function it invokes by bare name, preferring the caller's file
  and class and requiring a receiver-text hint for generic method names
  (``self.cache.get`` resolves to ``ResultCache.get`` while
  ``self._jobs.get`` -- a dict -- resolves to nothing);
* one **call-graph fixpoint** (:meth:`Program.propagate`: "calls a
  marked function") and one **transitive closure** (:meth:`Program.closure`).

A file that does not parse becomes one ``CL000`` finding that every
family reports.  The CC, CP and RS families are fact extractors over
this model plus rule sets in the one registry of
:mod:`repro.analysis.lint`; :func:`check_program` runs any subset of the
four families and :func:`analyze` does so for files on disk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .lint import (
    LintConfig,
    Report,
    SourceFile,
    Violation,
    iter_python_files,
)

#: The four static families, in report order.
FAMILIES = ("lint", "comm", "perf", "sys")

#: Method names too generic to resolve through the call graph by name
#: alone -- a call-site edge for one of these additionally needs the
#: receiver text to mention the defining module or class.
GENERIC_NAMES = frozenset({
    "get", "put", "read", "write", "close", "join", "open", "send",
    "recv", "pop", "update", "append", "extend", "clear", "flush",
    "wait", "start", "stop", "run", "copy", "add", "remove", "acquire",
    "release", "submit", "result", "info", "warn", "error", "debug",
    "fire", "next", "items", "keys", "values", "format", "drain",
    "key", "snapshot",
})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

T = TypeVar("T")


# -- shared AST helpers ----------------------------------------------------


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(call: ast.Call) -> str:
    """Last path component of the called expression ('' if exotic)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def kwarg(call: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name`` of a call, or None."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` skipping nested function/lambda bodies."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNC_NODES + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(node))


# -- the program -------------------------------------------------------------


@dataclass(eq=False)
class Function:
    """One row of the program's function table (hashed by identity)."""

    path: str
    name: str
    qualname: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module_level: bool  #: not nested inside another function


class Program:
    """Every analyzed file parsed once, plus the program-wide tables.

    ``sources`` maps display paths to source text.  Files are indexed
    in path order, and each file's functions in ``ast.walk`` order.
    """

    def __init__(self, sources: Mapping[str, str]):
        self.sources: dict[str, SourceFile] = {}
        #: one CL000 finding per file that does not parse
        self.errors: list[Violation] = []
        self.functions: list[Function] = []
        #: bare name -> every function of that name
        self.by_name: dict[str, list[Function]] = {}
        self.by_node: dict[ast.AST, Function] = {}
        #: path -> module-level ``NAME = <constant>`` bindings
        self.consts: dict[str, dict[str, object]] = {}
        self._calls: dict[Function, list[tuple[ast.Call, Function]]] = {}
        for path in sorted(sources):
            try:
                source = SourceFile(path, sources[path])
            except SyntaxError as exc:
                self.errors.append(Violation(
                    path=path, line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1, rule="CL000",
                    message=f"syntax error: {exc.msg}",
                ))
                continue
            self.sources[path] = source
            self._index(source)

    @classmethod
    def from_paths(cls, paths: Iterable[str | Path]) -> "Program":
        """Returns the program of every python file under ``paths``."""
        return cls({
            str(f): f.read_text(encoding="utf-8")
            for f in iter_python_files(paths)
        })

    def _index(self, source: SourceFile) -> None:
        parents = source.parents()
        consts = self.consts.setdefault(source.path, {})
        for node in source.tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)):
                consts[node.targets[0].id] = node.value.value
        for node in ast.walk(source.tree):
            if not isinstance(node, _FUNC_NODES):
                continue
            parent = parents.get(node)
            class_name = parent.name if isinstance(parent, ast.ClassDef) else None
            fn = Function(
                path=source.path, name=node.name,
                qualname=f"{class_name}.{node.name}" if class_name else node.name,
                class_name=class_name, node=node,
                module_level=self._enclosing_def(node, parents) is None,
            )
            self.functions.append(fn)
            self.by_name.setdefault(node.name, []).append(fn)
            self.by_node[node] = fn

    @staticmethod
    def _enclosing_def(node: ast.AST, parents: dict) -> ast.AST | None:
        cur = parents.get(node)
        while cur is not None and not isinstance(cur, _FUNC_NODES):
            cur = parents.get(cur)
        return cur

    def enclosing(self, path: str, node: ast.AST) -> Function | None:
        """The nearest function enclosing ``node`` (lambdas are transparent)."""
        found = self._enclosing_def(node, self.sources[path].parents())
        return self.by_node[found] if found is not None else None

    # -- call graph ----------------------------------------------------------

    def resolve(self, call: ast.Call, path: str,
                class_name: str | None = None) -> Function | None:
        """The function a call in ``path`` (inside ``class_name``) invokes.

        Bare-name calls prefer the caller's file, then a unique
        non-generic definition; ``self.m()`` resolves within the
        caller's class; other attribute calls need a unique definition
        or, for :data:`GENERIC_NAMES`, a receiver that names the
        defining module or class.  Returns None when ambiguous.
        """
        bare = call_name(call)
        cands = self.by_name.get(bare, [])
        if not cands:
            return None
        same_file = [c for c in cands if c.path == path]
        if isinstance(call.func, ast.Name):
            if len(same_file) == 1:
                return same_file[0]
            if len(cands) == 1 and bare not in GENERIC_NAMES:
                return cands[0]
            return None
        recv = dotted(call.func.value)
        if recv == "self":
            own = [c for c in same_file if c.class_name == class_name]
            return own[0] if len(own) == 1 else None
        if bare not in GENERIC_NAMES:
            if len(cands) == 1:
                return cands[0]
            return same_file[0] if len(same_file) == 1 else None
        low = recv.lower()
        hinted = [c for c in cands if any(h in low for h in _hints(c))]
        return hinted[0] if len(hinted) == 1 else None

    def calls(self, fn: Function) -> list[tuple[ast.Call, Function]]:
        """Resolved ``(call, callee)`` edges of ``fn``'s own body (cached)."""
        if fn not in self._calls:
            self._calls[fn] = [
                (node, target) for node in own_nodes(fn.node)
                if isinstance(node, ast.Call)
                and (target := self.resolve(node, fn.path, fn.class_name))
                is not None
            ]
        return self._calls[fn]

    def propagate(self, seeds: dict[Function, T],
                  step: Callable[[Function, T], T]) -> dict[Function, T]:
        """Least fixpoint of "calls a marked function".

        Starting from ``seeds``, a function calling a marked callee is
        marked with ``step(callee, callee_mark)`` -- the first marked
        callee in call order, functions visited in table order.
        """
        marked = dict(seeds)
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn in marked:
                    continue
                for _, callee in self.calls(fn):
                    if callee in marked:
                        marked[fn] = step(callee, marked[callee])
                        changed = True
                        break
        return marked

    def closure(self, root: Function,
                follow: Callable[[ast.Call], bool]) -> list[Function]:
        """``root`` plus every function it transitively calls.

        Only call sites accepted by ``follow`` are edges; nested defs
        count as part of their parent's body.
        """
        seen: list[Function] = []
        stack = [root]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.append(fn)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call) and follow(node):
                    target = self.resolve(node, fn.path, fn.class_name)
                    if target is not None and target not in seen:
                        stack.append(target)
        return seen


def _hints(fn: Function) -> tuple[str, ...]:
    """Receiver-text hints naming ``fn``'s module stem and class."""
    stem = fn.path.rsplit("/", 1)[-1].removesuffix(".py").lower()
    if fn.class_name:
        return stem, fn.class_name.lower().lstrip("_")
    return (stem,)


# -- running the families ----------------------------------------------------


def _facts(family: str, program: Program, kernels):
    """The family's fact extractor applied to ``program``."""
    # Imported here: the family modules build on this one.
    from .concurrency.commcheck import CommFacts
    from .perfcheck.facts import KernelFacts
    from .syscheck.facts import SysFacts

    if family == "comm":
        return CommFacts(program)
    if family == "perf":
        return KernelFacts(program, kernels)
    return SysFacts(program)


def check_program(program: Program, families: Iterable[str] = FAMILIES,
                  config: LintConfig | None = None,
                  kernels=None) -> dict[str, Report]:
    """Run the families' rules over ``program``; returns family -> report.

    ``config`` selects rules and overrides their path scope; ``kernels``
    replaces the declared hot kernels of the perf family
    (:data:`repro.analysis.perfcheck.model.HOT_KERNELS`).  Findings
    honour ``# lint: disable=...`` pragmas; every report carries the
    program's CL000 parse errors.
    """
    config = config or LintConfig()
    reports: dict[str, Report] = {}
    for family in families:
        rules = config.active_rules(family)
        report = Report(family)
        found: list[Violation] = []
        if family == "lint":
            for source in program.sources.values():
                for rule in rules:
                    if config.applies(rule, source.path):
                        report.checks_run += 1
                        found.extend(rule.check(source))
        else:
            facts = _facts(family, program, kernels)
            report.checks_run = facts.checks_run(rules, config)
            for rule in rules:
                found.extend(
                    v for v in rule.check(facts) if config.applies(rule, v.path)
                )
        report.violations = sorted(set(program.errors) | {
            v for v in found
            if not program.sources[v.path].disabled(v.rule, v.line)
        })
        reports[family] = report
    return reports


def analyze(paths: Iterable[str | Path], families: Iterable[str] = FAMILIES,
            select: frozenset[str] | None = None,
            ignore: frozenset[str] = frozenset()) -> dict[str, Report]:
    """Parse every python file under ``paths`` once and run ``families``.

    Returns family -> :class:`~repro.analysis.lint.Report`.
    """
    return check_program(Program.from_paths(paths), families,
                         LintConfig(select=select, ignore=ignore))


def lint_source(text: str, path: str,
                config: LintConfig | None = None) -> list[Violation]:
    """Lint one in-memory source string; returns sorted violations.

    ``path`` is used both for display and for per-rule path scoping, so
    tests can place fixture snippets in any layer of the tree.
    """
    return check_program(Program({path: text}), ["lint"], config)["lint"].violations


def lint_paths(paths: Iterable[str | Path],
               config: LintConfig | None = None) -> list[Violation]:
    """Lint every python file under ``paths``; returns sorted violations."""
    return check_program(Program.from_paths(paths), ["lint"], config)["lint"].violations
