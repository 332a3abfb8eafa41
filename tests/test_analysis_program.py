"""Tests of the shared whole-program model (repro.analysis.program).

The CC, CP and RS families read their facts from one :class:`Program`;
these tests pin the pieces they share: the function and constants
tables, the call resolver, the call-graph fixpoint and closure, the one
rule registry and the one report class.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis.lint import (
    FAMILY_PREFIXES,
    LintConfig,
    Report,
    Rule,
    Violation,
    register_rule,
    registered_rules,
)
from repro.analysis.program import (
    FAMILIES,
    Program,
    call_name,
    check_program,
    dotted,
    kwarg,
    own_nodes,
)


def program(**files: str) -> Program:
    """A program of ``path=source`` fixtures; ``__`` in a name is ``/``."""
    return Program({
        name.replace("__", "/") + ".py": textwrap.dedent(text)
        for name, text in files.items()
    })


def fn(prog: Program, qualname: str, path: str | None = None):
    rows = [f for f in prog.functions if f.qualname == qualname
            and (path is None or f.path == path)]
    assert len(rows) == 1, rows
    return rows[0]


def first_call(source: str) -> ast.Call:
    return next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call))


# -- shared AST helpers ----------------------------------------------------


def test_ast_helpers():
    call = first_call("comm.world.send(buf, dest=1, tag=7)")
    assert dotted(call.func) == "comm.world.send"
    assert call_name(call) == "send"
    assert isinstance(kwarg(call, "tag"), ast.Constant)
    assert kwarg(call, "source") is None
    # Exotic callees have no dotted path and no name.
    exotic = first_call("handlers[0](x)")
    assert dotted(exotic.func) == "" and call_name(exotic) == ""


def test_own_nodes_skips_nested_function_and_lambda_bodies():
    tree = ast.parse(textwrap.dedent("""
        def outer():
            a()
            def inner():
                b()
            f = lambda: c()
            return d()
    """))
    names = {call_name(n) for n in own_nodes(tree.body[0])
             if isinstance(n, ast.Call)}
    assert names == {"a", "d"}


# -- the tables ------------------------------------------------------------


def test_function_table_rows():
    prog = program(pkg__mod="""
        def top():
            def nested():
                pass
            return nested

        class Cache:
            def get(self, key):
                return key
    """)
    rows = {(f.qualname, f.class_name, f.module_level) for f in prog.functions}
    assert rows == {
        ("top", None, True),
        ("nested", None, False),
        ("Cache.get", "Cache", True),
    }
    get = fn(prog, "Cache.get")
    assert get.path == "pkg/mod.py" and get.name == "get"
    assert prog.by_name["get"] == [get]
    assert prog.by_node[get.node] is get
    nested = fn(prog, "nested")
    assert prog.enclosing("pkg/mod.py", nested.node.body[0]) is nested


def test_module_constants_table_holds_only_module_level_literals():
    prog = program(pkg__mod="""
        TAG = 7
        NAME = "halo"
        SHAPE = (8, 8)
        A, B = 1, 2

        def f():
            LOCAL = 3
    """)
    assert prog.consts["pkg/mod.py"] == {"TAG": 7, "NAME": "halo"}


def test_unparsable_file_is_one_cl000_and_the_rest_is_indexed():
    prog = program(pkg__ok="def fine():\n    pass\n",
                   pkg__bad="def broken(:\n    pass\n")
    assert [(v.path, v.rule) for v in prog.errors] == [("pkg/bad.py", "CL000")]
    assert set(prog.sources) == {"pkg/ok.py"}
    assert [f.qualname for f in prog.functions] == ["fine"]
    for family, report in check_program(prog).items():
        assert [v.rule for v in report.violations] == ["CL000"], family


# -- the call resolver -----------------------------------------------------


def test_resolve_bare_name_prefers_the_callers_file():
    prog = program(
        pkg__a="def helper():\n    pass\ndef run():\n    helper()\n",
        pkg__b="def helper():\n    pass\ndef go():\n    helper()\n",
        pkg__c="def other():\n    helper()\n",
    )
    for path, caller in (("pkg/a.py", "run"), ("pkg/b.py", "go")):
        [(_, callee)] = prog.calls(fn(prog, caller, path))
        assert callee.path == path
    # Two definitions, neither in the caller's file: ambiguous.
    assert prog.calls(fn(prog, "other")) == []


def test_resolve_self_method_stays_in_the_callers_class():
    prog = program(pkg__m="""
        class A:
            def step(self):
                return self.flush()
            def flush(self):
                pass

        class B:
            def flush(self):
                pass
    """)
    [(_, callee)] = prog.calls(fn(prog, "A.step"))
    assert callee is fn(prog, "A.flush")


def test_resolve_generic_method_needs_a_receiver_hint():
    prog = program(
        service__cache="""
            class ResultCache:
                def get(self, key):
                    return key
        """,
        service__engine="""
            class Engine:
                def lookup(self, key):
                    return self.cache.get(key)
                def pending(self, key):
                    return self._jobs.get(key)
        """,
    )
    [(_, callee)] = prog.calls(fn(prog, "Engine.lookup"))
    assert callee is fn(prog, "ResultCache.get")
    # A dict's .get names neither the module nor the class.
    assert prog.calls(fn(prog, "Engine.pending")) == []


# -- fixpoint and closure --------------------------------------------------


CHAIN = """
    def leaf():
        pass

    def middle():
        leaf()

    def top():
        middle()

    def unrelated():
        pass
"""


def test_propagate_marks_every_transitive_caller():
    prog = program(pkg__chain=CHAIN)
    leaf = fn(prog, "leaf")
    marked = prog.propagate({leaf: ("leaf",)},
                            lambda callee, path: (callee.name,) + path)
    assert {f.name: path for f, path in marked.items()} == {
        "leaf": ("leaf",),
        "middle": ("leaf", "leaf"),
        "top": ("middle", "leaf", "leaf"),
    }


def test_closure_follows_only_accepted_call_sites():
    prog = program(pkg__chain=CHAIN)
    top = fn(prog, "top")
    everything = prog.closure(top, lambda call: True)
    assert [f.name for f in everything] == ["top", "middle", "leaf"]
    cut = prog.closure(top, lambda call: call_name(call) != "leaf")
    assert [f.name for f in cut] == ["top", "middle"]


# -- one registry, one report ----------------------------------------------


def test_registry_families_come_from_the_id_prefix():
    every = registered_rules()
    assert {FAMILY_PREFIXES[cls.rule_id[:2]] for cls in every} == set(FAMILIES)
    assert sum(len(registered_rules(f)) for f in FAMILIES) == len(every)
    for family in FAMILIES:
        prefixes = {cls.rule_id[:2] for cls in registered_rules(family)}
        assert [FAMILY_PREFIXES[p] for p in prefixes] == [family]


def test_register_rule_refuses_unknown_prefix_and_duplicate_id():
    class NoFamily(Rule):
        rule_id = "XX001"

    with pytest.raises(ValueError, match="family prefix"):
        register_rule(NoFamily)

    class Impostor(Rule):
        rule_id = registered_rules("lint")[0].rule_id

    with pytest.raises(ValueError, match="duplicate rule id"):
        register_rule(Impostor)


@pytest.mark.parametrize("family, label", [
    ("lint", "lint"), ("comm", "concurrency"),
    ("perf", "perfcheck"), ("sys", "syscheck"),
])
def test_report_summary_and_payload(family, label):
    report = Report(family, checks_run=12)
    assert report.summary() == f"{label}: clean (12 checks)"
    report.violations = [
        Violation("b.py", 3, 1, "X002", "m"),
        Violation("a.py", 9, 5, "X001", "m"),
        Violation("a.py", 2, 1, "X002", "m"),
    ]
    assert len(report) == 3
    assert report.summary() == (
        f"{label}: 3 finding(s) in 12 checks (X001=1, X002=2)"
    )
    payload = report.to_dict()
    assert payload["checks_run"] == 12
    assert payload["by_rule"] == {"X002": 2, "X001": 1}
    assert [(f["path"], f["line"]) for f in payload["findings"]] == [
        ("a.py", 2), ("a.py", 9), ("b.py", 3),
    ]


def test_check_program_runs_only_the_requested_families():
    prog = program(core__k="import numpy as np\nA = np.float32\n")
    reports = check_program(prog, ["lint", "perf"])
    assert list(reports) == ["lint", "perf"]
    assert [v.rule for v in reports["lint"].violations] == ["CL001"]
    assert reports["lint"].checks_run > 0
    selected = check_program(prog, ["lint"],
                             LintConfig(select=frozenset({"CL004"})))
    assert selected["lint"].violations == []
    assert selected["lint"].checks_run == 1  # one file x one rule
