"""Tests of ``kernel-check`` (repro.analysis.perfcheck, CP-series rules)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import Program, analyze, check_program, registered_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.perfcheck import KernelSpec

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src" / "repro")

FIXTURE_PATH = "src/repro/physics/fixture.py"


def spec(name, module="physics/fixture.py", model_key=None):
    """A one-kernel spec tuple for fixture programs."""
    return (KernelSpec(name, module, "test contract", model_key),)


def perf_sources(sources, specs):
    """perfcheck in-memory sources against ``specs``; returns the report."""
    return check_program(Program(sources), ["perf"], kernels=specs)["perf"]


def perf(text, name, **kw):
    """perfcheck a fixture source declaring ``name`` as the only kernel."""
    return perf_sources({FIXTURE_PATH: textwrap.dedent(text)},
                         specs=spec(name, **kw))


def rules_of(report):
    return [v.rule for v in report.violations]


# -- registry ------------------------------------------------------------


def test_registry_has_the_five_cp_rules():
    # CP004 (Numba nopython certification) is retired; ids are never
    # renumbered because pragmas reference them.
    ids = [cls.rule_id for cls in registered_rules("perf")]
    assert ids == ["CP001", "CP002", "CP003", "CP005", "CP006"]
    for cls in registered_rules("perf"):
        assert cls.name and cls.description


def test_list_rules_includes_perf_catalogue(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in (1, 2, 3, 5, 6):
        assert f"CP00{i}" in out
    assert "CP004" not in out


# -- CP001 silent promotion ----------------------------------------------


def test_cp001_flags_provable_f32_f64_mix():
    report = perf(
        """
        import numpy as np

        def kmix(a):
            x = np.zeros((4,), dtype=np.float32)
            y = np.zeros((4,), dtype=np.float64)
            return x + y
        """,
        "kmix",
    )
    assert "CP001" in rules_of(report)


def test_cp001_clean_when_dtypes_agree():
    report = perf(
        """
        import numpy as np

        def kmix(a):
            x = np.zeros((4,), dtype=np.float64)
            y = np.zeros((4,), dtype=COMPUTE_DTYPE)
            return x + y
        """,
        "kmix",
    )
    assert "CP001" not in rules_of(report)


# -- CP002 strong scalars ------------------------------------------------


def test_cp002_flags_dtypeless_scalar_wrap():
    report = perf(
        """
        import numpy as np

        def kscal(a):
            half = np.asarray(0.5)
            return a * half
        """,
        "kscal",
    )
    assert "CP002" in rules_of(report)


def test_cp002_flags_np_float64_wrap():
    report = perf(
        """
        import numpy as np

        def kscal(a, x):
            return a * np.float64(x)
        """,
        "kscal",
    )
    assert "CP002" in rules_of(report)


def test_cp002_clean_with_bare_scalar_or_pinned_dtype():
    report = perf(
        """
        import numpy as np

        def kscal(a):
            half = np.asarray(0.5, dtype=np.float32)
            return a * half * 2.0
        """,
        "kscal",
    )
    assert "CP002" not in rules_of(report)


# -- CP003 hidden temporaries --------------------------------------------

_CP003_HOT = """
    import numpy as np

    def ktemp(a, b):
        t = (a + b) * (a - b) + (a * b) / (a + 1.0)
        u = (t + a) * (t - b) + (t * t) / (b + 1.0)
        v = (u + t) * (u - a) + (u * b) / (t + 1.0)
        return v
"""


def test_cp003_flags_undisciplined_allocation_chain():
    report = perf(_CP003_HOT, "ktemp")
    assert "CP003" in rules_of(report)


def test_cp003_clean_with_out_discipline():
    report = perf(
        """
        import numpy as np

        def ktemp(a, b, ws):
            t0, t1 = ws
            np.add(a, b, out=t0)
            np.subtract(a, b, out=t1)
            np.multiply(t0, t1, out=t0)
            np.multiply(a, b, out=t1)
            np.add(t0, t1, out=t0)
            np.divide(t0, b, out=t0)
            np.add(t0, a, out=t0)
            np.multiply(t0, t0, out=t1)
            np.add(t1, a, out=t0)
            np.multiply(t0, b, out=t1)
            np.add(t0, t1, out=t0)
            np.subtract(t0, a, out=t0)
            return t0
        """,
        "ktemp",
    )
    assert "CP003" not in rules_of(report)


# -- CP005 fancy indexing ------------------------------------------------


def test_cp005_flags_index_arrays_and_masks():
    report = perf(
        """
        import numpy as np

        def kgather(a):
            idx = np.argsort(a)
            top = a[idx]
            pos = a[a > 0.0]
            return top, pos
        """,
        "kgather",
    )
    assert rules_of(report).count("CP005") == 2


def test_cp005_clean_with_slices_and_integers():
    report = perf(
        """
        def kslice(a, n):
            return a[..., 1 : n + 1] + a[0]
        """,
        "kslice",
    )
    assert "CP005" not in rules_of(report)


# -- CP006 intensity divergence ------------------------------------------


def test_cp006_flags_counted_vs_modeled_divergence():
    # Counted: 5 FLOP / 2 operands = 0.3125 FLOP/B vs the "up" table
    # entry at 0.125 -- a 2.5x divergence.
    report = perf(
        """
        def kup(a, b):
            return a[0] * a[0] * a[0] * a[0] * a[0] * a[0]
        """,
        "kup",
        model_key="up",
    )
    assert "CP006" in rules_of(report)


def test_cp006_clean_within_tolerance():
    # Counted: 2 FLOP / 3 operands = 0.083 FLOP/B vs 0.125 -- 1.5x.
    report = perf(
        """
        def kup(a, b):
            return a[0] * b[0] + 1.0
        """,
        "kup",
        model_key="up",
    )
    assert "CP006" not in rules_of(report)


def test_cp006_skipped_without_model_key():
    report = perf(
        """
        def kup(a, b):
            return a[0] * a[0] * a[0] * a[0] * a[0] * a[0]
        """,
        "kup",
    )
    assert "CP006" not in rules_of(report)


# -- pragmas -------------------------------------------------------------


def test_trailing_pragma_disables_rule_for_the_statement():
    text = _CP003_HOT.replace(
        "def ktemp(a, b):", "def ktemp(a, b):  # lint: disable=CP003"
    )
    assert "CP003" not in rules_of(perf(text, "ktemp"))


def test_pragma_spans_multiline_statements():
    clean = perf(
        """
        import numpy as np

        def kmix(a):
            x = np.zeros((4,), dtype=np.float32)
            y = np.zeros((4,), dtype=np.float64)
            z = (  # lint: disable=CP001
                x
                + y
            )
            return z
        """,
        "kmix",
    )
    assert "CP001" not in rules_of(clean)
    # Without the pragma the same multi-line statement is flagged.
    dirty = perf(
        """
        import numpy as np

        def kmix(a):
            x = np.zeros((4,), dtype=np.float32)
            y = np.zeros((4,), dtype=np.float64)
            z = (
                x
                + y
            )
            return z
        """,
        "kmix",
    )
    assert "CP001" in rules_of(dirty)


def test_standalone_pragma_disables_rule_file_wide():
    text = "# lint: disable=CP003\n" + textwrap.dedent(_CP003_HOT)
    report = perf_sources({FIXTURE_PATH: text}, specs=spec("ktemp"))
    assert "CP003" not in rules_of(report)


# -- CLI exit codes ------------------------------------------------------


def test_cli_perf_clean_exit_zero(tmp_path, capsys):
    (tmp_path / "other.py").write_text('"""Not a hot module."""\n')
    code = cli_main(["--perf", str(tmp_path)])
    assert code == 0
    assert "kernel-check" in capsys.readouterr().err


_GATHER_WENO = (
    '"""Fixture weno module."""\n\n'
    "def weno5(v):\n"
    "    return v[v > 0.0]\n"
)


def test_cli_perf_findings_exit_one(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_GATHER_WENO)
    report = tmp_path / "r.json"
    code = cli_main(["--perf", str(tmp_path), "--report-out", str(report)])
    assert code == 1
    assert "CP005" in capsys.readouterr().out
    assert json.loads(report.read_text())["by_rule"] == {"CP005": 1}


def test_cli_perf_select_filters_rules(tmp_path, capsys):
    phys = tmp_path / "physics"
    phys.mkdir()
    (phys / "weno.py").write_text(_GATHER_WENO)
    code = cli_main(["--perf", str(tmp_path), "--select", "CP003"])
    capsys.readouterr()
    assert code == 0


def test_cli_unknown_cp_rule_exit_two(capsys):
    assert cli_main(["--perf", "--select", "CP999", SRC]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_exit_two(tmp_path, capsys):
    code = cli_main(["--perf", str(tmp_path / "nope")])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


# -- the real tree -------------------------------------------------------


def test_perfcheck_src_repro_is_clean():
    report = analyze([SRC], ["perf"])["perf"]
    assert report.violations == []
    assert report.checks_run > 0
