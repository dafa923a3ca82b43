"""Device-code lint: self-test over src/repro + per-rule fixture checks."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.lint import lint_file, lint_paths, lint_source, main

REPRO_ROOT = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def rules_in(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------- #
# the gate: the entire package must be clean
# --------------------------------------------------------------------- #
def test_repro_tree_is_lint_clean():
    findings = lint_paths([REPRO_ROOT])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_cli_main_clean_and_dirty(capsys):
    assert main([str(REPRO_ROOT / "locks")]) == 0
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "finding(s)" in out


# --------------------------------------------------------------------- #
# each rule fires on its fixture
# --------------------------------------------------------------------- #
def test_r1_non_op_yield():
    findings = lint_file(FIXTURES / "bad_non_op_yield.py")
    assert rules_in(findings) == ["R1-op-protocol", "R1-op-protocol"]
    assert {f.func for f in findings} == {
        "d_bad_yields_int", "d_bad_bare_yield"
    }
    assert "bare yield" in findings[1].message


def test_r2_unused_result():
    findings = lint_file(FIXTURES / "bad_unused_result.py")
    assert rules_in(findings) == ["R2-unused-result", "R2-unused-result"]
    assert {f.func for f in findings} == {"d_discards_load", "d_discards_cas"}
    # bare AtomicAdd (version-bump idiom) must NOT be flagged
    assert all("d_bare_atomic_add" not in f.func for f in findings)


def test_r3_host_call():
    findings = lint_file(FIXTURES / "bad_host_call.py")
    assert rules_in(findings) == ["R3-host-call", "R3-host-call"]
    assert {f.func for f in findings} == {"d_alloc_in_kernel", "d_host_view_write"}


def test_r4_missing_branch():
    findings = lint_file(FIXTURES / "bad_missing_branch.py")
    assert rules_in(findings) == ["R4-missing-branch"] * 3
    assert [f.func for f in findings] == [
        "d_if_without_branch",
        "d_loop_without_branch",
        "d_derived_taint_without_branch",
    ]
    assert all("d_branch_satisfies_rule" not in f.func for f in findings)


def test_r5_wait_without_recheck():
    findings = lint_file(FIXTURES / "bad_wait_without_recheck.py")
    assert rules_in(findings) == ["R5-wait-recheck"] * 3
    assert [f.func for f in findings] == [
        "d_wait_once", "d_wait_under_if", "d_wait_in_for"
    ]
    assert all("while" in f.message for f in findings)


# --------------------------------------------------------------------- #
# rule boundaries (source-level cases)
# --------------------------------------------------------------------- #
def test_yield_from_results_are_exempt():
    src = """
from repro.simt.instructions import Load

def d_callee(addr):
    v = yield Load(addr)
    return v

def d_caller(addr):
    v = yield from d_callee(addr)
    if v:  # clean: delegation charges the callee's branch discipline
        return 1
    return 0
"""
    findings = [f for f in lint_source(src) if f.rule == "R4-missing-branch"]
    # d_callee itself has no control flow; d_caller's test is exempt
    assert findings == []


def test_non_device_generators_ignored():
    src = """
def chunks(items, n):
    for i in range(0, len(items), n):
        yield items[i : i + n]
"""
    assert lint_source(src) == []


def test_reassignment_clears_taint():
    src = """
from repro.simt.instructions import Load

def d_overwrites(addr):
    v = yield Load(addr)
    v = 0
    if v:  # clean: v no longer carries the loaded value
        return 1
    return 0
"""
    assert lint_source(src) == []


def test_syntax_error_reported_not_raised():
    findings = lint_source("def d_broken(:\n")
    assert rules_in(findings) == ["R0-syntax"]


def test_findings_carry_location():
    findings = lint_file(FIXTURES / "bad_missing_branch.py")
    f = findings[0]
    assert f.path.endswith("bad_missing_branch.py")
    assert f.line > 0
    assert "Branch" in f.message
    assert str(f).startswith(f.path)
