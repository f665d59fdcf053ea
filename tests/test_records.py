"""The record classes are plain ``__slots__`` classes: ``CartanMatrix`` is a
value, the results of a verification run keep their constructor defaults,
and Schubert classes compare by identity."""

import pytest

from chowring import CartanMatrix, ChowRing, root_system
from chowring.f4pipeline import CheckResult, VerificationReport
from chowring.rootsystem import BUILTIN_CARTAN


def test_cartan_matrices_from_the_same_rows_are_equal_and_hash_alike():
    rows = [list(row) for row in BUILTIN_CARTAN["F4"]]
    a, b = CartanMatrix.from_rows(rows), CartanMatrix.from_name("F4")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != CartanMatrix.from_name("B3")
    assert a != BUILTIN_CARTAN["F4"]
    assert repr(CartanMatrix.from_name("A1")) == "CartanMatrix(entries=((2,),))"


def test_cartan_matrix_refuses_new_attributes():
    with pytest.raises(AttributeError):
        CartanMatrix.from_name("A2").rank_hint = 2


def test_check_result_defaults():
    result = CheckResult("demo", True, "ok")
    assert (result.name, result.passed, result.detail) == ("demo", True, "ok")
    assert result.witness is None
    assert result.elapsed == 0.0
    assert result.error is False
    assert result.status == "PASS"
    assert CheckResult("demo", False, "boom", error=True).status == "ERROR"


def test_reports_do_not_share_a_checks_list():
    first, second = VerificationReport(), VerificationReport()
    first.checks.append(CheckResult("demo", True, "ok"))
    assert second.checks == []
    assert first.checks is not second.checks
    checks = [CheckResult("demo", True, "ok")]
    assert VerificationReport(checks).checks is checks


def test_schubert_classes_compare_by_identity():
    system = root_system("B2")
    one, two = ChowRing(system), ChowRing(system)
    for a, b in zip(one.classes, two.classes):
        assert (a.rep, a.codim, a.position, a.point) == (b.rep, b.codim, b.position, b.point)
        assert a != b
        assert a == a
        assert len({a, b}) == 2
