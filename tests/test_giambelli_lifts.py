"""The Giambelli lifts delta_w(d) against an independent chain rule.

The engine starts each chain at a parabolic base delta_{w_J}(d) =
|W_J| d_{P_J}, where J is the right-descent set of w.  The oracle below
keeps the plain rule instead: strip the smallest left descent, all the
way up from d, the product of every positive root.
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from chowring import f4pipeline as pipe
from chowring import poly, schubert
from chowring.poly import RationalPolynomial
from chowring.rootsystem import BUILTIN_CARTAN, root_system
from chowring.schubert import _GiambelliEngine, get_chow_ring
from chowring.weyl import get_weyl_group, longest_element
import poly_oracle
from weyl_oracle import (inverse, left_min_descent, list_group, listed_group,
                         root_to_weight)


def oracle_delta_d(system, idx, memo):
    """delta_{w_idx}(d) along smallest-left-descent chains from d, over
    the listing of W by right products."""
    elements, index = listed_group(system)
    stack = [idx]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if elements[top].length == 0:
            memo[top] = poly_oracle._raw_root_product(system)
            stack.pop()
            continue
        i, below = left_min_descent(elements[top])
        parent = index[below.images]
        if parent not in memo:
            stack.append(parent)
            continue
        memo[top] = schubert._raw_delta(system, i, memo[parent])
        stack.pop()
    return memo[idx]


def _lift_indices(system):
    """Indices w^{-1} of the 48 classes of X1 and X4 (F4/P1 and F4/P4);
    the unit class of both is w0, so 47 of them are distinct."""
    _, index = listed_group(system)
    return [index[inverse(c.rep).images]
            for theta in ((2, 3, 4), (1, 2, 3))
            for c in get_chow_ring(system, theta).classes]


@pytest.fixture(scope="session")
def f4_oracle_memo():
    """The oracle's chain values on F4, shared by the tests that only
    compare against them."""
    return {}


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B3"])
def test_delta_d_matches_oracle_on_every_element(name):
    group = get_weyl_group(root_system(name))
    engine = _GiambelliEngine(group)
    memo = {}
    for idx in range(group.order):
        assert engine.delta_d(idx) == oracle_delta_d(group.system, idx, memo), \
            group.elements[idx]


def test_delta_d_matches_oracle_on_the_f4_lifts(f4_group, f4_oracle_memo):
    engine = _GiambelliEngine(f4_group)
    indices = _lift_indices(f4_group.system)
    assert (len(indices), len(set(indices))) == (48, 47)
    for idx in indices:
        want = oracle_delta_d(f4_group.system, idx, f4_oracle_memo)
        assert engine.delta_d(idx) == want, f4_group.elements[idx]


def _root_form(system, beta):
    """The root beta as a linear form in the weight variables."""
    n = system.rank
    return RationalPolynomial(system, {
        tuple(int(t == k) for t in range(n)): c
        for k, c in enumerate(root_to_weight(system, beta))})


def _roots_outside(system, J):
    """The product of the positive roots outside Phi_J, as linear forms."""
    acc = RationalPolynomial(system, {(0,) * system.rank: 1})
    for beta in system.positive_roots:
        if all(i in J for i, c in enumerate(beta, 1) if c):
            continue
        acc = acc * _root_form(system, beta)
    return acc


@pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN))
def test_parabolic_base(name):
    """delta_{w_J}(d) = |W_J| d_{P_J} for every J, by the oracle chain;
    d itself is the root product at J = ()."""
    system = root_system(name)
    _, index = listed_group(system)
    assert poly_oracle._raw_root_product(system) == _roots_outside(system, ()).terms
    memo = {}
    nodes = range(1, system.rank + 1)
    for size in range(system.rank + 1):
        for J in combinations(nodes, size):
            outside = _roots_outside(system, J)
            idx = index[longest_element(system, J).images]
            assert oracle_delta_d(system, idx, memo) == \
                (len(list_group(system, J)) * outside).terms, J


def test_chains_make_fewer_divided_differences(f4_group, monkeypatch):
    """A fresh F4 engine lifts the 48 classes of X1 and X4 with fewer
    divided differences than the chains from d take."""
    calls = []
    kernel = schubert._raw_delta

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(schubert, "_raw_delta", counted)
    indices = _lift_indices(f4_group.system)
    engine = _GiambelliEngine(f4_group)
    for idx in indices:
        engine.delta_d(idx)
    engine_calls = len(calls)
    calls.clear()
    memo = {}
    for idx in indices:
        oracle_delta_d(f4_group.system, idx, memo)
    assert 0 < engine_calls < len(calls)


def test_factored_chain_values_expand_to_the_oracle(f4_group, f4_oracle_memo):
    """After the 48 lifts, every chain value the engine keeps, Q times the
    positive roots indexed by S, expands to delta_w(d) of its index."""
    system = f4_group.system
    forms = [_root_form(system, beta) for beta in system.positive_roots]
    engine = _GiambelliEngine(f4_group)
    for idx in _lift_indices(system):
        engine.delta_d(idx)
    assert len(engine._factored) > 47
    for idx, (roots, cofactor) in engine._factored.items():
        acc = RationalPolynomial._from_raw(system, dict(cofactor))
        for b in roots:
            acc = acc * forms[b]
        assert acc.terms == oracle_delta_d(system, idx, f4_oracle_memo), \
            f4_group.elements[idx]


def test_lifts_never_expand_a_root_product(f4_group, monkeypatch):
    """The chains start at factored bases: lifting the 48 classes expands
    no product of positive roots, neither d nor a parabolic base
    |W_J| d_{P_J}, unless the lift asked for is that base itself (the
    point class at w_theta, and the unit class at w0)."""
    system = f4_group.system
    indices = _lift_indices(system)
    asked = {f4_group.elements[idx] for idx in indices}
    bases = {}
    for size in range(system.rank + 1):
        for J in combinations(range(1, system.rank + 1), size):
            if longest_element(system, J) not in asked:
                base = len(list_group(system, J)) * _roots_outside(system, J)
                bases[frozenset(base.terms.items())] = J
    mul = poly._Calculus.mul

    def refuse_bases(self, a, b):
        out = mul(self, a, b)
        J = bases.get(frozenset(out.items()))
        if J is not None:
            raise AssertionError(f"the parabolic base of J = {J} was expanded")
        return out

    monkeypatch.setattr(poly._Calculus, "mul", refuse_bases)
    engine = _GiambelliEngine(f4_group)
    for idx in indices:
        assert engine.delta_d(idx)


def test_factored_chains_halve_the_divided_difference_input(f4_group, monkeypatch):
    """delta_i expands only the roots that s_i moves, so the 48 lifts feed
    the divided differences fewer than half the monomials the chains from d
    feed them."""
    sizes = []
    kernel = schubert._raw_delta

    def counted(*args):
        sizes.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(schubert, "_raw_delta", counted)
    indices = _lift_indices(f4_group.system)
    engine = _GiambelliEngine(f4_group)
    for idx in indices:
        engine.delta_d(idx)
    engine_terms = sum(sizes)
    sizes.clear()
    memo = {}
    for idx in indices:
        oracle_delta_d(f4_group.system, idx, memo)
    assert 0 < 2 * engine_terms < sum(sizes)


def _verify_products():
    """The 46 Giambelli products of ``verify f4``: the 44 hyperplane table
    rows and the two squares."""
    products = []
    for v, ring in zip(pipe.VARIETIES, pipe.get_f4_varieties()):
        h = ring.hyperplane_class(v.node)
        products += [(h, ring.class_by_label(rhs)) for _, rhs, _ in pipe.load_table(v.stem)]
        products.append((ring.class_by_label(v.squared),) * 2)
    return products


def test_factored_c_map_reads_fewer_monomials(x1, monkeypatch):
    """On a fresh F4 engine with the chains warm, verify's 46 products feed
    the divided differences fewer monomials through the factored c map than
    through the c map of the expanded lift products, and each makes exactly
    one level-1 probe: the two factors' common right descents hold theta,
    which leaves one node of F4 to probe on X1 and X4."""
    system = x1.system
    products = _verify_products()
    assert len(products) == 46
    engine = _GiambelliEngine(x1.group)
    mul = poly._calculus(system).mul
    expanded = [(mul(engine.lift_raw(a.rep), engine.lift_raw(b.rep)), a.codim + b.codim)
                for a, b in products]
    sizes = []
    kernel = schubert._raw_delta

    def counted(*args):
        sizes.append(len(args[2]))
        return kernel(*args)

    inputs, probes = [], []
    c_raw, step = engine.c_raw, engine._step

    def watched_c_raw(u_raw, degree, *rest):
        inputs.append(u_raw)
        return c_raw(u_raw, degree, *rest)

    def watched_step(i, roots, cofactor):
        if cofactor is inputs[-1]:
            probes.append(i)
        return step(i, roots, cofactor)

    monkeypatch.setattr(schubert, "_raw_delta", counted)
    monkeypatch.setattr(engine, "c_raw", watched_c_raw)
    monkeypatch.setattr(engine, "_step", watched_step)
    for a, b in products:
        probes.clear()
        assert engine.product_classes(a.rep, b.rep)
        assert len(probes) == 1, (a, b)
    factored_terms = sum(sizes)
    sizes.clear()
    for u, degree in expanded:
        assert engine.c_raw(u, degree)
    assert 0 < factored_terms < sum(sizes)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_verify_pins_the_divided_difference_work():
    """A whole ``verify f4 --eps both``, from a fresh process, makes at most
    923 divided differences on at most 66,418 input monomials (1061 on
    77,422 with the lift products expanded)."""
    code = (f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n"
            "from chowring import schubert\n"
            "from chowring.f4pipeline import run_f4_verification\n"
            "kernel, work = schubert._raw_delta, [0, 0]\n"
            "def counted(system, i, a):\n"
            "    work[0] += 1\n"
            "    work[1] += len(a)\n"
            "    return kernel(system, i, a)\n"
            "schubert._raw_delta = counted\n"
            "report = run_f4_verification('both')\n"
            "print(json.dumps([sum(c.passed for c in report.checks)] + work))")
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True)
    passed, calls, terms = json.loads(child.stdout)
    assert passed == 21
    assert 0 < calls <= 923
    assert 0 < terms <= 66418
