"""The Giambelli lifts delta_w(d) against an independent chain rule.

The engine starts each chain at a parabolic base delta_{w_J}(d) =
|W_J| d_{P_J}, where J is the right-descent set of w.  The oracle below
keeps the plain rule instead: strip the smallest left descent, all the
way up from d, the product of every positive root.
"""

from itertools import combinations

import pytest

from chowring import poly, schubert
from chowring.poly import RationalPolynomial
from chowring.rootsystem import BUILTIN_CARTAN, root_system
from chowring.schubert import _GiambelliEngine, get_chow_ring
from chowring.weyl import get_weyl_group, identity, mult_simple_right


def oracle_delta_d(group, idx, memo):
    """delta_{w_idx}(d) along smallest-left-descent chains from d."""
    stack = [idx]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if group.element_at(top).length == 0:
            memo[top] = poly._raw_root_product(group.system)
            stack.pop()
            continue
        i = group.left_min_descent(top)
        parent = group.left_index(top, i)
        if parent not in memo:
            stack.append(parent)
            continue
        memo[top] = schubert._raw_delta(group.system, i, memo[parent])
        stack.pop()
    return memo[idx]


def _lift_indices(group):
    """Indices w^{-1} of the 48 classes of X1 and X4 (F4/P1 and F4/P4);
    the unit class of both is w0, so 47 of them are distinct."""
    return [group.inverse_index(group.index_of(c.rep))
            for theta in ((2, 3, 4), (1, 2, 3))
            for c in get_chow_ring(group.system, theta).classes]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "B3"])
def test_delta_d_matches_oracle_on_every_element(name):
    group = get_weyl_group(root_system(name))
    engine = _GiambelliEngine(group)
    memo = {}
    for idx in range(group.order):
        assert engine.delta_d(idx) == oracle_delta_d(group, idx, memo), \
            group.element_at(idx)


def test_delta_d_matches_oracle_on_the_f4_lifts(f4_group):
    engine = _GiambelliEngine(f4_group)
    memo = {}
    indices = _lift_indices(f4_group)
    assert (len(indices), len(set(indices))) == (48, 47)
    for idx in indices:
        assert engine.delta_d(idx) == oracle_delta_d(f4_group, idx, memo), \
            f4_group.element_at(idx)


def _subgroup_order(system, J):
    """|W_J| by enumerating the subgroup generated by s_j, j in J."""
    e = identity(system)
    seen = {e.images}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for j in J:
                u = mult_simple_right(w, j)
                if u.images not in seen:
                    seen.add(u.images)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


def _root_form(system, beta):
    """The root beta as a linear form in the weight variables."""
    form = RationalPolynomial.zero(system)
    for k, c in enumerate(system.root_to_weight(beta), 1):
        form = form + c * RationalPolynomial.variable(system, k)
    return form


def _roots_outside(system, J):
    """The product of the positive roots outside Phi_J, as linear forms."""
    acc = RationalPolynomial.one(system)
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
    group = get_weyl_group(system)
    assert poly._raw_root_product(system) == _roots_outside(system, ()).raw
    memo = {}
    nodes = range(1, system.rank + 1)
    for size in range(system.rank + 1):
        for J in combinations(nodes, size):
            outside = _roots_outside(system, J)
            idx = group.index_of(group.longest_parabolic(J))
            assert oracle_delta_d(group, idx, memo) == \
                (_subgroup_order(system, J) * outside).raw, J


def test_chains_make_fewer_divided_differences(f4_group, monkeypatch):
    """A fresh F4 engine lifts the 48 classes of X1 and X4 with fewer
    divided differences than the chains from d take."""
    calls = []
    kernel = schubert._raw_delta

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(schubert, "_raw_delta", counted)
    indices = _lift_indices(f4_group)
    engine = _GiambelliEngine(f4_group)
    for idx in indices:
        engine.delta_d(idx)
    engine_calls = len(calls)
    calls.clear()
    memo = {}
    for idx in indices:
        oracle_delta_d(f4_group, idx, memo)
    assert 0 < engine_calls < len(calls)


def test_factored_chain_values_expand_to_the_oracle(f4_group):
    """After the 48 lifts, every chain value the engine keeps, Q times the
    positive roots indexed by S, expands to delta_w(d) of its index."""
    system = f4_group.system
    forms = [_root_form(system, beta) for beta in system.positive_roots]
    engine = _GiambelliEngine(f4_group)
    for idx in _lift_indices(f4_group):
        engine.delta_d(idx)
    assert len(engine._factored) > 47
    memo = {}
    for idx, (roots, cofactor) in engine._factored.items():
        acc = RationalPolynomial._from_raw(system, dict(cofactor))
        for b in roots:
            acc = acc * forms[b]
        assert acc.raw == oracle_delta_d(f4_group, idx, memo), \
            f4_group.element_at(idx)


def test_lifts_never_expand_a_root_product(f4_group, monkeypatch):
    """The chains start at factored bases: lifting the 48 classes builds
    no product of positive roots, not even a parabolic one."""
    def refuse(*args):
        raise AssertionError("a product of positive roots was expanded")

    monkeypatch.setattr(poly, "_raw_root_product", refuse)
    monkeypatch.setattr(schubert, "_raw_root_product", refuse, raising=False)
    engine = _GiambelliEngine(f4_group)
    for idx in _lift_indices(f4_group):
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
    indices = _lift_indices(f4_group)
    engine = _GiambelliEngine(f4_group)
    for idx in indices:
        engine.delta_d(idx)
    engine_terms = sum(sizes)
    sizes.clear()
    memo = {}
    for idx in indices:
        oracle_delta_d(f4_group, idx, memo)
    assert 0 < 2 * engine_terms < sum(sizes)
