"""Finite abelian groups, subgroups, homs, quotients."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.errors import PreconditionError
from gradedpi.groups import (FinAbGroup, Subgroup, cosets,
                             is_elementary_2group, make_group, make_hom,
                             quotient_hom, span_walk, squares_subgroup,
                             subgroup_as_group)

GROUPS = [make_group(o) for o in [(2,), (4,), (2, 2), (3, 3), (2, 4), (2, 2, 2)]]


def test_element_arithmetic():
    g = make_group((2, 4))
    a = g.element((1, 0))
    b = g.element((0, 1))
    assert a * a == g.identity
    assert (b * b * b * b).is_identity
    assert (a * b).inverse() == a * b ** 3
    assert b.order() == 4 and a.order() == 2 and g.identity.order() == 1


def test_element_normalization_mod_orders():
    g = make_group((2, 3))
    assert g.element((3, 4)) == g.element((1, 1))
    assert g.element((-1, -1)) == g.element((1, 2))


def test_group_identity_and_enumeration():
    g = make_group((2, 2))
    assert len(g.elements()) == 4
    assert g.order == 4 and g.rank == 2
    assert sorted(g.elements())[0] == g.identity


def test_trivial_group():
    g = make_group((1,))
    assert g.order == 1
    assert g.elements() == (g.identity,)


def test_elements_of_different_groups_do_not_mix():
    a = make_group((2,)).element((1,))
    b = make_group((4,)).element((1,))
    with pytest.raises((PreconditionError, ValueError)):
        a * b


def test_subgroup_generation_and_membership():
    g = make_group((4,))
    s = Subgroup.generated_by(g, [g.element((2,))])
    assert s.order == 2
    assert g.element((2,)) in s and g.element((1,)) not in s
    assert Subgroup.trivial(g).order == 1
    assert Subgroup.full(g).order == 4


CLOSURE_GROUPS = [make_group(o) for o in [(4, 2), (3, 3), (2, 2, 2)]]
NOT_CLOSED = re.compile(r"subgroup not closed at (\([\d,]*\))\*(\([\d,]*\))")


def _element_from_text(g, text):
    return g.element(int(k) for k in text[1:-1].split(","))


@st.composite
def _subsets(draw, g):
    # a random subset, or a generated subgroup with a few elements toggled:
    # random subsets alone are rarely subgroups
    elems = st.sampled_from(g.elements())
    if draw(st.booleans()):
        return draw(st.sets(elems, min_size=1))
    s = set(Subgroup.generated_by(g, draw(st.lists(elems, max_size=3))))
    for x in draw(st.lists(elems, max_size=2)):
        s ^= {x}
    return s or {g.identity}


@pytest.mark.parametrize("g", CLOSURE_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_subgroup_accepts_exactly_the_closed_subsets(g, data):
    # the walk along greedy generators against the closure of all n^2
    # products; a rejection names a product of two members that leaves S
    s = data.draw(_subsets(g))
    closed = all(x * y in s for x in s for y in s)
    try:
        sub = Subgroup(g, s)
    except PreconditionError as err:
        assert not closed
        found = NOT_CLOSED.fullmatch(str(err))
        assert found, str(err)
        x, y = (_element_from_text(g, t) for t in found.groups())
        assert x in s and y in s and x * y not in s
    else:
        assert closed and set(sub) == s and sub.elements == tuple(sorted(s))


def test_subgroup_without_the_identity_names_an_inverse_product():
    g = make_group((4,))
    s = set(Subgroup.full(g)) - {g.identity}
    with pytest.raises(PreconditionError,
                       match=re.escape("not closed at (3)*(1)")):
        Subgroup(g, s)
    with pytest.raises(PreconditionError, match="cannot be empty"):
        Subgroup(g, ())


def test_span_walk_reaches_each_element_of_the_span_once():
    g = make_group((4, 2))
    elems = [g.element(x) for x in [(0, 0), (2, 0), (1, 1), (3, 1), (1, 0)]]
    steps = list(span_walk(elems))
    # (3,1) = (1,1)^3 is spanned by then; (1,0) is not
    assert [s for x, s, y in steps if x is None] == [elems[1], elems[2],
                                                     elems[4]]
    assert all(y == s if x is None else y == x * s for x, s, y in steps)
    reached = [y for _, _, y in steps]
    assert len(reached) == len(set(reached)) == g.order - 1
    assert g.identity not in reached and list(span_walk([])) == []


def test_subgroup_lattice_ops():
    g = make_group((2, 2))
    a = Subgroup.generated_by(g, [g.element((1, 0))])
    b = Subgroup.generated_by(g, [g.element((0, 1))])
    assert a.intersection(b).order == 1
    assert a.product(b) == Subgroup.full(g)


def test_squares_subgroup():
    g = make_group((4, 2))
    s = squares_subgroup(g)
    assert sorted(s.elements) == [g.identity, g.element((2, 0))]
    assert squares_subgroup(make_group((2, 2))).order == 1
    assert is_elementary_2group(make_group((2, 2)))
    assert not is_elementary_2group(make_group((4,)))
    assert not is_elementary_2group(make_group((3,)))


def test_hom_basics():
    z4 = make_group((4,))
    z2 = make_group((2,))
    theta = make_hom(z4, z2, [z2.element((1,))])
    assert theta(z4.element((2,))) == z2.identity
    assert theta(z4.element((3,))) == z2.element((1,))
    assert sorted(theta.kernel().elements) == sorted(
        [z4.identity, z4.element((2,))])
    assert theta.image() == Subgroup.full(z2)
    assert not theta.is_injective()


def test_hom_rejects_order_violations():
    z2 = make_group((2,))
    z4 = make_group((4,))
    # a generator of order 2 cannot map to an element of order 4
    with pytest.raises(PreconditionError):
        make_hom(z2, z4, [z4.element((1,))])


def test_quotient_hom_by_squares():
    z4 = make_group((4,))
    theta = quotient_hom(z4, squares_subgroup(z4))
    assert theta.codomain.order == 2
    assert theta(z4.element((2,))).is_identity
    assert not theta(z4.element((1,))).is_identity
    assert theta.kernel() == squares_subgroup(z4)


def test_quotient_hom_collapses_exactly_the_subgroup():
    g = make_group((2, 2, 2))
    s = Subgroup.generated_by(g, [g.element((1, 1, 0))])
    theta = quotient_hom(g, s)
    assert theta.codomain.order == 4
    assert theta.kernel() == s


def test_cosets_partition():
    g = make_group((4,))
    s = Subgroup.generated_by(g, [g.element((2,))])
    dec = cosets(g, s)
    assert len(dec) == 2
    seen = set()
    for el in g.elements():
        seen.add(dec.rep_of(el))
    assert len(seen) == 2
    # reps are constant on cosets
    assert dec.rep_of(g.element((1,))) == dec.rep_of(g.element((3,)))


def test_subgroup_as_group_reconstructs_structure():
    g = make_group((4, 2))
    s = Subgroup.generated_by(g, [g.element((2, 0)), g.element((0, 1))])
    k, embed = subgroup_as_group(s)
    assert k.order == 4
    assert is_elementary_2group(k)
    assert sorted(embed(x) for x in k.elements()) == sorted(s.elements)
    # embed is a hom
    for x in k.elements():
        for y in k.elements():
            assert embed(x * y) == embed(x) * embed(y)


@pytest.mark.parametrize("g", GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_group_axioms(g, data):
    els = st.sampled_from(g.elements())
    a, b, c = data.draw(els), data.draw(els), data.draw(els)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a.inverse() == g.identity
    assert a * g.identity == a
    assert a ** a.order() == g.identity


@pytest.mark.parametrize("g", GROUPS, ids=repr)
def test_lagrange_for_cyclic_subgroups(g):
    for a in g.elements():
        s = Subgroup.generated_by(g, [a])
        assert g.order % s.order == 0
        assert s.order == a.order()


def test_elements_hash_by_exponents_and_compare_groups():
    a, b = make_group((2, 2)), make_group((2, 4))
    x, y = a.element((1, 1)), b.element((1, 1))
    assert hash(x) == hash(y) == hash((1, 1))
    assert x != y and len({x, y}) == 2
    assert {x: 1}.get(a.element((1, 1))) == 1 and {x: 1}.get(y) is None


# -- cyclic decompositions against the fixpoint oracle -------------------------

def _fixpoint_order(mul, g, identity):
    k, cur = 1, g
    while cur != identity:
        cur = mul(cur, g)
        k += 1
    return k


def _fixpoint_closure(mul, identity, gens):
    out = {identity}
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for g in gens:
                p = mul(x, g)
                if p not in out:
                    out.add(p)
                    changed = True
    return out


def _fixpoint_decompose(elements, mul, identity, prefer_first=None):
    # the decomposition from products alone: orders by repeated products,
    # spans by closing under the generators until nothing new appears
    elems = sorted(elements)
    if len(elems) == 1:
        return [], []
    orders = {g: _fixpoint_order(mul, g, identity) for g in elems}
    max_ord = max(orders.values())
    if prefer_first is not None:
        if orders[prefer_first] != max_ord:
            raise PreconditionError("preferred generator does not have maximal order")
        g1 = prefer_first
    else:
        g1 = min(g for g in elems if orders[g] == max_ord)
    if orders[g1] == len(elems):
        return [orders[g1]], [g1]
    cyc = _fixpoint_closure(mul, identity, [g1])
    target = len(elems) // orders[g1]
    max_gens = 1
    while 2 ** max_gens < target:
        max_gens += 1
    nontriv = [g for g in elems if g != identity]
    best = None
    for size in range(1, max_gens + 1):
        for gens in itertools.combinations(nontriv, size):
            c = _fixpoint_closure(mul, identity, gens)
            if len(c) == target and len(c & cyc) == 1:
                if best is None or tuple(sorted(c)) < best[0]:
                    best = (tuple(sorted(c)), c)
        if best is not None:
            break
    sub_orders, sub_gens = _fixpoint_decompose(best[1], mul, identity)
    return [orders[g1]] + sub_orders, [g1] + sub_gens


def _fixpoint_quotient_hom(group, subgroup):
    dec = cosets(group, subgroup)
    mul = lambda a, b: dec.rep_of(a * b)
    e = dec.rep_of(group.identity)
    orders, gens = _fixpoint_decompose(dec.reps, mul, e)
    k = FinAbGroup(orders)
    vec_of = {}
    for exps in itertools.product(*(range(n) for n in orders)):
        cur = e
        for g, n in zip(gens, exps):
            for _ in range(n):
                cur = mul(cur, g)
        vec_of.setdefault(cur, k.element(exps))
    return make_hom(group, k, [vec_of[dec.rep_of(g)] for g in group.generators()])


SWEEP_GROUPS = [make_group(o) for o in [
    (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4), (3, 3), (2, 4), (8,),
    (2, 2, 4), (2, 6), (3, 9)]]


def _two_generated_subgroups(g):
    """Every subgroup of g generated by at most two elements, once each."""
    seen = {}
    for pair in itertools.combinations_with_replacement(g.elements(), 2):
        s = Subgroup.generated_by(g, pair)
        seen.setdefault(s.elements, s)
    return list(seen.values())


@pytest.mark.parametrize("g", SWEEP_GROUPS, ids=repr)
def test_subgroup_keeps_its_span_walk(g):
    for s in _two_generated_subgroups(g):
        assert s.walk == tuple(span_walk(s.elements))
        gens = [x for step, x, _ in s.walk if step is None]
        assert Subgroup.generated_by(g, gens) == s


@pytest.mark.parametrize("g", SWEEP_GROUPS, ids=repr)
def test_decompositions_match_the_fixpoint_oracle(g):
    mul = lambda a, b: a * b
    for s in _two_generated_subgroups(g):
        top = max(x.order() for x in s)
        for first in [None] + [x for x in s if x.order() == top]:
            k, embed = subgroup_as_group(s, prefer_first=first)
            want = _fixpoint_decompose(s.elements, mul, g.identity, first)
            assert (list(k.orders), list(embed.generator_images)) == want
        low = [x for x in s if x.order() < top]
        if low:
            with pytest.raises(PreconditionError, match="maximal order"):
                subgroup_as_group(s, prefer_first=low[-1])
        assert quotient_hom(g, s) == _fixpoint_quotient_hom(g, s)
