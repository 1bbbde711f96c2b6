"""Finite abelian groups, subgroups, homs, quotients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.errors import PreconditionError
from gradedpi.groups import (FinAbGroup, Subgroup, cosets,
                             is_elementary_2group, make_group, make_hom,
                             quotient_hom, squares_subgroup,
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
