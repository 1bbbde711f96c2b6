"""Algebra file format: parsing, combinators, serialization round trips."""

from fractions import Fraction

import pytest

from gradedpi.algebras import catalog, matrix_over_division, validate
from gradedpi.errors import PreconditionError, SpecFormatError
from gradedpi.identities import same_identities_up_to
from gradedpi.scalars import CycloScalar
from gradedpi.specfile import (format_element, format_group, format_scalar,
                               load_algebra_file, parse_algebra, parse_triple,
                               serialize_algebra)
from gradedpi.structure import equiv_division

NAMED = ["H4", "M2_4", "M2_2", "H2", "C2", "M2C_Z4", "M2_8", "M4_4",
         "quat_trivial"]

H4_TEXT = """
# quaternions over the Klein group
group Z2 x Z2
basis one i j k
deg one = (0,0)
deg i = (1,0)
deg j = (0,1)
deg k = (1,1)
mul one one = 1*one
mul one i = 1*i
mul one j = 1*j
mul one k = 1*k
mul i one = 1*i
mul j one = 1*j
mul k one = 1*k
mul i i = -1*one
mul j j = -1*one
mul k k = -1*one
mul i j = 1*k
mul j i = -1*k
mul j k = 1*i
mul k j = -1*i
mul k i = 1*j
mul i k = -1*j
unit = 1*one
"""


def tables_equal(a, b):
    return (a.group == b.group and a.degrees == b.degrees
            and set(a.table) == set(b.table)
            and all(dict(a.table[k]) == dict(b.table[k]) for k in a.table)
            and a.unit == b.unit)


@pytest.mark.parametrize("name", NAMED)
def test_round_trip_catalog(name):
    a = catalog(name)
    b = parse_algebra(serialize_algebra(a))
    assert tables_equal(a, b)
    # serialization is idempotent on the reparsed algebra
    assert serialize_algebra(b) == serialize_algebra(
        parse_algebra(serialize_algebra(b)))


@pytest.mark.parametrize("nk", [(2, 1), (3, 1), (4, 1)])
def test_round_trip_pauli(nk):
    a = catalog("pauli", *nk)
    b = parse_algebra(serialize_algebra(a))
    assert tables_equal(a, b)


def test_hand_written_base_format():
    h = parse_algebra(H4_TEXT)
    assert validate(h).ok
    assert equiv_division(h, catalog("H4"))


def test_conductor_defaults_to_scalar_lcm():
    text = ("group Z2\nbasis a b\ndeg a = (0)\ndeg b = (1)\n"
            "mul a a = 1*a\nmul a b = 1*b\nmul b a = 1*b\n"
            "mul b b = zeta(4,2)*a\nunit = 1*a\n")
    a = parse_algebra(text)
    assert a.conductor % 4 == 0
    assert validate(a).ok


def test_combination_terms_sum_per_label():
    text = ("group Z1\nbasis u v\ndeg u = e\ndeg v = e\n"
            "mul u u = 1*u\nmul u v = 1*v\nmul v u = 1*v\n"
            "mul v v = 1/2*u + 1/2*u\nunit = 1*u\n")
    a = parse_algebra(text)
    assert dict(a.table[(1, 1)]) == {0: CycloScalar.one(1)}


def test_parenthesized_scalar_sums_in_coefficients():
    text = ("group Z1\nbasis u v\ndeg u = e\ndeg v = e\n"
            "mul u u = 1*u\nmul u v = 1*v\nmul v u = 1*v\n"
            "mul v v = (1/2 + 1/2)*u\nunit = 1*u\n")
    a = parse_algebra(text)
    assert dict(a.table[(1, 1)]) == {0: CycloScalar.one(1)}


# -- combinator expressions ----------------------------------------------------


def test_catalog_refs():
    assert parse_algebra("catalog(H4)").dim == 4
    assert parse_algebra("catalog(pauli(3,1))").dim == 18


def test_trivial_combinator():
    a = parse_algebra("trivial(Z2 x Z2)")
    assert a.dim == 1 and a.group.order == 4
    assert parse_algebra("trivial(Z1)").group.order == 1


def test_tensor_combinator_rebuilds_m2_8():
    a = parse_algebra("tensor(catalog(M2_4), catalog(C2), into=Z2 x Z2 x Z2, "
                      "embedA=[(1,0,0),(0,1,0)], embedB=[(0,0,1)])")
    assert a.dim == 8
    assert same_identities_up_to(a, catalog("M2_8"), 2).equal


def test_quotient_combinator():
    a = parse_algebra("quotient(catalog(H4), into=Z2, images=[(0),(1)])")
    assert equiv_division(a, catalog("H2"))


def test_regrade_combinator():
    a = parse_algebra("regrade(catalog(C2), into=Z4, images=[(2)])")
    assert {x.exps for x in a.support()} == {(0,), (2,)}


def test_matrix_combinator_inline():
    a = parse_algebra("matrix(D=trivial(Z2), H=[e], tuple=[(0),(1)])")
    assert a.dim == 4
    assert len(a.component(a.group.identity)) == 2


def test_parse_triple():
    ts = parse_triple('matrix(D=regrade(catalog(C2), into=Z4, images=[(2)]), '
                      'H=[(2)], tuple=[(0),(1)])')
    assert ts.size == 2
    assert len(ts.subgroup.elements) == 2
    m = matrix_over_division(ts)
    assert same_identities_up_to(m, catalog("M2C_Z4"), 2).equal


def test_file_loading(tmp_path):
    p = tmp_path / "h4.galg"
    p.write_text(serialize_algebra(catalog("H4")))
    assert load_algebra_file(str(p)).dim == 4
    a = parse_algebra(f'file("{p}")')
    assert a.dim == 4
    # relative paths resolve against base_dir, nesting works
    b = parse_algebra('quotient(file("h4.galg"), into=Z2, images=[(0),(1)])',
                      base_dir=str(tmp_path))
    assert equiv_division(b, catalog("H2"))


def test_file_nesting_depth_limit(tmp_path):
    p = tmp_path / "loop.galg"
    p.write_text(f'file("{p}")\n')
    with pytest.raises(SpecFormatError, match="nesting"):
        parse_algebra(f'file("{p}")')


# -- emission -------------------------------------------------------------------


def test_format_group_and_element():
    g = catalog("H4").group
    assert format_group(g) == "Z2 x Z2"
    assert format_element(g.identity) == "(0,0)"
    z1 = parse_algebra("trivial(Z1)").group
    assert format_group(z1) == "Z1"
    # rank-1 trivial group still prints exponents; "e" is reserved for
    # rank-0 elements and accepted everywhere on input
    assert format_element(z1.identity) == "(0)"


@pytest.mark.parametrize("s", [
    CycloScalar.rational(Fraction(-3, 2), 1),
    CycloScalar.root_of_unity(12, 7),
    CycloScalar.root_of_unity(3, 1) + CycloScalar.rational(Fraction(1, 2), 3),
    CycloScalar.zero(4),
])
def test_scalar_text_round_trip(s):
    from gradedpi.specfile import _Parser, _tokenize
    p = _Parser(_tokenize(format_scalar(s)))
    assert p.parse_scalar() == s


def test_serializer_mangles_nonidentifier_labels():
    a = catalog("M4_4")  # tensor labels contain "(x)"
    text = serialize_algebra(a)
    b = parse_algebra(text)
    assert b.dim == a.dim and b.degrees == a.degrees
    assert all(lab.isidentifier() for lab in b.labels)


def test_canonical_serialization_is_deterministic():
    a = serialize_algebra(catalog("M2C_Z4"))
    b = serialize_algebra(catalog("M2C_Z4"))
    assert a == b
    assert a.endswith("\n")


# -- errors with positions ------------------------------------------------------


ERROR_CASES = [
    ("group Z2\nbasis a\ndeg a = (0,0)\nunit = 1*a", "rank"),
    ("group Z2\nbasis a b\ndeg a = (0)\ndeg b = (1)\nmul a c = 1*a\nunit = 1*a",
     "unknown basis label"),
    ("group Q8\nbasis a\ndeg a = (0)\nunit = 1*a", "cyclic factor"),
    ("basis a\ndeg a = (0)\nunit = 1*a", "group line"),
    ("unit = 1*a", "unknown basis label"),
    ("group Z2\nbasis a\nunit = 1*a", "missing deg"),
    ("group Z2\nbasis a\ndeg a = (0)", "missing unit"),
    ("tensor(catalog(H4), catalog(C2), into=Z2)", "needs embedA"),
    ("matrix(H=[(0)], D=trivial(Z2), tuple=[(0)])", "D= must come before H="),
    ("group Z2\nbasis a\ndeg a = (0)\nmul a a = 1*a + \nunit = 1*a", "scalar"),
    ("zeta(4,1)", "combinator"),
    ("group Z2\nbasis a\ndeg a = (0)\nmul a a = 1/0*a\nunit = 1*a",
     "zero denominator"),
    ("catalog(H4) extra", "trailing"),
]


@pytest.mark.parametrize("text,fragment",
                         ERROR_CASES, ids=[c[1] for c in ERROR_CASES])
def test_error_messages(text, fragment):
    with pytest.raises(SpecFormatError, match=fragment):
        parse_algebra(text)


def test_unknown_catalog_name_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="unknown catalog name"):
        parse_algebra("catalog(NOPE)")


def test_errors_carry_line_numbers():
    try:
        parse_algebra("group Z2\nbasis a\ndeg a = (0,0)\nunit = 1*a")
    except SpecFormatError as err:
        assert err.line == 3
    else:
        pytest.fail("expected a format error")


def test_errors_name_the_offending_token():
    try:
        parse_algebra("tensor(catalog(H4)")
    except SpecFormatError as err:
        assert "near" in str(err) or "end of input" in str(err)
    else:
        pytest.fail("expected a format error")
