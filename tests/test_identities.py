"""Multilinear graded identities by exact linear algebra.

Identity-space dimensions are cross-checked against an independent numpy
oracle: the same evaluation system is assembled numerically from matrix
models and its kernel dimension computed by SVD rank.
"""

import hashlib
import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedpi
from gradedpi.algebras import (GradedAlgebra, TripleSpec, catalog,
                               catalog_names, matrix_over_division,
                               quotient_grading, trivially_graded_reals)
from gradedpi.errors import (InadmissibleSubstitution, InvariantViolation,
                             PolynomialSyntaxError, PreconditionError)
from gradedpi.groups import Subgroup, make_group, make_hom
from gradedpi.identities import (GradedPolynomial, IdentitySpace, VarRef,
                                 _substitution_basis, evaluate, identity_space,
                                 is_identity, monomial_order, parse_polynomial,
                                 same_identities_up_to, theta_image)
from test_algebras import (clock_shift_model, numeric_scalar, quaternion_model,
                           sylvester_model, table_matches_model)
from test_scalars import _reference_nullspace, _reference_rref


def numeric_model(a, model):
    """Label-indexed matrix model -> basis-indexed list."""
    return [model[lab] for lab in a.labels]


def numeric_identity_dim(a, model, degrees) -> int:
    """Real kernel dimension of the multilinear evaluation system, by numpy rank.

    Columns are permutation monomials in lex order; rows are the real and
    imaginary parts of the flattened matrix entries of each basis
    substitution.  Identities have real coefficients, so the kernel is taken
    over R: for pauli(3,1), xy - w*yx vanishes on X, Y with w not real.
    """
    mats = numeric_model(a, model)
    n = len(degrees)
    perms = monomial_order(n)
    comp_indices = [a.component(g) for g in degrees]
    rows = []
    for choice in itertools.product(*comp_indices):
        block = []
        for p in perms:
            m = mats[choice[p[0]]]
            for t in p[1:]:
                m = m @ mats[choice[t]]
            block.append(m.reshape(-1))
        rows.append(np.stack(block, axis=1))
    system = np.concatenate(rows, axis=0)
    system = np.concatenate([system.real, system.imag], axis=0)
    rank = np.linalg.matrix_rank(system, tol=1e-8)
    return math.factorial(n) - rank


def m2c_model():
    w = np.exp(1j * np.pi / 4)
    syl = sylvester_model()
    model = {}
    for t, x in [(0, "I"), (0, "C"), (1, "A"), (1, "B")]:
        prefix = "w" if t == 1 else ""
        model[f"{prefix}{x}"] = w ** t * syl[x]
        model[f"i{prefix}{x}"] = 1j * w ** t * syl[x]
    return model


# -- polynomial construction and the text grammar ----------------------------


def test_variable_and_monomial_construction():
    g = make_group((2, 2))
    x = GradedPolynomial.variable(g, g.element((1, 0)), 1)
    y = GradedPolynomial.variable(g, g.element((0, 1)), 2)
    f = x * y - y * x
    assert f.is_multilinear()
    assert len(f.terms) == 2
    assert f.variables() == (VarRef(g.element((1, 0)), 1),
                             VarRef(g.element((0, 1)), 2))
    assert (f - f).is_zero()


def test_zero_coefficients_are_dropped():
    g = make_group((2,))
    x = GradedPolynomial.variable(g, g.identity, 1)
    assert (x - x).terms == {}
    assert (x + x).terms != {}


def test_constant_terms_rejected():
    g = make_group((2,))
    with pytest.raises(PreconditionError):
        GradedPolynomial(g, {(): Fraction(1)})


def test_parse_commutator_form():
    g = make_group((2, 2))
    f = parse_polynomial("[x[e,1],y[(1,0),2]]", g)
    x = GradedPolynomial.variable(g, g.identity, 1)
    y = GradedPolynomial.variable(g, g.element((1, 0)), 2)
    assert f == x * y - y * x


def test_parse_sums_scalars_and_powers():
    g = make_group((4,))
    f = parse_polynomial("2*x[1,1]*x[3,2] - 1/2*(x[3,2]*x[1,1])", g)
    a = GradedPolynomial.variable(g, g.element((1,)), 1)
    b = GradedPolynomial.variable(g, g.element((3,)), 2)
    assert f == 2 * (a * b) - Fraction(1, 2) * (b * a)
    # bare integer degree for rank-1 groups, e for the identity
    assert parse_polynomial("x[e,1]", g) == GradedPolynomial.variable(
        g, g.identity, 1)


def test_parse_nested_commutators():
    g = make_group((2,))
    f = parse_polynomial("[[x[e,1],x[1,2]],x[1,3]]", g)
    assert f.is_multilinear()
    assert len(f.terms) == 4


def test_parse_powers():
    g = make_group((2,))
    f = parse_polynomial("x[1,1]^2", g)
    v = VarRef(g.element((1,)), 1)
    assert list(f.terms) == [(v, v)]
    assert f.terms[(v, v)] == 1


@pytest.mark.parametrize("text,pos", [
    ("x[e", 3), ("x[(1),1]", 2), ("[x[e,1]", 7), ("x[e,1] +", 8),
    ("x[(1,0),0]", 8), ("y[(3,0),1]x", 10), ("", 0), ("x[e,1] @ y[e,2]", 7),
    ("x[e,1]^0", 7), ("x[e,1]^-1", 7), ("x[e,-1]", 4), ("e[e,1]", 0),
    ("1/0*x[e,1]", 2), ("x[1,1]", 2), ("x[f,1]", 2), ("x[e,1.0]", 5), ("2", 1),
    ("(x[e,1]", 7), ("x[e,1]]", 6), ("x[e,1]\n@", 7),
])
def test_parse_errors_carry_position(text, pos):
    g = make_group((2, 2))
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text, g)
    assert info.value.pos == pos
    assert f"position {pos}" in str(info.value)


def test_parse_keeps_variable_letters_apart():
    g = make_group((2, 2))
    # a second letter for one (degree, index) pair is an error at that letter
    for text, pos in [("[x[e,1],y[e,1]]", 8), ("x[(1,0),2]*z[e,1]*y[(-1,0),2]", 18)]:
        with pytest.raises(PolynomialSyntaxError, match="already named 'x'") as info:
            parse_polynomial(text, g)
        assert info.value.pos == pos
    # one letter may name several pairs, and a pair may repeat its letter
    f = parse_polynomial("x[e,1]*x[e,2] + x[e,1]", g)
    assert set(f.variables()) == {VarRef(g.identity, 1), VarRef(g.identity, 2)}
    assert parse_polynomial("[x[e,1],y[e,2]]", g) == \
        parse_polynomial("[y[e,1],x[e,2]]", g)


GROUPS = [make_group((5,)), make_group((2, 3))]
SPACING = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _variable_texts(draw, group):
    exps = tuple(draw(st.integers(-6, 6)) for _ in group.orders)
    forms = ["e", "tuple"] + (["bare"] if group.rank == 1 else [])
    form = draw(st.sampled_from(forms))
    if form == "e":
        degree, text = group.identity, "e"
    else:
        degree = group.element(exps)
        text = str(exps[0]) if form == "bare" else \
            "(" + ",".join(map(str, exps)) + ")"
    index = draw(st.integers(1, 3))
    # one text names each (degree, index) pair with one letter
    name = ["x", "y", "v2"][index - 1]
    return f"{name}[{text},{index}]", GradedPolynomial.variable(group, degree, index)


def _polynomial_texts(group):
    """(text, polynomial) pairs: the same tree rendered and built by the API."""
    def extend(children):
        @st.composite
        def node(draw):
            op = draw(st.sampled_from(["+", "-", "*", "[]", "^", "neg", "scale"]))
            s = draw(SPACING)
            lt, lp = draw(children)
            if op == "^":
                k = draw(st.integers(1, 2))
                return f"({lt}){s}^{s}{k}", lp ** k
            if op == "neg":
                return f"-{s}({lt})", -lp
            if op == "scale":
                c = draw(st.fractions(min_value=0, max_value=9, max_denominator=4))
                ct = str(c.numerator) if c.denominator == 1 else \
                    f"{c.numerator}{s}/{s}{c.denominator}"
                return f"{ct}{s}*{s}({lt})", lp.scale(c)
            rt, rp = draw(children)
            if op == "[]":
                return f"[{s}{lt}{s},{s}{rt}{s}]", lp.commutator(rp)
            text = f"({lt}){s}{op}{s}({rt})"
            return text, {"+": lp + rp, "-": lp - rp, "*": lp * rp}[op]
        return node()
    return st.recursive(_variable_texts(group), extend, max_leaves=5)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_parse_matches_the_polynomial_api(data):
    group = data.draw(st.sampled_from(GROUPS))
    text, poly = data.draw(_polynomial_texts(group))
    assert parse_polynomial(text, group) == poly


# -- evaluation ---------------------------------------------------------------


def test_evaluate_quaternion_commutator():
    a = catalog("H4")
    g = a.group
    f = parse_polynomial("[x[(1,0),1],y[(0,1),2]]", g)
    i, j = a.basis_element(1), a.basis_element(2)
    out = evaluate(f, {VarRef(g.element((1, 0)), 1): i,
                       VarRef(g.element((0, 1)), 2): j}, a)
    # ij - ji = 2k
    assert out == a.basis_element(3).scale(Fraction(2))


def test_evaluate_rejects_wrong_degree():
    a = catalog("H4")
    g = a.group
    f = parse_polynomial("x[(1,0),1]", g)
    with pytest.raises(InadmissibleSubstitution):
        evaluate(f, {VarRef(g.element((1, 0)), 1): a.one()}, a)
    with pytest.raises(InadmissibleSubstitution):
        evaluate(f, {}, a)


def test_evaluate_matches_numeric_model():
    a = catalog("M2_4")
    g = a.group
    model = numeric_model(a, sylvester_model())
    f = parse_polynomial(
        "[x[(1,0),1],y[(0,1),2]] + 2*(x[(1,0),1]*y[(0,1),2])", g)
    xv, yv = VarRef(g.element((1, 0)), 1), VarRef(g.element((0, 1)), 2)
    x = a.basis_element(1) + a.basis_element(1).scale(Fraction(1, 2))
    y = a.basis_element(2).scale(Fraction(-3))
    exact = evaluate(f, {xv: x, yv: y}, a)
    mx = model[1] * float(Fraction(3, 2))
    my = model[2] * -3.0
    numeric = (mx @ my - my @ mx) + 2 * (mx @ my)
    got = sum((complex(numeric_scalar(c)) * model[k]
               for k, c in exact.coeffs.items()), np.zeros((2, 2), complex))
    assert np.allclose(got, numeric, atol=1e-9)


# -- is_identity frozen facts --------------------------------------------------


def test_commutator_at_e_separates_division_from_matrix():
    g = make_group((2, 2))
    f = parse_polynomial("[x[e,1],y[e,2]]", g)
    assert is_identity(f, catalog("H4"))
    assert is_identity(f, catalog("M2_4"))
    assert not is_identity(f, catalog("quat_trivial"))
    assert not is_identity(f, catalog("M4_4"))


def test_anticommutator_identity_of_h4_and_m2_4():
    g = make_group((2, 2))
    f = parse_polynomial("x[(1,0),1]*y[(0,1),2] + y[(0,1),2]*x[(1,0),1]", g)
    assert is_identity(f, catalog("H4"))
    assert is_identity(f, catalog("M2_4"))
    # in M4_4 the (1,0) component contains 1(x)i as well; fails
    assert not is_identity(f, catalog("M4_4"))


def test_zero_polynomial_is_identity():
    g = make_group((2, 2))
    assert is_identity(GradedPolynomial.zero(g), catalog("H4"))


def test_single_monomials_never_vanish_on_division_gradings():
    # products of invertibles are invertible, hence nonzero
    a = catalog("M2C_Z4")
    g = a.group
    for degs in [((0,),), ((1,), (2,)), ((1,), (1,), (3,))]:
        refs = [VarRef(g.element(d), i + 1) for i, d in enumerate(degs)]
        f = GradedPolynomial.monomial(g, refs)
        assert not is_identity(f, a)


def test_nonmultilinear_identity_x_squared():
    # in C2 the odd component squares centrally; x^2 y - y x^2 vanishes
    a = catalog("C2")
    g = a.group
    f = parse_polynomial("x[1,1]^2*y[1,2] - y[1,2]*x[1,1]^2", g)
    assert is_identity(f, a)


# -- identity spaces -----------------------------------------------------------


def test_monomial_order_is_lex():
    assert monomial_order(3) == ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                                 (2, 0, 1), (2, 1, 0))


def test_identity_space_h4_degree_two():
    a = catalog("H4")
    g = a.group
    e, alpha, beta = g.identity, g.element((1, 0)), g.element((0, 1))
    # commutator at (e,e), anticommutator at (alpha,beta)
    s = identity_space(a, (e, e))
    assert s.dimension == 1
    assert s.contains(parse_polynomial("[x[e,1],y[e,2]]", g))
    s = identity_space(a, (alpha, beta))
    assert s.dimension == 1
    assert s.contains(parse_polynomial(
        "x[(1,0),1]*y[(0,1),2] + y[(0,1),2]*x[(1,0),1]", g))
    assert not s.contains(parse_polynomial("[x[(1,0),1],y[(0,1),2]]", g))


def test_identity_space_quat_trivial_degree_two_empty():
    a = catalog("quat_trivial")
    e = a.group.identity
    assert identity_space(a, (e, e)).dimension == 0


def test_identity_space_caches():
    a = catalog("C2")
    e = a.group.identity
    s1 = identity_space(a, (e, e))
    s2 = identity_space(a, (e, e))
    assert s1 is s2
    s3 = identity_space(catalog("C2"), (e, e))  # computed afresh
    assert s3 == s1 and s3 is not s1


@pytest.mark.parametrize("params,exps", [
    (("H4",), ((1, 0), (0, 1), (1, 1))),
    (("M2C_Z4",), ((1,), (1,), (2,))),
    (("quat_trivial",), ((0, 0), (0, 0))),
    (("pauli", 3, 1), ((1, 0), (0, 1), (2, 2))),
], ids=["H4", "M2C_Z4", "quat_trivial", "pauli(3,1)"])
def test_kernel_is_the_canonical_annihilator_of_the_image(params, exps):
    a = catalog(*params)
    degrees = tuple(a.group.element(x) for x in exps)
    space = identity_space(a, degrees)
    want = _reference_nullspace(list(space.image), space.ncols)
    assert list(space.kernel) == want
    assert len(space.kernel) == space.dimension
    assert all(space.contains_vector(row) for row in space.kernel)


def _reference_image(a, degrees):
    """RREF of the evaluation rows from element products and Fractions alone.

    Every (substitution, permutation) word is multiplied out with
    AlgebraElement products; each (basis index, power-basis slot) of the
    results gives one row over the permutation monomials.
    """
    perms = monomial_order(len(degrees))
    rows = []
    for sub in itertools.product(*(a.component_basis(g) for g in degrees)):
        cols = []
        for perm in perms:
            x = sub[perm[0]]
            for p in perm[1:]:
                x = x * sub[p]
            cols.append({(k, t): q for k, c in x.coeffs.items()
                         for t, q in enumerate(c.rational_coordinates())})
        for key in sorted({key for col in cols for key in col}):
            rows.append([col.get(key, Fraction(0)) for col in cols])
    return tuple(_reference_rref(rows, len(perms))[0])


@pytest.mark.parametrize("params,exps", [
    (("H2",), ((0,), (0,), (0,), (1,))),
    (("M4_4",), ((0, 0), (0, 0), (0, 0))),
    (("pauli", 3, 1), ((1, 0), (1, 0), (0, 1))),
    (("M2C_Z4",), ((1,), (1,), (2,))),
    (("H4",), ((1, 0), (1, 0), (1, 0))),
    (("quat_trivial",), ((0, 0), (0, 0), (0, 0))),
    (("pauli", 4, 1), ((1, 0), (0, 1), (1, 0))),
    (("pauli", 3, 1), ((1, 0), (0, 1), (1, 0), (2, 2))),
], ids=["H2", "M4_4", "pauli(3,1)", "M2C_Z4", "H4", "quat_trivial-full-rank",
        "pauli(4,1)", "pauli(3,1)-degree-4"])
def test_image_matches_element_product_reference(params, exps):
    # repeated degrees and repeated basis elements spell one word in several
    # ways; the full-rank case stops before the last substitution; the pauli
    # cases substitute only half of each component (the central i of A_e)
    a = catalog(*params)
    degrees = tuple(a.group.element(x) for x in exps)
    want = _reference_image(a, degrees)
    assert identity_space(a, degrees).image == want
    if params == ("quat_trivial",):
        assert len(want) == math.factorial(len(degrees))


# sha256 over repr((degrees, image)) for every ordered tuple of support
# degrees up to size 3 (size 4 for the IMAGE_DIGEST_DEEP entries); pinned so
# that identity_space, disk-cache payloads and idspace output cannot drift
IMAGE_DIGEST_DEEP = {"H2", "M2_2", "H4", "M2_4"}
IMAGE_DIGESTS = {
    "C2": "0f108f903c0cb87db8b3d2b4a9f56a83c5ce28ba9263ef467b6c232622ce19c7",
    "H2": "747f581ab1ac820a628d58de5308006a1e42c148cf5d256a568c0a5bb7e602a1",
    "H4": "a121f7817bbac3d4b0dda0405cca13c1579f2ec2f1e33feef4f51084f8eb571f",
    "M2C_Z4": "87e53be27e76f71f9b7f9bf620a7cbd107e761a72218dd4864b7bcf29ac07174",
    "M2_2": "747f581ab1ac820a628d58de5308006a1e42c148cf5d256a568c0a5bb7e602a1",
    "M2_4": "a121f7817bbac3d4b0dda0405cca13c1579f2ec2f1e33feef4f51084f8eb571f",
    "M2_8": "5c32853bbcab5ff9093769bd15d5c456fc168b01d4e622e3ddd48b457b7c4b6d",
    "M4_4": "669338dd50ac09e80932565d47f01d1352cb7ab0a9eec0aa45e7c145e8b67e5e",
    "quat_trivial": "43cefd2b51d5d24c495d324985f3977bb0b09e9910b87d90197af1f3ddc324c9",
    "pauli(3,1)": "f2298ca3e26ac875a65bb286ee174e578783965cb6d688e8e3adf2f9ad5299ff",
    "pauli(4,3)": "d291cdb9fcc5cbea3ab71ab7db021233233e506debfffd1d6b746e00acb6cac5",
}


def test_every_catalog_entry_has_pinned_images():
    fixed = [n for n in catalog_names() if "(" not in n]
    assert set(fixed) <= set(IMAGE_DIGESTS)


@pytest.mark.parametrize("name", sorted(IMAGE_DIGESTS))
def test_images_are_pinned(name):
    if name.startswith("pauli("):
        a = catalog("pauli", *name[len("pauli("):-1].split(","))
    else:
        a = catalog(name)
    h = hashlib.sha256()
    for size in range(1, (4 if name in IMAGE_DIGEST_DEEP else 3) + 1):
        for degrees in itertools.product(sorted(a.support()), repeat=size):
            h.update(repr((degrees, identity_space(a, degrees).image)).encode())
    assert h.hexdigest() == IMAGE_DIGESTS[name]


# sha256 over repr((multiset, image)) for every multiset of support degrees
# of pauli(3,1) up to size 5, computed before substitutions were restricted
# to generators over the centre of A_e
PAULI31_DEGREE5_DIGEST = \
    "eb344cf398135e3811a95afe35acd690e2f9b60a041247d808bca8dafe10523c"


def test_pauli31_images_to_degree_5_are_pinned():
    a = catalog("pauli", 3, 1)
    h = hashlib.sha256()
    for size in range(1, 6):
        for ms in itertools.combinations_with_replacement(sorted(a.support()), size):
            h.update(repr((ms, identity_space(a, ms).image)).encode())
    assert h.hexdigest() == PAULI31_DEGREE5_DIGEST


def _m2_8_drop_last():
    z22, z23 = make_group((2, 2)), make_group((2, 2, 2))
    theta = make_hom(z23, z22, [z22.element(x) for x in ((1, 0), (0, 1), (0, 0))])
    return quotient_grading(catalog("M2_8"), theta)


@pytest.mark.parametrize("build,kept", [
    (lambda: catalog("pauli", 2, 1), 4),
    (_m2_8_drop_last, 4),
    (lambda: catalog("pauli", 3, 1), 9),
    (lambda: catalog("pauli", 3, 2), 9),
    (lambda: catalog("pauli", 4, 1), 16),
    (lambda: catalog("pauli", 4, 3), 16),
    # the i of M2C_Z4 has degree a^2; A_e of H2 and M2_2 is a commutative C
    # whose i is not central; A_e of quat_trivial and M4_4 is H
    (lambda: catalog("M2C_Z4"), 8),
    (lambda: catalog("H2"), 4),
    (lambda: catalog("M2_2"), 4),
    (lambda: catalog("quat_trivial"), 4),
    (lambda: catalog("M4_4"), 16),
], ids=["pauli(2,1)", "M2_8/(drop last)", "pauli(3,1)", "pauli(3,2)",
        "pauli(4,1)", "pauli(4,3)", "M2C_Z4", "H2", "M2_2", "quat_trivial",
        "M4_4"])
def test_substitution_basis_sizes(build, kept):
    a = build()
    basis = _substitution_basis(a)
    assert sorted(basis) == sorted(a.support())
    assert all(set(basis[g]) <= set(a.component(g)) and basis[g] for g in basis)
    assert sum(map(len, basis.values())) == kept
    assert a._substitutions is basis and _substitution_basis(a) is basis


def _rebased(a, replace):
    """a with basis element `old` replaced by sum(c * a[l]) for each
    old -> (label, {l: c}) in `replace`; rational structure constants only."""
    n = a.dim
    labels, rows = list(a.labels), [[Fraction(int(i == j)) for j in range(n)]
                                    for i in range(n)]
    for old, (label, combo) in replace.items():
        i = a.label_index(old)
        labels[i] = label
        rows[i] = [Fraction(combo.get(l, 0)) for l in a.labels]
        assert all(a.degrees[j] == a.degrees[i] for j, c in enumerate(rows[i]) if c)
    # Gauss-Jordan on [rows | 1] leaves [1 | rows^-1]
    inverse = [r[n:] for r in _reference_rref(
        [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)],
        2 * n)[0]]

    def coordinates(x):
        out = [Fraction(0)] * n
        for m, c in x.coeffs.items():
            for k in range(n):
                out[k] += c.as_fraction() * inverse[m][k]
        return {k: c for k, c in enumerate(out) if c}

    elements = [a.element(dict(enumerate(r))) for r in rows]
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        entries = tuple(sorted(coordinates(elements[i] * elements[j]).items()))
        if entries:
            table[(i, j)] = entries
    unit = coordinates(a.one())
    return GradedAlgebra(a.group, a.conductor, labels, a.degrees, table, unit)


def test_unaligned_basis_keeps_every_generator():
    # pauli(2,1) graded by Z2 through (a,b) -> a, with A_1 spanned by
    # X, iX + XY, iX - XY, iXY: i times each of them has two entries, so
    # none of them is reached from another, while A_e still halves
    z22, z2 = make_group((2, 2)), make_group((2,))
    a = quotient_grading(catalog("pauli", 2, 1),
                         make_hom(z22, z2, [z2.element((1,)), z2.identity]))
    b = _rebased(a, {"iX1Y0": ("iX+XY", {"iX1Y0": 1, "X1Y1": 1}),
                     "X1Y1": ("iX-XY", {"iX1Y0": 1, "X1Y1": -1})})
    e, g = z2.identity, z2.element((1,))
    for degrees in [(g, g), (e, g, g), (g, g, g)]:
        want = _reference_image(a, degrees)
        assert identity_space(b, degrees).image == want
        assert identity_space(a, degrees).image == want
    # [x_1, y_1] is no identity: X and XY anticommute
    assert identity_space(b, (g, g)).dimension == 0
    assert (len(_substitution_basis(b)[e]), len(_substitution_basis(b)[g])) == (2, 4)
    assert (len(_substitution_basis(a)[e]), len(_substitution_basis(a)[g])) == (2, 2)


def test_identities_do_not_import_structure():
    # brute force stays independent of the structural engine; the package
    # __init__ imports everything, so load the submodule under a bare package
    code = (
        "import importlib, sys, types\n"
        f"pkg = types.ModuleType('gradedpi'); pkg.__path__ = {list(gradedpi.__path__)!r}\n"
        "sys.modules['gradedpi'] = pkg\n"
        "importlib.import_module('gradedpi.identities')\n"
        "assert 'gradedpi.identities' in sys.modules\n"
        "assert 'gradedpi.structure' not in sys.modules, sorted(sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_empty_component_space_has_empty_image():
    g = make_group((2,))
    a = trivially_graded_reals(g)
    space = identity_space(a, (g.identity, g.element((1,))))
    assert space.image == () and space.dimension == 2
    assert list(space.kernel) == [(1, 0), (0, 1)]


def test_unequal_spaces_without_a_witness_are_an_invariant_violation():
    a, b = catalog("H4"), catalog("H4")
    g = a.group
    degrees = (g.element((0, 1)), g.element((1, 0)))
    good = identity_space(b, degrees)
    # the same row space, but not in canonical form: unequal, yet every
    # identity of either space is an identity of the other
    a._mul_cache[degrees] = IdentitySpace(
        degrees, [tuple(2 * x for x in row) for row in good.image])
    with pytest.raises(InvariantViolation, match="neither lacks"):
        same_identities_up_to(a, b, 2)


def test_identity_space_rejects_foreign_degrees():
    a = catalog("C2")
    z4 = make_group((4,))
    with pytest.raises(PreconditionError):
        identity_space(a, (z4.identity,))
    with pytest.raises(PreconditionError):
        identity_space(a, ())


def test_coefficient_vector_validation():
    a = catalog("H4")
    g = a.group
    e = g.identity
    s = identity_space(a, (e, e))
    with pytest.raises(PreconditionError):
        s.coefficient_vector(parse_polynomial("x[(1,0),1]*y[e,2]", g))
    with pytest.raises(PreconditionError):
        s.coefficient_vector(parse_polynomial("x[e,1]*x[e,1]", g))


def matrix_model(division_model, n):
    """M_n(D) as Kronecker products: dEij is the matrix unit E_ij times d."""
    model = {}
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1
            for label, m in division_model.items():
                model[f"{label}E{i + 1}{j + 1}"] = np.kron(unit, m)
    return model


def m3_algebra():
    """M_3(R) graded by Z2^2 with g-tuple (e, a, b): most products of matrix
    units vanish."""
    g = make_group((2, 2))
    return matrix_over_division(TripleSpec(
        Subgroup.trivial(g), trivially_graded_reals(g),
        (g.identity, g.element((1, 0)), g.element((0, 1)))))


# (id, algebra, matrix model, degree tuples); pauli(3,1) has conductor 12,
# constants with denominator 2 and irrational power-basis coordinates
NUMERIC_CASES = [
    ("H4", lambda: catalog("H4"), quaternion_model,
     [((0, 0),), ((1, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 0), (1, 0), (0, 1)),
      ((1, 0), (0, 1), (1, 1)), ((1, 0), (1, 0), (0, 1))]),
    ("M2_4", lambda: catalog("M2_4"), sylvester_model,
     [((1, 0), (0, 1)), ((0, 0), (0, 0)), ((1, 1), (1, 1), (1, 0))]),
    ("M2C_Z4", lambda: catalog("M2C_Z4"), m2c_model,
     [((1,), (3,)), ((1,), (1,)), ((0,), (2,), (1,)), ((1,), (1,), (2,))]),
    ("pauli(3,1)", lambda: catalog("pauli", 3, 1),
     lambda: clock_shift_model(3, 1),
     [((1, 0),), ((1, 0), (0, 1)), ((1, 1), (2, 2)), ((0, 0), (1, 2)),
      ((1, 0), (1, 0), (1, 0)), ((1, 0), (0, 1), (2, 2)),
      ((1, 0), (2, 0), (0, 1))]),
    ("M3(R)(e,a,b)", m3_algebra, lambda: matrix_model({"1": np.eye(1)}, 3),
     [((1, 0),), ((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 0), (1, 0)),
      ((0, 1), (0, 1), (1, 0)), ((1, 0), (0, 1), (1, 1)),
      ((1, 1), (1, 1), (1, 1))]),
    # the real identity with coefficients (1, 1 - phi, 1, 1 - phi, 1, 1),
    # phi the golden ratio, has no rational multiple: identity_space finds
    # dimension 3 where the real kernel has dimension 4
    pytest.param(
        "pauli(5,1)", lambda: catalog("pauli", 5, 1),
        lambda: clock_shift_model(5, 1), [((0, 1), (0, 1), (1, 0))],
        id="pauli(5,1)", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="identity spaces are computed over Q, and "
            "the structure constants of pauli(5,1) span Q(sqrt 5)")),
]


@pytest.mark.parametrize("name,algebra_fn,model_fn,tuples", NUMERIC_CASES,
                         ids=[getattr(c, "id", None) or c[0]
                              for c in NUMERIC_CASES])
def test_identity_space_dims_match_numpy_oracle(name, algebra_fn, model_fn,
                                                tuples):
    a = algebra_fn()
    model = model_fn()
    assert table_matches_model(a, model)
    for exps in tuples:
        degrees = tuple(a.group.element(x) for x in exps)
        exact = identity_space(a, degrees)
        assert exact.dimension == numeric_identity_dim(a, model, degrees)


def test_identity_space_basis_evaluates_to_zero_numerically():
    a = catalog("M2C_Z4")
    model = numeric_model(a, m2c_model())
    g = a.group
    degrees = (g.element((1,)), g.element((1,)), g.element((2,)))
    space = identity_space(a, degrees)
    comp_indices = [a.component(d) for d in degrees]
    for f in space.polynomials():
        for choice in itertools.product(*comp_indices):
            by_var = {VarRef(d, i + 1): model[choice[i]]
                      for i, d in enumerate(degrees)}
            total = np.zeros((2, 2), complex)
            for mono, c in f.terms.items():
                m = by_var[mono[0]]
                for v in mono[1:]:
                    m = m @ by_var[v]
                total += complex(numeric_scalar(c)) * m
            assert np.allclose(total, 0, atol=1e-9)


# -- brute-force equivalence ----------------------------------------------------


def test_same_identities_h4_m2_4():
    rep = same_identities_up_to(catalog("H4"), catalog("M2_4"), 3)
    assert rep.equal
    assert "agree" in rep.detail


def test_same_identities_detects_support_mismatch():
    rep = same_identities_up_to(catalog("M2_4"), catalog("quat_trivial"), 2)
    assert not rep.equal
    assert rep.witness is not None
    assert len(rep.witness.terms) == 1  # a single variable monomial


def test_same_identities_witness_checks_out():
    a, b = catalog("M2_4"), catalog("M4_4")
    rep = same_identities_up_to(a, b, 2, names=("small", "big"))
    assert not rep.equal
    assert rep.holds_in == "small" and rep.fails_in == "big"
    f = rep.witness
    assert is_identity(f, a) and not is_identity(f, b)
    assignment = {}
    for v, label in rep.witness_substitution.items():
        assignment[v] = b.basis_element(b.label_index(label))
    assert not evaluate(f, assignment, b).is_zero()


def test_same_identities_rejects_mismatched_groups():
    with pytest.raises(PreconditionError):
        same_identities_up_to(catalog("C2"), catalog("H4"), 2)
    with pytest.raises(PreconditionError):
        same_identities_up_to(catalog("C2"), catalog("C2"), 0)


# -- theta images ----------------------------------------------------------------


def test_theta_image_pushes_degrees():
    g = make_group((2, 2))
    z2 = make_group((2,))
    theta = make_hom(g, z2, [z2.element((1,)), z2.element((1,))])
    f = parse_polynomial("[x[(1,0),1],y[(0,1),2]]", g)
    img = theta_image(f, theta)
    assert img.group == z2
    assert all(v.degree == z2.element((1,)) for v in img.variables())


def test_theta_image_keeps_coefficients():
    g = make_group((4,))
    z2 = make_group((2,))
    theta = make_hom(g, z2, [z2.element((1,))])
    f = parse_polynomial("2*x[1,1]*y[2,2] - 1/3*(y[2,2]*x[1,1])", g)
    img = theta_image(f, theta)
    assert sorted(c.as_fraction() for c in img.terms.values()) == [
        Fraction(-1, 3), Fraction(2)]


def test_identities_lift_from_quotient_gradings():
    """Quotient-grading variables range over larger components, so identities
    transfer by lifting: theta(f) in Id(quotient) forces f in Id(original).
    The image direction fails in general; the anticommutator of M2_4 is the
    standard counterexample."""
    g = make_group((2, 2))
    z2 = make_group((2,))
    theta = make_hom(g, z2, [z2.element((1,)), z2.element((1,))])
    a, q = catalog("M2_4"), catalog("M2_2")

    big = parse_polynomial("[x[e,1],y[e,2]]", z2)
    assert is_identity(big, q)
    # every lift of the degrees through theta is an identity of M2_4
    for ge in [g.identity, g.element((1, 1))]:
        for he in [g.identity, g.element((1, 1))]:
            lift = GradedPolynomial.variable(g, ge, 1).commutator(
                GradedPolynomial.variable(g, he, 2))
            assert is_identity(lift, a)

    anti = parse_polynomial(
        "x[(1,0),1]*y[(0,1),2] + y[(0,1),2]*x[(1,0),1]", g)
    assert is_identity(anti, a)
    assert not is_identity(theta_image(anti, theta), q)


def test_squares_quotient_preserves_verdicts_on_m2c_z4():
    # the quotient by squares of a division grading with homogeneous i
    # preserves identity verdicts in both directions; one instance here,
    # the full sweep lives in the acceptance suite
    from gradedpi.algebras import quotient_grading
    from gradedpi.groups import quotient_hom, squares_subgroup

    a = catalog("M2C_Z4")
    g = a.group
    theta = quotient_hom(g, squares_subgroup(g))
    q = quotient_grading(a, theta)
    yes = parse_polynomial("[x[e,1],y[2,2]]", g)
    no = parse_polynomial("x[1,1]*y[1,2] + y[1,2]*x[1,1]", g)
    assert is_identity(yes, a) and is_identity(theta_image(yes, theta), q)
    assert not is_identity(no, a)
    assert not is_identity(theta_image(no, theta), q)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_identity_space_members_are_identities(data):
    """Random rational combinations of basis polynomials stay identities."""
    a = catalog(data.draw(st.sampled_from(["H4", "M2_4", "C2"])))
    g = a.group
    supp = sorted(a.support())
    n = data.draw(st.integers(1, 3))
    degrees = tuple(data.draw(st.sampled_from(supp)) for _ in range(n))
    space = identity_space(a, degrees)
    if space.dimension == 0:
        return
    coeffs = [data.draw(st.integers(-3, 3)) for _ in range(space.dimension)]
    combo = GradedPolynomial.zero(g)
    for c, f in zip(coeffs, space.polynomials()):
        combo = combo + f.scale(Fraction(c))
    assert is_identity(combo, a)
    assert space.contains(combo) or combo.is_zero()
