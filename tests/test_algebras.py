"""Graded algebra construction, catalog entries, combinators.

The catalog tables are cross-checked against independent numpy matrix
models: quaternions as complex 2x2 matrices, the Sylvester basis of
M2(R), the omega-scaled basis of M2(C), and clock/shift matrices.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.algebras import (GradedAlgebra, TripleSpec, _positive_definite,
                               catalog, catalog_names, check_graded_division,
                               is_invertible, left_multiplication_matrix,
                               matrix_over_division, quotient_grading,
                               regrade, tensor_product,
                               trivially_graded_complex,
                               trivially_graded_reals, twisted_group_algebra,
                               validate)
from gradedpi.errors import PreconditionError
from gradedpi.groups import Subgroup, make_group, make_hom
from gradedpi.scalars import CycloScalar, field_pivots

NAMED = ["H4", "M2_4", "M2_2", "H2", "C2", "M2C_Z4", "M2_8", "M4_4",
         "quat_trivial"]


def numeric_scalar(s: CycloScalar) -> complex:
    z = np.exp(2j * np.pi / s.conductor)
    return complex(sum(Fraction(c) * z ** k for k, c in enumerate(s.coeffs)))


def table_matches_model(a: GradedAlgebra, model: dict) -> bool:
    """Every structure constant agrees with the numpy model to 1e-9."""
    for i in range(a.dim):
        for j in range(a.dim):
            want = model[a.labels[i]] @ model[a.labels[j]]
            got = np.zeros_like(want, dtype=complex)
            for k, c in a.table.get((i, j), ()):
                got = got + numeric_scalar(c) * model[a.labels[k]]
            if not np.allclose(want, got, atol=1e-9):
                return False
    return True


def quaternion_model():
    one = np.eye(2, dtype=complex)
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    return {"1": one, "i": i, "j": j, "k": i @ j}


def sylvester_model():
    return {"I": np.eye(2, dtype=complex),
            "A": np.array([[1, 0], [0, -1]], dtype=complex),
            "B": np.array([[0, 1], [1, 0]], dtype=complex),
            "C": np.array([[0, 1], [-1, 0]], dtype=complex)}


# -- catalog sanity ---------------------------------------------------------


@pytest.mark.parametrize("name", NAMED)
def test_catalog_entries_validate(name):
    a = catalog(name)
    rep = validate(a)
    assert rep.ok, rep.failures[:3]


@pytest.mark.parametrize("name", NAMED)
def test_catalog_entries_are_division_gradings(name):
    assert check_graded_division(catalog(name))


@pytest.mark.parametrize("nk", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_pauli_entries_validate_and_divide(nk):
    a = catalog("pauli", *nk)
    assert validate(a).ok
    assert check_graded_division(a)


def test_catalog_unknown_name():
    with pytest.raises(PreconditionError):
        catalog("nope")
    with pytest.raises(PreconditionError):
        catalog("pauli", 4, 2)  # exponent not coprime
    assert "H4" in catalog_names()


def test_catalog_dimensions_and_supports():
    dims = {"H4": 4, "M2_4": 4, "M2_2": 4, "H2": 4, "C2": 2, "M2C_Z4": 8,
            "M2_8": 8, "M4_4": 16, "quat_trivial": 4}
    for name, d in dims.items():
        a = catalog(name)
        assert a.dim == d
    assert len(catalog("H4").support()) == 4
    assert len(catalog("M2_2").support()) == 2
    assert len(catalog("quat_trivial").support()) == 1
    assert len(catalog("M2C_Z4").support()) == 4
    assert len(catalog("pauli", 3, 1).support()) == 9


def test_h4_matches_quaternion_matrix_model():
    assert table_matches_model(catalog("H4"), quaternion_model())


def test_m2_4_matches_sylvester_matrix_model():
    assert table_matches_model(catalog("M2_4"), sylvester_model())


def test_m2c_z4_matches_omega_scaled_model():
    w = np.exp(1j * np.pi / 4)  # primitive eighth root, w^2 = i
    syl = sylvester_model()
    model = {}
    for t, x in [(0, "I"), (0, "C"), (1, "A"), (1, "B")]:
        prefix = "w" if t == 1 else ""
        model[f"{prefix}{x}"] = w ** t * syl[x]
        model[f"i{prefix}{x}"] = 1j * w ** t * syl[x]
    assert table_matches_model(catalog("M2C_Z4"), model)


def clock_shift_model(n, k):
    """pauli(n, k) as n x n complex matrices: X^a Y^b = clock^a shift^b."""
    wk = np.exp(2j * np.pi * k / n)
    clock = np.diag([wk ** t for t in range(n)])
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    model = {}
    for a_ in range(n):
        for b in range(n):
            m = np.linalg.matrix_power(clock, a_) @ np.linalg.matrix_power(shift, b)
            model[f"X{a_}Y{b}"] = m
            model[f"iX{a_}Y{b}"] = 1j * m
    return model


@pytest.mark.parametrize("nk", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_pauli_matches_clock_shift_model(nk):
    n, k = nk
    assert table_matches_model(catalog("pauli", n, k), clock_shift_model(n, k))


def pauli_table_by_inversion(n, k):
    """pauli(n, k)'s table as first built: real and imaginary parts of each
    entry's root of unity taken by CycloScalar.real_part / imag_part."""
    cond = 4 * n // np.gcd(4, n)
    idx = lambda a_, b, s: (a_ * n + b) * 2 + s
    table = {}
    for a_, b, s in itertools.product(range(n), range(n), range(2)):
        for c, d, t in itertools.product(range(n), range(n), range(2)):
            power = (s + t) * (cond // 4) - k * b * c * (cond // n)
            z = CycloScalar.root_of_unity(cond, power)
            target = ((a_ + c) % n, (b + d) % n)
            table[(idx(a_, b, s), idx(c, d, t))] = tuple(
                (idx(*target, part), v)
                for part, v in enumerate((z.real_part(), z.imag_part()))
                if not v.is_zero())
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_table_equals_the_construction_by_inversion(n):
    for k in range(1, n + 1):
        if np.gcd(k, n) != 1:
            continue
        a = catalog("pauli", n, k)
        want = pauli_table_by_inversion(n, k)
        assert a.table == {ij: e for ij, e in want.items() if e}
        assert all(s.conductor == a.conductor
                   for entries in a.table.values() for _, s in entries)


@pytest.mark.parametrize("name", ["M2C_Z4", "M4_4"])
def test_basis_product_is_the_element_product(name):
    a = catalog(name)
    for i in range(a.dim):
        for j in range(a.dim):
            assert a.basis_product(i, j).coeffs == \
                (a.basis_element(i) * a.basis_element(j)).coeffs


@pytest.mark.parametrize("name,params", [("M2C_Z4", ()), ("M4_4", ()),
                                         ("pauli", (3, 1))],
                         ids=["M2C_Z4", "M4_4", "pauli(3,1)"])
def test_integer_products_match_element_products(name, params):
    # vectors are flat sparse dicts {basis index * phi + slot: nonzero int}
    a = catalog(name, *params)
    products = a.integer_products()
    phi = products.phi
    assert products.scale == (2 if name == "pauli" else 1)

    def scaled(x, factor):
        return {k * phi + t: factor * q for k, c in x.coeffs.items()
                for t, q in enumerate(c.rational_coordinates()) if q}

    for i in range(a.dim):
        assert products.unit_vector(i) == scaled(a.basis_element(i), 1)
        for j in range(a.dim):
            prod = a.basis_element(i) * a.basis_element(j)
            got = products.times(products.unit_vector(i), j)
            assert got == scaled(prod, products.scale)
            # vectors with several coordinates, scaled once per product
            for k in range(a.dim):
                got3 = products.times(got, k)
                assert got3 == scaled(prod * a.basis_element(k), products.scale ** 2)
                assert all(type(q) is int and q for q in got3.values())


def test_homogeneous_elements_of_division_gradings_invert():
    for name in ["H4", "M2_4", "M2C_Z4"]:
        a = catalog(name)
        for i in range(a.dim):
            assert is_invertible(a.basis_element(i))


def full_rank_invertible(x) -> bool:
    """The reference: the rank of the whole dim x dim matrix of L_x."""
    return len(field_pivots(left_multiplication_matrix(x))) == x.parent.dim


def combinator_outputs():
    """Quotients, regradings, tensor products and matrix algebras."""
    h4, m24, c2 = catalog("H4"), catalog("M2_4"), catalog("C2")
    z2, z22, z4 = make_group((2,)), make_group((2, 2)), make_group((4,))
    z23, z24, z1 = make_group((2, 2, 2)), make_group((2, 2, 2, 2)), make_group((1,))
    hom = lambda g, h, images: make_hom(g, h, [h.element(x) for x in images])
    left = hom(z22, z24, [(1, 0, 0, 0), (0, 1, 0, 0)])
    right = hom(z22, z24, [(0, 0, 1, 0), (0, 0, 0, 1)])
    return {
        "H4/(a,b->a)": quotient_grading(h4, hom(z22, z2, [(1,), (1,)])),
        "M2_4 trivial": quotient_grading(m24, hom(z22, z1, [(0,), (0,)])),
        "M2_4 sheared": regrade(m24, hom(z22, z22, [(0, 1), (1, 1)])),
        "C2 on <a^2>": regrade(c2, hom(z2, z4, [(2,)])),
        "H4 x C2": tensor_product(h4, c2, z23, hom(z22, z23, [(1, 0, 0), (0, 1, 0)]),
                                  hom(z2, z23, [(0, 0, 1)])),
        "H4 x M2_4": tensor_product(h4, m24, z24, left, right),
        "M2(R) by (e,a)": matrix_over_division(TripleSpec(
            Subgroup.trivial(z2), trivially_graded_reals(z2),
            (z2.identity, z2.element((1,))))),
        "M2(R) trivial": matrix_over_division(TripleSpec(
            Subgroup.trivial(z2), trivially_graded_reals(z2),
            (z2.identity, z2.identity))),
        "M2(H) by (e,a)": matrix_over_division(TripleSpec(
            h4.support_subgroup(), h4, (z22.identity, z22.element((1, 0))))),
    }


@pytest.mark.parametrize("name", NAMED + ["pauli(3,1)", "pauli(4,3)"]
                         + sorted(combinator_outputs()))
def test_block_invertibility_equals_the_full_rank(name):
    if name.startswith("pauli"):
        a = catalog("pauli", int(name[6]), int(name[8]))
    else:
        a = catalog(name) if name in NAMED else combinator_outputs()[name]
    for i in range(a.dim):
        b = a.basis_element(i)
        assert is_invertible(b) == full_rank_invertible(b), a.labels[i]


def test_block_invertibility_of_homogeneous_combinations():
    # the e-component of M2(R) under the trivial grading, spanned by the
    # Sylvester basis I, A, B, C: I + A is singular, I + C is not
    a = combinator_outputs()["M2_4 trivial"]
    verdicts = set()
    for combo in itertools.product((-1, 0, 1), repeat=a.dim):
        if any(combo):
            x = a.element({t: c for t, c in enumerate(combo) if c})
            verdicts.add(is_invertible(x))
            assert is_invertible(x) == full_rank_invertible(x), combo
    assert verdicts == {True, False}


@pytest.mark.parametrize("name, size, singular", [
    ("M2_4", 80, 32), ("H4", 80, 0), ("pauli(2,1)", 728, 48),
    ("M2C_Z4", 728, 32)])
def test_invertibility_of_mixed_combinations(name, size, singular):
    # every nonzero {-1, 0, 1} combination of the first six basis elements,
    # most of them mixed, against the rank of the whole matrix
    a = catalog("pauli", 2, 1) if name == "pauli(2,1)" else catalog(name)
    n = min(a.dim, 6)
    found = []
    for combo in itertools.product((-1, 0, 1), repeat=n):
        if any(combo):
            x = a.element({t: c for t, c in enumerate(combo) if c})
            assert is_invertible(x) == full_rank_invertible(x), combo
            found.append(is_invertible(x))
    assert (len(found), found.count(False)) == (size, singular)


def test_unequal_component_dimensions_are_not_invertible():
    # M3(R) graded by (e, e, a): A_e has E11, E12, E21, E22, E33 and A_a the
    # four others, so left multiplication by E13 cannot map A_e onto A_a
    g = make_group((2,))
    m3 = matrix_over_division(TripleSpec(Subgroup.trivial(g),
                                         trivially_graded_reals(g),
                                         (g.identity, g.identity, g.element((1,)))))
    assert m3.support() == (g.identity, g.element((1,)))
    assert (len(m3.component(g.identity)),
            len(m3.component(g.element((1,))))) == (5, 4)
    e13 = m3.basis_element(m3.label_index("1E13"))
    block = left_multiplication_matrix(e13, m3.component(g.identity),
                                       m3.component(g.element((1,))))
    assert (len(block), len(block[0])) == (4, 5)
    assert not is_invertible(e13) and not full_rank_invertible(e13)
    assert check_graded_division(m3).verdict == "no"


def test_products_outside_the_target_component_raise():
    # x has degree a but x * x lands on x, not in A_e
    g = make_group((2,))
    bad = GradedAlgebra(g, 1, ("u", "x"), (g.identity, g.element((1,))),
                        {(0, 0): ((0, 1),), (0, 1): ((1, 1),),
                         (1, 0): ((1, 1),), (1, 1): ((1, 1),)}, {0: 1})
    with pytest.raises(PreconditionError, match="leaves the requested span"):
        is_invertible(bad.basis_element(1))
    with pytest.raises(PreconditionError, match="leaves the requested span"):
        check_graded_division(bad)


# -- element arithmetic ------------------------------------------------------


def test_element_degree_and_components():
    a = catalog("H4")
    i, j = a.basis_element(1), a.basis_element(2)
    assert i.degree() == a.degrees[1]
    mixed = i + j
    assert mixed.degree() is None
    parts = {g: a.element({k: c for k, c in mixed.coeffs.items()
                           if k in a.component(g)}) for g in a.support()}
    assert {p.degree() for p in parts.values() if not p.is_zero()} == \
        {a.degrees[1], a.degrees[2]}
    assert parts[a.degrees[1]] == i


def test_element_scaling_and_subtraction():
    a = catalog("C2")
    x = a.basis_element(0) + a.basis_element(1)
    assert x - x == a.zero()
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert (-x) + x == a.zero()
    assert 2 * a.one() == a.one() + a.one()


def test_quaternion_relations():
    a = catalog("H4")
    one, i, j, k = (a.basis_element(t) for t in range(4))
    assert i * i == -one and j * j == -one and k * k == -one
    assert i * j == k and j * i == -k
    assert i * j * k == -one


def test_label_index():
    a = catalog("M2_4")
    assert a.label_index("B") == 2
    with pytest.raises(PreconditionError):
        a.label_index("nope")


# -- validation catches broken tables ----------------------------------------


def test_validate_catches_degree_violation():
    g = make_group((2,))
    # deg(x)*deg(x) = e but the product maps to degree a
    bad = GradedAlgebra(g, 1, ("u", "x"), (g.identity, g.element((1,))),
                        {(0, 0): ((0, Fraction(1)),), (0, 1): ((1, Fraction(1)),),
                         (1, 0): ((1, Fraction(1)),), (1, 1): ((1, Fraction(1)),)},
                        {0: Fraction(1)})
    rep = validate(bad)
    assert not rep.ok
    assert any("degree violation" in f for f in rep.failures)


def test_non_real_constants_are_rejected_by_name():
    g = make_group((1,))
    e = g.identity
    i = CycloScalar.root_of_unity(4, 1)
    # the real constant 1 repeats before and after the first non-real entry,
    # which is named even though the same value appears again later
    table = {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
             (1, 1): ((0, i),), (1, 2): ((0, i),), (0, 2): ((2, 1),),
             (2, 0): ((2, 1),)}
    with pytest.raises(PreconditionError,
                       match=r"^structure constant for \(x,x\) is not real$"):
        GradedAlgebra(g, 4, ("u", "x", "y"), (e, e, e), table, {0: 1})
    with pytest.raises(PreconditionError, match="^unit coefficient is not real$"):
        GradedAlgebra(g, 4, ("u",), (e,), {(0, 0): ((0, 1),)}, {0: i})


def test_validate_catches_nonassociativity():
    g = make_group((1,))
    e = g.identity
    # (xx)x = yx = 0 but x(xx) = xy = u
    table = {(0, 0): ((0, Fraction(1)),), (0, 1): ((1, Fraction(1)),),
             (0, 2): ((2, Fraction(1)),), (1, 0): ((1, Fraction(1)),),
             (2, 0): ((2, Fraction(1)),), (1, 1): ((2, Fraction(1)),),
             (1, 2): ((0, Fraction(1)),), (2, 1): (), (2, 2): ()}
    bad = GradedAlgebra(g, 1, ("u", "x", "y"), (e, e, e), table,
                        {0: Fraction(1)})
    rep = validate(bad)
    assert not rep.ok
    assert any("associativity" in f for f in rep.failures)
    # the same triples, in the same order, as a direct check of every triple
    basis = [bad.basis_element(i) for i in range(bad.dim)]
    want = [f"associativity fails at ({bad.labels[i]},{bad.labels[j]},"
            f"{bad.labels[k]})"
            for i, j, k in itertools.product(range(bad.dim), repeat=3)
            if (basis[i] * basis[j]) * basis[k] != basis[i] * (basis[j] * basis[k])]
    assert want and rep.failures == want


def test_division_check_rejects_matrix_units():
    triple = TripleSpec(Subgroup.trivial(make_group((2,))),
                        trivially_graded_reals(make_group((2,))),
                        (make_group((2,)).identity, make_group((2,)).element((1,))))
    # same group object is required
    g = make_group((2,))
    triple = TripleSpec(Subgroup.trivial(g), trivially_graded_reals(g),
                        (g.identity, g.element((1,))))
    m2 = matrix_over_division(triple)
    verdict = check_graded_division(m2)
    assert verdict.verdict == "no"
    assert verdict.witness is not None and not is_invertible(verdict.witness)


# Trivially graded algebras whose e-component is the whole algebra, with the
# verdict known from the algebra's parameters: (a, b) is a division algebra
# exactly when a < 0 and b < 0, and R[x]/(x^2 - a) exactly when a < 0.

ROOT2 = CycloScalar(8, [0, 1, 0, -1])  # zeta_8 + zeta_8^-1
QUATERNION_PARAMS = (
    [pytest.param(a, b, 4, id=f"{a},{b}")
     for a in (-3, -2, -1, 1, 2) for b in (-3, -2, -1, 1, 2)]
    + [pytest.param(sa * ROOT2, sb * ROOT2, 8, id=f"{sa}*sqrt2,{sb}*sqrt2")
       for sa in (1, -1) for sb in (1, -1)])


def trivially_graded(conductor, table, unit):
    g = make_group((2,))
    dim = 1 + max(max(ij) for ij in table)
    return GradedAlgebra(g, conductor, [f"b{t}" for t in range(dim)],
                         (g.identity,) * dim, table, unit)


def quaternion_algebra(a, b, conductor, order):
    """(a, b) with i^2 = a, j^2 = b, ij = -ji = k; basis 1, i, j, k moved to
    positions order[0..3]."""
    rel = {(1, 1): (0, a), (2, 2): (0, b), (3, 3): (0, -(a * b)),
           (1, 2): (3, 1), (2, 1): (3, -1), (1, 3): (2, a), (3, 1): (2, -a),
           (2, 3): (1, -b), (3, 2): (1, b)}
    for s in range(4):
        rel[(0, s)] = rel[(s, 0)] = (s, 1)
    table = {(order[i], order[j]): ((order[k], c),) for (i, j), (k, c) in rel.items()}
    return trivially_graded(conductor, table, {order[0]: 1})


def rebased(mul, one, basis):
    """The rational algebra with product `mul` and unit `one` on coordinate
    vectors, in the basis given by the rows of `basis`."""
    n = len(basis)
    # inverse of the basis matrix by Gauss-Jordan elimination over Q
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(basis)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [v - aug[r][c] * w for v, w in zip(aug[r], aug[c])]
    inv = [row[n:] for row in aug]

    def in_basis(v):  # coordinates of v over the rows of `basis`
        return [sum(v[k] * inv[k][t] for k in range(n)) for t in range(n)]

    table = {(i, j): tuple((t, c) for t, c in enumerate(in_basis(mul(basis[i], basis[j])))
                           if c)
             for i in range(n) for j in range(n)}
    unit = {t: c for t, c in enumerate(in_basis(one)) if c}
    return trivially_graded(4, table, unit)


def quadratic_product(a):
    # (p + q x)(r + s x) in R[x]/(x^2 - a)
    return lambda u, v: [u[0] * v[0] + a * u[1] * v[1], u[0] * v[1] + u[1] * v[0]]


def assert_division_verdict(alg, expected):
    assert validate(alg).ok
    got = check_graded_division(alg)
    assert got.verdict == ("yes" if expected else "no"), got
    if got.witness is not None:
        assert not is_invertible(got.witness)


@pytest.mark.parametrize("a,b,conductor", QUATERNION_PARAMS)
def test_quaternion_division_verdicts_in_every_basis_order(a, b, conductor):
    negative = numeric_scalar(CycloScalar.coerce(a)).real < 0 and \
        numeric_scalar(CycloScalar.coerce(b)).real < 0
    for order in itertools.permutations(range(4)):
        assert_division_verdict(quaternion_algebra(a, b, conductor, order), negative)


@pytest.mark.parametrize("a", [-3, -2, -1, 0, 1, 2])
def test_quadratic_division_verdicts_in_several_bases(a):
    # a unit basis vector in either place, a basis vector 1 + x whose trace
    # is not zero, and a basis in which the unit is a sum (x^2 = 0 at a = 0)
    for basis in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [1, 1]],
                  [[1, 1], [1, -1]]):
        assert_division_verdict(rebased(quadratic_product(a), [1, 0], basis), a < 0)


def test_split_r4_in_a_skew_basis_is_not_division():
    mul = lambda u, v: [p * q for p, q in zip(u, v)]
    alg = rebased(mul, [1, 1, 1, 1],
                  [[2, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]])
    assert validate(alg).ok
    got = check_graded_division(alg)
    assert got.verdict == "no"
    assert got.witness is not None and not is_invertible(got.witness)


def form_of(rows, conductor=8):
    return [[CycloScalar.coerce(v, conductor) for v in row] for row in rows]


def test_definiteness_reads_pivot_order_and_signs():
    z = CycloScalar.root_of_unity(8)
    r2 = z + z.conjugate()  # sqrt(2)
    definite = [[[2, 1], [1, 2]], [[r2, 1], [1, r2]], [[1]],
                [[4, 1, 0], [1, 3, 1], [0, 1, 2]]]
    # pivots 1, 1, 1 leading in columns 0, 2, 1 (D_2 = 0); a negative pivot;
    # D_2 < 0; a zero corner; a negative first entry; D_2 = -1 - 2 sqrt(2)
    not_definite = [[[1, 1, 1], [1, 1, 2], [1, 2, 1]], [[1, 0], [0, -1]],
                    [[1, 2], [2, 1]], [[0, 1], [1, 0]], [[-1]],
                    [[1, r2 + 1], [r2 + 1, 2]]]
    for rows in definite:
        assert _positive_definite(form_of(rows)), rows
    for rows in not_definite:
        assert not _positive_definite(form_of(rows)), rows


# -- combinators --------------------------------------------------------------


def test_tensor_product_reconstructs_m2_8():
    m24, c2 = catalog("M2_4"), catalog("C2")
    g = make_group((2, 2, 2))
    ea = make_hom(m24.group, g, [g.element((1, 0, 0)), g.element((0, 1, 0))])
    eb = make_hom(c2.group, g, [g.element((0, 0, 1))])
    t = tensor_product(m24, c2, g, ea, eb)
    assert t.dim == 8
    assert validate(t).ok
    assert set(t.support()) == set(catalog("M2_8").support())


def test_tensor_product_rejects_support_overlap():
    c2 = catalog("C2")
    g = make_group((2,))
    ident = make_hom(c2.group, g, [g.element((1,))])
    # both factors contribute degree a: support products collide
    with pytest.raises(PreconditionError):
        tensor_product(c2, c2, g, ident, ident)


def test_quotient_grading_merges_components():
    h4 = catalog("H4")
    z2 = make_group((2,))
    theta = make_hom(h4.group, z2, [z2.identity, z2.element((1,))])
    q = quotient_grading(h4, theta)
    assert q.dim == 4
    assert validate(q).ok
    assert q.support() == (z2.identity, z2.element((1,)))
    assert len(q.component(z2.identity)) == 2
    assert len(q.component(z2.element((1,)))) == 2


def test_regrade_requires_injective():
    c2 = catalog("C2")
    z4 = make_group((4,))
    emb = make_hom(c2.group, z4, [z4.element((2,))])
    r = regrade(c2, emb)
    assert r.degrees[1] == z4.element((2,))
    assert validate(r).ok
    z1 = make_group((1,))
    with pytest.raises(PreconditionError):
        regrade(c2, make_hom(c2.group, z1, [z1.identity]))


def test_matrix_over_division_shapes():
    g = make_group((2,))
    spec = TripleSpec(Subgroup.trivial(g), trivially_graded_reals(g),
                      (g.identity, g.element((1,))))
    m2 = matrix_over_division(spec)
    assert m2.dim == 4
    assert validate(m2).ok
    # entry degrees g_i^-1 h g_j: offdiagonal cells pick up degree a
    assert m2.support() == (g.identity, g.element((1,)))
    assert len(m2.component(g.identity)) == 2
    assert len(m2.component(g.element((1,)))) == 2


def test_matrix_over_division_respects_division_degrees():
    g = make_group((4,))
    d = regrade(catalog("C2"), make_hom(catalog("C2").group, g,
                                        [g.element((2,))]))
    h = Subgroup.generated_by(g, [g.element((2,))])
    spec = TripleSpec(h, d, (g.identity, g.element((1,))))
    m = matrix_over_division(spec)
    assert m.dim == 8
    assert set(m.support()) == set(g.elements())
    assert validate(m).ok


def test_triple_spec_rejects_support_outside_h():
    g = make_group((2,))
    with pytest.raises(PreconditionError):
        TripleSpec(Subgroup.trivial(g), catalog("C2"), (g.identity,))


def test_twisted_group_algebra_z4():
    z4 = make_group((4,))
    beta = lambda x, y: CycloScalar.one(4)
    for signs, square in [((1,), 1), ((-1,), -1)]:
        t = twisted_group_algebra(z4, beta, signs)
        assert validate(t).ok
        u = t.basis_element(1)  # degree (1)
        u4 = u * u * u * u
        assert u4 == t.one().scale(Fraction(square))


def test_trivially_graded_constructions():
    g = make_group((2, 2))
    r = trivially_graded_reals(g)
    c = trivially_graded_complex(g)
    assert r.dim == 1 and c.dim == 2
    assert r.support() == (g.identity,) and c.support() == (g.identity,)
    assert validate(r).ok and validate(c).ok
    i = c.basis_element(1)
    assert i * i == -c.one()


@pytest.mark.parametrize("name", ["H4", "M2_4", "M2C_Z4", "C2"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_grading_compatibility_random_products(name, data):
    a = catalog(name)
    idx = st.integers(0, a.dim - 1)
    x = a.basis_element(data.draw(idx))
    y = a.basis_element(data.draw(idx))
    p = x * y
    if not p.is_zero():
        assert p.degree() == x.degree() * y.degree()


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_random_element_associativity(data):
    a = catalog("M2C_Z4")
    coeff = st.integers(-3, 3)
    mk = lambda: a.element({i: Fraction(data.draw(coeff))
                            for i in data.draw(st.sets(
                                st.integers(0, a.dim - 1), max_size=3))})
    x, y, z = mk(), mk(), mk()
    assert (x * y) * z == x * (y * z)
