"""Exact cyclotomic scalars and rational row reduction.

Frozen values are cross-checked against mpmath complex evaluation, which
also serves as the oracle of the exact sign (mpmath is a test dependency
only); the hypothesis suites pin the ring axioms and the Galois action.
"""

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.errors import PreconditionError
from gradedpi.scalars import (CycloScalar, RowReducer, cyclotomic_polynomial,
                              field_pivots, field_solve, integer_row,
                              rational_rows, sqrt_of_rational_in_field,
                              totient)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]


def numeric(s: CycloScalar) -> complex:
    z = mpmath.e ** (2j * mpmath.pi / s.conductor)
    return complex(sum(Fraction(c) * z ** k for k, c in enumerate(s.coeffs)))


def scalars(conductor):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.lists(coeff, min_size=totient(conductor),
                    max_size=totient(conductor)).map(
        lambda cs: CycloScalar(conductor, cs))


# -- basic arithmetic ------------------------------------------------------


def test_totient_small_values():
    assert [totient(m) for m in [1, 2, 3, 4, 8, 9, 12]] == [1, 1, 2, 2, 4, 6, 4]


def test_cyclotomic_polynomials():
    # Phi_1 = x-1, Phi_4 = x^2+1, Phi_12 = x^4-x^2+1 (standard tables).
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_powers_cycle():
    z = CycloScalar.root_of_unity(8)
    assert z ** 8 == CycloScalar.one(8)
    assert z ** 4 == CycloScalar.rational(-1, 8)
    assert (z ** 2) ** 2 == CycloScalar.rational(-1, 8)


def test_zeta4_squares_to_minus_one():
    i = CycloScalar.root_of_unity(4)
    assert i * i == CycloScalar.rational(-1, 4)
    assert i.conjugate() == -i


def test_zeta3_satisfies_quadratic():
    # zeta3^2 + zeta3 + 1 = 0, so zeta3^2 = -1 - zeta3 in the power basis.
    w = CycloScalar.root_of_unity(3)
    assert w * w == CycloScalar(3, [-1, -1])
    assert (w * w + w + 1).is_zero()


def test_promotion_is_an_embedding():
    w = CycloScalar.root_of_unity(3)
    w12 = w.promote(12)
    assert w12.conductor == 12
    assert w12 == CycloScalar.root_of_unity(12, 4, conductor=12)
    assert abs(numeric(w12) - numeric(w)) < 1e-12


def test_mixed_conductor_arithmetic_promotes():
    i = CycloScalar.root_of_unity(4)
    w = CycloScalar.root_of_unity(3)
    s = i + w
    assert s.conductor == 12
    assert abs(numeric(s) - (numeric(i) + numeric(w))) < 1e-12


def test_inverse_of_golden_like_element():
    # (1 + zeta5) is invertible; inverse verified by exact product.
    x = CycloScalar.one(5) + CycloScalar.root_of_unity(5)
    assert (x.inverse() * x) == CycloScalar.one(5)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.one(4).inverse() / CycloScalar.zero(4)
    with pytest.raises(ZeroDivisionError):
        CycloScalar.zero(3).inverse()


def test_reduced_drops_to_smaller_conductor():
    # zeta12^3 = i lives at conductor 4.
    z = CycloScalar.root_of_unity(12, 3)
    r = z.reduced()
    assert r.conductor == 4
    assert r == CycloScalar.root_of_unity(4)


def test_rational_detection():
    z = CycloScalar.root_of_unity(8)
    assert not z.is_rational()
    assert (z ** 4).is_rational()
    assert (z ** 4).as_fraction() == Fraction(-1)
    with pytest.raises(PreconditionError):
        z.as_fraction()


def test_real_part_and_reality():
    z = CycloScalar.root_of_unity(8)
    # zeta8 + zeta8^-1 = sqrt(2) is real but irrational.
    s = z + z.conjugate()
    assert s.is_real()
    assert not s.is_rational()
    assert s * s == CycloScalar.rational(2, 8)


def test_sign_of_real_cyclotomics():
    z = CycloScalar.root_of_unity(8)
    sqrt2 = z + z.conjugate()
    assert sqrt2.sign() == 1
    assert (-sqrt2).sign() == -1
    assert CycloScalar.zero(8).sign() == 0
    with pytest.raises(PreconditionError):
        z.sign()  # not real


SIGN_CONDUCTORS = [5, 7, 8, 9, 12, 15, 16, 20, 24, 60]


def sqrt2():
    z = CycloScalar.root_of_unity(8)
    return z + z.conjugate()


def oracle_value(x: CycloScalar):
    """x at 60 significant digits, as sum num[k] cos(2 pi k / m) / den."""
    with mpmath.workdps(60):
        return sum(mpmath.mpf(c) * mpmath.cos(2 * mpmath.pi * k / x.conductor)
                   for k, c in enumerate(x.num) if c) / x.den


def oracle_sign(x: CycloScalar) -> int:
    v = oracle_value(x)
    # every nonzero value tested is far larger than the oracle's error
    assert v == 0 or abs(v) > mpmath.mpf(10) ** -40
    return (v > 0) - (v < 0)


def random_reals(m: int, rng: random.Random, count: int):
    """Real elements x + conj(x) with small integer coordinates, and each
    irrational one minus a close rational approximation, so that some are
    near zero."""
    out = []
    for _ in range(count):
        x = CycloScalar(m, [rng.randint(-5, 5) for _ in range(totient(m))])
        y = x + x.conjugate()
        out.append(y)
        if not y.is_rational():
            bound = rng.choice([10, 10**4, 10**8])
            out.append(y - Fraction(float(oracle_value(y))).limit_denominator(bound))
    return out


@pytest.mark.parametrize("m", SIGN_CONDUCTORS)
def test_exact_sign_matches_mpmath(m):
    rng = random.Random(m)
    for y in random_reals(m, rng, 30):
        assert y.sign() == oracle_sign(y), y
        assert (-y).sign() == -y.sign()


@pytest.mark.parametrize("p, q", [(3, 2), (7, 5), (99, 70), (1393, 985),
                                  (665857, 470832), (1607521, 1136689),
                                  (886731088897, 627013566048),
                                  (2140758220993, 1513744654945)])
def test_exact_sign_near_zero_pell_convergents(p, q):
    # p^2 - 2q^2 = +-1, so sqrt(2) - p/q has the sign of 2q^2 - p^2 and size
    # about 1 / (2.83 q^2), down to 1.5e-25: both signs below 2^-64
    for m in (8, 24, 40):
        x = sqrt2().promote(m) - Fraction(p, q)
        want = 1 if 2 * q * q > p * p else -1
        assert x.sign() == want == oracle_sign(x)
        assert (-x).sign() == -want


def test_sign_does_not_import_mpmath():
    # classification, division checks and the sign run on the standard
    # library alone; mpmath stays a test oracle
    code = (
        "import sys\n"
        "from gradedpi.algebras import catalog, catalog_names\n"
        "from gradedpi.structure import classify\n"
        "for name in catalog_names():\n"
        "    if name != 'pauli(n,k)':\n"
        "        classify(catalog(name))\n"
        "classify(catalog('pauli', 3, 1))\n"
        "z = __import__('gradedpi.scalars').scalars.CycloScalar.root_of_unity(8)\n"
        "assert (z + z.conjugate()).sign() == 1\n"
        "assert 'mpmath' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_galois_permutes_roots():
    z = CycloScalar.root_of_unity(5)
    assert z.galois(2) == z ** 2
    assert z.galois(2).galois(3) == z  # 2*3 = 6 = 1 mod 5
    with pytest.raises(PreconditionError):
        z.galois(5)  # not coprime


@pytest.mark.parametrize("m", CONDUCTORS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ring_axioms(m, data):
    a = data.draw(scalars(m))
    b = data.draw(scalars(m))
    c = data.draw(scalars(m))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CycloScalar.zero(m)
    assert a * CycloScalar.one(m) == a


@pytest.mark.parametrize("m", [3, 4, 8, 12])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_multiplication_matches_numeric_model(m, data):
    a = data.draw(scalars(m))
    b = data.draw(scalars(m))
    assert abs(numeric(a * b) - numeric(a) * numeric(b)) < 1e-9


@pytest.mark.parametrize("m", [3, 4, 5, 8])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_nonzero_scalars_invert(m, data):
    a = data.draw(scalars(m))
    if a.is_zero():
        return
    assert a * a.inverse() == CycloScalar.one(m)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_conjugation_is_an_involution_fixing_norms(data):
    a = data.draw(scalars(8))
    assert a.conjugate().conjugate() == a
    n = a * a.conjugate()
    assert n.is_real()
    if not a.is_zero():
        assert n.sign() == 1


def test_too_many_coordinates_are_rejected():
    with pytest.raises(PreconditionError):
        CycloScalar(4, [0, 0, 1])


def test_float_coordinates_are_rejected():
    # 0.1 is not 1/10: a float would silently become a binary fraction
    with pytest.raises(TypeError):
        CycloScalar(4, [0.1])
    with pytest.raises(TypeError):
        CycloScalar.rational(0.5)


# -- reference arithmetic: Fraction polynomials modulo Phi_m ---------------

# Phi_m low-to-high, from the standard tables
PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1),
       5: (1, 1, 1, 1, 1), 6: (1, -1, 1), 8: (1, 0, 0, 0, 1),
       12: (1, 0, -1, 0, 1), 20: (1, 0, -1, 0, 1, 0, -1, 0, 1)}


def _ref_mod(poly, m):
    """Coordinates of a Fraction polynomial modulo Phi_m (long division)."""
    phi_m = PHI[m]
    d = len(phi_m) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for j, q in enumerate(phi_m):
                p[k - d + j] -= c * q
    return p[:d]


def _ref_mul(x, y, m):
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    return _ref_mod(prod, m)


def _ref_substitute(x, step, m):
    """sum x_k * t^(step*k) modulo Phi_m: Galois maps and promotions."""
    poly = [Fraction(0)] * (step * len(x) + 1)
    for k, u in enumerate(x):
        poly[step * k] += u
    return _ref_mod(poly, m)


def assert_canonical(s: CycloScalar):
    assert len(s.num) == totient(s.conductor)
    assert all(type(n) is int for n in s.num) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1


@pytest.mark.parametrize("m", CONDUCTORS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_arithmetic_matches_fraction_polynomial_reference(m, data):
    a, b = data.draw(scalars(m)), data.draw(scalars(m))
    x, y = list(a.coeffs), list(b.coeffs)
    big = data.draw(st.sampled_from([n for n in CONDUCTORS if n % m == 0]))
    j = data.draw(st.sampled_from([k for k in range(1, m + 1) if gcd(k, m) == 1]))
    checks = [
        (a + b, m, [u + v for u, v in zip(x, y)]),
        (a - b, m, [u - v for u, v in zip(x, y)]),
        (-a, m, [-u for u in x]),
        (a * b, m, _ref_mul(x, y, m)),
        (a.promote(big), big, _ref_substitute(x, big // m, big)),
        (a.galois(j), m, _ref_substitute(x, j, m)),
        (a.conjugate(), m, _ref_substitute(x, m - 1, m)),
    ]
    if not a.is_zero():
        inv = a.inverse()
        assert _ref_mul(list(inv.coeffs), x, m) == [1] + [0] * (totient(m) - 1)
        checks.append((inv, m, list(inv.coeffs)))
    for got, cond, want in checks:
        assert got.conductor == cond
        assert got.coeffs == tuple(want)
        assert_canonical(got)
        built = CycloScalar(cond, want)  # the same value, built from coordinates
        assert (got.num, got.den) == (built.num, built.den)
        assert hash(got) == hash(built)
        assert got.is_zero() == (not any(want))
        assert got.is_rational() == (not any(want[1:]))


RATIONALS = [0, 1, -1, 6, -4, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7)]


@pytest.mark.parametrize("m", [1, 4, 12, 20])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_rational_operands_match_fraction_polynomial_reference(m, data):
    """`*` and `inverse` with one or both operands rational, including a
    rational stored at a conductor below m."""
    b = data.draw(scalars(m))
    y = list(b.coeffs)
    pad = [Fraction(0)] * (totient(m) - 1)
    one = [1] + pad
    for low in [d for d in (1, 2, 4) if m % d == 0] + [m]:
        for q in RATIONALS:
            r = CycloScalar.rational(q, low)
            x = [Fraction(q)] + pad
            checks = [(r * b, _ref_mul(x, y, m)), (b * r, _ref_mul(x, y, m))]
            for q2 in RATIONALS:
                r2 = CycloScalar.rational(q2, m)
                want = [Fraction(q) * q2] + pad
                checks += [(r * r2, want), (r2 * r, want)]
            for got, want in checks:
                assert got.conductor == m
                assert got.coeffs == tuple(want)
                assert_canonical(got)
            if q == 0:
                with pytest.raises(ZeroDivisionError):
                    r.inverse()
                continue
            inv = r.inverse()
            assert inv.conductor == low
            assert inv.coeffs == (1 / Fraction(q),) + (Fraction(0),) * (totient(low) - 1)
            assert_canonical(inv)
            assert _ref_mul(list(inv.promote(m).coeffs), x, m) == one


def test_equal_values_have_equal_canonical_form():
    z12 = CycloScalar.root_of_unity(12)
    half = CycloScalar.rational(Fraction(1, 2), 4)
    pairs = [
        (CycloScalar.root_of_unity(3).promote(12), z12 ** 4),
        (CycloScalar.root_of_unity(3, 1, conductor=12), z12 ** 4),
        (half + half, CycloScalar.one(4)),
        (half * 2, CycloScalar.one(4)),
        (CycloScalar(4, [Fraction(2, 6), Fraction(4, 6)]),
         CycloScalar(4, [Fraction(1, 3), Fraction(2, 3)])),
        (half - half, CycloScalar.zero(4)),
    ]
    for x, y in pairs:
        assert_canonical(x)
        assert (x.num, x.den) == (y.num, y.den)
        assert hash(x) == hash(y)
    assert CycloScalar(4, [Fraction(2, 6), Fraction(4, 6)]).num == (1, 2)
    assert CycloScalar(4, [Fraction(2, 6), Fraction(4, 6)]).den == 3
    assert CycloScalar.zero(12).num == (0, 0, 0, 0)


def test_rational_scalars_hash_like_the_equal_int_or_fraction():
    # equal values must hash equal, or mixed keys in a dict or set miss
    assert {CycloScalar.one(): "x"}[1] == "x"
    for value in [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)]:
        for m in [1, 4, 12]:
            x = CycloScalar.rational(value, m)
            assert x == value and hash(x) == hash(value)
            assert {x: "x"}[value] == "x" and {value: "v"}[x] == "v"
    z = CycloScalar.root_of_unity(4)
    assert hash(z) == hash(z.promote(12))
    assert z.promote(12) ** 2 == -1 and hash(z.promote(12) ** 2) == hash(-1)
    assert len({z, z.promote(12), -CycloScalar.one(12) * -z}) == 1


# -- square roots in the coordinate field ----------------------------------


def test_sqrt_in_field_hits():
    r = sqrt_of_rational_in_field(Fraction(2), 8)
    assert r is not None and r * r == CycloScalar.rational(2, 8)
    r = sqrt_of_rational_in_field(Fraction(-3), 12)  # i*sqrt(3) in Q(zeta12)
    assert r is not None and r * r == CycloScalar.rational(-3, 12)
    r = sqrt_of_rational_in_field(Fraction(9, 4), 1)
    assert r is not None and r * r == CycloScalar.rational(Fraction(9, 4))


def odd_power_primes(n: int) -> set[int]:
    out, p = set(), 2
    while n > 1:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e % 2:
            out.add(p)
        p += 1
    return out


def test_sqrt_in_field_of_composite_radicands():
    # Q(zeta_120) holds sqrt(2), sqrt(3) and sqrt(5) but not sqrt(7): the root
    # of n/9 exists exactly when every prime to an odd power in n is 2, 3 or
    # 5, and it is the positive one
    for n in range(1, 100):
        r = sqrt_of_rational_in_field(Fraction(n, 9), 120)
        assert (r is not None) == (odd_power_primes(n) <= {2, 3, 5}), n
        if r is not None:
            assert r * r == Fraction(n, 9) and r.sign() == 1


def test_sqrt_in_field_misses():
    assert sqrt_of_rational_in_field(Fraction(2), 4) is None
    assert sqrt_of_rational_in_field(Fraction(3), 8) is None
    # negative radicand needs i in the field
    assert sqrt_of_rational_in_field(Fraction(-3), 3) is None


# -- exact row reduction ----------------------------------------------------


def reducer_of(rows, width):
    red = RowReducer(width)
    for row in rows:
        red.add(row)
    return red


def test_rref_canonical_form():
    red = reducer_of([[2, 4, 2], [1, 2, 3]], 3)
    assert red.sorted_rows() == [(Fraction(1), Fraction(2), Fraction(0)),
                                 (Fraction(0), Fraction(0), Fraction(1))]
    assert red.rank == 2


def test_integer_rows_are_primitive_with_positive_pivots():
    red = reducer_of([[-2, 1, 0], [0, 0, -3]], 3)
    assert red.integer_rows() == [(2, -1, 0), (0, 0, 1)]
    assert rational_rows(red.integer_rows()) == red.sorted_rows()
    # clearing the denominators of a row with a leading 1 undoes the division
    assert [tuple(integer_row(r)) for r in red.sorted_rows()] == red.integer_rows()


def test_nullspace_annihilates():
    rows = [[1, 2, 3], [4, 5, 6]]
    ns = reducer_of(rows, 3).nullspace_rows()
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_row_space_membership():
    red = reducer_of([[1, 0, 1], [0, 1, 1]], 3)
    assert not any(red.reduce([2, 3, 5]))
    assert any(red.reduce([1, 1, 1]))


def test_rref_equality_is_canonical():
    a = reducer_of([[1, 1, 0], [0, 1, 1]], 3)
    b = reducer_of([[1, 2, 1], [1, 0, -1]], 3)  # same row space
    assert a.sorted_rows() == b.sorted_rows()


def test_row_reducer_matches_matrix_rref():
    rows = [[1, 2, 0, 1], [2, 4, 1, 0], [0, 0, 1, -2], [1, 2, 1, -1]]
    fractions = [[Fraction(x) for x in row] for row in rows]
    want = _reference_rref(fractions, 4)[0]
    assert reducer_of(fractions, 4).sorted_rows() == want
    assert reducer_of(rows, 4).sorted_rows() == want


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows):
    red = reducer_of(rows, 3)
    assert red.rank + len(red.nullspace_rows()) == 3


def _reference_rref(rows, width):
    """Plain Gauss-Jordan over Fractions: the RREF rows and pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[:len(pivots)]], pivots


def _reference_nullspace(rows, width):
    rref, pivots = _reference_rref(rows, width)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            v[c] = -row[f]
        basis.append(v)
    return _reference_rref(basis, width)[0]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_row_reducer_matches_fraction_gauss_jordan(data):
    """Fraction-free reduction gives the RREF, nullspace, rank and membership
    of plain Gauss-Jordan over Fractions with denominators 1-3."""
    width = data.draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    row = st.lists(entry, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, max_size=6))
    for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
        # a combination of earlier rows, so that some rows are redundant
        x, y = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
        s, t = data.draw(entry), data.draw(entry)
        rows.append([s * u + t * v for u, v in zip(x, y)])
    red = RowReducer(width)
    for r in rows:
        red.add(r)
    rref, pivots = _reference_rref(rows, width)
    assert red.sorted_rows() == rref
    assert rational_rows(red.integer_rows()) == rref
    assert [tuple(integer_row(r)) for r in rref] == red.integer_rows()
    assert red.rank == len(pivots)
    assert red.nullspace_rows() == _reference_nullspace(rows, width)
    probe = data.draw(row)
    inside = len(_reference_rref(rows + [probe], width)[1]) == len(pivots)
    assert (not any(red.reduce(probe))) == inside
    if rows:
        s = data.draw(entry)
        assert not any(red.reduce([s * u for u in rows[-1]]))


# -- elimination over the cyclotomic field ----------------------------------


def embed(x: CycloScalar) -> complex:
    z = np.exp(2j * np.pi / x.conductor)
    return complex(sum(float(c) * z ** k for k, c in enumerate(x.coeffs)))


def small_scalar(m: int, rng: random.Random) -> CycloScalar:
    return CycloScalar(m, [rng.randint(-2, 2) for _ in range(totient(m))])


@pytest.mark.parametrize("m", [8, 12])
def test_field_rank_matches_complex_rank(m):
    # products B C of an n x r and an r x n matrix have rank at most r, so
    # the ranks cover the whole range rather than only full rank
    rng = random.Random(m)
    for _ in range(25):
        n, r = rng.randint(1, 4), rng.randint(1, 4)
        b = [[small_scalar(m, rng) for _ in range(r)] for _ in range(n)]
        c = [[small_scalar(m, rng) for _ in range(n)] for _ in range(r)]
        mat = [[sum((b[i][t] * c[t][j] for t in range(r)), CycloScalar.zero(m))
                for j in range(n)] for i in range(n)]
        want = np.linalg.matrix_rank(np.array([[embed(v) for v in row] for row in mat]))
        assert len(field_pivots(mat)) == want


def rows_of(m, rows):
    return [[CycloScalar.coerce(v, m) if isinstance(v, int) else v for v in row]
            for row in rows]


def test_field_pivots_keep_unnormalised_rows_by_lead():
    pivots = field_pivots(rows_of(1, [[1, 1, 1], [1, 1, 2], [1, 2, 1]]))
    assert list(pivots) == [0, 2, 1]
    assert [pivots[k][k] for k in pivots] == [1, 1, 1]
    pivots = field_pivots(rows_of(1, [[2, 1], [1, 2]]))
    assert list(pivots) == [0, 1]
    assert (pivots[0][0], pivots[1][1]) == (2, Fraction(3, 2))  # D_1, D_2 / D_1


def test_field_solve_solves_over_the_field():
    i = CycloScalar.root_of_unity(4)
    # x + i y = 1 + 2i and y = 2 + i, after a zero row; the repeated row
    # comes after x is determined and is not read
    rows = [[0, 0, 0], [1, i, 1 + 2 * i], [0, 1, 2 + i], [1, i, 1 + 2 * i]]
    x, y = field_solve(rows_of(4, rows), 2)
    assert y == 2 + i and x + i * y == 1 + 2 * i


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 3, 4]],          # zero first column
    [[1, 2, 3], [2, 4, 6], [3, 6, 9]],  # dependent columns
    [[1, 2, 3], [0, 0, 1], [0, 1, 1]],  # contradiction before determining rows
    [],
])
def test_field_solve_returns_none(rows):
    assert field_solve(rows_of(1, rows), 2) is None
