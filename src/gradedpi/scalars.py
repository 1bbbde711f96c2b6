"""Exact scalars in cyclotomic fields and exact rational linear algebra.

A CycloScalar is an element of Q(zeta_M), reduced modulo the M-th cyclotomic
polynomial and stored as a primitive integer vector over the power basis
zeta^0 .. zeta^(phi(M)-1) together with one positive common denominator.  M is
called the conductor.  Phi_M is monic with integer coefficients, so sums,
products, Galois maps and promotions run on Python ints alone; each result
divides out gcd(numerators, denominator), which makes the stored form
canonical.  Values at different conductors are compared (and combined) after
promotion to the lcm, using the compatible embedding zeta_M = zeta_{kM}^k.

Real numbers are the conjugation-fixed elements; `sign` decides the sign of a
nonzero real value exactly, using an algebraic lower bound |x| >= |N(x)| / S^(d-1)
(N = field norm, S = sum of |coefficients|, d = degree) together with an
mpmath evaluation at sufficient precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import PreconditionError

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    if m < 1:
        raise PreconditionError("conductor must be a positive integer")
    result, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            pk = 1
            while n % p == 0:
                n //= p
                pk *= p
            result *= pk - pk // p
        p += 1
    if n > 1:
        result *= n - 1
    return result


def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, low-to-high coefficient lists.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low-to-high, monic with integer entries."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_divexact(num, list(cyclotomic_polynomial(d)))
    assert len(num) == totient(m) + 1 and num[-1] == 1
    return tuple(num)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # zeta_m^k over the power basis, for k = 0 .. max(m, 2*phi(m)) - 1, as the
    # (slot, value) pairs of its nonzero coordinates.  Phi_m is monic with
    # integer coefficients, so every coordinate is an int.
    phi = totient(m)
    phi_m = cyclotomic_polynomial(m)
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(max(m, 2 * phi)):
        rows.append(tuple((j, v) for j, v in enumerate(cur) if v))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            # x^phi = -(lower coefficients of Phi_m)
            for j in range(phi):
                cur[j] -= lead * phi_m[j]
    return tuple(rows)


def _new(m: int, num: tuple[int, ...], den: int) -> "CycloScalar":
    # A CycloScalar from coordinates already in canonical form; the `_hash`
    # slot stays unset until __hash__ fills it.
    s = object.__new__(CycloScalar)
    _set_conductor(s, m)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _canonical(m: int, num: list[int], den: int) -> "CycloScalar":
    # Divide out gcd(num..., den); den > 0.  A zero numerator gives den 1.
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _new(m, tuple(num), den)


def _substitute(s: "CycloScalar", m: int, step: int) -> "CycloScalar":
    # sum of num[k] * zeta_m^(step*k) over k, divided by den, at conductor m.
    rows = _power_rows(m)
    out = [0] * totient(m)
    for k, c in enumerate(s.num):
        if c:
            for j, rv in rows[step * k % m]:
                out[j] += c * rv
    return _canonical(m, out, s.den)


class CycloScalar:
    """Immutable element of Q(zeta_conductor).

    Stored as `num / den`: `num` holds phi(conductor) ints, the power-basis
    coordinates scaled by the positive int `den`, with gcd(num..., den) = 1
    and zero stored as all-zero `num` over 1.  Equal values at one conductor
    therefore have equal `(num, den)`.  `coeffs` is a Fraction view.
    """

    __slots__ = ("conductor", "num", "den", "_hash")

    def __init__(self, conductor: int, coeffs):
        """`coeffs` are ints or Fractions, at most phi(conductor) of them."""
        phi = totient(conductor)
        coeffs = list(coeffs)
        if len(coeffs) > phi:
            raise PreconditionError(
                f"{len(coeffs)} coordinates for conductor {conductor}, "
                f"whose field has degree {phi}")
        den = 1
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"coordinate {c!r} is a {type(c).__name__}, not an int or a Fraction")
            if c.denominator != 1:
                den = lcm(den, c.denominator)
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        num += [0] * (phi - len(num))
        g = gcd(den, *num)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(x // g for x in num))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("CycloScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates, as Fractions."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value, conductor: int = 1) -> "CycloScalar":
        return cls(conductor, [value])

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1, conductor: int | None = None) -> "CycloScalar":
        """zeta_order^power, at the given conductor (default: order itself)."""
        if order < 1:
            raise PreconditionError("root order must be positive")
        m = conductor if conductor is not None else order
        if m % order != 0:
            m = lcm(m, order)
        k = (power % order) * (m // order)
        num = [0] * totient(m)
        for j, v in _power_rows(m)[k]:
            num[j] = v
        return _new(m, tuple(num), 1)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycloScalar":
        return _new(conductor, (0,) * totient(conductor), 1)

    @classmethod
    def one(cls, conductor: int = 1) -> "CycloScalar":
        return _new(conductor, (1,) + (0,) * (totient(conductor) - 1), 1)

    # -- conductor handling -------------------------------------------

    def promote(self, conductor: int) -> "CycloScalar":
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise PreconditionError(
                f"cannot promote conductor {self.conductor} to non-multiple {conductor}")
        return _substitute(self, conductor, conductor // self.conductor)

    @staticmethod
    def _pair(a: "CycloScalar", b: "CycloScalar"):
        if a.conductor == b.conductor:
            return a, b
        m = lcm(a.conductor, b.conductor)
        return a.promote(m), b.promote(m)

    @staticmethod
    def coerce(value, conductor: int = 1) -> "CycloScalar":
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloScalar.rational(value, conductor)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloScalar")

    def reduced(self) -> "CycloScalar":
        """Rewrite over the smallest cyclotomic subfield Q(zeta_d), d | conductor."""
        m = self.conductor
        if self.is_rational():
            return _new(1, self.num[:1], self.den)
        for d in sorted(k for k in range(1, m) if m % k == 0):
            if self._is_invariant_over(d):
                down = self._express_at(d)
                if down is not None:
                    return down
        return self

    def _is_invariant_over(self, d: int) -> bool:
        m = self.conductor
        for j in range(1, m):
            if j % d == 1 and gcd(j, m) == 1 and self.galois(j) != self:
                return False
        return True

    def _express_at(self, d: int) -> "CycloScalar | None":
        # Solve for coordinates over the promoted basis of Q(zeta_d).
        # The solution is unique exactly when the pivots are 0 .. phi(d) - 1.
        m, phi_d = self.conductor, totient(d)
        basis = [CycloScalar.root_of_unity(d, k).promote(m).num for k in range(phi_d)]
        red = RowReducer(phi_d + 1)
        for j, c in enumerate(self.num):
            red.add([col[j] for col in basis] + [c])
        if sorted(red.pivots) != list(range(phi_d)):
            return None
        return CycloScalar(d, [Fraction(red.pivots[i][phi_d], red.pivots[i][i] * self.den)
                               for i in range(phi_d)])

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other, sign: int):
        if type(other) is not CycloScalar:
            try:
                other = CycloScalar.coerce(other, self.conductor)
            except TypeError:
                return NotImplemented
        a, b = CycloScalar._pair(self, other)
        ad, bd = a.den, b.den
        if ad == bd:
            num = [x + sign * y for x, y in zip(a.num, b.num)]
            if ad == 1:
                return _new(a.conductor, tuple(num), 1)
            return _canonical(a.conductor, num, ad)
        g = gcd(ad, bd)
        fa, fb = bd // g, sign * (ad // g)
        return _canonical(a.conductor, [x * fa + y * fb for x, y in zip(a.num, b.num)],
                          ad * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycloScalar:
            try:
                other = CycloScalar.coerce(other, self.conductor)
            except TypeError:
                return NotImplemented
        a, b = CycloScalar._pair(self, other)
        an, bn = a.num, b.num
        # a rational operand scales the other's numerators by one int
        if not any(bn[1:]):
            if bn[0] == b.den == 1:
                return a
            return _canonical(a.conductor, [x * bn[0] for x in an], a.den * b.den)
        if not any(an[1:]):
            if an[0] == a.den == 1:
                return b
            return _canonical(a.conductor, [an[0] * y for y in bn], a.den * b.den)
        phi = len(an)
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn, i):
                    prod[j] += x * y
        rows = _power_rows(a.conductor)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                for j, rv in rows[k]:
                    prod[j] += c * rv
        del prod[phi:]
        return _canonical(a.conductor, prod, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloScalar":
        if self.is_zero():
            raise ZeroDivisionError("CycloScalar inverse of zero")
        m = self.conductor
        if self.is_rational():
            n = self.num[0]  # den / n, with the sign moved to the numerator
            num = (self.den if n > 0 else -self.den,) + self.num[1:]
            return _new(m, num, abs(n))
        # solve num * y = den: column j of the system is num * zeta^j, and
        # row i carries coordinate i of every column, then of den
        phi = len(self.num)
        rows = _power_rows(m)
        system = [[0] * (phi + 1) for _ in range(phi)]
        for k, c in enumerate(self.num):
            if c:
                for j in range(phi):
                    for i, v in rows[k + j]:
                        system[i][j] += c * v
        system[0][phi] = self.den
        rr = RowReducer(phi + 1)
        for row in system:
            rr.add(row)
        return CycloScalar(m, [row[phi] for row in rr.sorted_rows()])

    def __truediv__(self, other):
        try:
            other = CycloScalar.coerce(other, self.conductor)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloScalar.coerce(other, self.conductor) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloScalar.one(self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -----------------------------------------------------

    def galois(self, j: int) -> "CycloScalar":
        """Image under zeta -> zeta^j; requires gcd(j, conductor) = 1."""
        m = self.conductor
        if gcd(j, m) != 1:
            raise PreconditionError(f"galois exponent {j} not coprime to conductor {m}")
        return _substitute(self, m, j)

    def conjugate(self) -> "CycloScalar":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_real(self) -> bool:
        return self.conjugate() == self

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise PreconditionError("value is not rational")
        return Fraction(self.num[0], self.den)

    def rational_coordinates(self) -> tuple[Fraction, ...]:
        return self.coeffs

    def norm(self) -> Fraction:
        """Field norm: product over all Galois conjugates (a rational)."""
        m = self.conductor
        prod = CycloScalar.one(m)
        for j in range(1, m + 1):
            if gcd(j, m) == 1:
                prod = prod * self.galois(j % m if m > 1 else 1)
        return prod.as_fraction()

    def sign(self) -> int:
        """Exact sign of a real value: -1, 0, or 1."""
        if not self.is_real():
            raise PreconditionError("sign of a non-real value")
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.num[0] > 0 else -1
        import mpmath

        m = self.conductor
        size = Fraction(sum(abs(c) for c in self.num), self.den)
        bound = abs(self.norm()) / size ** (totient(m) - 1)  # |x| >= bound > 0
        digits = 30
        while True:
            with mpmath.workdps(digits):
                val = mpmath.mpf(0)
                for k, c in enumerate(self.num):
                    if c:
                        val += mpmath.mpf(c) / self.den * \
                            mpmath.cos(2 * mpmath.pi * k / m)
                err = mpmath.mpf(10) ** (8 - digits) * (1 + float(size))
                if abs(val) > err and abs(val) > mpmath.mpf(bound.numerator) / bound.denominator / 2:
                    return 1 if val > 0 else -1
            digits *= 2
            if digits > 10000:  # pragma: no cover - bound guarantees termination
                raise ArithmeticError("sign evaluation did not converge")

    # -- real/imaginary parts (conductor divisible by 4) ----------------

    def real_part(self) -> "CycloScalar":
        return (self + self.conjugate()) * Fraction(1, 2)

    def imag_part(self) -> "CycloScalar":
        m = lcm(self.conductor, 4)
        i = CycloScalar.root_of_unity(4, 1, m)
        z = self.promote(m)
        return (z - z.conjugate()) / (2 * i)

    # -- protocol -------------------------------------------------------

    def __eq__(self, other):
        if type(other) is CycloScalar:
            a, b = CycloScalar._pair(self, other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # computed on first use
            if self.is_rational():  # as the equal int or Fraction
                h = hash(Fraction(self.num[0], self.den))
            else:
                r = self.reduced()
                h = hash((r.conductor, r.coeffs))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        r = self.reduced()
        if r.is_rational():
            return str(r.as_fraction())
        parts = []
        for k, c in enumerate(r.coeffs):
            if c:
                parts.append(f"{c}*z{r.conductor}^{k}" if k else str(c))
        return " + ".join(parts)


_set_conductor = CycloScalar.conductor.__set__
_set_num = CycloScalar.num.__set__
_set_den = CycloScalar.den.__set__


def sqrt_of_rational_in_field(value, conductor: int) -> CycloScalar | None:
    """Nonnegative square root of rational `value` inside Q(zeta_conductor), or None.

    Uses Gauss sums for sqrt(p) of prime p; the result is verified by squaring,
    so the construction does not depend on sign bookkeeping.
    """
    q = Fraction(value)
    if q == 0:
        return CycloScalar.zero(conductor)
    negative = q < 0
    if negative:
        if conductor % 4 != 0:
            return None
        q = -q
    n = q.numerator * q.denominator  # sqrt(q) = sqrt(n) / denominator
    square, free = 1, 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            square *= d
            n //= d * d
        if n % d == 0:
            free *= d
            n //= d
        d += 1
    free *= n
    root = CycloScalar.rational(Fraction(square, q.denominator), conductor)
    for p in _prime_factors(free):
        g = _sqrt_prime(p, conductor)
        if g is None:
            return None
        root = root * g
    if (root * root) != CycloScalar.rational(q, 1):
        return None
    if root.sign() < 0:
        root = -root
    if negative:
        root = root * CycloScalar.root_of_unity(4, 1, conductor)
    return root


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _sqrt_prime(p: int, conductor: int) -> CycloScalar | None:
    if p == 2:
        if conductor % 8 != 0:
            return None
        z = CycloScalar.root_of_unity(8, 1, conductor)
        return z + z.conjugate()
    f = p if p % 4 == 1 else 4 * p
    if conductor % f != 0:
        return None
    total = CycloScalar.zero(conductor)
    for a in range(1, p):
        leg = pow(a, (p - 1) // 2, p)
        term = CycloScalar.root_of_unity(p, a, conductor)
        total = total + term if leg == 1 else total - term
    if p % 4 == 3:
        # Gauss sum equals i*sqrt(p); divide out i.
        total = total / CycloScalar.root_of_unity(4, 1, conductor)
    return total


def _integer_row(row) -> list[int]:
    # A row of ints or Fractions, scaled by the lcm of its denominators.
    den = 1
    for v in row:
        d = v.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return [v.numerator for v in row]
    return [v.numerator * (den // v.denominator) for v in row]


def _primitive(row: list[int]) -> list[int]:
    # Divide out the content, so that entries stay as small as they can.
    g = gcd(*row)
    return row if g < 2 else [v // g for v in row]


class RowReducer:
    """Incremental reduced row echelon form over Q, computed over the integers.

    Rows (ints or Fractions) are added one at a time.  Each pivot row is kept
    as a primitive integer row with a zero in every other pivot column, that
    is, as an integer multiple of the corresponding row of the reduced row
    echelon form; elimination is fraction-free (cross-multiplication by the
    pivot, in the spirit of Bareiss).  Rows become Fractions only in
    `sorted_rows` and `nullspace_rows`, which return the canonical reduced
    row echelon form.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row) -> list[int]:
        """The residue of `row` modulo the pivot rows, up to a nonzero factor.

        It is zero exactly when `row` lies in the row space; its entries are
        otherwise an integer multiple of the exact rational residue.
        """
        row = _integer_row(row)
        for c, prow in self.pivots.items():
            f = row[c]
            if f:
                p = prow[c]
                g = gcd(p, f)
                if g != 1:
                    p //= g
                    f //= g
                row = [p * x - f * y for x, y in zip(row, prow)]
        return row

    def add(self, row) -> bool:
        """Returns True when the row increased the rank."""
        row = self.reduce(row)
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            return False
        row = _primitive(row)
        p = row[lead]
        for c, prow in self.pivots.items():
            f = prow[lead]
            if f:
                g = gcd(p, f)
                self.pivots[c] = _primitive(
                    [(p // g) * x - (f // g) * y for x, y in zip(prow, row)])
        self.pivots[lead] = row
        return True

    def sorted_rows(self) -> list[tuple[Fraction, ...]]:
        out = []
        for c in sorted(self.pivots):
            prow = self.pivots[c]
            p = prow[c]
            out.append(tuple(Fraction(v, p) if v else _ZERO for v in prow))
        return out

    def nullspace_rows(self) -> list[tuple[Fraction, ...]]:
        final = RowReducer(self.width)
        for f in range(self.width):
            if f in self.pivots:
                continue
            # v[f] = den, v[c] = -den * prow[f] / prow[c] for each pivot column c
            den = 1
            for c, prow in self.pivots.items():
                if prow[f]:
                    den = lcm(den, prow[c])
            v = [0] * self.width
            v[f] = den
            for c, prow in self.pivots.items():
                if prow[f]:
                    v[c] = -prow[f] * (den // prow[c])
            final.add(v)
        return final.sorted_rows()
