"""Finite-dimensional real algebras graded by finite abelian groups.

An algebra is stored by structure constants over a fixed basis: each product
of basis elements is a linear combination with real cyclotomic coefficients
(one conductor per algebra).  Every basis element is homogeneous; the grading
is the induced decomposition into components.

Construction never guesses: catalog entries carry their division provenance,
everything else can be checked with `check_graded_division`, whose criterion
is: the e-component is a real division algebra and every homogeneous basis
element is invertible (then each component A_g equals u*A_e for any invertible
u in it, so all nonzero homogeneous elements are invertible).  A basis
element u of degree g is invertible exactly when u*y = 1 has a solution y in
A_(g^-1): one linear solve over the field from A_(g^-1) to A_e, since a right
inverse is an inverse in a finite-dimensional associative algebra.

Whether A_e is a division algebra is decided by its trace form
T(x, y) = Tr(L_xy): for dim A_e in {2, 4}, A_e is a division algebra exactly
when T is negative definite on the T-orthogonal complement of the unit.  T is
nondegenerate only when A_e is semisimple (the radical lies in its kernel,
since L_xy is nilpotent for x in the radical, and a semisimple algebra has
a nondegenerate trace form).  The semisimple real algebras of dimension 2 and
4 are R x R, C, R^4, R x R x C, C x C, M_2(R) and H, and of these only C
and H give T the signature (1, d - 1): T(1, 1) = d > 0 and, on the
complement, T(x, x) = d * Re(x^2) < 0 for the pure imaginary x.  Frobenius's
theorem leaves dimensions 1, 2 and 4; dimension 1 is R.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError
from .groups import FinAbGroup, GroupElement, GroupHom, Subgroup
from .scalars import CycloScalar, field_pivots, totient


class GradedAlgebra:
    """Structure-constant algebra with homogeneous basis.

    table maps (i, j) to a tuple of (k, scalar) pairs; missing keys mean the
    product of basis elements i and j is zero.  All scalars live at the
    algebra's conductor and are real (conjugation-fixed); the constructor
    rejects non-real constants.
    """

    __slots__ = ("group", "conductor", "labels", "degrees", "table", "unit",
                 "provenance", "_components", "_mul_cache", "_integer_products",
                 "_substitutions", "_classification", "_serial_digest",
                 "_division")

    def __init__(self, group: FinAbGroup, conductor: int, labels, degrees,
                 table, unit, provenance: str | None = None):
        labels = tuple(labels)
        degrees = tuple(degrees)
        if len(labels) != len(degrees) or not labels:
            raise PreconditionError("labels and degrees must align and be nonempty")
        if len(set(labels)) != len(labels):
            raise PreconditionError("duplicate basis labels")
        for g in degrees:
            if g.group != group:
                raise PreconditionError(f"degree {g} outside the grading group")
        norm_table = {}
        real: dict = {}  # is_real by coordinates: a table has few constants
        for (i, j), entries in table.items():
            out = []
            for k, s in entries:
                s = CycloScalar.coerce(s, conductor)
                if s.conductor != conductor:
                    s = s.promote(conductor)
                key = (s.num, s.den)
                ok = real.get(key)
                if ok is None:
                    ok = real[key] = s.is_real()
                if not ok:
                    raise PreconditionError(
                        f"structure constant for ({labels[i]},{labels[j]}) is not real")
                if not s.is_zero():
                    out.append((k, s))
            if out:
                out.sort(key=lambda p: p[0])
                norm_table[(i, j)] = tuple(out)
        norm_unit = {}
        for k, s in unit.items():
            s = CycloScalar.coerce(s, conductor)
            if s.conductor != conductor:
                s = s.promote(conductor)
            if not s.is_real():
                raise PreconditionError("unit coefficient is not real")
            if not s.is_zero():
                norm_unit[k] = s
        if not norm_unit:
            raise PreconditionError("the algebra must be unital (unit must be nonzero)")
        e = group.identity
        if any(degrees[k] != e for k in norm_unit):
            raise PreconditionError("unit must be homogeneous of trivial degree")
        self.group = group
        self.conductor = conductor
        self.labels = labels
        self.degrees = degrees
        self.table = norm_table
        self.unit = norm_unit
        self.provenance = provenance
        comps: dict[GroupElement, list[int]] = {}
        for idx, g in enumerate(degrees):
            comps.setdefault(g, []).append(idx)
        self._components = {g: tuple(v) for g, v in comps.items()}
        # memo state: identity spaces by degree tuple, the compiled table, the
        # basis elements identity_space substitutes, the structure.classify
        # report, the digest behind cache.space_key, and what is known of the
        # grading being a division grading ("yes" once check_graded_division
        # said so, "quotient" for a coarsening of one; see components_multiply)
        self._mul_cache = {}
        self._integer_products = None
        self._substitutions = None
        self._classification = None
        self._serial_digest = None
        self._division = None

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def component(self, g: GroupElement) -> tuple[int, ...]:
        return self._components.get(g, ())

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self._components))

    def support_subgroup(self) -> Subgroup:
        return Subgroup(self.group, self._components)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise PreconditionError(f"no basis element labeled {label!r}") from None

    # -- element construction ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return _element(self, {})

    def one(self) -> "AlgebraElement":
        return _element(self, self.unit)

    def basis_element(self, i: int) -> "AlgebraElement":
        return _element(self, {i: CycloScalar.one(self.conductor)})

    def element(self, coeffs: dict) -> "AlgebraElement":
        out = {}
        for i, c in coeffs.items():
            idx = self.label_index(i) if isinstance(i, str) else int(i)
            s = CycloScalar.coerce(c, self.conductor)
            if not s.is_zero():
                out[idx] = s
        return AlgebraElement(self, out)

    def component_basis(self, g: GroupElement) -> list["AlgebraElement"]:
        return [self.basis_element(i) for i in self.component(g)]

    def basis_product(self, i: int, j: int) -> "AlgebraElement":
        """basis_element(i) * basis_element(j), read off the table."""
        out: dict = {}
        for k, s in self.table.get((i, j), ()):
            out[k] = out[k] + s if k in out else s
        return _element(self, out)

    def integer_products(self) -> "IntegerProducts":
        """The multiplication table compiled to integers, built on first use."""
        if self._integer_products is None:
            self._integer_products = IntegerProducts(self)
        return self._integer_products

    def __repr__(self):
        tag = f", {self.provenance}" if self.provenance else ""
        return f"GradedAlgebra(dim {self.dim} over {self.group}{tag})"


class IntegerProducts:
    """Right multiplication by each basis element, on integer coordinates.

    A vector is one sparse dict {i * phi + t: nonzero int}: the power-basis
    coordinate t (of the conductor's field, phi = totient(conductor) slots)
    of the coefficient of basis element i.  Every structure constant is
    scaled by `scale`, the least common denominator of all coordinates in the
    table, so `times(x, j)` is `scale` times the coordinates of x * basis[j].
    Table entries with equal constants share one slot matrix (slot t ->
    ((slot w, int), ...) for zeta^t times the scaled constant).  It is built
    from the algebra's table alone.
    """

    __slots__ = ("phi", "scale", "right")

    def __init__(self, a: GradedAlgebra):
        m = a.conductor
        scale = 1
        for entries in a.table.values():
            for _, s in entries:
                scale = lcm(scale, s.den)
        zetas = [CycloScalar.root_of_unity(m, t, m) for t in range(totient(m))]
        phi = len(zetas)
        shared: dict = {}
        # right[j][i]: ((k * phi, slot matrix), ...) for basis[i] * basis[j]
        right: list[dict] = [{} for _ in range(a.dim)]
        for (i, j), entries in a.table.items():
            out = []
            for k, s in entries:
                key = (s.num, s.den)
                mat = shared.get(key)
                if mat is None:
                    mat = shared[key] = tuple(
                        tuple((w, q * (scale // zs.den))
                              for w, q in enumerate(zs.num) if q)
                        for zs in (z * s for z in zetas))
                out.append((k * phi, mat))
            right[j][i] = tuple(out)
        self.phi = phi
        self.scale = scale
        self.right = right

    def unit_vector(self, i: int) -> dict[int, int]:
        return {i * self.phi: 1}

    def times(self, x: dict[int, int], j: int) -> dict[int, int]:
        """`scale` * (x * basis[j]); zero coordinates are dropped."""
        right = self.right[j]
        phi = self.phi
        out: dict[int, int] = {}
        get = out.get
        for it, q in x.items():
            i, t = divmod(it, phi)
            for base, mat in right.get(i, ()):
                for w, c in mat[t]:
                    w += base
                    out[w] = get(w, 0) + q * c
        return {w: q for w, q in out.items() if q}


class AlgebraElement:
    """Sparse element: nonzero coefficients by basis index."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: GradedAlgebra, coeffs: dict):
        # coefficients are kept at the parent conductor, where equal scalars
        # have equal coordinates (see __eq__)
        self.parent = parent
        cond = parent.conductor
        out = {}
        for i, c in coeffs.items():
            if c.conductor != cond:
                c = c.promote(cond)
            if not c.is_zero():
                out[i] = c
        self.coeffs = out

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> GroupElement | None:
        """Degree of a nonzero homogeneous element, None if mixed or zero."""
        degs = {self.parent.degrees[i] for i in self.coeffs}
        return next(iter(degs)) if len(degs) == 1 else None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            prev = out.get(i)
            out[i] = c if prev is None else prev + c
        return _element(self.parent, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return _element(self.parent, {i: -c for i, c in self.coeffs.items()})

    def scale(self, s) -> "AlgebraElement":
        cond = self.parent.conductor
        s = CycloScalar.coerce(s, cond)
        out = {i: c * s for i, c in self.coeffs.items()}
        if s.conductor != cond:  # the public constructor promotes or rejects
            return AlgebraElement(self.parent, out)
        return _element(self.parent, out)

    def __rmul__(self, s):
        if isinstance(s, (int, Fraction, CycloScalar)):
            return self.scale(s)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        self._check(other)
        table = self.parent.table
        out: dict[int, CycloScalar] = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                entries = table.get((i, j))
                if not entries:
                    continue
                f = ci * cj
                for k, s in entries:
                    prev = out.get(k)
                    out[k] = f * s if prev is None else prev + f * s
        return _element(self.parent, out)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.parent is not self.parent:
            raise PreconditionError("elements of different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        # coefficients are nonzero and kept at the parent conductor, where
        # equal scalars have equal coordinates
        return other.parent is self.parent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.parent),
                     tuple((i, self.coeffs[i]) for i in sorted(self.coeffs))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            parts.append(f"({c!r})*{self.parent.labels[i]}")
        return " + ".join(parts)


def _element(parent: GradedAlgebra, coeffs: dict) -> AlgebraElement:
    # An element from coefficients already at the parent conductor, as the
    # results of element arithmetic are: only zero coefficients are dropped.
    x = object.__new__(AlgebraElement)
    x.parent = parent
    x.coeffs = {i: c for i, c in coeffs.items() if any(c.num)}
    return x


# -- validation ----------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


def validate(a: GradedAlgebra) -> ValidationReport:
    """Associativity on all basis triples, unit laws, degree compatibility."""
    failures = []
    for (i, j), entries in a.table.items():
        want = a.degrees[i] * a.degrees[j]
        for k, _ in entries:
            if a.degrees[k] != want:
                failures.append(
                    f"degree violation: {a.labels[i]}*{a.labels[j]} hits {a.labels[k]}")
    one = a.one()
    for i in range(a.dim):
        b = a.basis_element(i)
        if one * b != b or b * one != b:
            failures.append(f"unit law fails at {a.labels[i]}")
    basis = [a.basis_element(i) for i in range(a.dim)]
    products = [[a.basis_product(i, j) for j in range(a.dim)]
                for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            ij = products[i][j]
            for k in range(a.dim):
                if (ij * basis[k]) != (basis[i] * products[j][k]):
                    failures.append(
                        f"associativity fails at ({a.labels[i]},{a.labels[j]},{a.labels[k]})")
    return ValidationReport(ok=not failures, failures=failures)


# -- invertibility and the graded-division criterion ----------------------


def left_multiplication_matrix(x: AlgebraElement, indices=None, targets=None):
    """The matrix of L_x from span(basis[i] for i in indices) to
    span(basis[k] for k in targets), over the field.

    Column c holds the coordinates of x * basis[indices[c]], read off the
    table; targets default to the indices.  A table entry outside the target
    span raises.
    """
    a = x.parent
    indices = range(a.dim) if indices is None else list(indices)
    targets = indices if targets is None else list(targets)
    columns = []
    for t in indices:
        col: dict = {}
        for i, c in x.coeffs.items():
            for k, s in a.table.get((i, t), ()):
                col[k] = col[k] + c * s if k in col else c * s
        columns.append(col)
    if not set().union(*columns) <= set(targets):
        raise PreconditionError("multiplication leaves the requested span")
    zero = CycloScalar.zero(a.conductor)
    return [[col.get(k, zero) for col in columns] for k in targets]


def is_invertible(x: AlgebraElement) -> bool:
    """Whether x has an inverse, decided by whether x*y = 1 has a solution y.

    In a finite-dimensional associative algebra a right inverse is an
    inverse: x*y = 1 gives x*(y*z) = z, so L_x is onto, hence one-to-one.
    For x homogeneous of degree g, the unit lies in A_e and L_x maps A_h
    into A_gh, so an inverse lies in A_(g^-1) and only the block
    A_(g^-1) -> A_e is read; for mixed x the whole matrix is.  The unit's
    coordinates are the last column, and y exists exactly when no pivot of
    the eliminated block leads there.  Every row is read, so a block with
    more rows than columns is decided by all of them.  A product of basis
    elements of that block outside A_e raises PreconditionError.
    """
    if x.is_zero():
        return False
    a = x.parent
    g = x.degree()
    if g is None:
        source = target = range(a.dim)
    else:
        source = a.component(g.inverse())
        target = a.component(a.group.identity)
    rows = left_multiplication_matrix(x, source, target)
    zero = CycloScalar.zero(a.conductor)
    for row, k in zip(rows, target):
        row.append(a.unit.get(k, zero))
    return len(source) not in field_pivots(rows)


@dataclass
class DivisionVerdict:
    verdict: str  # "yes" | "no"
    witness: AlgebraElement | None = None
    reason: str = ""

    def __bool__(self):
        return self.verdict == "yes"


def _search_noninvertible(a: GradedAlgebra, indices, bound):
    vals = range(-bound, bound + 1)
    for combo in itertools.product(vals, repeat=len(indices)):
        if not any(combo):
            continue
        x = AlgebraElement(a, {t: CycloScalar.rational(c, a.conductor)
                               for t, c in zip(indices, combo) if c})
        if not is_invertible(x):
            return x
    return None


def _e_component_division(a: GradedAlgebra) -> DivisionVerdict:
    """Decide whether A_e is a real division algebra by its trace form.

    T(x, y) = Tr(L_xy) on A_e.  For d = dim A_e in {2, 4}, A_e is a division
    algebra exactly when T is negative definite on the T-orthogonal
    complement of the unit (see the module docstring for why), which holds
    exactly when the pivots of the negated form, read in one elimination,
    are all positive (`_positive_definite`).  A "no" carries a
    non-invertible element of A_e found among the small integer
    combinations of its basis, or None when there is none.
    Dimension 1 is R; by Frobenius's theorem no other dimension is that of a
    real division algebra, and those get "no" without a witness.
    """
    e_idx = list(a.component(a.group.identity))
    d = len(e_idx)
    if d == 1:
        return DivisionVerdict("yes", reason="e-component is spanned by the unit")
    if d not in (2, 4):
        return DivisionVerdict(
            "no", reason=f"e-component of dimension {d} is not 1, 2 or 4 (Frobenius)")
    # with b_i = basis[e_idx[i]], mats[i][k][j] is the coefficient of b_k in b_i b_j
    mats = [left_multiplication_matrix(a.basis_element(t), e_idx) for t in e_idx]
    tr = [sum(m[k][k] for k in range(d)) for m in mats]
    # T(b_i, 1) = Tr(L_b_i) and T(1, 1) = d, so projecting b_i off the unit
    # leaves the form T(b_i, b_j) - tr_i tr_j / d on the complement, where the
    # b_i other than one with a unit coefficient form a basis
    drop = e_idx.index(min(a.unit))
    keep = [i for i in range(d) if i != drop]
    form = [[tr[i] * tr[j] / d - sum(mats[i][k][j] * tr[k] for k in range(d))
             for j in keep] for i in keep]
    size = "binary" if d == 2 else "quaternary"
    if _positive_definite(form):
        return DivisionVerdict("yes", reason=f"definite {size} norm form")
    w = _search_noninvertible(a, e_idx, bound=2 if d == 2 else 1)
    return DivisionVerdict("no", witness=w,
                           reason=f"indefinite or degenerate {size} norm form")


def _positive_definite(form) -> bool:
    """Whether a symmetric form over a real field is positive definite: its
    pivots lead in columns 0, 1, 2, ... in that order, so that no leading
    principal minor D_k vanishes, and each pivot D_(k+1) / D_k is > 0."""
    pivots = field_pivots(form)
    return (list(pivots) == list(range(len(form)))
            and all(prow[k].sign() > 0 for k, prow in pivots.items()))


def known_division(a: GradedAlgebra) -> bool:
    """Whether `a` is known to be a graded division algebra without a new
    check: its provenance says "division", or check_graded_division has
    said "yes" on it."""
    return bool(a.provenance and "division" in a.provenance) or a._division == "yes"


def components_multiply(a: GradedAlgebra) -> bool:
    """Whether `a` is known to have A_g * A_s = A_gs on its support, with no
    product of two nonzero homogeneous elements vanishing: it is a known
    graded division algebra, or a coarsening of one by `quotient_grading`
    (each coarse component is a sum of fine ones, and the fine components
    multiply onto each other)."""
    return a._division == "quotient" or known_division(a)


def check_graded_division(a: GradedAlgebra) -> DivisionVerdict:
    """Decide whether every nonzero homogeneous element is invertible.

    The criterion: every homogeneous basis element is invertible and A_e is
    a real division algebra, the latter decided by the trace form
    T(x, y) = Tr(L_xy) on A_e, which must be negative definite on the
    T-orthogonal complement of the unit (exact for dim A_e in {2, 4}, since
    among the semisimple real algebras of those dimensions only C and H give
    T the signature (1, d - 1), and a degenerate T means A_e is not
    semisimple).  An e-component of dimension other than 1, 2 or 4 is never
    a division algebra (Frobenius).  A "no" carries a non-invertible witness
    when one is found; a "yes" is recorded on the algebra (`known_division`).
    """
    for i in range(a.dim):
        b = a.basis_element(i)
        if not is_invertible(b):
            return DivisionVerdict("no", witness=b,
                                   reason=f"basis element {a.labels[i]} is not invertible")
    everdict = _e_component_division(a)
    if everdict.verdict != "yes":
        return everdict
    a._division = "yes"
    return DivisionVerdict(
        "yes", reason="e-component is a division algebra and all basis elements are invertible")


# -- constructors ----------------------------------------------------------


def _quaternion_table():
    # basis 1, i, j, k
    one = Fraction(1)
    t = {}
    for s in range(4):
        t[(0, s)] = ((s, one),)
        if s:
            t[(s, 0)] = ((s, one),)
    t[(1, 1)] = ((0, -one),)
    t[(2, 2)] = ((0, -one),)
    t[(3, 3)] = ((0, -one),)
    t[(1, 2)] = ((3, one),)
    t[(2, 1)] = ((3, -one),)
    t[(2, 3)] = ((1, one),)
    t[(3, 2)] = ((1, -one),)
    t[(3, 1)] = ((2, one),)
    t[(1, 3)] = ((2, -one),)
    return t


_SYLVESTER = {  # (X, Y) -> (Z, sign) on symbols I, A, B, C
    ("I", "I"): ("I", 1), ("I", "A"): ("A", 1), ("I", "B"): ("B", 1), ("I", "C"): ("C", 1),
    ("A", "I"): ("A", 1), ("B", "I"): ("B", 1), ("C", "I"): ("C", 1),
    ("A", "A"): ("I", 1), ("B", "B"): ("I", 1), ("C", "C"): ("I", -1),
    ("A", "B"): ("C", 1), ("B", "A"): ("C", -1),
    ("A", "C"): ("B", 1), ("C", "A"): ("B", -1),
    ("B", "C"): ("A", -1), ("C", "B"): ("A", 1),
}


def _sylvester_table():
    names = ["I", "A", "B", "C"]
    t = {}
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            z, sign = _SYLVESTER[(x, y)]
            t[(i, j)] = ((names.index(z), Fraction(sign)),)
    return t


def _klein_degrees(group):
    e = group.identity
    a = group.element((1, 0))
    b = group.element((0, 1))
    return (e, a, b, a * b)


def trivially_graded_reals(group: FinAbGroup) -> GradedAlgebra:
    return GradedAlgebra(group, 4, ("1",), (group.identity,),
                         {(0, 0): ((0, Fraction(1)),)},
                         {0: Fraction(1)}, provenance="trivially graded R")


def trivially_graded_complex(group: FinAbGroup) -> GradedAlgebra:
    e = group.identity
    return GradedAlgebra(group, 4, ("1", "i"), (e, e),
                         {(0, 0): ((0, Fraction(1)),), (0, 1): ((1, Fraction(1)),),
                          (1, 0): ((1, Fraction(1)),), (1, 1): ((0, Fraction(-1)),)},
                         {0: Fraction(1)}, provenance="trivially graded C")


def _catalog_h4():
    g = FinAbGroup((2, 2))
    return GradedAlgebra(g, 4, ("1", "i", "j", "k"), _klein_degrees(g),
                         _quaternion_table(), {0: Fraction(1)},
                         provenance="catalog:H4 (division grading)")


def _catalog_m2_4():
    g = FinAbGroup((2, 2))
    return GradedAlgebra(g, 4, ("I", "A", "B", "C"), _klein_degrees(g),
                         _sylvester_table(), {0: Fraction(1)},
                         provenance="catalog:M2_4 (division grading)")


def _catalog_c2():
    g = FinAbGroup((2,))
    return GradedAlgebra(g, 4, ("1", "i"), (g.identity, g.element((1,))),
                         {(0, 0): ((0, Fraction(1)),), (0, 1): ((1, Fraction(1)),),
                          (1, 0): ((1, Fraction(1)),), (1, 1): ((0, Fraction(-1)),)},
                         {0: Fraction(1)}, provenance="catalog:C2 (division grading)")


def _catalog_m2_2():
    m24 = _catalog_m2_4()
    z2 = FinAbGroup((2,))
    theta = GroupHom(m24.group, z2, (z2.element((1,)), z2.element((1,))))
    out = quotient_grading(m24, theta)
    out.provenance = "catalog:M2_2 (division grading)"
    return out


def _catalog_h2():
    h4 = _catalog_h4()
    z2 = FinAbGroup((2,))
    theta = GroupHom(h4.group, z2, (z2.element((0,)), z2.element((1,))))
    out = quotient_grading(h4, theta)
    out.provenance = "catalog:H2 (division grading)"
    return out


def _catalog_m2c_z4():
    # Basis (omega^t * X) with t in 0..3, X Sylvester; omega^2 = i, omega = zeta_8.
    g = FinAbGroup((4,))
    pairs = [(0, "I"), (0, "C"), (1, "A"), (1, "B"),
             (2, "I"), (2, "C"), (3, "A"), (3, "B")]
    labels = ("I", "C", "wA", "wB", "iI", "iC", "iwA", "iwB")
    index = {p: i for i, p in enumerate(pairs)}
    degrees = tuple(g.element((t,)) for t, _ in pairs)
    table = {}
    for i, (t, x) in enumerate(pairs):
        for j, (u, y) in enumerate(pairs):
            z, sign = _SYLVESTER[(x, y)]
            v = t + u
            sign *= (-1) ** (v // 4)
            entry = index[(v % 4, z)]
            table[(i, j)] = ((entry, Fraction(sign)),)
    return GradedAlgebra(g, 4, labels, degrees, table, {0: Fraction(1)},
                         provenance="catalog:M2C_Z4 (division grading)")


def _catalog_pauli(n: int, k: int):
    if n < 1 or gcd(k, n) != 1:
        raise PreconditionError("pauli requires order n >= 1 and exponent coprime to n")
    g = FinAbGroup((n, n))
    cond = lcm(4, n)
    labels, degrees = [], []
    for a in range(n):
        for b in range(n):
            labels.append(f"X{a}Y{b}")
            labels.append(f"iX{a}Y{b}")
            degrees.extend([g.element((a, b))] * 2)
    idx = lambda a, b, s: (a * n + b) * 2 + s
    # (re, im) of zeta^p for each residue p, without inversions:
    # re = (zeta^p + zeta^-p) / 2 and im = (zeta^(p-q) - zeta^(-p-q)) / 2,
    # q = cond/4, since 1/(2i) = zeta^-q / 2
    zeta = lambda p: CycloScalar.root_of_unity(cond, p)
    half, q = Fraction(1, 2), cond // 4
    parts = [((zeta(p) + zeta(-p)) * half, (zeta(p - q) - zeta(-p - q)) * half)
             for p in range(cond)]
    table = {}
    for a, b, s in itertools.product(range(n), range(n), range(2)):
        for c, d, t in itertools.product(range(n), range(n), range(2)):
            power = (s + t) * (cond // 4) - k * b * c * (cond // n)
            re, im = parts[power % cond]
            entries = []
            if not re.is_zero():
                entries.append((idx((a + c) % n, (b + d) % n, 0), re))
            if not im.is_zero():
                entries.append((idx((a + c) % n, (b + d) % n, 1), im))
            table[(idx(a, b, s), idx(c, d, t))] = tuple(entries)
    return GradedAlgebra(g, cond, labels, degrees, table, {0: Fraction(1)},
                         provenance=f"catalog:pauli({n},{k}) (division grading)")


def _catalog_quat_trivial():
    g = FinAbGroup((2, 2))
    e = g.identity
    return GradedAlgebra(g, 4, ("1", "i", "j", "k"), (e, e, e, e),
                         _quaternion_table(), {0: Fraction(1)},
                         provenance="catalog:quat_trivial (division grading)")


def _catalog_m2_8():
    m24, c2 = _catalog_m2_4(), _catalog_c2()
    g = FinAbGroup((2, 2, 2))
    ea = GroupHom(m24.group, g, (g.element((1, 0, 0)), g.element((0, 1, 0))))
    eb = GroupHom(c2.group, g, (g.element((0, 0, 1)),))
    out = tensor_product(m24, c2, g, ea, eb)
    out.provenance = "catalog:M2_8 (division grading)"
    return out


def _catalog_m4_4():
    h4, qt = _catalog_h4(), _catalog_quat_trivial()
    g = h4.group
    ident = GroupHom(g, g, g.generators())
    out = tensor_product(h4, qt, g, ident, ident)
    out.provenance = "catalog:M4_4 (division grading)"
    return out


_CATALOG_BUILDERS = {
    "H4": _catalog_h4,
    "M2_4": _catalog_m2_4,
    "M2_2": _catalog_m2_2,
    "H2": _catalog_h2,
    "C2": _catalog_c2,
    "M2C_Z4": _catalog_m2c_z4,
    "M2_8": _catalog_m2_8,
    "M4_4": _catalog_m4_4,
    "quat_trivial": _catalog_quat_trivial,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG_BUILDERS) + ["pauli(n,k)"]


def catalog(name: str, *params) -> GradedAlgebra:
    if name == "pauli":
        if len(params) != 2:
            raise PreconditionError("pauli needs parameters (n, k)")
        return _catalog_pauli(int(params[0]), int(params[1]))
    builder = _CATALOG_BUILDERS.get(name)
    if builder is None:
        raise PreconditionError(
            f"unknown catalog name {name!r}; available: {', '.join(catalog_names())}")
    if params:
        raise PreconditionError(f"catalog entry {name} takes no parameters")
    return builder()


def tensor_product(left: GradedAlgebra, right: GradedAlgebra, group: FinAbGroup,
                   embed_left: GroupHom, embed_right: GroupHom) -> GradedAlgebra:
    """Graded tensor product over R, degrees multiplied through the embeddings."""
    if embed_left.domain != left.group or embed_right.domain != right.group:
        raise PreconditionError("embedding domain does not match factor group")
    if embed_left.codomain != group or embed_right.codomain != group:
        raise PreconditionError("embedding codomain is not the target group")
    if not embed_left.is_injective() or not embed_right.is_injective():
        raise PreconditionError("embeddings must be injective")
    s_left = Subgroup.generated_by(group, [embed_left(g) for g in left.support()])
    s_right = Subgroup.generated_by(group, [embed_right(g) for g in right.support()])
    if s_left.intersection(s_right).order != 1:
        raise PreconditionError("support images must intersect trivially")
    cond = lcm(left.conductor, right.conductor)
    labels, degrees = [], []
    for i in range(left.dim):
        for j in range(right.dim):
            labels.append(f"{left.labels[i]}(x){right.labels[j]}")
            degrees.append(embed_left(left.degrees[i]) * embed_right(right.degrees[j]))
    pos = lambda i, j: i * right.dim + j
    table = {}
    for (i, i2), le in left.table.items():
        for (j, j2), re_ in right.table.items():
            entries = []
            for k, s1 in le:
                for l, s2 in re_:
                    entries.append((pos(k, l), s1.promote(cond) * s2.promote(cond)))
            entries.sort(key=lambda p: p[0])
            table[(pos(i, j), pos(i2, j2))] = tuple(entries)
    unit = {}
    for i, ci in left.unit.items():
        for j, cj in right.unit.items():
            unit[pos(i, j)] = ci.promote(cond) * cj.promote(cond)
    return GradedAlgebra(group, cond, labels, degrees, table, unit)


def quotient_grading(a: GradedAlgebra, theta: GroupHom) -> GradedAlgebra:
    """Coarsen the grading through theta; same underlying algebra."""
    if theta.domain != a.group:
        raise PreconditionError("quotient hom domain does not match the grading group")
    out = GradedAlgebra(theta.codomain, a.conductor, a.labels,
                        tuple(theta(g) for g in a.degrees), a.table, a.unit)
    if components_multiply(a):
        out._division = "quotient"
    return out


def regrade(a: GradedAlgebra, iso: GroupHom) -> GradedAlgebra:
    """Relabel degrees through an injective hom (bijective onto its image)."""
    if iso.domain != a.group:
        raise PreconditionError("regrade hom domain does not match the grading group")
    if not iso.is_injective():
        raise PreconditionError("regrade requires an injective hom")
    return GradedAlgebra(iso.codomain, a.conductor, a.labels,
                         tuple(iso(g) for g in a.degrees), a.table, a.unit,
                         provenance=a.provenance)


@dataclass(frozen=True)
class TripleSpec:
    """Matrix-over-division data (H, D, g): M_n(D) with entry degrees g_i^-1 h g_j."""

    subgroup: Subgroup
    division: GradedAlgebra
    g_tuple: tuple[GroupElement, ...]

    def __post_init__(self):
        h, d, tup = self.subgroup, self.division, self.g_tuple
        if d.group != h.parent:
            raise PreconditionError("division algebra graded by a different group")
        if not tup:
            raise PreconditionError("g tuple must be nonempty")
        for g in tup:
            if g.group != h.parent:
                raise PreconditionError("g tuple entry outside the group")
        for g in d.support():
            if g not in h:
                raise PreconditionError("support of D must lie inside H")

    @property
    def size(self) -> int:
        return len(self.g_tuple)


def matrix_over_division(spec: TripleSpec) -> GradedAlgebra:
    d, tup = spec.division, spec.g_tuple
    n = len(tup)
    labels, degrees = [], []
    for i in range(n):
        for j in range(n):
            for t in range(d.dim):
                labels.append(f"{d.labels[t]}E{i + 1}{j + 1}")
                degrees.append(tup[i].inverse() * d.degrees[t] * tup[j])
    pos = lambda i, j, t: (i * n + j) * d.dim + t
    table = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for (t, u), entries in d.table.items():
                    table[(pos(i, j, t), pos(j, l, u))] = tuple(
                        (pos(i, l, v), s) for v, s in entries)
    unit = {}
    for i in range(n):
        for t, c in d.unit.items():
            unit[pos(i, i, t)] = c
    return GradedAlgebra(d.group, d.conductor, labels, degrees, table, unit)


def twisted_group_algebra(group: FinAbGroup, beta, diagonal_signs=None) -> GradedAlgebra:
    """Group algebra of `group` twisted so that u_g u_h = beta(g,h) u_h u_g.

    beta is a callable on pairs of group elements returning +-1 scalars with
    trivial diagonal on the generators; diagonal_signs[i] fixes u_{gen_i}^n_i.
    The result is a graded division algebra with 1-dimensional components.
    """
    gens = group.generators()
    rank = group.rank
    if diagonal_signs is None:
        diagonal_signs = (1,) * rank
    bvals = {}
    for i in range(rank):
        for j in range(rank):
            v = beta(gens[i], gens[j])
            f = v.as_fraction() if isinstance(v, CycloScalar) else Fraction(v)
            if f not in (1, -1):
                raise PreconditionError("twisted group algebra needs +-1 commutation values")
            bvals[(i, j)] = int(f)
    for i in range(rank):
        if bvals[(i, i)] != 1:
            raise PreconditionError("commutation value on a repeated generator must be 1")
        for j in range(rank):
            if bvals[(i, j)] != bvals[(j, i)]:
                raise PreconditionError("commutation values must be symmetric for +-1 twists")
    elements = group.elements()
    index = {g: i for i, g in enumerate(elements)}
    labels = tuple("u" + "_".join(str(e) for e in g.exps) if g.exps else "u0"
                   for g in elements)
    table = {}
    for ga in elements:
        for gb in elements:
            sign = 1
            for i in range(rank):
                for j in range(rank):
                    if i > j and ga.exps[i] and gb.exps[j]:
                        if bvals[(i, j)] == -1 and (ga.exps[i] * gb.exps[j]) % 2:
                            sign = -sign
            for i, n in enumerate(group.orders):
                if ga.exps[i] + gb.exps[i] >= n and diagonal_signs[i] == -1:
                    sign = -sign
            table[(index[ga], index[gb])] = ((index[ga * gb], Fraction(sign)),)
    unit = {index[group.identity]: Fraction(1)}
    return GradedAlgebra(group, 4, labels, tuple(elements), table, unit,
                         provenance="twisted group algebra (division grading)")
