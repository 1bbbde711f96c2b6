"""Structural invariants of graded division algebras and the decision procedures.

The classification splits on dim A_e (1, 2 or 4 for a real division algebra)
and on whether A_e is central:

  dim A_e = 1          -> Type I, real commutation bicharacter on supp A
  dim A_e = 4          -> Type III, bicharacter recovered by Hall products
  dim A_e = 2 central  -> complex bicharacter w.r.t. a chosen unit J;
                          all values real -> Type I (regular), else Type IV
  dim A_e = 2 else     -> Type II; if supp A is elementary 2-group the real
                          table lives on the central support, otherwise the
                          comparison data is taken in the quotient by the
                          subgroup of squares.

In a graded division algebra A_g * A_s = A_gs, so a commutation factor is
multiplicative in its first argument: row(gs) = row(g) * row(s) cell by cell
(Bahturin-Sehgal-Zaicev, Group gradings on associative algebras, J. Algebra
241 (2001); Elduque-Kochetov, Gradings on simple Lie algebras, AMS 2013,
ch. 2).  `bicharacter_table` therefore measures only row e and the rows of a
generating set when the algebra is known to be one (or a quotient grading of
one), and derives the rest.

Equivalence of graded identities is decided from these invariants; matrix
algebras over division gradings reduce to the Type I/IV case by
`normalize_triple` and are compared by `equiv_matrix_over_division`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .algebras import (AlgebraElement, GradedAlgebra, TripleSpec,
                       check_graded_division, components_multiply,
                       known_division, quotient_grading, regrade,
                       twisted_group_algebra)
from .errors import InvariantViolation, PreconditionError
from .groups import (CosetDecomposition, GroupElement, GroupHom, Subgroup,
                     is_elementary_2group, quotient_hom, squares_subgroup,
                     subgroup_as_group)
from .scalars import CycloScalar, field_solve


# -- commutation factors ---------------------------------------------------


def _basis_pairs(a: GradedAlgebra, g: GroupElement, h: GroupElement):
    for i in a.component(g):
        for j in a.component(h):
            yield a.basis_product(i, j), a.basis_product(j, i)


def _ratio(num: AlgebraElement, den: AlgebraElement):
    """The one candidate lambda for num = lambda * den, read at den's least
    basis index (None if num has no coefficient there); callers check it."""
    k = min(den.coeffs)
    lam = num.coeffs.get(k)
    return None if lam is None else lam / den.coeffs[k]


def _pair_factor(pairs, j: AlgebraElement | None = None):
    """The lambda with x = lambda*y on every pair (x, y), or None.

    Without j, lambda is real; with a validated central unit J it is
    l1 + l2*i, acting as l1 + l2*J with l1, l2 real.  Zero rule of every
    commutation factor: a pair with both sides zero is skipped, and the
    answer is None when exactly one side of a pair vanishes or when every
    pair vanishes.  lambda is solved from the first pair that does not
    vanish (`_ratio`, or `field_solve` for x = l1*y + l2*J*y) and must be
    real; each pair, that one included, is checked once.
    """
    lam = None
    for x, y in pairs:
        if x.is_zero() != y.is_zero():
            return None
        if y.is_zero():
            continue
        if lam is None:
            if j is None:
                lam = _ratio(x, y)
                if lam is None or not lam.is_real():
                    return None
            else:
                sol = field_solve(_coordinate_rows(y, j * y, x), 2)
                if sol is None or not (sol[0].is_real() and sol[1].is_real()):
                    return None
                l1, l2 = sol
                lam = j.parent.one().scale(l1) + j.scale(l2)
        if x != (y.scale(lam) if j is None else lam * y):
            return None
    if lam is None or j is None:
        return lam
    m = lcm(j.parent.conductor, 4)
    return l1.promote(m) + l2.promote(m) * CycloScalar.root_of_unity(4, 1, m)


def commutation_factor(a: GradedAlgebra, g: GroupElement, h: GroupElement):
    """The real lambda with xy = lambda*yx on A_g x A_h, or None.

    Bilinearity makes basis pairs sufficient.  The zero rule of
    `_pair_factor` applies: None when some pair vanishes on one side only,
    when every product vanishes (no unique factor), or when pairs disagree.
    """
    return _pair_factor(_basis_pairs(a, g, h))


def _validate_complex_unit(a: GradedAlgebra, j: AlgebraElement):
    if not isinstance(j, AlgebraElement) or j.parent is not a:
        raise PreconditionError("invalid J: not an element of the algebra")
    if j.degree() is None:
        raise PreconditionError("invalid J: not homogeneous")
    if (j * j + a.one()).coeffs:
        raise PreconditionError("invalid J: J^2 is not minus the unit")
    for i in range(a.dim):
        b = a.basis_element(i)
        if j * b != b * j:
            raise PreconditionError("invalid J: not central")


def complex_commutation_factor(a: GradedAlgebra, g: GroupElement,
                               h: GroupElement, j: AlgebraElement):
    """lambda1 + lambda2*i with xy = lambda1*yx + lambda2*J*yx, or None
    (the zero rule of `commutation_factor`)."""
    _validate_complex_unit(a, j)
    return _pair_factor(_basis_pairs(a, g, h), j)


def _coordinate_rows(*elems: AlgebraElement):
    """The coordinates of the elements as columns, on their joint support."""
    zero = CycloScalar.zero(elems[0].parent.conductor)
    keys = sorted(set().union(*(e.coeffs for e in elems)))
    return [[e.coeffs.get(k, zero) for e in elems] for k in keys]


# -- complex units ----------------------------------------------------------


def _central_part_vectors(a: GradedAlgebra, g: GroupElement):
    """Rational basis of {x in A_g : x central}, as coefficient tuples."""
    from .scalars import RowReducer, totient

    comp = a.component(g)
    if not comp:
        return []
    width = len(comp)
    slots = totient(a.conductor)
    reducer = RowReducer(width)
    for s in range(a.dim):
        rows: dict = {}
        for pos, t in enumerate(comp):
            diff = a.basis_product(t, s) - a.basis_product(s, t)
            for k, c in diff.coeffs.items():
                for slot, q in enumerate(c.rational_coordinates()):
                    if q:
                        row = rows.setdefault((k, slot), [Fraction(0)] * width)
                        row[pos] = q
        for row in rows.values():
            reducer.add(row)
        if reducer.rank == width:
            return []
    return reducer.nullspace_rows()


def _vector_element(a: GradedAlgebra, g: GroupElement, vec) -> AlgebraElement:
    comp = a.component(g)
    return AlgebraElement(a, {t: CycloScalar.rational(q, a.conductor)
                              for t, q in zip(comp, vec) if q})


def _unit_multiple(a: GradedAlgebra, x: AlgebraElement):
    """The scalar c with x = c * unit, or None."""
    if x.is_zero():
        return CycloScalar.zero(a.conductor)
    one = a.one()
    c = _ratio(x, one)
    return c if c is not None and x == one.scale(c) else None


def _normalize_sign(j: AlgebraElement) -> AlgebraElement:
    lead = j.coeffs[min(j.coeffs)]
    for q in lead.rational_coordinates():
        if q:
            return j if q > 0 else -j
    return j


def find_complex_unit(a: GradedAlgebra):
    """A central homogeneous J with J^2 = -unit, or None.

    Degrees g with g^2 = e are scanned in canonical order, and in each the
    central part is computed exactly.  A central part of dimension 1 gives
    its spanning v.  One of dimension 2 at g = e gives v = w - (q/2)*1 for
    a w in it off the unit line, with w^2 = p + q*w solved once; then
    v^2 = (p + q^2/4)*1.  Either way v^2 = c*unit is checked exactly, and
    for rational c < 0 with sqrt(-1/c) in the field, J = sqrt(-1/c)*v.  Ties
    are broken by making the leading rational coordinate positive.
    """
    from .scalars import sqrt_of_rational_in_field

    e = a.group.identity
    for g in a.support():
        if g * g != e:
            continue
        elems = [_vector_element(a, g, v) for v in _central_part_vectors(a, g)]
        if len(elems) == 1:
            v = elems[0]
        elif len(elems) == 2 and g == e:
            # two independent elements: at most one lies on the unit line
            w = elems[0] if _unit_multiple(a, elems[0]) is None else elems[1]
            one = a.one()
            sol = field_solve(_coordinate_rows(one, w, w * w), 2)
            if sol is None:
                continue
            v = w - one.scale(sol[1] / 2)
        else:
            continue
        c = _unit_multiple(a, v * v)
        if c is None or not c.is_rational() or c.as_fraction() >= 0:
            continue
        y = sqrt_of_rational_in_field(-1 / c.as_fraction(), a.conductor)
        if y is not None:
            return _normalize_sign(v.scale(y))
    return None


# -- bicharacter tables -----------------------------------------------------


@dataclass(frozen=True)
class BicharTable:
    """Commutation factors on domain x domain with the bicharacter axioms.

    flavor is "real" or "complex"; complex tables carry the unit used.
    Equality compares domain and values only, so a complex table whose
    values happen to be real equals the corresponding real table.
    """

    domain: tuple[GroupElement, ...]
    values: dict
    flavor: str = "real"
    unit: AlgebraElement | None = None
    violations: tuple[str, ...] = ()

    def value(self, g: GroupElement, h: GroupElement) -> CycloScalar:
        return self.values[(g, h)]

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.values.values())

    def conjugate(self) -> "BicharTable":
        return BicharTable(self.domain,
                           {k: v.conjugate() for k, v in self.values.items()},
                           self.flavor, self.unit, self.violations)

    def values_equal(self, other: "BicharTable") -> bool:
        if self.domain != other.domain:
            return False
        return all(self.values[k] == other.values[k] for k in self.values)

    def __eq__(self, other):
        if not isinstance(other, BicharTable):
            return NotImplemented
        return self.values_equal(other)

    def __hash__(self):
        return hash(self.domain)

    def as_matrix(self) -> list[list[CycloScalar]]:
        return [[self.values[(g, h)] for h in self.domain] for g in self.domain]

    @classmethod
    def checked(cls, domain, values: dict, flavor: str = "real",
                unit: AlgebraElement | None = None) -> "BicharTable":
        """The table of `values` on `domain`, with its axiom violations."""
        return cls(domain, values, flavor, unit,
                   _axiom_violations(domain, values))


def bicharacter_table(a: GradedAlgebra, domain, flavor: str = "real",
                      unit: AlgebraElement | None = None) -> BicharTable:
    """Full commutation-factor table over the domain, axioms checked exactly.

    Where A_g * A_s = A_gs and no product of nonzero homogeneous elements
    vanishes, the factor is multiplicative in its first argument: if
    xy = lambda*yx on A_g x A_h and x'y = mu*yx' on A_s x A_h, then
    (xx')y = lambda*mu*y(xx'), and the products xx' span A_gs (BSZ 2001; EK
    2013, ch. 2).  So when the domain is a Subgroup and the algebra is known
    to be a graded division algebra (`known_division`: a "division"
    provenance or a recorded "yes" of check_graded_division) or a quotient
    grading of one (`components_multiply`), only row e and the rows of
    greedy generators are read from basis pairs; every other row is a
    cell-wise product of two earlier ones (`_generated_rows`), with the
    values, violations and first pair without a factor of the cell-by-cell
    reading.  Any other input is read cell by cell; no division check is
    run here.
    """
    if isinstance(domain, Subgroup):
        dom = domain.elements
    else:
        dom = tuple(sorted(domain))
    if flavor not in ("real", "complex"):
        raise PreconditionError("flavor must be 'real' or 'complex'")
    if flavor == "complex":
        if unit is None:
            raise PreconditionError("complex tables need a complex unit J")
        _validate_complex_unit(a, unit)
    j = unit if flavor == "complex" else None
    row = lambda g: (_pair_factor(_basis_pairs(a, g, h), j) for h in dom)
    if isinstance(domain, Subgroup) and components_multiply(a):
        row = _generated_rows(row)
    return _factor_table(dom, row, flavor, unit)


def _generated_rows(measure):
    """A row function for `_factor_table` on a subgroup domain, which asks
    for its rows in domain order starting at e.

    A row not derived yet is measured: it is row e or that of the next
    greedy generator s, the least element outside the span S of the earlier
    ones.  Then every row of S*<s> is derived along x, x*s, x*s^2, ... for
    x in S, as row(x*s^k) = row(x*s^(k-1)) * row(s).  A measured row stops
    at its first missing factor, where `_factor_table` raises; the rows
    before it are complete, since a row derived from complete rows is.
    """
    rows: dict = {}

    def row(g):
        if g in rows:
            return rows[g]
        span = tuple(rows)
        spanned = set(span)
        cells = rows[g] = []
        for lam in measure(g):
            cells.append(lam)
            if lam is None:
                return cells
        for x in span:
            prev, y = x, x * g
            while y not in spanned:
                if y not in rows:
                    rows[y] = [p * q for p, q in zip(rows[prev], cells)]
                prev, y = y, y * g
        return cells

    return row


def _factor_table(dom, row, flavor="real", unit=None) -> BicharTable:
    """The checked table whose row at g lists the factors row(g) over dom;
    PreconditionError at the first cell without a factor."""
    values = {}
    for g in dom:
        for h, lam in zip(dom, row(g)):
            if lam is None:
                raise PreconditionError(
                    f"no commutation factor on the pair ({g}, {h})")
            values[(g, h)] = lam
    return BicharTable.checked(dom, values, flavor, unit)


def _axiom_violations(dom, values) -> tuple[str, ...]:
    """Skew symmetry and multiplicativity in the first argument, exactly.

    A bicharacter takes few distinct values, so they are interned: every
    value is promoted to the table's common conductor, where equal values
    have equal coordinates, and numbered by those coordinates.  Each product
    of two numbered values is computed once; the loops compare numbers.
    """
    m = lcm(*(v.conductor for v in values.values()))
    number: dict = {}
    interned: list[CycloScalar] = []

    def intern(v: CycloScalar) -> int:
        v = v.promote(m)
        key = (v.num, v.den)
        k = number.get(key)
        if k is None:
            k = number[key] = len(interned)
            interned.append(v)
        return k

    products: dict = {}

    def product(i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        k = products.get(key)
        if k is None:
            k = products[key] = intern(interned[i] * interned[j])
        return k

    n = len(dom)
    ids = [[intern(values[(g, h)]) for h in dom] for g in dom]
    one_id = intern(CycloScalar.one(1))
    violations = []
    for r in range(n):
        for c in range(n):
            if product(ids[r][c], ids[c][r]) != one_id:
                violations.append(
                    f"skew symmetry fails at ({dom[r]}, {dom[c]})")
    position = {g: r for r, g in enumerate(dom)}
    for r, g in enumerate(dom):
        for c, h in enumerate(dom):
            rc = position.get(g * h)
            if rc is None:
                continue
            for t in range(n):
                if ids[rc][t] != product(ids[r][t], ids[c][t]):
                    violations.append(
                        f"multiplicativity fails at ({g}, {h}; {dom[t]})")
    return tuple(violations)


def _hall_products(a: GradedAlgebra, g: GroupElement) -> list[AlgebraElement]:
    """The distinct nonzero P = [x,y][x,w] + [x,w][x,y] over x,w in A_e,
    y in A_g, in the order x, y, w of basis positions (first occurrences)."""
    ebasis = a.component(a.group.identity)
    if len(ebasis) != 4:
        raise PreconditionError("Hall bicharacter needs dim A_e = 4")
    bracket = lambda i, j: a.basis_product(i, j) - a.basis_product(j, i)
    out = []
    seen = set()  # exact repeats are kept once, by coefficient coordinates
    for x in ebasis:
        cxws = [bracket(x, w) for w in ebasis]
        for y in a.component(g):
            cxy = bracket(x, y)
            if cxy.is_zero():
                continue
            for cxw in cxws:
                if cxw.is_zero():
                    continue
                p = cxy * cxw + cxw * cxy
                key = frozenset((i, c.num, c.den) for i, c in p.coeffs.items())
                if key and key not in seen:
                    seen.add(key)
                    out.append(p)
    return out


def _hall_factor(products: list[AlgebraElement], hbasis):
    """The real lambda with p z = lambda z p for every product p and every z
    in hbasis, or None (the zero rule of `commutation_factor`)."""
    return _pair_factor((p * z, z * p) for p in products for z in hbasis)


def bicharacter_via_hall(a: GradedAlgebra, g: GroupElement, h: GroupElement):
    """The lambda with (P z - lambda z P) an identity, P the Hall-style product
    ([x,y][x,w] + [x,w][x,y]) over x,w in A_e, y in A_g; None if the
    evaluations all vanish or no single lambda works.
    """
    return _hall_factor(_hall_products(a, g), a.component_basis(h))


def _hall_table(a: GradedAlgebra, domain: Subgroup) -> BicharTable:
    """bicharacter_via_hall on domain, each row's Hall products made once."""
    dom = domain.elements
    bases = {h: a.component_basis(h) for h in dom}

    def row(g):
        products = _hall_products(a, g)
        return (_hall_factor(products, bases[h]) for h in dom)

    return _factor_table(dom, row)


# -- support invariants ------------------------------------------------------


def commuting_support(a: GradedAlgebra) -> tuple[GroupElement, ...]:
    """Degrees g for which [x_e, y_g] is an identity."""
    ebasis = a.component(a.group.identity)
    out = []
    for g in a.support():
        if all(a.basis_product(i, j) == a.basis_product(j, i)
               for i in ebasis for j in a.component(g)):
            out.append(g)
    return tuple(out)


def central_support(a: GradedAlgebra) -> Subgroup | None:
    """commuting_support as a subgroup, or None when it is not one."""
    try:
        return Subgroup(a.group, commuting_support(a))
    except PreconditionError:
        return None


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class QuotientData:
    """Comparison data for Type II gradings with a non-elementary support."""

    theta: GroupHom
    supp_r: Subgroup
    bichar: BicharTable


@dataclass
class ClassificationReport:
    type_tag: str
    supp: Subgroup
    central_support: Subgroup | None
    supp_r: Subgroup | None
    bichar: BicharTable | None
    complex_unit: AlgebraElement | None = None
    quotient: QuotientData | None = None
    notes: list[str] = field(default_factory=list)


def _require_division(a: GradedAlgebra):
    if known_division(a):
        return
    verdict = check_graded_division(a)
    if verdict.verdict == "yes":
        return
    raise PreconditionError(
        f"not a graded division algebra: {verdict.reason}")


def _table_or_violation(build, *args) -> BicharTable:
    """build(*args), a table that must exist and satisfy the axioms."""
    try:
        table = build(*args)
    except PreconditionError as err:
        raise InvariantViolation(
            f"inconsistent structure: {err}") from err
    if table.violations:
        raise InvariantViolation(
            "inconsistent structure: " + "; ".join(table.violations))
    return table


def classify(a: GradedAlgebra) -> ClassificationReport:
    """Type I-IV report for a graded division algebra."""
    if a._classification is None:
        a._classification = _classify(a)
    return a._classification


def _classify(a: GradedAlgebra) -> ClassificationReport:
    _require_division(a)
    try:
        supp = a.support_subgroup()
    except PreconditionError as err:
        raise InvariantViolation(
            f"support of a division grading must be a subgroup: {err}") from err
    e = a.group.identity
    d_e = len(a.component(e))
    notes = []
    if d_e == 1:
        table = _table_or_violation(bicharacter_table, a, supp)
        return ClassificationReport("I", supp, supp, supp, table,
                                    notes=["regular grading, real e-component"])
    if d_e == 4:
        table = _table_or_violation(_hall_table, a, supp)
        cs = central_support(a)
        return ClassificationReport("III", supp, cs, supp, table,
                                    notes=["quaternion e-component"])
    if d_e != 2:
        raise InvariantViolation(
            f"e-component of a real division grading has dimension 1, 2 or 4, "
            f"got {d_e}")
    cs = central_support(a)
    if cs == supp:
        j = find_complex_unit(a)
        if j is None:
            raise PreconditionError(
                "central complex e-component but no constructible complex unit "
                "(irrational center constants are not handled)")
        table = _table_or_violation(bicharacter_table, a, supp, "complex", j)
        if table.is_real():
            return ClassificationReport("I", supp, cs, supp, table, complex_unit=j,
                                        notes=["regular grading, central complex "
                                               "e-component with real factors"])
        return ClassificationReport("IV", supp, cs, None, table, complex_unit=j,
                                    notes=["non-regular grading with complex "
                                           "bicharacter"])
    if cs is None:
        raise InvariantViolation(
            "commuting support of a Type II division grading must be a subgroup")
    j = find_complex_unit(a)
    if is_elementary_2group(supp):
        table = _table_or_violation(bicharacter_table, a, cs)
        return ClassificationReport("II", supp, cs, cs, table, complex_unit=j,
                                    notes=["standard case: elementary 2-group "
                                           "support"])
    g2 = squares_subgroup(supp)
    theta = quotient_hom(a.group, g2)
    atheta = quotient_grading(a, theta)
    qcs = central_support(atheta)
    if qcs is None:
        raise InvariantViolation(
            "commuting support of the quotient grading must be a subgroup")
    qtable = _table_or_violation(bicharacter_table, atheta, qcs)
    notes.append(f"quotient by the squares subgroup of order {g2.order}")
    if j is not None:
        notes.append(f"central complex unit found in degree {j.degree()}")
    return ClassificationReport("II", supp, cs, None, None, complex_unit=j,
                                quotient=QuotientData(theta, qcs, qtable),
                                notes=notes)


# -- equivalence of division gradings ----------------------------------------


@dataclass
class EquivDivisionReport:
    verdict: bool
    reason: str
    left: ClassificationReport
    right: ClassificationReport

    def __bool__(self):
        return self.verdict


def equiv_division(a: GradedAlgebra, b: GradedAlgebra) -> EquivDivisionReport:
    """Decide Id_G(A) = Id_G(B) for graded division algebras structurally."""
    if a.group != b.group:
        raise PreconditionError("algebras graded by different groups")
    ra = classify(a)
    rb = classify(b)

    def no(reason):
        return EquivDivisionReport(False, reason, ra, rb)

    if ra.type_tag != rb.type_tag:
        return no(f"types differ: {ra.type_tag} vs {rb.type_tag}")
    if set(ra.supp.elements) != set(rb.supp.elements):
        return no("supports differ")
    tag = ra.type_tag
    if tag in ("I", "III"):
        if not ra.bichar.values_equal(rb.bichar):
            return no("bicharacter tables differ")
        return EquivDivisionReport(True, f"Type {tag}: equal supports and "
                                   "bicharacters", ra, rb)
    if tag == "IV":
        if ra.bichar.values_equal(rb.bichar):
            return EquivDivisionReport(True, "Type IV: equal bicharacters", ra, rb)
        if ra.bichar.values_equal(rb.bichar.conjugate()):
            return EquivDivisionReport(True, "Type IV: conjugate bicharacters",
                                       ra, rb)
        return no("bicharacters neither equal nor conjugate")
    # Type II
    if (ra.quotient is None) != (rb.quotient is None):
        return no("comparison branches differ")
    if ra.quotient is None:
        if set(ra.supp_r.elements) != set(rb.supp_r.elements):
            return no("supp_R differ")
        if not ra.bichar.values_equal(rb.bichar):
            return no("bicharacter tables on supp_R differ")
        return EquivDivisionReport(True, "Type II standard: equal supp_R and "
                                   "tables", ra, rb)
    qa, qb = ra.quotient, rb.quotient
    if qa.theta != qb.theta:
        return no("quotient homs differ")
    if set(ra.central_support.elements) != set(rb.central_support.elements):
        return no("central supports differ")
    if set(qa.supp_r.elements) != set(qb.supp_r.elements):
        return no("quotient supp_R differ")
    if not qa.bichar.values_equal(qb.bichar):
        return no("quotient bicharacter tables differ")
    return EquivDivisionReport(True, "Type II via quotient: equal data", ra, rb)


# -- normalization of matrix triples -----------------------------------------


def _twisted_model(h: Subgroup, table: BicharTable, g0: GroupElement | None,
                   notes: list[str]) -> GradedAlgebra:
    """Twisted group algebra over h with the measured table, regraded into the
    ambient group; the diagonal sign -1 is placed on g0 when possible."""
    prefer = None
    diag = None
    if g0 is not None and not g0.is_identity:
        max_order = max(x.order() for x in h.elements)
        if g0.order() == max_order:
            prefer = g0
        else:
            notes.append("diagonal sign placement skipped: preferred degree "
                         "is not of maximal order (identities unaffected)")
    k, embed = subgroup_as_group(h, prefer_first=prefer)
    if prefer is not None:
        diag = (-1,) + (1,) * (k.rank - 1)
    beta = lambda x, y: table.value(embed(x), embed(y))
    return regrade(twisted_group_algebra(k, beta, diag), embed)


def normalize_triple(spec: TripleSpec) -> TripleSpec:
    """Rewrite (H, D, g) so that D has Type I or IV, preserving identities.

    Type I/IV triples pass through.  Type II splits off the two-dimensional
    non-commuting part: H' is the central support, the tuple doubles through
    (g_i, g_i*a) with a the least degree outside H', and D' is the twisted
    group algebra carrying the measured table (with u^2 = -1 on the degree of
    the central complex unit in the non-elementary case).  Type III drops the
    quaternion factor: the tuple doubles through (g_i, g_i) and D' carries
    the Hall table.
    """
    d = spec.division
    rep = classify(d)
    if rep.type_tag in ("I", "IV"):
        return spec
    notes: list[str] = []
    if rep.type_tag == "III":
        h = rep.supp_r
        dd = _twisted_model(h, rep.bichar, None, notes)
        tup = tuple(x for g in spec.g_tuple for x in (g, g))
        return TripleSpec(h, dd, tup)
    # Type II
    h = rep.central_support
    supp_elems = set(rep.supp.elements)
    if 2 * len(h.elements) != len(supp_elems):
        raise InvariantViolation(
            "central support must have index 2 in the support for Type II")
    a_elt = min(supp_elems - set(h.elements))
    table = rep.bichar  # the standard case measured it on h already
    g0 = None
    if rep.quotient is not None:
        table = _table_or_violation(bicharacter_table, d, h)
        if rep.complex_unit is not None:
            g0 = rep.complex_unit.degree()
        else:
            g2 = squares_subgroup(rep.supp)
            g0 = min(x for x in g2.elements if not x.is_identity)
    dd = _twisted_model(h, table, g0, notes)
    tup = tuple(x for g in spec.g_tuple for x in (g, g * a_elt))
    return TripleSpec(h, dd, tup)


# -- matrix-over-division equivalence -----------------------------------------


@dataclass
class MatrixEquivReport:
    verdict: bool
    reason: str
    shift: GroupElement | None = None

    def __bool__(self):
        return self.verdict


def equiv_matrix_over_division(sa: TripleSpec, sb: TripleSpec) -> MatrixEquivReport:
    """Decide equivalence of M_n(D) gradings given Type I/IV division parts."""
    g = sa.subgroup.parent
    if sb.subgroup.parent != g:
        raise PreconditionError("triples over different groups")
    for s, name in ((sa, "left"), (sb, "right")):
        if set(s.division.support()) != set(s.subgroup.elements):
            raise PreconditionError(
                f"{name} division part does not fill its subgroup; "
                "apply normalize_triple")
        tag = classify(s.division).type_tag
        if tag not in ("I", "IV"):
            raise PreconditionError(
                f"{name} division part has Type {tag}; apply normalize_triple")
    if sa.size != sb.size:
        return MatrixEquivReport(False, f"sizes differ: {sa.size} vs {sb.size}")
    if set(sa.subgroup.elements) != set(sb.subgroup.elements):
        return MatrixEquivReport(False, "subgroups differ")
    div = equiv_division(sa.division, sb.division)
    if not div.verdict:
        return MatrixEquivReport(False, f"division parts differ: {div.reason}")
    dec = CosetDecomposition(g, sa.subgroup)
    want = sorted(dec.rep_of(x) for x in sa.g_tuple)
    for cand in dec.reps:
        got = sorted(dec.rep_of(cand * x) for x in sb.g_tuple)
        if got == want:
            return MatrixEquivReport(True, "sizes, subgroups, division parts "
                                     "and coset multisets all match", cand)
    return MatrixEquivReport(False, "no group element aligns the coset multisets")
