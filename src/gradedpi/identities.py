"""Graded polynomials, their evaluation, and multilinear identity spaces.

Identity spaces are computed over the rationals although the algebras are
real: for a fixed degree tuple the vanishing conditions, with structure
constants expanded over the power basis of the cyclotomic field, form a
linear system with rational coefficients, and its rational kernel is the
space of identities with rational coefficients.  That kernel is the
annihilator of the system's row space (the image of the evaluation map), so
comparing canonical rational images decides equality of these rational
identity spaces.  The real identity space is spanned by its rational part
when it is defined over Q (for example when every structure constant is
rational), but not in general: for pauli(5,1) at the degrees
((0,1), (0,1), (1,0)) the real identity with coefficients
(1, 1 - phi, 1, 1 - phi, 1, 1) in monomial order, phi the golden ratio, has
no rational multiple, and the rational space has dimension 3 against the
real 4.  Brute-force verdicts are exact for the rational identities only.

`is_identity` substitutes generic elements (indeterminate real coefficients
on each component basis) and checks that the expansion vanishes
coefficientwise; over an infinite field this is equivalent to vanishing under
all substitutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebras import AlgebraElement, GradedAlgebra
from .errors import (InadmissibleSubstitution, InvariantViolation,
                     PolynomialSyntaxError, PreconditionError)
from .groups import FinAbGroup, GroupElement, GroupHom
from .scalars import CycloScalar, RowReducer
from .specfile import _Parser, _tokenize


@dataclass(frozen=True)
class VarRef:
    """Graded variable: identity is the (degree, index) pair."""

    degree: GroupElement
    index: int

    def sort_key(self):
        return (self.index, self.degree.exps)

    def __repr__(self):
        g = "e" if self.degree.is_identity else repr(self.degree)
        return f"x[{g},{self.index}]"


class GradedPolynomial:
    """Linear combination of words in graded variables, scalar coefficients.

    Terms map a nonempty tuple of VarRef to a nonzero scalar.  Coefficients
    are cyclotomic to allow commutation relations with root-of-unity factors;
    the text grammar only produces rational ones.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: FinAbGroup, terms: dict):
        norm = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if not mono:
                raise PreconditionError("graded polynomials have no constant term")
            for v in mono:
                if not isinstance(v, VarRef) or v.degree.group != group:
                    raise PreconditionError(f"variable {v} outside the grading group")
            c = CycloScalar.coerce(c, 1) if not isinstance(c, CycloScalar) else c
            if not c.is_zero():
                prev = norm.get(mono)
                norm[mono] = c if prev is None else prev + c
        self.group = group
        self.terms = {m: c for m, c in norm.items() if not c.is_zero()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, group: FinAbGroup) -> "GradedPolynomial":
        return cls(group, {})

    @classmethod
    def monomial(cls, group: FinAbGroup, varrefs, coeff=1) -> "GradedPolynomial":
        return cls(group, {tuple(varrefs): coeff})

    @classmethod
    def variable(cls, group: FinAbGroup, degree: GroupElement, index: int):
        return cls.monomial(group, (VarRef(degree, index),))

    # -- algebra ----------------------------------------------------------

    def _check(self, other):
        if other.group != self.group:
            raise PreconditionError("polynomials over different grading groups")

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
        return GradedPolynomial(self.group, out)

    def __neg__(self):
        return GradedPolynomial(self.group, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 + m2
                prod = c1 * c2
                prev = out.get(key)
                out[key] = prod if prev is None else prev + prod
        return GradedPolynomial(self.group, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "GradedPolynomial":
        s = CycloScalar.coerce(s, 1)
        return GradedPolynomial(self.group, {m: c * s for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "GradedPolynomial":
        if k < 1:
            raise PreconditionError("polynomial powers must be positive")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def commutator(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self * other - other * self

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.group == other.group and self.terms == other.terms

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    # -- queries ----------------------------------------------------------

    def variables(self) -> tuple[VarRef, ...]:
        seen = set()
        for m in self.terms:
            seen.update(m)
        return tuple(sorted(seen, key=VarRef.sort_key))

    def is_multilinear(self) -> bool:
        """Every monomial is a permutation of one common set of variables."""
        if not self.terms:
            return True
        ref = None
        for m in self.terms:
            s = frozenset(m)
            if len(s) != len(m):
                return False
            if ref is None:
                ref = s
            elif s != ref:
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), [v.sort_key() for v in m])):
            c = self.terms[m]
            word = "*".join(repr(v) for v in m)
            parts.append(f"({c!r})*{word}")
        return " + ".join(parts)


def theta_image(f: GradedPolynomial, theta: GroupHom) -> GradedPolynomial:
    """Push variable degrees through theta, keeping indices.

    Raises if two distinct variables would collide, which cannot happen for
    multilinear polynomials with distinct indices.
    """
    if theta.domain != f.group:
        raise PreconditionError("hom domain does not match the polynomial group")
    mapping = {v: VarRef(theta(v.degree), v.index) for v in f.variables()}
    images: dict[VarRef, list[VarRef]] = {}
    for v, w in mapping.items():
        images.setdefault(w, []).append(v)
    for w, vs in images.items():
        if len(vs) > 1:
            raise PreconditionError(f"variables {vs} collide under the hom")
    return GradedPolynomial(
        theta.codomain,
        {tuple(mapping[v] for v in m): c for m, c in f.terms.items()})


def evaluate(f: GradedPolynomial, assignment: dict, algebra: GradedAlgebra) -> AlgebraElement:
    """Evaluate f with AlgebraElement values; substitutions must respect degrees."""
    if f.group != algebra.group:
        raise PreconditionError("polynomial and algebra use different grading groups")
    values = {}
    for v in f.variables():
        if v not in assignment:
            raise InadmissibleSubstitution(f"no value for {v}")
        x = assignment[v]
        if not isinstance(x, AlgebraElement) or x.parent is not algebra:
            raise InadmissibleSubstitution(f"value for {v} is not in the algebra")
        if not x.is_zero() and x.degree() != v.degree:
            raise InadmissibleSubstitution(
                f"value for {v} is not homogeneous of degree {v.degree}")
        values[v] = x
    total = algebra.zero()
    for mono, c in f.terms.items():
        elt = values[mono[0]]
        for v in mono[1:]:
            if elt.is_zero():
                break
            elt = elt * values[v]
        total = total + elt.scale(c)
    return total


def _generic_coefficients(f: GradedPolynomial, a: GradedAlgebra):
    """Expand f at generic elements; coefficients by (basis index, lambda monomial).

    A lambda monomial is a sorted tuple of (variable, basis index) factors;
    the indeterminates commute, so sorting is canonical.
    """
    def lkey(pair):
        v, t = pair
        return (v.sort_key(), t)

    one = CycloScalar.one(a.conductor)
    total: dict = {}
    for mono, coeff in f.terms.items():
        state = None
        for v in mono:
            comp = a.component(v.degree)
            if state is None:
                state = {(t, ((v, t),)): one for t in comp}
            else:
                nxt: dict = {}
                for (k, lmon), c in state.items():
                    for t in comp:
                        entries = a.table.get((k, t))
                        if not entries:
                            continue
                        lm2 = tuple(sorted(lmon + ((v, t),), key=lkey))
                        for k2, s in entries:
                            key = (k2, lm2)
                            prev = nxt.get(key)
                            val = c * s
                            nxt[key] = val if prev is None else prev + val
                state = {k: c for k, c in nxt.items() if not c.is_zero()}
            if not state:
                break
        if not state:
            continue
        for key, c in state.items():
            prev = total.get(key)
            val = coeff * c
            total[key] = val if prev is None else prev + val
    return {k: c for k, c in total.items() if not c.is_zero()}


def is_identity(f: GradedPolynomial, a: GradedAlgebra) -> bool:
    """Does f vanish under every admissible substitution in a?"""
    if f.group != a.group:
        raise PreconditionError("polynomial and algebra use different grading groups")
    return not _generic_coefficients(f, a)


# -- multilinear identity spaces ------------------------------------------


def monomial_order(n: int) -> tuple[tuple[int, ...], ...]:
    """Column order for multilinear spaces: permutations of 0..n-1, lex."""
    return tuple(sorted(itertools.permutations(range(n))))


class IdentitySpace:
    """Multilinear identities at a fixed degree tuple, held by their image.

    image rows span the row space of the evaluation map over the lex-ordered
    permutation monomials, in canonical reduced row echelon form; the
    identities are the vectors orthogonal to every image row.  Two spaces at
    tuples of the same length agree exactly when their images do.  kernel,
    the identities' own canonical basis, is computed on first use.
    """

    __slots__ = ("degrees", "ncols", "image", "_kernel")

    def __init__(self, degrees: tuple[GroupElement, ...], image):
        self.degrees = tuple(degrees)
        self.ncols = math.factorial(len(self.degrees))
        self.image = tuple(image)
        self._kernel = None

    @property
    def nvars(self) -> int:
        return len(self.degrees)

    @property
    def dimension(self) -> int:
        return self.ncols - len(self.image)

    @property
    def kernel(self) -> tuple[tuple[Fraction, ...], ...]:
        """The identities' basis in canonical reduced row echelon form."""
        if self._kernel is None:
            reducer = RowReducer(self.ncols)
            for row in self.image:
                reducer.add(row)
            self._kernel = tuple(reducer.nullspace_rows())
        return self._kernel

    def monomials(self) -> tuple[tuple[int, ...], ...]:
        return monomial_order(self.nvars)

    def contains_vector(self, vec) -> bool:
        """Is vec (over the monomials) orthogonal to every image row?"""
        return not any(sum(x * y for x, y in zip(row, vec) if x)
                       for row in self.image)

    def coefficient_vector(self, f: GradedPolynomial) -> list[Fraction]:
        """Coefficients of f over the permutation monomials of this space."""
        expected = {VarRef(g, i + 1) for i, g in enumerate(self.degrees)}
        if set(f.variables()) - expected:
            raise PreconditionError("polynomial variables do not match the degree tuple")
        order = {m: i for i, m in enumerate(self.monomials())}
        vec = [Fraction(0)] * len(order)
        for mono, c in f.terms.items():
            if len(mono) != self.nvars or len(set(mono)) != len(mono):
                raise PreconditionError("polynomial is not multilinear in the tuple variables")
            perm = tuple(v.index - 1 for v in mono)
            if perm not in order:
                raise PreconditionError("monomial does not match the degree tuple")
            if not c.is_rational():
                raise PreconditionError("identity-space vectors use rational coefficients")
            vec[order[perm]] += c.as_fraction()
        return vec

    def contains(self, f: GradedPolynomial) -> bool:
        return self.contains_vector(self.coefficient_vector(f))

    def _polynomial(self, vec) -> GradedPolynomial:
        """The polynomial in variables x[g_i, i+1] with coefficients vec."""
        terms = {tuple(VarRef(self.degrees[p], p + 1) for p in perm): c
                 for perm, c in zip(self.monomials(), vec) if c}
        return GradedPolynomial(self.degrees[0].group, terms)

    def polynomials(self) -> list[GradedPolynomial]:
        """Basis of the space as polynomials in variables x[g_i, i+1]."""
        return [self._polynomial(row) for row in self.kernel]

    def __eq__(self, other):
        if not isinstance(other, IdentitySpace):
            return NotImplemented
        return self.nvars == other.nvars and self.image == other.image

    def __hash__(self):
        return hash((self.nvars, self.image))

    def __repr__(self):
        return f"IdentitySpace({self.degrees}, dim {self.dimension})"


def _word_product(products, words: dict, word: tuple) -> dict:
    """Integer coordinates of the product of the basis elements in `word`.

    Every word and every prefix is memoised in `words` under its tuple of
    basis indices, so a word spelled by several (substitution, permutation)
    pairs of one space is multiplied once and the permutations share their
    prefixes; a zero prefix makes every extension zero without further
    products.
    """
    vec = words.get(word)
    if vec is None:
        if len(word) == 1:
            vec = products.unit_vector(word[0])
        else:
            head = _word_product(products, words, word[:-1])
            vec = products.times(head, word[-1]) if head else head
        words[word] = vec
    return vec


def _substitution_basis(a: GradedAlgebra) -> dict:
    """Per degree, the basis indices that identity_space substitutes.

    Computed once per algebra from the table alone.  Basis element u
    reaches b when z*u = c*b for a basis element z of trivial degree that
    commutes with every basis element; each component keeps, in index
    order, every element not reached from one kept before it.  Centrality
    is tested only for a z that reaches some b other than u, so a unit
    alone in A_e costs one table row.
    """
    kept = a._substitutions
    if kept is None:
        table, degrees, n = a.table, a.degrees, a.dim
        reach: dict = {}
        for z in a.component(a.group.identity):
            edges = []
            for u in range(n):
                entries = table.get((z, u), ())
                if len(entries) == 1:
                    b = entries[0][0]
                    if b != u and degrees[b] == degrees[u]:
                        edges.append((u, b))
            if edges and all(table.get((z, x)) == table.get((x, z))
                             for x in range(n)):
                for u, b in edges:
                    reach.setdefault(u, set()).add(b)
        kept, covered = {}, set()
        for g, comp in a._components.items():
            keep = []
            for u in comp:
                if u in covered:
                    continue
                keep.append(u)
                todo = [u]
                while todo:
                    v = todo.pop()
                    if v not in covered:
                        covered.add(v)
                        todo.extend(reach.get(v, ()))
            kept[g] = tuple(keep)
        a._substitutions = kept
    return kept


def identity_space(a: GradedAlgebra, degrees) -> IdentitySpace:
    """All multilinear identities of a at the given degree tuple.

    The image is spanned by the evaluation rows of the substitutions of
    basis elements, but not every basis element need be substituted.  Let
    z be a basis element of trivial degree that is central (z*x = x*z for
    every basis x) and let z*u = c*b with c a nonzero scalar.  For
    multilinear f, f(..., b, ...) = c^-1 z f(..., u, ...), so every row of
    a substitution with b is a rational combination of the rows of the same
    substitution with u, and b is never substituted (`_substitution_basis`).
    On a Pauli or complex grading, where A_e holds a central i, this halves
    the substitutions per variable; the image is unchanged.
    """
    degrees = tuple(degrees)
    if not degrees:
        raise PreconditionError("degree tuple must be nonempty")
    for g in degrees:
        if g.group != a.group:
            raise PreconditionError(f"degree {g} outside the grading group")
    hit = a._mul_cache.get(degrees)
    if hit is not None:
        return hit
    kept = _substitution_basis(a)
    comps = [kept.get(g, ()) for g in degrees]
    if any(not c for c in comps):
        # a variable of an empty component vanishes: every polynomial is an
        # identity and the evaluation map is zero
        space = IdentitySpace(degrees, ())
    else:
        # Words are evaluated on the integer table, which scales each word of
        # length n by scale^(n-1): every row below is scaled by that same
        # nonzero factor, so the row space does not change.
        perms = monomial_order(len(degrees))
        ncols = len(perms)
        products = a.integer_products()
        words: dict = {}
        # a row equal to one added before is already in the row space
        added: set = set()
        reducer = RowReducer(ncols)
        for sub in itertools.product(*comps):
            rows: dict = {}
            for ci, perm in enumerate(perms):
                vec = _word_product(products, words, tuple(sub[p] for p in perm))
                for w, q in vec.items():
                    row = rows.get(w)
                    if row is None:
                        row = rows[w] = [0] * ncols
                    row[ci] = q
            for row in map(tuple, rows.values()):
                if row not in added:
                    added.add(row)
                    reducer.add(row)
            if reducer.rank == ncols:
                break
        space = IdentitySpace(degrees, reducer.sorted_rows())
    a._mul_cache[degrees] = space
    return space


# -- equivalence by brute force -------------------------------------------


@dataclass
class EquivalenceReport:
    equal: bool
    max_degree: int
    detail: str = ""
    witness: GradedPolynomial | None = None
    holds_in: str | None = None
    fails_in: str | None = None
    witness_substitution: dict | None = None


def _find_witness(space_small: IdentitySpace, space_big: IdentitySpace):
    """A kernel row of space_small outside space_big, as a polynomial, or None."""
    for row in space_small.kernel:
        if not space_big.contains_vector(row):
            return space_small._polynomial(row)
    return None


def _witness_substitution(f: GradedPolynomial, a: GradedAlgebra):
    variables = f.variables()
    comps = [a.component_basis(v.degree) for v in variables]
    for choice in itertools.product(*comps):
        assignment = dict(zip(variables, choice))
        if not evaluate(f, assignment, a).is_zero():
            return {v: a.labels[next(iter(x.coeffs))] for v, x in assignment.items()}
    return None


def same_identities_up_to(a: GradedAlgebra, b: GradedAlgebra, max_degree: int = 4,
                          names: tuple[str, str] = ("A", "B")) -> EquivalenceReport:
    """Compare multilinear identity spaces at all degree tuples up to max_degree.

    Degree tuples run over multisets drawn from the union of the supports;
    variables of trivial degree-component vanish identically, so tuples that
    meet neither support are skipped.
    """
    if a.group != b.group:
        raise PreconditionError("algebras graded by different groups")
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    supp_a, supp_b = set(a.support()), set(b.support())
    for g in sorted(supp_a - supp_b):
        f = GradedPolynomial.variable(a.group, g, 1)
        return EquivalenceReport(
            False, max_degree,
            detail=f"degree {g} supports {names[0]} only",
            witness=f, holds_in=names[1], fails_in=names[0],
            witness_substitution=_witness_substitution(f, a))
    for g in sorted(supp_b - supp_a):
        f = GradedPolynomial.variable(a.group, g, 1)
        return EquivalenceReport(
            False, max_degree,
            detail=f"degree {g} supports {names[1]} only",
            witness=f, holds_in=names[0], fails_in=names[1],
            witness_substitution=_witness_substitution(f, b))
    degrees_pool = sorted(supp_a)
    checked = 0
    for size in range(1, max_degree + 1):
        for multiset in itertools.combinations_with_replacement(degrees_pool, size):
            sa = identity_space(a, multiset)
            sb = identity_space(b, multiset)
            checked += 1
            if sa == sb:
                continue
            f = _find_witness(sa, sb)
            if f is not None:
                return EquivalenceReport(
                    False, max_degree,
                    detail=f"identity spaces differ at degree tuple {multiset}",
                    witness=f, holds_in=names[0], fails_in=names[1],
                    witness_substitution=_witness_substitution(f, b))
            f = _find_witness(sb, sa)
            if f is None:
                raise InvariantViolation(
                    f"identity spaces at degree tuple {multiset} compare "
                    f"unequal but neither lacks an identity of the other")
            return EquivalenceReport(
                False, max_degree,
                detail=f"identity spaces differ at degree tuple {multiset}",
                witness=f, holds_in=names[1], fails_in=names[0],
                witness_substitution=_witness_substitution(f, a))
    return EquivalenceReport(
        True, max_degree,
        detail=f"identity spaces agree at all {checked} degree tuples "
               f"of size 1..{max_degree}")


# -- text grammar -----------------------------------------------------------


class _PolyParser(_Parser):
    """Recursive descent for the polynomial grammar, on spec-file tokens.

    poly   := term (('+' | '-') term)*
    term   := '-'* factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := INT ('/' int)? | VAR '[' element ',' int ']'
            | '[' poly ',' poly ']' | '(' poly ')'

    `element` and `int` (an INT with an optional '-') are the spec-file rules.
    A variable is its (degree, index) pair; one text names each pair with
    one letter.
    """

    def __init__(self, text: str, group: FinAbGroup):
        super().__init__(_tokenize(text))
        self.group = group
        self.letters: dict = {}  # (degree, index) -> the letter first used

    def raise_at(self, message: str, tok):
        raise PolynomialSyntaxError(message, pos=tok.pos)

    def parse_poly(self) -> GradedPolynomial:
        total = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            if self.next().value == "+":
                total = total + self.parse_term()
            else:
                total = total - self.parse_term()
        return total

    def parse_term(self) -> GradedPolynomial:
        scalar, poly = Fraction(1), None
        while self.at_punct("-"):
            self.next()
            scalar = -scalar
        factors = [self.parse_factor()]
        while self.at_punct("*"):
            self.next()
            factors.append(self.parse_factor())
        for f in factors:
            if isinstance(f, Fraction):
                scalar *= f
            else:
                poly = f if poly is None else poly * f
        if poly is None:
            if scalar == 0:
                return GradedPolynomial.zero(self.group)
            self.error("a term needs at least one variable (no constant terms)")
        return poly.scale(scalar)

    def parse_factor(self):
        atom = self.parse_atom()
        if self.at_punct("^"):
            self.next()
            t = self.peek()
            k = self.parse_int()
            if k < 1:
                self.error("exponent must be a positive integer", t)
            return atom ** k
        return atom

    def parse_atom(self):
        if self.at_punct("("):
            self.next()
            p = self.parse_poly()
            self.expect_punct(")")
            return p
        if self.at_punct("["):
            self.next()
            left = self.parse_poly()
            self.expect_punct(",")
            right = self.parse_poly()
            self.expect_punct("]")
            return left.commutator(right)
        t = self.peek()
        if t.kind == "int":
            num = self.parse_int()
            if not self.at_punct("/"):
                return Fraction(num)
            self.next()
            d = self.peek()
            den = self.parse_int()
            if den == 0:
                self.error("zero denominator", d)
            return Fraction(num, den)
        if t.kind == "ident":
            return self.parse_varref()
        self.error("expected a scalar, a variable, a commutator, or parentheses")

    def parse_varref(self) -> GradedPolynomial:
        name = self.next()
        if name.value == "e":
            self.error("'e' denotes the trivial degree, not a variable", name)
        self.expect_punct("[")
        g = self.parse_element(self.group)
        self.expect_punct(",")
        t = self.peek()
        idx = self.parse_int()
        if idx < 1:
            self.error("variable index must be a positive integer", t)
        self.expect_punct("]")
        first = self.letters.setdefault((g, idx), name.value)
        if first != name.value:
            d = "e" if g.is_identity else repr(g)
            self.error(f"variable [{d},{idx}] is already named {first!r}", name)
        return GradedPolynomial.variable(self.group, g, idx)


def parse_polynomial(text: str, group: FinAbGroup) -> GradedPolynomial:
    p = _PolyParser(text, group)
    out = p.parse_poly()
    p.expect_eof()
    return out
