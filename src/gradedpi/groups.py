"""Finite abelian groups presented as products of cyclic factors.

Elements are exponent tuples reduced modulo the factor orders; the canonical
element order is lexicographic on exponent vectors and is used everywhere a
deterministic enumeration is needed (component listings, coset representatives,
degree multiset representatives).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import PreconditionError


class FinAbGroup:
    """Z_{n1} x ... x Z_{nk}; the empty product is the trivial group."""

    __slots__ = ("orders", "_elements")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise PreconditionError("cyclic factor orders must be >= 1")
        self.orders = orders
        self._elements = None

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.orders))

    def element(self, exponents) -> "GroupElement":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != len(self.orders):
            raise PreconditionError(
                f"element needs {len(self.orders)} exponents, got {len(exps)}")
        return GroupElement(self, tuple(e % n for e, n in zip(exps, self.orders)))

    def elements(self) -> tuple["GroupElement", ...]:
        if self._elements is None:
            self._elements = tuple(
                GroupElement(self, exps)
                for exps in itertools.product(*(range(n) for n in self.orders)))
        return self._elements

    def generators(self) -> tuple["GroupElement", ...]:
        gens = []
        for i in range(len(self.orders)):
            exps = [0] * len(self.orders)
            exps[i] = 1
            gens.append(GroupElement(self, tuple(exps)))
        return tuple(gens)

    def __eq__(self, other):
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        if not self.orders:
            return "Z1"
        return " x ".join(f"Z{n}" for n in self.orders)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    exps: tuple[int, ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise PreconditionError("group mismatch in element product")
        return GroupElement(self.group, tuple(
            (a + b) % n for a, b, n in zip(self.exps, other.exps, self.group.orders)))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(
            (-a) % n for a, n in zip(self.exps, self.group.orders)))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(
            (a * k) % n for a, n in zip(self.exps, self.group.orders)))

    def order(self) -> int:
        result = 1
        for a, n in zip(self.exps, self.group.orders):
            result = result * (n // gcd(a, n)) // gcd(result, n // gcd(a, n))
        return result

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.exps)

    def __hash__(self):
        # equality still compares the group; elements of two groups with equal
        # exponents share a hash but stay unequal
        return hash(self.exps)

    def __lt__(self, other: "GroupElement") -> bool:
        return self.exps < other.exps

    def __repr__(self):
        if not self.exps:
            return "()"
        return "(" + ",".join(str(a) for a in self.exps) + ")"


class Subgroup:
    """A subgroup of a FinAbGroup, stored as its sorted element tuple."""

    __slots__ = ("parent", "elements", "_set")

    def __init__(self, parent: FinAbGroup, elements):
        elems = sorted(set(elements))
        if not elems:
            raise PreconditionError("subgroup cannot be empty")
        eset = set(elems)
        for g in elems:
            if g.group != parent:
                raise PreconditionError("subgroup element from wrong group")
            if g.inverse() not in eset:
                raise PreconditionError(f"subgroup not closed under inverse at {g}")
        for g in elems:
            for h in elems:
                if g * h not in eset:
                    raise PreconditionError(f"subgroup not closed at {g}*{h}")
        self.parent = parent
        self.elements = tuple(elems)
        self._set = frozenset(elems)

    @classmethod
    def generated_by(cls, parent: FinAbGroup, generators) -> "Subgroup":
        generators = list(generators)
        for g in generators:
            if g.group != parent:
                raise PreconditionError("generator from wrong group")
        return cls(parent, _closure(lambda x, y: x * y, parent.identity,
                                    generators))

    @classmethod
    def trivial(cls, parent: FinAbGroup) -> "Subgroup":
        return cls(parent, [parent.identity])

    @classmethod
    def full(cls, parent: FinAbGroup) -> "Subgroup":
        return cls(parent, parent.elements())

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self._set & other._set)

    def product(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, {g * h for g in self for h in other})

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.elements == other.elements

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __repr__(self):
        return "{" + ", ".join(repr(g) for g in self.elements) + "}"


class GroupHom:
    """Homomorphism determined by images of the domain's cyclic generators."""

    __slots__ = ("domain", "codomain", "generator_images")

    def __init__(self, domain: FinAbGroup, codomain: FinAbGroup, generator_images):
        images = tuple(generator_images)
        if len(images) != domain.rank:
            raise PreconditionError(
                f"need {domain.rank} generator images, got {len(images)}")
        for img, n in zip(images, domain.orders):
            if img.group != codomain:
                raise PreconditionError("generator image lies in the wrong group")
            if not (img ** n).is_identity:
                raise PreconditionError(
                    f"image {img} has order not dividing generator order {n}")
        self.domain = domain
        self.codomain = codomain
        self.generator_images = images

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.group != self.domain:
            raise PreconditionError("element outside hom domain")
        out = self.codomain.identity
        for e, img in zip(g.exps, self.generator_images):
            if e:
                out = out * (img ** e)
        return out

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain,
                        [g for g in self.domain.elements() if self(g).is_identity])

    def image(self) -> Subgroup:
        return Subgroup(self.codomain, {self(g) for g in self.domain.elements()})

    def is_injective(self) -> bool:
        return self.kernel().order == 1

    def __eq__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (self.domain, self.codomain, self.generator_images) == \
            (other.domain, other.codomain, other.generator_images)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.generator_images))

    def __repr__(self):
        return f"GroupHom({self.domain} -> {self.codomain}, {list(self.generator_images)})"


def make_group(orders) -> FinAbGroup:
    return FinAbGroup(orders)


def make_hom(domain: FinAbGroup, codomain: FinAbGroup, generator_images) -> GroupHom:
    images = [codomain.element(i) if not isinstance(i, GroupElement) else i
              for i in generator_images]
    return GroupHom(domain, codomain, images)


def squares_subgroup(g) -> Subgroup:
    """{x^2} of a FinAbGroup or of a Subgroup (inside the same parent)."""
    if isinstance(g, Subgroup):
        return Subgroup(g.parent, {x * x for x in g})
    return Subgroup(g, {x * x for x in g.elements()})


def is_elementary_2group(g) -> bool:
    elems = g.elements() if isinstance(g, FinAbGroup) else g.elements
    return all((x * x).is_identity for x in elems)


class CosetDecomposition:
    """Cosets of H in G with lexicographically minimal representatives."""

    __slots__ = ("group", "subgroup", "reps", "_rep_of")

    def __init__(self, group: FinAbGroup, subgroup: Subgroup):
        if subgroup.parent != group:
            raise PreconditionError("subgroup of a different group")
        rep_of = {}
        reps = []
        for g in group.elements():  # canonical order, so reps are minimal
            if g not in rep_of:
                reps.append(g)
                for h in subgroup:
                    rep_of[g * h] = g
        self.group = group
        self.subgroup = subgroup
        self.reps = tuple(reps)
        self._rep_of = rep_of

    def rep_of(self, g: GroupElement) -> GroupElement:
        return self._rep_of[g]

    def __len__(self):
        return len(self.reps)


def cosets(group: FinAbGroup, subgroup: Subgroup) -> CosetDecomposition:
    return CosetDecomposition(group, subgroup)


def _order_in(elems_mul, g, identity):
    k, cur = 1, g
    while cur != identity:
        cur = elems_mul(cur, g)
        k += 1
    return k


def _closure(mul, identity, gens):
    out = {identity}
    frontier = list(gens)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for g in frontier:
                p = mul(x, g)
                if p not in out:
                    out.add(p)
                    changed = True
    return out


def decompose_abelian(elements, mul, identity, prefer_first=None):
    """Cyclic decomposition of an explicit finite abelian group.

    Returns (orders, generators) with the group equal to the direct product of
    the cyclic subgroups the generators span, orders listed in the chosen
    order.  Deterministic: maximal-order generator first (ties by canonical
    element order), complement chosen as the closure with minimal sorted
    element tuple.  `prefer_first` forces a particular first generator (it
    must have maximal order).
    """
    elems = sorted(elements)
    if len(elems) == 1:
        return [], []
    orders = {g: _order_in(mul, g, identity) for g in elems}
    max_ord = max(orders.values())
    if prefer_first is not None:
        g1 = prefer_first
        if orders[g1] != max_ord:
            raise PreconditionError("preferred generator does not have maximal order")
    else:
        g1 = min(g for g in elems if orders[g] == max_ord)
    n1 = orders[g1]
    if n1 == len(elems):
        return [n1], [g1]
    cyc = _closure(mul, identity, [g1])
    target = len(elems) // n1
    # search complements among closures of small generator sets
    best = None
    max_gens = 1
    while 2 ** max_gens < target:
        max_gens += 1
    nontriv = [g for g in elems if g != identity]
    for size in range(1, max_gens + 1):
        for gens in itertools.combinations(nontriv, size):
            c = _closure(mul, identity, gens)
            if len(c) == target and len(c & cyc) == 1:
                key = tuple(sorted(c))
                if best is None or key < best[0]:
                    best = (key, c)
        if best is not None:
            break
    if best is None:
        raise PreconditionError("no complement found; group not abelian?")
    sub_orders, sub_gens = decompose_abelian(best[1], mul, identity)
    return [n1] + sub_orders, [g1] + sub_gens


def subgroup_as_group(s: Subgroup, prefer_first=None):
    """Present a subgroup abstractly: (K, embed) with embed : K -> parent injective."""
    mul = lambda a, b: a * b
    orders, gens = decompose_abelian(s.elements, mul, s.parent.identity,
                                     prefer_first=prefer_first)
    k = FinAbGroup(orders)
    embed = GroupHom(k, s.parent, tuple(gens))
    return k, embed


def quotient_hom(group: FinAbGroup, subgroup: Subgroup) -> GroupHom:
    """The projection G -> G/H with G/H presented as a FinAbGroup."""
    dec = CosetDecomposition(group, subgroup)
    mul = lambda a, b: dec.rep_of(a * b)
    orders, gens = decompose_abelian(dec.reps, mul, dec.rep_of(group.identity))
    k = FinAbGroup(orders)
    # exponent vector of every coset rep, by enumerating generator powers
    vec_of = {}
    for exps in itertools.product(*(range(n) for n in orders)):
        cur = dec.rep_of(group.identity)
        for g, e in zip(gens, exps):
            for _ in range(e):
                cur = mul(cur, g)
        vec_of.setdefault(cur, k.element(exps))
    if len(vec_of) != len(dec.reps):  # pragma: no cover - decomposition guarantees this
        raise PreconditionError("quotient decomposition failed to cover all cosets")
    images = [vec_of[dec.rep_of(g)] for g in group.generators()]
    return GroupHom(group, k, images)
