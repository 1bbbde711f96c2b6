"""Text format for graded algebras, and combinator expressions over it.

Base format, one algebra per file (``#`` starts a comment, blank lines and
line order are free, missing ``mul`` lines mean zero products):

    group Z2 x Z2
    conductor 4
    basis one i j k
    deg one = (0,0)
    deg i   = (1,0)
    mul i j = 1*k
    unit = 1*one

A base-format table is checked (`validate`) as it becomes an algebra,
whether it comes as a whole text, from ``file:`` or from a nested
``file(...)``; an inconsistent table raises PreconditionError.

Scalars are rationals ``p/q``, roots of unity ``zeta(M,k)``, and their
parenthesized sums and products.  Group elements are exponent tuples
``(1,0)`` (``e`` is the identity; a bare integer works for rank one), and
each exponent may carry a ``-``.

Combinator expressions name the constructions instead:

    catalog(H4)                 catalog(pauli(3,1))
    trivial(Z2)                 file("other.galg")
    tensor(A, B, into=Z2 x Z2, embedA=[(1,0)], embedB=[(0,1)])
    quotient(A, into=Z2, images=[(0),(1)])
    regrade(A, into=Z4, images=[(2)])
    matrix(D=A, H=[(2)], tuple=[(0),(1)])

Homomorphisms are given by the images of the domain's canonical generators,
in order.  ``H`` lists generators of the subgroup; ``matrix`` builds the
elementary grading on M_n(D) from the triple (H, D, tuple).

The tokenizer, group elements and integers here also serve degree tuples
(`parse_degree_tuple`, ``(1,0),(0,1)``) and graded polynomials
(`gradedpi.identities.parse_polynomial`, ``2*x[1,1]^2 - [x[e,1],y[-1,2]]``).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import lcm

from .algebras import (GradedAlgebra, TripleSpec, catalog,
                       matrix_over_division, quotient_grading, regrade,
                       tensor_product, trivially_graded_reals, validate)
from .errors import PreconditionError, SpecFormatError
from .groups import FinAbGroup, GroupElement, Subgroup, make_group, make_hom
from .scalars import CycloScalar

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<string>"[^"\n]*")
  | (?P<int>\d+)
  | (?P<ident>[^\W\d]\w*)
  | (?P<punct>[()\[\],=*+\-/^])
""", re.VERBOSE)

_LINE_KEYWORDS = ("group", "conductor", "basis", "deg", "mul", "unit")


class _Tok:
    __slots__ = ("kind", "value", "line", "col", "pos")

    def __init__(self, kind, value, line, col, pos):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    # An unexpected character ends the list as a "bad" token, not "eof".
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            toks.append(_Tok("bad", text[pos], line, col, pos))
            return toks
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            toks.append(_Tok("nl", value, line, col, pos))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(_Tok(kind, value, line, col, pos))
            col += len(value)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col, pos))
    return toks


class _Parser:
    """Recursive descent over the token list; file() recursion is bounded."""

    def __init__(self, toks: list[_Tok], base_dir: str = ".", depth: int = 0):
        self.toks = [t for t in toks if t.kind != "nl"]
        self.i = 0
        self.base_dir = base_dir
        self.depth = depth
        last = self.toks[-1]
        if last.kind == "bad":
            self.raise_at(f"unexpected character {last.value!r}", last)

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message: str, tok: _Tok | None = None):
        t = tok or self.peek()
        at = f" near {t.value!r}" if t.kind != "eof" else " at end of input"
        self.raise_at(message + at, t)

    def raise_at(self, message: str, tok: _Tok):
        raise SpecFormatError(message, tok.line, tok.col)

    def expect_punct(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind != "punct" or t.value != ch:
            self.error(f"expected {ch!r}")
        return self.next()

    def expect_ident(self, what="identifier") -> _Tok:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}")
        return self.next()

    def at_punct(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.value == ch

    # -- shared literals --

    def parse_group_literal(self) -> FinAbGroup:
        orders = [self._cyclic_order()]
        while self.peek().kind == "ident" and self.peek().value == "x":
            self.next()
            orders.append(self._cyclic_order())
        if orders == [1]:
            return make_group((1,))
        return make_group(tuple(orders))

    def _cyclic_order(self) -> int:
        t = self.expect_ident("group factor like Z4")
        m = re.fullmatch(r"Z(\d+)", t.value)
        if m is None or int(m.group(1)) < 1:
            self.error("expected a cyclic factor like Z4", t)
        return int(m.group(1))

    def parse_element(self, group: FinAbGroup) -> GroupElement:
        t = self.peek()
        if t.kind == "ident" and t.value == "e":
            self.next()
            return group.identity
        if t.kind == "int" or self.at_punct("-"):
            if group.rank != 1:
                self.error(f"bare exponent needs a rank-1 group, "
                           f"got rank {group.rank}", t)
            return group.element((self.parse_int(),))
        if self.at_punct("("):
            self.next()
            exps = [self.parse_int()]
            while self.at_punct(","):
                self.next()
                exps.append(self.parse_int())
            self.expect_punct(")")
            if len(exps) != group.rank:
                self.error(f"element rank {len(exps)} does not match group "
                           f"rank {group.rank}", t)
            return group.element(tuple(exps))
        self.error("expected a group element")

    def parse_int(self) -> int:  # an INT with an optional leading '-'
        if self.at_punct("-"):
            self.next()
            return -self._int_signless()
        return self._int_signless()

    def _int_signless(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.error("expected an integer")
        self.next()
        return int(t.value)

    def parse_elements(self, group: FinAbGroup) -> list[GroupElement]:
        out = [self.parse_element(group)]
        while self.at_punct(","):
            self.next()
            out.append(self.parse_element(group))
        return out

    def parse_element_list(self, group: FinAbGroup) -> list[GroupElement]:
        self.expect_punct("[")
        out = self.parse_elements(group)
        self.expect_punct("]")
        return out

    # -- scalar literals --

    def parse_scalar(self) -> CycloScalar:
        value = self.parse_scalar_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next().value
            term = self.parse_scalar_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_scalar_term(self) -> CycloScalar:
        value = self.parse_scalar_factor()
        while self.at_punct("*") and self._factor_follows(self.i + 1):
            self.next()
            value = value * self.parse_scalar_factor()
        return value

    def _factor_follows(self, i: int) -> bool:
        t = self.toks[i]
        if t.kind == "int":
            return True
        if t.kind == "ident" and t.value == "zeta":
            return True
        return t.kind == "punct" and t.value in ("(", "-")

    def parse_scalar_factor(self) -> CycloScalar:
        t = self.peek()
        if t.kind == "punct" and t.value == "-":
            self.next()
            return -self.parse_scalar_factor()
        if t.kind == "int":
            self.next()
            num = int(t.value)
            if self.at_punct("/"):
                self.next()
                d = self._int_signless()
                if d == 0:
                    self.error("zero denominator", t)
                return CycloScalar.rational(Fraction(num, d), 1)
            return CycloScalar.rational(Fraction(num), 1)
        if t.kind == "ident" and t.value == "zeta":
            self.next()
            self.expect_punct("(")
            order = self._int_signless()
            self.expect_punct(",")
            power = self.parse_int()
            self.expect_punct(")")
            if order < 1:
                self.error("zeta order must be positive", t)
            return CycloScalar.root_of_unity(order, power)
        if t.kind == "punct" and t.value == "(":
            self.next()
            value = self.parse_scalar()
            self.expect_punct(")")
            return value
        self.error("expected a scalar")

    # -- combinator expressions --

    def parse_expr(self) -> GradedAlgebra:
        t = self.expect_ident("a combinator name")
        name = t.value
        if name == "matrix":
            spec = self._parse_matrix_args(t)
            return matrix_over_division(spec)
        if name == "catalog":
            self.expect_punct("(")
            out = self._parse_catalog_ref()
            self.expect_punct(")")
            return out
        if name == "trivial":
            self.expect_punct("(")
            group = self.parse_group_literal()
            self.expect_punct(")")
            return trivially_graded_reals(group)
        if name == "file":
            self.expect_punct("(")
            s = self.peek()
            if s.kind != "string":
                self.error("file() expects a quoted path")
            self.next()
            self.expect_punct(")")
            return self._load_file(s.value[1:-1], s)
        if name == "tensor":
            return self._parse_tensor(t)
        if name in ("quotient", "regrade"):
            return self._parse_remap(name, t)
        self.error("unknown combinator", t)

    def _parse_catalog_ref(self) -> GradedAlgebra:
        t = self.expect_ident("a catalog name")
        params = []
        if self.at_punct("("):
            self.next()
            params.append(self._int_signless())
            while self.at_punct(","):
                self.next()
                params.append(self._int_signless())
            self.expect_punct(")")
        return catalog(t.value, *params)

    def _load_file(self, path: str, tok: _Tok) -> GradedAlgebra:
        if self.depth >= 16:
            self.error("file() nesting too deep", tok)
        full = path if os.path.isabs(path) else os.path.join(self.base_dir, path)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            self.error(f"cannot read {path!r}: {err.strerror}", tok)
        return parse_algebra(text, base_dir=os.path.dirname(full) or ".",
                             _depth=self.depth + 1)

    def _parse_tensor(self, t0: _Tok) -> GradedAlgebra:
        self.expect_punct("(")
        left = self.parse_expr()
        self.expect_punct(",")
        right = self.parse_expr()
        seen = {}
        while self.at_punct(","):
            self.next()
            key = self.expect_ident("keyword").value
            self.expect_punct("=")
            if key == "into":
                seen["into"] = self.parse_group_literal()
            elif key in ("embedA", "embedB"):
                if "into" not in seen:
                    self.error("into= must come before the embeddings", t0)
                seen[key] = self.parse_element_list(seen["into"])
            else:
                self.error(f"unknown tensor keyword {key!r}")
        self.expect_punct(")")
        for key in ("into", "embedA", "embedB"):
            if key not in seen:
                self.error(f"tensor() needs {key}=", t0)
        g = seen["into"]
        return tensor_product(left, right, g,
                              make_hom(left.group, g, seen["embedA"]),
                              make_hom(right.group, g, seen["embedB"]))

    def _parse_remap(self, name: str, t0: _Tok) -> GradedAlgebra:
        self.expect_punct("(")
        inner = self.parse_expr()
        seen = {}
        while self.at_punct(","):
            self.next()
            key = self.expect_ident("keyword").value
            self.expect_punct("=")
            if key == "into":
                seen["into"] = self.parse_group_literal()
            elif key == "images":
                if "into" not in seen:
                    self.error("into= must come before images=", t0)
                seen["images"] = self.parse_element_list(seen["into"])
            else:
                self.error(f"unknown {name} keyword {key!r}")
        self.expect_punct(")")
        for key in ("into", "images"):
            if key not in seen:
                self.error(f"{name}() needs {key}=", t0)
        hom = make_hom(inner.group, seen["into"], seen["images"])
        if name == "quotient":
            return quotient_grading(inner, hom)
        return regrade(inner, hom)

    def _parse_matrix_args(self, t0: _Tok) -> TripleSpec:
        self.expect_punct("(")
        division = None
        h_elems = None
        g_tuple = None
        first = True
        while first or self.at_punct(","):
            if not first:
                self.next()
            first = False
            key = self.expect_ident("keyword").value
            self.expect_punct("=")
            if key == "D":
                division = self.parse_expr()
            elif key == "H":
                if division is None:
                    self.error("D= must come before H=", t0)
                h_elems = self.parse_element_list(division.group)
            elif key == "tuple":
                if division is None:
                    self.error("D= must come before tuple=", t0)
                g_tuple = self.parse_element_list(division.group)
            else:
                self.error(f"unknown matrix keyword {key!r}")
        self.expect_punct(")")
        if division is None or h_elems is None or g_tuple is None:
            self.error("matrix() needs D=, H= and tuple=", t0)
        h = Subgroup.generated_by(division.group, h_elems)
        return TripleSpec(h, division, tuple(g_tuple))

    def parse_triple(self) -> TripleSpec:
        t = self.expect_ident("matrix(...)")
        if t.value != "matrix":
            self.error("a triple must be written as matrix(D=..., H=..., "
                       "tuple=...)", t)
        return self._parse_matrix_args(t)

    def expect_eof(self):
        if self.peek().kind != "eof":
            self.error("trailing input")


# -- the line-oriented base format --------------------------------------------


def _parse_base_format(toks: list[_Tok]) -> GradedAlgebra:
    group = None
    conductor = None
    labels: list[str] = []
    label_line: dict[str, _Tok] = {}
    degs: dict[str, GroupElement] = {}
    muls: dict[tuple[str, str], list] = {}
    unit = None

    start = 0
    for i, end in enumerate(toks):
        if end.kind not in ("nl", "eof"):
            continue
        line = toks[start:i]
        start = i + 1
        if not line:
            continue
        head = line[0]
        if head.kind != "ident" or head.value not in _LINE_KEYWORDS:
            raise SpecFormatError(
                f"expected one of {', '.join(_LINE_KEYWORDS)} near "
                f"{head.value!r}", head.line, head.col)
        p = _Parser(line + [_Tok("eof", "", end.line, end.col, end.pos)])
        p.next()  # the keyword
        if head.value == "group":
            if group is not None:
                p.error("duplicate group line", head)
            group = p.parse_group_literal()
        elif head.value == "conductor":
            if conductor is not None:
                p.error("duplicate conductor line", head)
            conductor = p._int_signless()
            if conductor < 1:
                p.error("conductor must be positive", head)
        elif head.value == "basis":
            while p.peek().kind == "ident":
                t = p.next()
                if t.value in label_line:
                    p.error(f"duplicate basis label {t.value!r}", t)
                label_line[t.value] = t
                labels.append(t.value)
        elif head.value == "deg":
            t = p.expect_ident("basis label")
            if t.value not in label_line:
                p.error(f"unknown basis label {t.value!r}", t)
            if t.value in degs:
                p.error(f"duplicate deg line for {t.value!r}", t)
            p.expect_punct("=")
            if group is None:
                p.error("group line must come before deg lines", head)
            degs[t.value] = p.parse_element(group)
        elif head.value == "mul":
            ti = p.expect_ident("basis label")
            tj = p.expect_ident("basis label")
            for t in (ti, tj):
                if t.value not in label_line:
                    p.error(f"unknown basis label {t.value!r}", t)
            if (ti.value, tj.value) in muls:
                p.error(f"duplicate mul line for {ti.value} {tj.value}", ti)
            p.expect_punct("=")
            muls[(ti.value, tj.value)] = _parse_combination(p, label_line)
        else:  # unit
            if unit is not None:
                p.error("duplicate unit line", head)
            p.expect_punct("=")
            unit = _parse_combination(p, label_line)
        p.expect_eof()

    if group is None:
        raise SpecFormatError("missing group line", 1, 1)
    if not labels:
        raise SpecFormatError("missing basis line", 1, 1)
    if unit is None:
        raise SpecFormatError("missing unit line", 1, 1)
    for lab in labels:
        if lab not in degs:
            t = label_line[lab]
            raise SpecFormatError(f"missing deg line for {lab!r}", t.line, t.col)

    index = {lab: i for i, lab in enumerate(labels)}
    if conductor is None:
        conductor = lcm(*(c.conductor for combo in [*muls.values(), unit]
                          for c, _ in combo))
    table = {}
    for (li, lj), combo in muls.items():
        acc: dict[int, CycloScalar] = {}
        for c, lab in combo:
            k = index[lab]
            acc[k] = acc.get(k, CycloScalar.zero(c.conductor)) + c
        entries = tuple((k, c) for k, c in sorted(acc.items()) if not c.is_zero())
        if entries:
            table[(index[li], index[lj])] = entries
    unit_map: dict[int, CycloScalar] = {}
    for c, lab in unit:
        k = index[lab]
        unit_map[k] = unit_map.get(k, CycloScalar.zero(c.conductor)) + c
    unit_map = {k: c for k, c in unit_map.items() if not c.is_zero()}
    degrees = tuple(degs[lab] for lab in labels)
    return GradedAlgebra(group, conductor, tuple(labels), degrees, table,
                         unit_map)


def _parse_combination(p: _Parser, label_line) -> list:
    """scalar*label (+ scalar*label)* — the right side of mul/unit lines.

    Coefficients are scalar products; sums inside a coefficient need
    parentheses so that '+' separates combination terms.
    """
    out = []
    while True:
        c = p.parse_scalar_term()
        p.expect_punct("*")
        t = p.expect_ident("basis label")
        if t.value not in label_line:
            p.error(f"unknown basis label {t.value!r}", t)
        out.append((c, t.value))
        if p.at_punct("+"):
            p.next()
            continue
        return out


# -- entry points --------------------------------------------------------------


def parse_algebra(text: str, base_dir: str = ".", _depth: int = 0) -> GradedAlgebra:
    """Parse either the base format or a combinator expression."""
    toks = _tokenize(text)
    p = _Parser(toks, base_dir=base_dir, depth=_depth)
    head = p.peek()
    if head.kind == "eof":
        raise SpecFormatError("empty algebra description", 1, 1)
    if head.kind == "ident" and head.value in _LINE_KEYWORDS:
        a = _parse_base_format(toks)
        rep = validate(a)
        if not rep.ok:
            raise PreconditionError(
                f"algebra table is inconsistent: {rep.failures[0]}")
        return a
    out = p.parse_expr()
    p.expect_eof()
    return out


def parse_triple(text: str, base_dir: str = ".") -> TripleSpec:
    """Parse a matrix(D=..., H=..., tuple=...) expression to its triple."""
    p = _Parser(_tokenize(text), base_dir=base_dir)
    out = p.parse_triple()
    p.expect_eof()
    return out


def parse_degree_tuple(text: str, group: FinAbGroup) -> tuple[GroupElement, ...]:
    """Parse comma-separated group elements, such as ``(1,0),(0,1)``."""
    p = _Parser(_tokenize(text))
    out = p.parse_elements(group)
    p.expect_eof()
    return tuple(out)


def load_algebra_file(path: str) -> GradedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_algebra(text, base_dir=os.path.dirname(path) or ".")


# -- canonical emission ---------------------------------------------------------


def format_group(group: FinAbGroup) -> str:
    if group.rank == 0:
        return "Z1"
    return " x ".join(f"Z{n}" for n in group.orders)


def format_element(g: GroupElement) -> str:
    if not g.exps:
        return "e"
    return "(" + ",".join(str(x) for x in g.exps) + ")"


def format_scalar(s: CycloScalar) -> str:
    s = s.reduced()
    terms = []
    for k, q in enumerate(s.coeffs):
        if not q:
            continue
        if k == 0:
            terms.append(str(q))
        else:
            terms.append(f"{q}*zeta({s.conductor},{k})")
    return " + ".join(terms) if terms else "0"


def _safe_labels(labels) -> list[str]:
    used = set()
    out = []
    for i, lab in enumerate(labels):
        cand = lab if _IDENT.fullmatch(lab) else f"b{i}"
        if cand in used:
            cand = f"b{i}"
            j = 2
            while cand in used:
                cand = f"b{i}_{j}"
                j += 1
        used.add(cand)
        out.append(cand)
    return out


def _coefficient_text(c: CycloScalar) -> str:
    # multi-term scalars need parentheses: '+' separates combination terms
    text = format_scalar(c)
    return f"({text})" if " + " in text else text


def serialize_algebra(a: GradedAlgebra) -> str:
    """Canonical base-format text; deterministic for equal algebras.

    An algebra has few distinct constants, so each is formatted (and
    reduced) once: equal values at one conductor have equal (num, den).
    """
    labels = _safe_labels(a.labels)
    texts = {}

    def term(c: CycloScalar, k: int) -> str:
        key = (c.conductor, c.num, c.den)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _coefficient_text(c)
        return f"{text}*{labels[k]}"

    lines = [f"group {format_group(a.group)}",
             f"conductor {a.conductor}",
             "basis " + " ".join(labels)]
    for i, lab in enumerate(labels):
        lines.append(f"deg {lab} = {format_element(a.degrees[i])}")
    for (i, j) in sorted(a.table):
        rhs = " + ".join(term(c, k) for k, c in a.table[(i, j)])
        lines.append(f"mul {labels[i]} {labels[j]} = {rhs}")
    unit_rhs = " + ".join(term(c, k) for k, c in sorted(a.unit.items()))
    lines.append(f"unit = {unit_rhs}")
    return "\n".join(lines) + "\n"
