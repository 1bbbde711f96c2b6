"""Oracle agreement: the structural deciders cross-checked by brute force.

The closure under test: catalog instances, tensor products into groups of
order <= 16 keeping dimension <= 32, quotient gradings and regradings, with
members that are not verifiably graded division filtered out where a section
needs division inputs.  Within each same-group family every pair is decided
twice, by classify/equiv_division and by exhaustive multilinear comparison
up to the configured degree; any disagreement fails the suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .algebras import (GradedAlgebra, TripleSpec, catalog,
                       check_graded_division, matrix_over_division,
                       quotient_grading, regrade, tensor_product,
                       trivially_graded_reals, twisted_group_algebra,
                       validate)
from .groups import Subgroup, make_group, make_hom
from .identities import same_identities_up_to
from .scalars import CycloScalar
from .structure import classify, equiv_division, equiv_matrix_over_division, \
    normalize_triple

CATALOG_INSTANCES = (
    ("H4", ()), ("M2_4", ()), ("M2_2", ()), ("H2", ()), ("C2", ()),
    ("M2C_Z4", ()), ("M2_8", ()), ("M4_4", ()), ("quat_trivial", ()),
    ("pauli", (2, 1)), ("pauli", (3, 1)), ("pauli", (3, 2)),
    ("pauli", (4, 1)), ("pauli", (4, 3)),
)


def _instance_label(name: str, params: tuple) -> str:
    return name if not params else f"{name}({','.join(map(str, params))})"


@dataclass
class SectionResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    checks: int = 0
    failures: list = field(default_factory=list)
    # (label, seconds) of each pair or triple decided by brute force
    pairs: list = field(default_factory=list)


def _section(fn):
    def run(*args, **kwargs) -> SectionResult:
        t0 = time.time()
        result = fn(*args, **kwargs)
        result.seconds = time.time() - t0
        return result
    return run


@_section
def section_catalog_validation() -> SectionResult:
    failures = []
    checks = 0
    for name, params in CATALOG_INSTANCES:
        label = _instance_label(name, params)
        a = catalog(name, *params)
        rep = validate(a)
        checks += 1
        if not rep.ok:
            failures.append(f"{label}: validate failed: {rep.failures[:3]}")
        verdict = check_graded_division(a)
        checks += 1
        if verdict.verdict != "yes":
            failures.append(f"{label}: division check gave {verdict.verdict}")
    return SectionResult("catalog validation", not failures,
                         f"{checks} checks over {len(CATALOG_INSTANCES)} "
                         "instances", 0.0, checks, failures)


@_section
def section_bicharacter_axioms() -> SectionResult:
    failures = []
    checks = 0
    for name, params in CATALOG_INSTANCES:
        label = _instance_label(name, params)
        rep = classify(catalog(name, *params))
        tables = [t for t in (rep.bichar,
                              rep.quotient.bichar if rep.quotient else None)
                  if t is not None]
        for table in tables:
            checks += 1
            if table.violations:
                failures.append(f"{label}: axiom violations {table.violations}")
            if rep.type_tag == "I":
                checks += 1
                if not table.is_real():
                    failures.append(f"{label}: Type I table has non-real values")
    return SectionResult("bicharacter axioms", not failures,
                         f"{checks} tables/axiom checks", 0.0, checks, failures)


def _closure_families() -> list[tuple[str, list[tuple[str, GradedAlgebra]]]]:
    z2 = make_group((2,))
    z22 = make_group((2, 2))
    z23 = make_group((2, 2, 2))
    z24 = make_group((2, 2, 2, 2))
    z4 = make_group((4,))

    h4 = catalog("H4")
    m24 = catalog("M2_4")
    c2 = catalog("C2")
    m2c = catalog("M2C_Z4")

    def emb(g, h, images):
        return make_hom(g, h, [h.element(x) for x in images])

    one = CycloScalar.one(1)
    minus = -one

    families = []

    families.append(("Z2", [
        ("H2", catalog("H2")),
        ("M2_2", catalog("M2_2")),
        ("C2", c2),
        ("trivial(Z2)", trivially_graded_reals(z2)),
        ("H4/(a,b->a)", quotient_grading(h4, emb(z22, z2, [(1,), (1,)]))),
    ]))

    families.append(("Z2^2", [
        ("H4", h4),
        ("M2_4", m24),
        ("pauli(2,1)", catalog("pauli", 2, 1)),
        ("H4 swapped", regrade(h4, emb(z22, z22, [(0, 1), (1, 0)]))),
        ("M2_4 sheared", regrade(m24, emb(z22, z22, [(0, 1), (1, 1)]))),
        ("M2_8/(drop last)", quotient_grading(
            catalog("M2_8"), emb(z23, z22, [(1, 0), (0, 1), (0, 0)]))),
        ("quat_trivial", catalog("quat_trivial")),
        ("M4_4", catalog("M4_4")),
    ]))

    families.append(("Z2^3", [
        ("M2_8", catalog("M2_8")),
        ("H4 x C2", tensor_product(
            h4, c2, z23, emb(z22, z23, [(1, 0, 0), (0, 1, 0)]),
            emb(z2, z23, [(0, 0, 1)]))),
        ("C2 x C2 x C2", tensor_product(
            tensor_product(c2, c2, make_group((2, 2)),
                           emb(z2, z22, [(1, 0)]), emb(z2, z22, [(0, 1)])),
            c2, z23, emb(z22, z23, [(1, 0, 0), (0, 1, 0)]),
            emb(z2, z23, [(0, 0, 1)]))),
    ]))

    families.append(("Z2^4", [
        ("H4 x H4", tensor_product(
            h4, h4, z24, emb(z22, z24, [(1, 0, 0, 0), (0, 1, 0, 0)]),
            emb(z22, z24, [(0, 0, 1, 0), (0, 0, 0, 1)]))),
        ("M2_4 x M2_4", tensor_product(
            m24, m24, z24, emb(z22, z24, [(1, 0, 0, 0), (0, 1, 0, 0)]),
            emb(z22, z24, [(0, 0, 1, 0), (0, 0, 0, 1)]))),
        ("H4 x M2_4", tensor_product(
            h4, m24, z24, emb(z22, z24, [(1, 0, 0, 0), (0, 1, 0, 0)]),
            emb(z22, z24, [(0, 0, 1, 0), (0, 0, 0, 1)]))),
    ]))

    families.append(("Z4", [
        ("M2C_Z4", m2c),
        ("M2C_Z4 inverted", regrade(m2c, emb(z4, z4, [(3,)]))),
        ("R[Z4], u^4=-1", twisted_group_algebra(
            z4, lambda g, h: one, (-1,))),
        ("R[Z4], u^4=+1", twisted_group_algebra(z4, lambda g, h: one)),
        ("C2 on <a^2>", regrade(c2, emb(z2, z4, [(2,)]))),
    ]))

    z32 = make_group((3, 3))
    families.append(("Z3^2", [
        ("pauli(3,1)", catalog("pauli", 3, 1)),
        ("pauli(3,2)", catalog("pauli", 3, 2)),
        ("pauli(3,1) swapped", regrade(
            catalog("pauli", 3, 1), emb(z32, z32, [(0, 1), (1, 0)]))),
    ]))

    z42 = make_group((4, 4))
    families.append(("Z4^2", [
        ("pauli(4,1)", catalog("pauli", 4, 1)),
        ("pauli(4,3)", catalog("pauli", 4, 3)),
    ]))

    return families


@_section
def section_oracle_agreement(max_degree: int = 4, log=None) -> SectionResult:
    failures = []
    checks = 0
    skipped = []
    pairs = []
    for family, members in _closure_families():
        division = []
        for label, a in members:
            if a.provenance and "division" in a.provenance:
                division.append((label, a))
                continue
            verdict = check_graded_division(a)
            if verdict.verdict == "yes":
                division.append((label, a))
            else:
                skipped.append(f"{family}:{label} ({verdict.verdict})")
        for i in range(len(division)):
            for j in range(i + 1, len(division)):
                la, a = division[i]
                lb, b = division[j]
                t0 = time.time()
                structural = equiv_division(a, b)
                brute = same_identities_up_to(a, b, max_degree)
                checks += 1
                if structural.verdict != brute.equal:
                    failures.append(
                        f"{family}: {la} vs {lb}: structural says "
                        f"{structural.verdict} ({structural.reason}) but brute "
                        f"force says {brute.equal} ({brute.detail})")
                pairs.append((f"[{family}] {la} vs {lb}", time.time() - t0))
                if log:
                    log(f"  {pairs[-1][0]}: "
                        f"{'equal' if brute.equal else 'differ'} "
                        f"(agree, {pairs[-1][1]:.1f}s)")
    detail = f"{checks} pairs decided twice"
    if skipped:
        detail += f"; filtered non-division: {', '.join(skipped)}"
    return SectionResult("oracle agreement (division pairs)", not failures,
                         detail, 0.0, checks, failures, pairs)


@_section
def section_normalize_agreement(max_degree: int = 4, log=None) -> SectionResult:
    failures = []
    checks = 0
    pairs = []
    for name, params in CATALOG_INSTANCES:
        label = _instance_label(name, params)
        d = catalog(name, *params)
        spec = TripleSpec(d.support_subgroup(), d, (d.group.identity,))
        out = normalize_triple(spec)
        checks += 1
        if out is spec:
            if log:
                log(f"  normalize {label}: passthrough (Type I/IV)")
            continue
        t0 = time.time()
        before = matrix_over_division(spec)
        after = matrix_over_division(out)
        rep = same_identities_up_to(before, after, max_degree)
        if not rep.equal:
            failures.append(f"{label}: normalized triple changes identities: "
                            f"{rep.detail}")
        pairs.append((f"normalize {label}", time.time() - t0))
        if log:
            log(f"  normalize {label}: dims {before.dim}->{after.dim}, "
                f"{'equal' if rep.equal else 'DIFFER'} "
                f"({pairs[-1][1]:.1f}s)")
    return SectionResult("normalize preserves identities", not failures,
                         f"{checks} catalog triples", 0.0, checks, failures,
                         pairs)


@_section
def section_matrix_equivalence(max_degree: int = 4, log=None) -> SectionResult:
    z2 = make_group((2,))
    z22 = make_group((2, 2))
    z4 = make_group((4,))
    c2_on_sq = regrade(catalog("C2"), make_hom(z2, z4, [z4.element((2,))]))

    def efull(g):
        return Subgroup.full(g)

    cases = []
    triv = trivially_graded_reals(z22)
    h_triv = Subgroup.trivial(z22)
    e, a, b, ab = (z22.element(x) for x in ((0, 0), (1, 0), (0, 1), (1, 1)))
    cases.append(("(e,a) vs (a,e) over Z2^2",
                  TripleSpec(h_triv, triv, (e, a)),
                  TripleSpec(h_triv, triv, (a, e))))
    cases.append(("(e,e) vs (e,a) over Z2^2",
                  TripleSpec(h_triv, triv, (e, e)),
                  TripleSpec(h_triv, triv, (e, a))))
    cases.append(("(e,b) vs (ab,a) over Z2^2",
                  TripleSpec(h_triv, triv, (e, b)),
                  TripleSpec(h_triv, triv, (ab, a))))
    e4, a4 = z4.identity, z4.element((1,))
    hsq = Subgroup.generated_by(z4, [z4.element((2,))])
    cases.append(("(e,a) vs (a^2,a^3) over Z4, D=C",
                  TripleSpec(hsq, c2_on_sq, (e4, a4)),
                  TripleSpec(hsq, c2_on_sq, (z4.element((2,)), z4.element((3,))))))
    cases.append(("(e,a) vs (e,e) over Z4, D=C",
                  TripleSpec(hsq, c2_on_sq, (e4, a4)),
                  TripleSpec(hsq, c2_on_sq, (e4, e4))))
    cases.append(("H=G n=2: H4 (e,e) vs M2_4 (a,b)",
                  TripleSpec(efull(z22), catalog("H4"), (e, e)),
                  TripleSpec(efull(z22), catalog("M2_4"), (a, b))))

    failures = []
    checks = 0
    pairs = []
    for label, sa, sb in cases:
        t0 = time.time()
        structural = equiv_matrix_over_division(sa, sb)
        brute = same_identities_up_to(matrix_over_division(sa),
                                      matrix_over_division(sb), max_degree)
        checks += 1
        if structural.verdict != brute.equal:
            failures.append(f"{label}: structural {structural.verdict} "
                            f"({structural.reason}) vs brute {brute.equal} "
                            f"({brute.detail})")
        pairs.append((f"matrix {label}", time.time() - t0))
        if log:
            log(f"  {pairs[-1][0]}: {'equal' if brute.equal else 'differ'} "
                f"(agree, {pairs[-1][1]:.1f}s)")
    return SectionResult("matrix-over-division vs brute force", not failures,
                         f"{checks} triples compared twice", 0.0, checks,
                         failures, pairs)


def run_selftest(max_degree: int = 4, log=None) -> dict:
    """Run every section; zero disagreements means success."""
    t0 = time.time()
    sections = [
        section_catalog_validation(),
        section_bicharacter_axioms(),
        section_oracle_agreement(max_degree, log),
        section_normalize_agreement(max_degree, log),
        section_matrix_equivalence(max_degree, log),
    ]
    ok = all(s.ok for s in sections)
    return {
        "ok": ok,
        "max_degree": max_degree,
        "sections": sections,
        "seconds": time.time() - t0,
    }
