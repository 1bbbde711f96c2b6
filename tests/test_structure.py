"""Structural invariants of graded division algebras.

Frozen commutation factors and type tags were hand-computed from the
defining tables (quaternion relations, the Sylvester basis, clock and
shift matrices); the equivalence verdicts are cross-validated against
brute-force identity comparison here and exhaustively in the selftest.
"""

import hashlib
import importlib.util
import re
from math import gcd
from pathlib import Path

import pytest

import gradedpi.algebras as algebras_module
import gradedpi.structure as structure_module
from gradedpi.algebras import (GradedAlgebra, TripleSpec, catalog,
                               catalog_names, check_graded_division,
                               components_multiply, known_division,
                               matrix_over_division, quotient_grading, regrade,
                               tensor_product, trivially_graded_reals,
                               twisted_group_algebra)
from gradedpi.errors import InvariantViolation, PreconditionError
from gradedpi.groups import (Subgroup, is_elementary_2group, make_group,
                             make_hom, quotient_hom, squares_subgroup)
from gradedpi.identities import same_identities_up_to
from gradedpi.scalars import CycloScalar
from gradedpi.structure import (BicharTable, bicharacter_table,
                                bicharacter_via_hall,
                                central_support, classify, commutation_factor,
                                commuting_support, complex_commutation_factor,
                                equiv_division, equiv_matrix_over_division,
                                find_complex_unit, normalize_triple)


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def elem(a, exps):
    return a.group.element(exps)


# -- commutation factors ------------------------------------------------------


def test_commutation_factor_h4():
    a = catalog("H4")
    e, g, h = elem(a, (0, 0)), elem(a, (1, 0)), elem(a, (0, 1))
    one = CycloScalar.one(1)
    assert commutation_factor(a, e, e) == one
    assert commutation_factor(a, g, g) == one  # i commutes with itself
    assert commutation_factor(a, g, h) == -one  # ij = -ji
    assert commutation_factor(a, g, g * h) == -one


def test_commutation_factor_none_when_component_not_scalar_acting():
    # H2 has A_e = span{1, i}; j commutes with 1 but anticommutes with i
    a = catalog("H2")
    e, g = elem(a, (0,)), elem(a, (1,))
    assert commutation_factor(a, e, g) is None
    assert commutation_factor(a, g, g) is None
    assert commutation_factor(a, e, e) == CycloScalar.one(1)


def test_commutation_factor_trivial_on_commutative():
    a = catalog("C2")
    e, g = elem(a, (0,)), elem(a, (1,))
    for x in [e, g]:
        for y in [e, g]:
            assert commutation_factor(a, x, y) == CycloScalar.one(1)


def test_complex_commutation_factor_pauli3():
    a = catalog("pauli", 3, 1)
    j = find_complex_unit(a)
    assert j is not None
    lam = complex_commutation_factor(a, elem(a, (1, 0)), elem(a, (0, 1)), j)
    zeta3 = CycloScalar.root_of_unity(3).promote(12)
    assert lam == zeta3  # XY = zeta3 YX under the chosen unit
    # swapping arguments inverts the factor
    lam_t = complex_commutation_factor(a, elem(a, (0, 1)), elem(a, (1, 0)), j)
    assert lam * lam_t == CycloScalar.one(12)


def test_complex_factor_conjugates_with_the_unit():
    a = catalog("pauli", 3, 1)
    j = find_complex_unit(a)
    g, h = elem(a, (1, 0)), elem(a, (0, 1))
    lam = complex_commutation_factor(a, g, h, j)
    lam_conj = complex_commutation_factor(a, g, h, -j)
    assert lam_conj == lam.conjugate()


def test_complex_factor_validates_the_unit():
    a = catalog("pauli", 3, 1)
    with pytest.raises(PreconditionError):
        complex_commutation_factor(a, elem(a, (1, 0)), elem(a, (0, 1)),
                                   a.one())  # 1^2 != -1


def upper_triangular_complex_3x3(g, tup):
    """Upper-triangular complex 3x3 matrices as a real algebra, basis e_ij
    and i*e_ij (i <= j), e_ij of degree tup[i]^-1 tup[j]; J = i*unit."""
    cells = [(r, c, s) for r in range(3) for c in range(r, 3) for s in (0, 1)]
    index = {cell: n for n, cell in enumerate(cells)}
    table = {}
    for (r, c, s), m in index.items():
        for (r2, c2, t), n in index.items():
            if c == r2:  # i^s * i^t = (-1)^(s*t) * i^((s+t) mod 2)
                table[(m, n)] = ((index[(r, c2, (s + t) % 2)],
                                  (-1) ** (s * t)),)
    labels = [("i" if s else "") + f"e{r + 1}{c + 1}" for r, c, s in cells]
    degrees = [tup[r].inverse() * tup[c] for r, c, _ in cells]
    unit = {index[(k, k, 0)]: 1 for k in range(3)}
    a = GradedAlgebra(g, 4, labels, degrees, table, unit)
    j = a.element({index[(k, k, 1)]: 1 for k in range(3)})
    return a, j


def test_one_sided_zero_has_no_factor_real_or_complex():
    # graded by Z2^2 through (e, (1,0), (0,1)): e23 * e12 = 0 while
    # e12 * e23 = e13, so there is no lambda with xy = lambda*yx, real or
    # complex
    z22 = make_group((2, 2))
    a, j = upper_triangular_complex_3x3(
        z22, (z22.identity, z22.element((1, 0)), z22.element((0, 1))))
    e, d10, d11 = elem(a, (0, 0)), elem(a, (1, 0)), elem(a, (1, 1))
    unit_of = lambda s: a.basis_element(a.label_index(s))
    assert (unit_of("e23") * unit_of("e12")).is_zero()
    assert unit_of("e12") * unit_of("e23") == unit_of("e13")
    for g, h in [(d11, d10), (d10, d11)]:
        assert commutation_factor(a, g, h) is None
        assert complex_commutation_factor(a, g, h, j) is None
    # every pair vanishes on A_(1,0) x A_(1,0): no factor either
    assert commutation_factor(a, d10, d10) is None
    assert complex_commutation_factor(a, d10, d10, j) is None
    # the diagonal commutes
    assert commutation_factor(a, e, e) == CycloScalar.one(1)
    assert complex_commutation_factor(a, e, e, j) == CycloScalar.one(4)
    # trivially graded, A_e x A_e mixes one-sided pairs (e11 * e12 = e12,
    # e12 * e11 = 0) with pairs that commute: still no factor
    a, j = upper_triangular_complex_3x3(z22, (z22.identity,) * 3)
    assert commutation_factor(a, e, e) is None
    assert complex_commutation_factor(a, e, e, j) is None


# -- complex units -------------------------------------------------------------


def test_find_complex_unit_cases():
    assert find_complex_unit(catalog("H4")) is None  # 1-dim center
    a = catalog("pauli", 2, 1)
    j = find_complex_unit(a)
    assert j is not None and j.degree().is_identity
    assert (j * j + a.one()).is_zero()


def test_find_complex_unit_m2c_z4_lands_in_degree_two():
    a = catalog("M2C_Z4")
    j = find_complex_unit(a)
    assert j is not None
    assert j.degree() == elem(a, (2,))
    assert (j * j + a.one()).is_zero()
    # sign normalization picks +iI
    assert j == a.basis_element(a.label_index("iI"))


def test_find_complex_unit_skips_noncentral_components():
    # H2 has i in degree e but it is not central
    assert find_complex_unit(catalog("H2")) is None


def test_find_complex_unit_shifts_off_the_unit_line():
    # C in the basis (1, w = 1 + i), graded trivially by Z2: w^2 = 2i =
    # -2 + 2w has a w term, so v = w - 1 = i and J = -(w - 1) after the sign
    # is normalised; without the shift, w^2 is no multiple of the unit
    g = make_group((2,))
    a = GradedAlgebra(g, 1, ("1", "w"), (g.identity, g.identity),
                      {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
                       (1, 1): ((0, -2), (1, 2))}, {0: 1})
    assert check_graded_division(a).verdict == "yes"
    j = find_complex_unit(a)
    assert j == a.element({"1": 1, "w": -1})
    assert (j * j + a.one()).is_zero()
    rep = classify(a)
    assert rep.type_tag == "I" and rep.complex_unit == j


# -- bicharacter tables ---------------------------------------------------------


def test_symplectic_table_of_h4():
    """Off-diagonal -1 on nonidentity pairs, +1 elsewhere."""
    a = catalog("H4")
    t = bicharacter_table(a, a.support_subgroup())
    assert t.violations == ()
    assert t.is_real()
    e = a.group.identity
    one = CycloScalar.one(1)
    for g in t.domain:
        for h in t.domain:
            want = -one if (g != e and h != e and g != h) else one
            assert t.value(g, h) == want


def test_h4_and_m2_4_share_the_table():
    ta = bicharacter_table(catalog("H4"), catalog("H4").support_subgroup())
    tb = bicharacter_table(catalog("M2_4"), catalog("M2_4").support_subgroup())
    assert ta.values_equal(tb)
    assert ta == tb


def test_table_rejects_undefined_pairs():
    a = catalog("H2")
    with pytest.raises(PreconditionError):
        bicharacter_table(a, a.support_subgroup())


def test_pauli_tables_conjugate_pair():
    a, b = catalog("pauli", 3, 1), catalog("pauli", 3, 2)
    ja, jb = find_complex_unit(a), find_complex_unit(b)
    ta = bicharacter_table(a, a.support_subgroup(), "complex", ja)
    tb = bicharacter_table(b, b.support_subgroup(), "complex", jb)
    assert ta.violations == () and tb.violations == ()
    assert not ta.values_equal(tb)
    assert ta.values_equal(tb.conjugate())
    assert not ta.is_real()


def test_complex_table_validates_the_unit():
    a = catalog("pauli", 3, 1)
    with pytest.raises(PreconditionError, match="J\\^2 is not minus the unit"):
        bicharacter_table(a, a.support_subgroup(), "complex", a.one())
    h4 = catalog("H4")
    with pytest.raises(PreconditionError, match="not central"):
        bicharacter_table(h4, [h4.group.identity], "complex",
                          h4.basis_element(1))


def _cell_by_cell(a, dom, factor):
    """{(g, h): factor(g, h)} in table order, stopping at the first None."""
    values = {}
    for g in dom:
        for h in dom:
            lam = factor(g, h)
            if lam is None:
                return values, (g, h)
            values[(g, h)] = lam
    return values, None


@pytest.mark.parametrize("name,params", [("pauli", (3, 1)), ("pauli", (4, 1)),
                                         ("M2C_Z4", ())],
                         ids=["pauli(3,1)", "pauli(4,1)", "M2C_Z4"])
def test_complex_table_equals_the_public_factor_cell_by_cell(name, params):
    a = catalog(name, *params)
    j = find_complex_unit(a)
    supp, cs = a.support_subgroup(), central_support(a)
    for dom in {supp, cs}:
        want, missing = _cell_by_cell(
            a, dom.elements,
            lambda g, h: complex_commutation_factor(a, g, h, j))
        # only M2C_Z4 on its full support has a pair without a factor
        assert (missing is not None) == (name == "M2C_Z4" and dom == supp)
        if missing is not None:
            pair = re.escape(f"pair ({missing[0]}, {missing[1]})")
            with pytest.raises(PreconditionError, match=pair):
                bicharacter_table(a, dom, "complex", j)
            continue
        t = bicharacter_table(a, dom, "complex", j)
        assert t.values.keys() == want.keys()
        for key, lam in want.items():
            assert t.values[key] == lam and t.values[key].conductor == lam.conductor


def reference_complex_factor(a, g, h, j):
    """The complex factor from l1*ba + l2*(J*ba) on every basis pair, with
    (l1, l2) solved from the first pair by Cramer's rule on two coordinates."""
    pairs = []
    for x in a.component(g):
        for y in a.component(h):
            ab, ba = a.basis_product(x, y), a.basis_product(y, x)
            if ba.is_zero():
                if ab.is_zero():
                    continue
                return None
            pairs.append((ab, ba, j * ba))
    if not pairs:
        return None
    ab, u, v = pairs[0]
    zero = CycloScalar.zero(a.conductor)
    keys = sorted(set(ab.coeffs) | set(u.coeffs) | set(v.coeffs))
    t_, u_, v_ = ({k: e.coeffs.get(k, zero) for k in keys} for e in (ab, u, v))
    dets = ((k1, k2, u_[k1] * v_[k2] - u_[k2] * v_[k1]) for k1 in keys for k2 in keys)
    k1, k2, det = next((d for d in dets if not d[2].is_zero()), (None, None, None))
    if det is None:
        return None
    l1 = (t_[k1] * v_[k2] - t_[k2] * v_[k1]) / det
    l2 = (u_[k1] * t_[k2] - u_[k2] * t_[k1]) / det
    for ab, ba, jba in pairs:
        if ab != ba.scale(l1) + jba.scale(l2):
            return None
    if not l1.is_real() or not l2.is_real():
        return None
    m = 4 * a.conductor // gcd(4, a.conductor)
    return l1.promote(m) + l2.promote(m) * CycloScalar.root_of_unity(4, 1, m)


def reference_hall_factor(a, g, h):
    """The Hall factor from every nonzero product P, repeats included."""
    e = a.component(a.group.identity)
    bracket = lambda i, j: a.basis_product(i, j) - a.basis_product(j, i)
    products = []
    for x in e:
        for y in a.component(g):
            for w in e:
                p = bracket(x, y) * bracket(x, w) + bracket(x, w) * bracket(x, y)
                if not p.is_zero():
                    products.append(p)
    lam = None
    for p in products:
        for z in a.component_basis(h):
            lhs, rhs = p * z, z * p
            if rhs.is_zero():
                if lhs.is_zero():
                    continue
                return None
            if lam is None:
                k = min(rhs.coeffs)
                if k not in lhs.coeffs:
                    return None
                lam = lhs.coeffs[k] / rhs.coeffs[k]
                if not lam.is_real():
                    return None
            if lhs != rhs.scale(lam):
                return None
    return lam


@pytest.mark.parametrize("name,params", [("pauli", (3, 1)), ("pauli", (4, 1)),
                                         ("M2C_Z4", ())],
                         ids=["pauli(3,1)", "pauli(4,1)", "M2C_Z4"])
def test_complex_table_equals_the_reference_cell_by_cell(name, params):
    a = catalog(name, *params)
    j = find_complex_unit(a)
    supp, cs = a.support_subgroup(), central_support(a)
    for dom in {supp, cs}:
        want, missing = _cell_by_cell(
            a, dom.elements, lambda g, h: reference_complex_factor(a, g, h, j))
        assert (missing is not None) == (name == "M2C_Z4" and dom == supp)
        if missing is not None:
            pair = re.escape(f"pair ({missing[0]}, {missing[1]})")
            with pytest.raises(PreconditionError, match=pair):
                bicharacter_table(a, dom, "complex", j)
            continue
        t = bicharacter_table(a, dom, "complex", j)
        assert not t.is_real() or name == "M2C_Z4"  # some l2 is nonzero
        assert t.values.keys() == want.keys()
        for key, lam in want.items():
            assert t.values[key] == lam and t.values[key].conductor == lam.conductor


@pytest.mark.parametrize("name", ["M4_4", "quat_trivial"])
def test_hall_table_equals_the_reference_cell_by_cell(name):
    a = catalog(name)
    table = classify(a).bichar
    want, missing = _cell_by_cell(
        a, table.domain, lambda g, h: reference_hall_factor(a, g, h))
    assert missing is None
    assert table.values == want


@pytest.mark.parametrize("name", ["M4_4", "quat_trivial"])
def test_hall_table_equals_the_public_hall_factor_cell_by_cell(name):
    a = catalog(name)
    table = classify(a).bichar
    want, missing = _cell_by_cell(
        a, table.domain, lambda g, h: bicharacter_via_hall(a, g, h))
    assert missing is None
    assert table.values == want
    assert table.violations == ()


def _reference_violations(dom, values):
    # the axioms checked cell by cell on the values themselves
    out = []
    one = CycloScalar.one(1)
    for g in dom:
        for h in dom:
            if values[(g, h)] * values[(h, g)] != one:
                out.append(f"skew symmetry fails at ({g}, {h})")
    for g in dom:
        for h in dom:
            if g * h in dom:
                for k in dom:
                    if values[(g * h, k)] != values[(g, k)] * values[(h, k)]:
                        out.append(f"multiplicativity fails at ({g}, {h}; {k})")
    return tuple(out)


def test_corrupted_table_reports_both_axioms():
    a = catalog("H4")
    good = bicharacter_table(a, a.support_subgroup())
    g, h = elem(a, (1, 0)), elem(a, (0, 1))
    values = dict(good.values)
    values[(g, h)] = CycloScalar.one(1)  # was -1
    bad = BicharTable.checked(good.domain, values)
    assert "skew symmetry fails at ((1,0), (0,1))" in bad.violations
    assert "skew symmetry fails at ((0,1), (1,0))" in bad.violations
    assert "multiplicativity fails at ((1,0), (0,1); (0,1))" in bad.violations
    assert bad.violations == _reference_violations(good.domain, values)
    assert good.violations == ()


def test_axioms_compare_values_across_conductors():
    # equal values stored at different conductors are interned as one
    a = catalog("pauli", 3, 1)
    t = classify(a).bichar
    values = {k: (v.promote(24) if i % 3 == 0 else v)
              for i, (k, v) in enumerate(t.values.items())}
    assert BicharTable.checked(t.domain, values).violations == ()
    g, h = t.domain[1], t.domain[3]
    values[(g, h)] = t.values[(g, h)].conjugate().promote(36)
    bad = BicharTable.checked(t.domain, values)
    assert bad.violations
    assert bad.violations == _reference_violations(t.domain, values)


def _benchmark_algebras():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.build_algebras()


def _generated_path_cases():
    """(label, algebra, domain): every catalog entry, pauli(n, k) for n <= 4
    and the benchmark's algebras, each on its support and its central
    support, and through the quotient by the squares of a non-elementary
    support on the quotient's central support."""
    algs = [(n, catalog(n)) for n in catalog_names() if n != "pauli(n,k)"]
    algs += [(f"pauli({n},{k})", catalog("pauli", n, k))
             for n in range(1, 5) for k in range(n) if gcd(k, n) == 1]
    algs += sorted(_benchmark_algebras().items())
    cases = []
    for label, a in algs:
        if not known_division(a):
            assert check_graded_division(a).verdict == "yes", label
        supp = a.support_subgroup()
        cases += [(label, a, d) for d in (supp, central_support(a)) if d]
        if not is_elementary_2group(supp):
            aq = quotient_grading(a, quotient_hom(a.group, squares_subgroup(supp)))
            qcs = central_support(aq)
            if qcs is not None:
                cases.append((f"{label} quotient", aq, qcs))
    return cases


GENERATED_PATH_CASES = _generated_path_cases()


@pytest.mark.parametrize("label,a,dom", GENERATED_PATH_CASES,
                         ids=[f"{c[0]} on {c[2]}" for c in GENERATED_PATH_CASES])
def test_generated_rows_equal_the_cell_by_cell_table(label, a, dom):
    # bicharacter_table derives all but (r + 1) rows on these inputs; every
    # flavor they admit must give the cells, conductors, violations and the
    # first missing pair of the public one-cell factors
    assert components_multiply(a)
    j = find_complex_unit(a)
    flavors = [("real", None, lambda g, h: commutation_factor(a, g, h))]
    if j is not None:
        flavors.append(("complex", j,
                        lambda g, h: complex_commutation_factor(a, g, h, j)))
    for flavor, unit, factor in flavors:
        want, missing = _cell_by_cell(a, dom.elements, factor)
        if missing is not None:
            with pytest.raises(PreconditionError) as err:
                bicharacter_table(a, dom, flavor, unit)
            assert str(err.value) == ("no commutation factor on the pair "
                                      f"({missing[0]}, {missing[1]})")
            continue
        t = bicharacter_table(a, dom, flavor, unit)
        assert list(t.values) == list(want)
        for key, lam in want.items():
            got = t.values[key]
            assert got == lam and got.conductor == lam.conductor, key
        assert (t.flavor, t.unit) == (flavor, unit)
        assert t.violations == _reference_violations(dom.elements, want)


def test_generated_path_cases_cover_every_classify_domain():
    # M2C_Z4 on its support has a pair without a complex factor
    cases = {(c[0], c[2]) for c in GENERATED_PATH_CASES}
    m2c = catalog("M2C_Z4")
    assert ("M2C_Z4", m2c.support_subgroup()) in cases
    assert ("M2C_Z4", central_support(m2c)) in cases
    labels = {c[0] for c in GENERATED_PATH_CASES}
    assert {"M2C_Z4 quotient", "pauli(4,1) quotient", "H4 x M2_4"} <= labels


def _count_measured_cells(monkeypatch):
    counted = []
    pair_factor = structure_module._pair_factor

    def counting(pairs, j=None):
        counted.append(1)
        return pair_factor(pairs, j)

    monkeypatch.setattr(structure_module, "_pair_factor", counting)
    return counted


def test_only_row_e_and_generator_rows_read_basis_pairs(monkeypatch):
    counted = _count_measured_cells(monkeypatch)
    a = catalog("pauli", 4, 1)
    t = bicharacter_table(a, a.support_subgroup(), "complex",
                          find_complex_unit(a))
    assert t.violations == ()
    assert len(counted) == 3 * 16  # rows e, (0,1) and (1,0) of Z4^2


def test_unverified_algebra_is_read_cell_by_cell(monkeypatch):
    # no label and no recorded verdict: bicharacter_table reads every cell
    # and runs no division check of its own
    def forbidden(a):
        raise AssertionError("check_graded_division called")

    z2 = make_group((2,))
    m2 = matrix_over_division(TripleSpec(Subgroup.trivial(z2),
                                         trivially_graded_reals(z2),
                                         (z2.identity, z2.identity)))
    assert not known_division(m2) and not components_multiply(m2)
    monkeypatch.setattr(algebras_module, "check_graded_division", forbidden)
    monkeypatch.setattr(structure_module, "check_graded_division", forbidden)
    dom = m2.support_subgroup()
    want, missing = _cell_by_cell(m2, dom.elements,
                                  lambda g, h: commutation_factor(m2, g, h))
    assert missing is not None
    with pytest.raises(PreconditionError) as err:
        bicharacter_table(m2, dom)
    assert str(err.value) == ("no commutation factor on the pair "
                              f"({missing[0]}, {missing[1]})")


def test_a_recorded_verdict_turns_on_generator_rows(monkeypatch):
    counted = _count_measured_cells(monkeypatch)
    p = catalog("pauli", 3, 1)
    bare = GradedAlgebra(p.group, p.conductor, p.labels, p.degrees, p.table,
                         p.unit)
    j = find_complex_unit(bare)
    full = bicharacter_table(bare, bare.support_subgroup(), "complex", j)
    assert len(counted) == 81
    assert check_graded_division(bare).verdict == "yes"  # now recorded
    counted.clear()
    assert bicharacter_table(bare, bare.support_subgroup(), "complex", j) == full
    assert len(counted) == 3 * 9


def test_quotient_mark_is_not_a_division_verdict():
    # a quotient grading of a division grading keeps A_g A_s = A_gs but need
    # not be one itself: the trivial coarsening of M2_4 is M2(R)
    a = catalog("M2_4")
    z1 = make_group(())
    aq = quotient_grading(a, make_hom(a.group, z1, [z1.identity] * 2))
    assert components_multiply(aq) and not known_division(aq)
    with pytest.raises(PreconditionError, match="not a graded division"):
        classify(aq)


def test_hall_bicharacter_on_quaternion_e_component():
    a = catalog("M4_4")
    g, h = elem(a, (1, 0)), elem(a, (0, 1))
    one = CycloScalar.one(1)
    assert bicharacter_via_hall(a, g, h) == -one
    assert bicharacter_via_hall(a, g, g) == one
    b = catalog("quat_trivial")
    e = b.group.identity
    assert bicharacter_via_hall(b, e, e) == one
    with pytest.raises(PreconditionError):
        bicharacter_via_hall(catalog("H4"), g, h)  # dim A_e = 1


# -- supports -------------------------------------------------------------------


def test_commuting_and_central_supports():
    h2 = catalog("H2")
    assert commuting_support(h2) == (h2.group.identity,)
    cs = central_support(h2)
    assert cs is not None and cs.order == 1

    m2c = catalog("M2C_Z4")
    cs = central_support(m2c)
    assert sorted(cs.elements) == [elem(m2c, (0,)), elem(m2c, (2,))]

    h4 = catalog("H4")
    assert central_support(h4) == h4.support_subgroup()


# -- classification --------------------------------------------------------------


TYPE_TAGS = {
    "H4": "I", "M2_4": "I", "C2": "I", "M2_8": "I",
    "H2": "II", "M2_2": "II", "M2C_Z4": "II",
    "M4_4": "III", "quat_trivial": "III",
}


@pytest.mark.parametrize("name,tag", sorted(TYPE_TAGS.items()))
def test_classify_catalog_types(name, tag):
    rep = classify(catalog(name))
    assert rep.type_tag == tag
    if rep.bichar is not None:
        assert rep.bichar.violations == ()
    if rep.quotient is not None:
        assert rep.quotient.bichar.violations == ()


@pytest.mark.parametrize("nk,tag", [((2, 1), "I"), ((3, 1), "IV"),
                                    ((3, 2), "IV"), ((4, 1), "IV")])
def test_classify_pauli_types(nk, tag):
    rep = classify(catalog("pauli", *nk))
    assert rep.type_tag == tag
    if tag == "I":
        assert rep.bichar.is_real()
    else:
        assert not rep.bichar.is_real()


def test_classify_type_ii_standard_vs_quotient():
    std = classify(catalog("H2"))
    assert std.quotient is None and std.bichar is not None
    assert std.bichar.domain == (catalog("H2").group.identity,)

    quo = classify(catalog("M2C_Z4"))
    assert quo.bichar is None and quo.quotient is not None
    assert quo.quotient.theta.codomain.order == 2
    assert quo.quotient.supp_r.order == 1


def test_classify_caches_on_the_algebra():
    a = catalog("H4")
    assert a._classification is None
    assert classify(a) is classify(a)
    assert a._classification is classify(a)
    assert "classification" not in a._mul_cache


def test_classify_rejects_non_division():
    g = make_group((2,))
    spec = TripleSpec(Subgroup.trivial(g), trivially_graded_reals(g),
                      (g.identity, g.element((1,))))
    with pytest.raises(PreconditionError):
        classify(matrix_over_division(spec))


# -- pinned answers ------------------------------------------------------------------


def _hom(source, target, images):
    g, h = make_group(source), make_group(target)
    return make_hom(g, h, [h.element(x) for x in images])


def _into_z2_4(left, right):
    z24 = make_group((2, 2, 2, 2))
    return tensor_product(catalog(left), catalog(right), z24,
                          _hom((2, 2), z24.orders, [(1, 0, 0, 0), (0, 1, 0, 0)]),
                          _hom((2, 2), z24.orders, [(0, 0, 1, 0), (0, 0, 0, 1)]))


def _c2_cubed():
    c2 = catalog("C2")
    c2c2 = tensor_product(c2, c2, make_group((2, 2)), _hom((2,), (2, 2), [(1, 0)]),
                          _hom((2,), (2, 2), [(0, 1)]))
    return tensor_product(c2c2, c2, make_group((2, 2, 2)),
                          _hom((2, 2), (2, 2, 2), [(1, 0, 0), (0, 1, 0)]),
                          _hom((2,), (2, 2, 2), [(0, 0, 1)]))


# every catalog entry, pauli(n, k) for n <= 4, and the quotients, regradings
# and tensor products that the benchmark builds
PINNED = {name: (lambda name=name: catalog(name)) for name in TYPE_TAGS}
PINNED.update({f"pauli({n},{k})": (lambda n=n, k=k: catalog("pauli", n, k))
               for n, k in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]})
PINNED.update({
    "H4/(a,b->a)": lambda: quotient_grading(
        catalog("H4"), _hom((2, 2), (2,), [(1,), (1,)])),
    "M2_8/(drop last)": lambda: quotient_grading(
        catalog("M2_8"), _hom((2, 2, 2), (2, 2), [(1, 0), (0, 1), (0, 0)])),
    "H4 swapped": lambda: regrade(catalog("H4"),
                                  _hom((2, 2), (2, 2), [(0, 1), (1, 0)])),
    "M2_4 sheared": lambda: regrade(catalog("M2_4"),
                                    _hom((2, 2), (2, 2), [(0, 1), (1, 1)])),
    "M2C_Z4 inverted": lambda: regrade(catalog("M2C_Z4"), _hom((4,), (4,), [(3,)])),
    "C2 on <a^2>": lambda: regrade(catalog("C2"), _hom((2,), (4,), [(2,)])),
    "pauli(3,1) swapped": lambda: regrade(catalog("pauli", 3, 1),
                                          _hom((3, 3), (3, 3), [(0, 1), (1, 0)])),
    "R[Z4], u^4=-1": lambda: twisted_group_algebra(
        make_group((4,)), lambda g, h: CycloScalar.one(1), (-1,)),
    "H4 x C2": lambda: tensor_product(
        catalog("H4"), catalog("C2"), make_group((2, 2, 2)),
        _hom((2, 2), (2, 2, 2), [(1, 0, 0), (0, 1, 0)]),
        _hom((2,), (2, 2, 2), [(0, 0, 1)])),
    "C2 x C2 x C2": _c2_cubed,
    "H4 x H4": lambda: _into_z2_4("H4", "H4"),
    "M2_4 x M2_4": lambda: _into_z2_4("M2_4", "M2_4"),
    "H4 x M2_4": lambda: _into_z2_4("H4", "M2_4"),
})


def _scalar_text(s):
    return f"({s.conductor},{list(s.num)},{s.den})"


def _element_text(x):
    if x is None:
        return "None"
    return "{" + ",".join(f"{i}:{_scalar_text(c)}"
                          for i, c in sorted(x.coeffs.items())) + "}"


def _subgroup_text(h):
    return "None" if h is None else str(sorted(str(g) for g in h.elements))


def _table_text(t):
    if t is None:
        return "None"
    cells = ";".join(_scalar_text(t.values[(g, h)]) for g in t.domain for h in t.domain)
    return (f"{t.flavor}|{[str(g) for g in t.domain]}|{cells}|"
            f"{list(t.violations)}|{_element_text(t.unit)}")


def report_text(rep):
    """The type tag, the supports, every table cell as (conductor, num, den)
    in domain order, the violations, the complex unit's coefficients, the
    notes and the quotient data, one per line."""
    quotient = "None"
    if rep.quotient is not None:
        q = rep.quotient
        quotient = (f"{q.theta.codomain}|{[str(x) for x in q.theta.generator_images]}|"
                    f"{_subgroup_text(q.supp_r)}|{_table_text(q.bichar)}")
    return "\n".join([rep.type_tag, _subgroup_text(rep.supp),
                      _subgroup_text(rep.central_support), _subgroup_text(rep.supp_r),
                      _table_text(rep.bichar), _element_text(rep.complex_unit),
                      str(rep.notes), quotient])


# sha256 of report_text(classify(...)), computed before classify was sped up
REPORT_DIGESTS = {
    "C2":
        "59acfd26eb2c08465aa4893d44e3f7343c48971ec2ea8a5b4e538d3beb086917",
    "C2 on <a^2>":
        "a3cc8b5f5e433a5b3704801815ff7fbda0f95079a85c9d5b09e6c36b8ec8a3a8",
    "C2 x C2 x C2":
        "fe09404f109ee77cb366b1dbb8c08d0d7b1b4f2a03b53e26ef1cdce7d50212df",
    "H2":
        "479c8af34bd9a9791c2c742fb30c8dba198a53a55e96d7032775ed8bbcc33108",
    "H4":
        "7a127320389d5a871e9d2959bfc4b51bfdf72f17bee0ebf86a593be1ec574a02",
    "H4 swapped":
        "7a127320389d5a871e9d2959bfc4b51bfdf72f17bee0ebf86a593be1ec574a02",
    "H4 x C2":
        "25cad26e345afba887606dd0ad1ac27e6b73c24e8d5d629366606e681c6f6b83",
    "H4 x H4":
        "09302ae261ecdf75653e778847661d3883584e1753fbd90bed9b37c08a8f53ab",
    "H4 x M2_4":
        "09302ae261ecdf75653e778847661d3883584e1753fbd90bed9b37c08a8f53ab",
    "H4/(a,b->a)":
        "479c8af34bd9a9791c2c742fb30c8dba198a53a55e96d7032775ed8bbcc33108",
    "M2C_Z4":
        "3e4eef17f44c3cfc543fc5c48fe61b4d8641c3b8f1aad414119f6d386dd47c00",
    "M2C_Z4 inverted":
        "3e4eef17f44c3cfc543fc5c48fe61b4d8641c3b8f1aad414119f6d386dd47c00",
    "M2_2":
        "479c8af34bd9a9791c2c742fb30c8dba198a53a55e96d7032775ed8bbcc33108",
    "M2_4":
        "7a127320389d5a871e9d2959bfc4b51bfdf72f17bee0ebf86a593be1ec574a02",
    "M2_4 sheared":
        "7a127320389d5a871e9d2959bfc4b51bfdf72f17bee0ebf86a593be1ec574a02",
    "M2_4 x M2_4":
        "09302ae261ecdf75653e778847661d3883584e1753fbd90bed9b37c08a8f53ab",
    "M2_8":
        "25cad26e345afba887606dd0ad1ac27e6b73c24e8d5d629366606e681c6f6b83",
    "M2_8/(drop last)":
        "739e7bce01be20e67d3b5b7827657aa1291582253cc327cc5602ccf6b93024ab",
    "M4_4":
        "11dac8d8d8310ba17e11fc1a6d0b39a698919dfc514f8f8107ac0aa2dfcc75e2",
    "R[Z4], u^4=-1":
        "59ee29efacf5174c08e69ea89fc09f55e0b6ea88179511bfd851313675796c4d",
    "pauli(2,1)":
        "739e7bce01be20e67d3b5b7827657aa1291582253cc327cc5602ccf6b93024ab",
    "pauli(3,1)":
        "1f2637761e604e79871852a5800b2a80fca977b01a0017e4accc0ee449b43a3d",
    "pauli(3,1) swapped":
        "b3e699c8800a7e07bea9984ef7b349fe1e10c552590cf490819294d778326c47",
    "pauli(3,2)":
        "b3e699c8800a7e07bea9984ef7b349fe1e10c552590cf490819294d778326c47",
    "pauli(4,1)":
        "58a83daf5f9f0a1102efa637e40073885ed4c410faf9f5eb5eade67c94a9568e",
    "pauli(4,3)":
        "05d6740fdb6932cf84a6275b9330f37b2f270cc582f3ce1135c7420e90695bd3",
    "quat_trivial":
        "e8f8a1a3e003a8c47082a49db9f5e851101b9e5cab80e0b1e12aeaa5502ca8ff",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classification_reports_are_pinned(name):
    text = report_text(classify(PINNED[name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name]


def _trivially_graded(a):
    z1 = make_group((1,))
    return quotient_grading(a, make_hom(a.group, z1, [z1.identity] * a.group.rank))


NOT_DIVISION = {
    # (constructor, verdict, reason, witness)
    "M2(R) by (e,a)": (
        lambda: matrix_over_division(TripleSpec(
            Subgroup.trivial(make_group((2,))), trivially_graded_reals(make_group((2,))),
            (make_group((2,)).identity, make_group((2,)).element((1,))))),
        "no", "basis element 1E11 is not invertible", "{0:(4,[1, 0],1)}"),
    "M2_4 trivial": (
        lambda: _trivially_graded(catalog("M2_4")),
        "no", "indefinite or degenerate quaternary norm form",
        "{0:(4,[-1, 0],1),1:(4,[-1, 0],1),2:(4,[-1, 0],1),3:(4,[-1, 0],1)}"),
    "R[Z2] trivial": (
        lambda: _trivially_graded(twisted_group_algebra(
            make_group((2,)), lambda g, h: CycloScalar.one(1))),
        "no", "indefinite or degenerate binary norm form",
        "{0:(4,[-2, 0],1),1:(4,[-2, 0],1)}"),
    "M2C_Z4 trivial": (
        lambda: _trivially_graded(catalog("M2C_Z4")),
        "no", "e-component of dimension 8 is not 1, 2 or 4 (Frobenius)", "None"),
    "M4_4 trivial": (
        lambda: _trivially_graded(catalog("M4_4")),
        "no", "e-component of dimension 16 is not 1, 2 or 4 (Frobenius)", "None"),
}


@pytest.mark.parametrize("name", sorted(PINNED) + sorted(NOT_DIVISION))
def test_division_verdicts_are_pinned(name):
    if name in PINNED:
        a, verdict, reason, witness = PINNED[name](), "yes", (
            "e-component is a division algebra and all basis elements are "
            "invertible"), "None"
    else:
        build, verdict, reason, witness = NOT_DIVISION[name]
        a = build()
    got = check_graded_division(a)
    assert (got.verdict, got.reason, _element_text(got.witness)) == \
        (verdict, reason, witness)


# -- division equivalence ----------------------------------------------------------


def test_equiv_division_frozen_verdicts():
    assert equiv_division(catalog("H4"), catalog("M2_4"))
    assert equiv_division(catalog("H2"), catalog("M2_2"))
    assert equiv_division(catalog("pauli", 3, 1), catalog("pauli", 3, 2))
    assert equiv_division(catalog("pauli", 2, 1), catalog("H4"))

    rep = equiv_division(catalog("M2_4"), catalog("M4_4"))
    assert not rep and "types differ" in rep.reason
    rep = equiv_division(catalog("M2_4"), catalog("quat_trivial"))
    assert not rep and "types differ" in rep.reason


def test_equiv_division_needs_one_group():
    with pytest.raises(PreconditionError):
        equiv_division(catalog("H4"), catalog("C2"))


def test_equiv_division_agrees_with_brute_force_spot_checks():
    pairs = [("H4", "M2_4", 3), ("H2", "M2_2", 3), ("M2_4", "M4_4", 2)]
    for left, right, deg in pairs:
        a, b = catalog(left), catalog(right)
        assert bool(equiv_division(a, b)) == \
            same_identities_up_to(a, b, deg).equal


# -- triple normalization ------------------------------------------------------------


def wrap(a):
    return TripleSpec(a.support_subgroup(), a, (a.group.identity,))


def test_normalize_type_i_is_a_passthrough():
    spec = wrap(catalog("H4"))
    assert normalize_triple(spec) is spec


def test_normalize_h2_matches_the_elementary_triple():
    out = normalize_triple(wrap(catalog("H2")))
    g = catalog("H2").group
    assert out.subgroup == Subgroup.trivial(g)
    assert out.g_tuple == (g.identity, g.element((1,)))
    assert out.division.dim == 1
    assert classify(out.division).type_tag == "I"


def test_normalize_m2c_z4_structure():
    out = normalize_triple(wrap(catalog("M2C_Z4")))
    g = catalog("M2C_Z4").group
    assert sorted(out.subgroup.elements) == [g.identity, g.element((2,))]
    assert out.g_tuple == (g.identity, g.element((1,)))
    assert out.division.dim == 2
    u = out.division.basis_element(1)
    assert u.degree() == g.element((2,))
    assert u * u == -out.division.one()


def test_normalize_reuses_the_standard_type_ii_table(monkeypatch):
    # the standard case reads classify's table on the central support; only
    # the quotient case builds one on it
    built = []
    table = structure_module.bicharacter_table

    def counting(*args, **kwargs):
        built.append(args[1])
        return table(*args, **kwargs)

    for name, want in (("H2", 0), ("M2_2", 0), ("M2C_Z4", 1)):
        spec = wrap(catalog(name))
        rep = classify(spec.division)
        monkeypatch.setattr(structure_module, "bicharacter_table", counting)
        built.clear()
        out = normalize_triple(spec)
        monkeypatch.undo()
        assert len(built) == want, name
        assert built == [rep.central_support] * want
        if want == 0:
            model = out.division
            assert all(
                commutation_factor(model, g, h) == rep.bichar.value(g, h)
                for g in rep.central_support for h in rep.central_support)


def test_normalize_type_iii_doubles_the_tuple():
    out = normalize_triple(wrap(catalog("M4_4")))
    g = catalog("M4_4").group
    assert out.g_tuple == (g.identity, g.identity)
    assert out.division.dim == 4
    assert classify(out.division).type_tag == "I"


def test_normalized_triples_keep_identities():
    for name, deg in [("H2", 4), ("M2C_Z4", 3), ("M4_4", 3)]:
        a = catalog(name)
        out = normalize_triple(wrap(a))
        model = matrix_over_division(out)
        assert same_identities_up_to(a, model, deg).equal


# -- matrix-over-division equivalence ---------------------------------------------------


def test_coset_criterion_over_klein_group():
    g = make_group((2, 2))
    d = trivially_graded_reals(g)
    h = Subgroup.trivial(g)
    e, alpha = g.identity, g.element((1, 0))
    t1 = TripleSpec(h, d, (e, alpha))
    t2 = TripleSpec(h, d, (alpha, e))
    t3 = TripleSpec(h, d, (e, e))
    assert equiv_matrix_over_division(t1, t2)
    rep = equiv_matrix_over_division(t3, t1)
    assert not rep and "coset" in rep.reason
    # brute force agrees
    assert same_identities_up_to(matrix_over_division(t1),
                                 matrix_over_division(t2), 3).equal
    assert not same_identities_up_to(matrix_over_division(t3),
                                     matrix_over_division(t1), 3).equal


def test_coset_criterion_applies_a_global_shift():
    g = make_group((2, 2))
    d = trivially_graded_reals(g)
    h = Subgroup.trivial(g)
    e = g.identity
    a_, b_ = g.element((1, 0)), g.element((0, 1))
    rep = equiv_matrix_over_division(TripleSpec(h, d, (e, b_)),
                                     TripleSpec(h, d, (a_ * b_, a_)))
    assert rep and rep.shift is not None


def test_matrix_equiv_requires_normalized_division_parts():
    g = make_group((2,))
    h2 = catalog("H2")
    spec = TripleSpec(Subgroup.full(g), h2, (g.identity,))
    with pytest.raises(PreconditionError):
        equiv_matrix_over_division(spec, spec)


def test_matrix_equiv_size_and_subgroup_mismatches():
    g = make_group((2, 2))
    d = trivially_graded_reals(g)
    h = Subgroup.trivial(g)
    e = g.identity
    one = TripleSpec(h, d, (e,))
    two = TripleSpec(h, d, (e, e))
    rep = equiv_matrix_over_division(one, two)
    assert not rep and "sizes differ" in rep.reason
