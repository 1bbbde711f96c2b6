"""Input algebras for the library workloads, built through the public API.

`build_algebras` is the set-up work of a library workload: it builds every
prototype from the catalog and the combinators.  `fresh` copies a prototype
into a new algebra object with new scalar objects, so that no query sees a
cache (`_mul_cache`, scalar hashes) filled by an earlier query.
"""

from __future__ import annotations

import gradedpi.algebras as algebras
import gradedpi.groups as groups
import gradedpi.scalars as scalars

# family -> member names; members of one family share the grading group
FAMILIES = {
    "Z2": ("H2", "M2_2", "C2", "H4/(a,b->a)"),
    "Z2^2": ("H4", "M2_4", "pauli(2,1)", "H4 swapped", "M2_4 sheared",
             "M2_8/(drop last)", "M4_4", "quat_trivial"),
    "Z2^3": ("M2_8", "H4 x C2", "C2 x C2 x C2"),
    "Z2^4": ("H4 x H4", "M2_4 x M2_4", "H4 x M2_4"),
    "Z4": ("M2C_Z4", "M2C_Z4 inverted", "R[Z4], u^4=-1", "C2 on <a^2>"),
    "Z3^2": ("pauli(3,1)", "pauli(3,2)", "pauli(3,1) swapped"),
    "Z4^2": ("pauli(4,1)", "pauli(4,3)"),
}


def _emb(g, h, images):
    return groups.make_hom(g, h, [h.element(x) for x in images])


def build_algebras(families=None) -> dict:
    """Every algebra of the named families (all of them by default)."""
    want = set(families or FAMILIES)
    cat = algebras.catalog
    z2, z22 = groups.make_group((2,)), groups.make_group((2, 2))
    z23, z24 = groups.make_group((2, 2, 2)), groups.make_group((2, 2, 2, 2))
    z4, z32 = groups.make_group((4,)), groups.make_group((3, 3))
    out = {}
    if want & {"Z2", "Z2^2", "Z2^3", "Z2^4"}:
        h4, m24, c2 = cat("H4"), cat("M2_4"), cat("C2")
    if "Z2" in want:
        out["H2"] = cat("H2")
        out["M2_2"] = cat("M2_2")
        out["C2"] = c2
        out["H4/(a,b->a)"] = algebras.quotient_grading(
            h4, _emb(z22, z2, [(1,), (1,)]))
    if "Z2^2" in want:
        out["H4"] = h4
        out["M2_4"] = m24
        out["pauli(2,1)"] = cat("pauli", 2, 1)
        out["H4 swapped"] = algebras.regrade(
            h4, _emb(z22, z22, [(0, 1), (1, 0)]))
        out["M2_4 sheared"] = algebras.regrade(
            m24, _emb(z22, z22, [(0, 1), (1, 1)]))
        out["M2_8/(drop last)"] = algebras.quotient_grading(
            cat("M2_8"), _emb(z23, z22, [(1, 0), (0, 1), (0, 0)]))
        out["M4_4"] = cat("M4_4")
        out["quat_trivial"] = cat("quat_trivial")
    if "Z2^3" in want:
        out["M2_8"] = cat("M2_8")
        out["H4 x C2"] = algebras.tensor_product(
            h4, c2, z23, _emb(z22, z23, [(1, 0, 0), (0, 1, 0)]),
            _emb(z2, z23, [(0, 0, 1)]))
        out["C2 x C2 x C2"] = algebras.tensor_product(
            algebras.tensor_product(c2, c2, z22, _emb(z2, z22, [(1, 0)]),
                                    _emb(z2, z22, [(0, 1)])),
            c2, z23, _emb(z22, z23, [(1, 0, 0), (0, 1, 0)]),
            _emb(z2, z23, [(0, 0, 1)]))
    if "Z2^4" in want:
        left = _emb(z22, z24, [(1, 0, 0, 0), (0, 1, 0, 0)])
        right = _emb(z22, z24, [(0, 0, 1, 0), (0, 0, 0, 1)])
        out["H4 x H4"] = algebras.tensor_product(h4, h4, z24, left, right)
        out["M2_4 x M2_4"] = algebras.tensor_product(m24, m24, z24, left, right)
        out["H4 x M2_4"] = algebras.tensor_product(h4, m24, z24, left, right)
    if "Z4" in want:
        m2c = cat("M2C_Z4")
        one = scalars.CycloScalar.one(1)
        out["M2C_Z4"] = m2c
        out["M2C_Z4 inverted"] = algebras.regrade(m2c, _emb(z4, z4, [(3,)]))
        out["R[Z4], u^4=-1"] = algebras.twisted_group_algebra(
            z4, lambda g, h: one, (-1,))
        out["C2 on <a^2>"] = algebras.regrade(cat("C2"), _emb(z2, z4, [(2,)]))
    if "Z3^2" in want:
        p31 = cat("pauli", 3, 1)
        out["pauli(3,1)"] = p31
        out["pauli(3,2)"] = cat("pauli", 3, 2)
        out["pauli(3,1) swapped"] = algebras.regrade(
            p31, _emb(z32, z32, [(0, 1), (1, 0)]))
    if "Z4^2" in want:
        out["pauli(4,1)"] = cat("pauli", 4, 1)
        out["pauli(4,3)"] = cat("pauli", 4, 3)
    return out


def fresh(a):
    """An equal algebra sharing no mutable or memoising object with `a`."""
    copy = scalars.CycloScalar

    def dup(s):
        return copy(s.conductor, s.coeffs)

    table = {ij: tuple((k, dup(s)) for k, s in entries)
             for ij, entries in a.table.items()}
    unit = {k: dup(s) for k, s in a.unit.items()}
    return algebras.GradedAlgebra(a.group, a.conductor, a.labels, a.degrees,
                                  table, unit, provenance=a.provenance)


# name -> (family, division part or None for the trivially graded reals,
#          g tuple); H is the support of the division part
TRIPLES = {
    "R (e,a)": ("Z2^2", None, ((0, 0), (1, 0))),
    "R (a,e)": ("Z2^2", None, ((1, 0), (0, 0))),
    "R (e,e)": ("Z2^2", None, ((0, 0), (0, 0))),
    "R (e,b)": ("Z2^2", None, ((0, 0), (0, 1))),
    "R (ab,a)": ("Z2^2", None, ((1, 1), (1, 0))),
    "C on <a^2> (e,a)": ("Z4", "C2 on <a^2>", ((0,), (1,))),
    "C on <a^2> (a^2,a^3)": ("Z4", "C2 on <a^2>", ((2,), (3,))),
    "C on <a^2> (e,e)": ("Z4", "C2 on <a^2>", ((0,), (0,))),
    "H4 (e,e)": ("Z2^2", "H4", ((0, 0), (0, 0))),
    "M2_4 (a,b)": ("Z2^2", "M2_4", ((1, 0), (0, 1))),
    "M2_4 (e)": ("Z2^2", "M2_4", ((0, 0),)),
    "M4_4 (e)": ("Z2^2", "M4_4", ((0, 0),)),
    "quat_trivial (e)": ("Z2^2", "quat_trivial", ((0, 0),)),
    "M2C_Z4 (e)": ("Z4", "M2C_Z4", ((0,),)),
    "M2C_Z4 inverted (e)": ("Z4", "M2C_Z4 inverted", ((0,),)),
    "H2 (e)": ("Z2", "H2", ((0,),)),
    "M2_2 (e)": ("Z2", "M2_2", ((0,),)),
}

_ORDERS = {"Z2": (2,), "Z2^2": (2, 2), "Z4": (4,)}


def fresh_triple(name: str, algs: dict):
    """The TripleSpec named `name`, over a fresh copy of its division part."""
    family, dname, tup = TRIPLES[name]
    division = (fresh(algs[dname]) if dname is not None else
                algebras.trivially_graded_reals(
                    groups.make_group(_ORDERS[family])))
    g = division.group
    return algebras.TripleSpec(division.support_subgroup(), division,
                               tuple(g.element(x) for x in tup))
