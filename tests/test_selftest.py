"""The selftest's sections report failures instead of assuming success."""

import dataclasses

import gradedpi.selftest as selftest
from gradedpi.algebras import (TripleSpec, catalog, matrix_over_division,
                               trivially_graded_reals)
from gradedpi.groups import Subgroup, make_group


def test_bicharacter_section_recomputes_every_cell():
    result = selftest.section_bicharacter_axioms()
    assert result.ok and result.failures == []
    # one table per catalog instance: the quotient table for M2C_Z4, the
    # table on supp_R or supp A for the others
    assert result.detail == \
        "810 cells of 14 tables recomputed by the one-cell functions"
    assert result.checks == 810


def test_one_corrupted_cell_fails_the_bicharacter_section(monkeypatch):
    classify = selftest.classify

    def corrupted(a):
        rep = classify(a)
        if "pauli(3,1)" not in a.provenance:
            return rep
        table = rep.bichar
        g, h = table.domain[1], table.domain[2]
        values = dict(table.values)
        values[(g, h)] = -values[(g, h)]
        return dataclasses.replace(
            rep, bichar=dataclasses.replace(table, values=values))

    monkeypatch.setattr(selftest, "classify", corrupted)
    result = selftest.section_bicharacter_axioms()
    assert not result.ok
    assert len(result.failures) == 1
    assert result.failures[0].startswith("pauli(3,1): cell (")


def test_oracle_section_verifies_division_instead_of_the_label(monkeypatch):
    # M2(R), trivially graded by Z2, labelled as a division grading
    z2 = make_group((2,))
    fake = matrix_over_division(TripleSpec(
        Subgroup.trivial(z2), trivially_graded_reals(z2),
        (z2.identity, z2.identity)))
    fake.provenance = "division grading (mislabelled)"
    monkeypatch.setattr(selftest, "_closure_families", lambda: [
        ("Z2", [("C2", catalog("C2")), ("H2", catalog("H2")),
                ("M2(R)", fake)])])
    result = selftest.section_oracle_agreement(max_degree=2)
    assert result.ok and result.checks == 1
    assert result.detail.endswith("filtered non-division: Z2:M2(R) (no)")
