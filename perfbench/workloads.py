"""The three workloads: inputs, one round of queries, and answer checks.

A workload builds its inputs once (`build`), then yields rounds of queries
(`round`).  A round is a fixed list; the seed only shuffles its order.  Each
query is `(label, thunk)`: the runner times `thunk()` and later hands its
return value to `check(label, value)`, which raises `OracleError` when an
answer is wrong.  Every query of a library workload runs on algebra objects
made for it alone (`inputs.fresh`), so no identity space or classification
memoised on an algebra carries over from an earlier query.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import gradedpi.algebras as algebras
import gradedpi.cli as cli
import gradedpi.identities as identities
import gradedpi.structure as structure

import expected
import inputs
import oracles
from oracles import OracleError


# -- brute_identities -------------------------------------------------------

BRUTE_DIVISION = (
    # equal pairs, every degree tuple is compared
    ("Z2", "H2", "M2_2", 3), ("Z2", "H2", "H4/(a,b->a)", 3),
    ("Z2", "M2_2", "H4/(a,b->a)", 3),
    ("Z2", "H2", "M2_2", 4), ("Z2", "H2", "H4/(a,b->a)", 4),
    ("Z2", "M2_2", "H4/(a,b->a)", 4),
    ("Z2^2", "H4", "M2_4", 3), ("Z2^2", "H4", "pauli(2,1)", 3),
    ("Z2^2", "M2_4", "M2_8/(drop last)", 3),
    ("Z2^2", "pauli(2,1)", "M2_4 sheared", 3),
    ("Z2^2", "H4 swapped", "M2_8/(drop last)", 3),
    ("Z2^2", "H4", "H4 swapped", 3), ("Z2^2", "M2_4", "M2_4 sheared", 3),
    ("Z2^2", "H4 swapped", "M2_4 sheared", 3),
    ("Z2^2", "H4", "M2_4", 4), ("Z2^2", "H4", "H4 swapped", 4),
    ("Z2^3", "M2_8", "H4 x C2", 3),
    ("Z4", "M2C_Z4", "M2C_Z4 inverted", 3),
    ("Z3^2", "pauli(3,1)", "pauli(3,2)", 3),
    # differing pairs with equal supports: they separate at degree 2
    ("Z2", "H2", "C2", 3), ("Z2", "M2_2", "C2", 4),
    ("Z2", "C2", "H4/(a,b->a)", 3),
    ("Z2^2", "H4", "M4_4", 3), ("Z2^2", "M2_4", "M4_4", 4),
    ("Z2^2", "pauli(2,1)", "M4_4", 3), ("Z2^2", "H4 swapped", "M4_4", 4),
    ("Z2^2", "M2_4 sheared", "M4_4", 3),
    ("Z2^2", "M2_8/(drop last)", "M4_4", 4),
    ("Z2^3", "M2_8", "C2 x C2 x C2", 3),
    ("Z2^3", "H4 x C2", "C2 x C2 x C2", 4),
    ("Z4", "M2C_Z4", "R[Z4], u^4=-1", 3),
    ("Z4", "M2C_Z4 inverted", "R[Z4], u^4=-1", 4),
)

BRUTE_MATRIX = (
    ("R (e,a)", "R (a,e)", 3), ("R (e,b)", "R (ab,a)", 3),
    ("C on <a^2> (e,a)", "C on <a^2> (a^2,a^3)", 3),
    ("H4 (e,e)", "M2_4 (a,b)", 3), ("M4_4 (e)", "H4 (e,e)", 3),
    ("M4_4 (e)", "M2_4 (e)", 3), ("quat_trivial (e)", "R (e,e)", 3),
    ("M2C_Z4 (e)", "M2C_Z4 inverted (e)", 3), ("H2 (e)", "M2_2 (e)", 3),
)


class BruteIdentities:
    """Library `same_identities_up_to` on division and matrix pairs."""

    def __init__(self, division=BRUTE_DIVISION, matrix=BRUTE_MATRIX):
        self.division = division
        self.matrix = matrix
        self.algs: dict = {}
        self.dims = oracles.DimensionOracle()

    def build(self):
        families = {f for f, *_ in self.division} | {
            inputs.TRIPLES[t][0] for x, y, _ in self.matrix for t in (x, y)}
        self.algs = inputs.build_algebras(families)

    def round(self, rng) -> list:
        out = []
        for _, x, y, deg in self.division:
            a, b = inputs.fresh(self.algs[x]), inputs.fresh(self.algs[y])
            out.append((("division", x, y, deg),
                        self._division_query(a, b, deg)))
        for x, y, deg in self.matrix:
            tx = inputs.fresh_triple(x, self.algs)
            ty = inputs.fresh_triple(y, self.algs)
            out.append((("matrix", x, y, deg),
                        self._matrix_query(tx, ty, deg)))
        rng.shuffle(out)
        return out

    @staticmethod
    def _division_query(a, b, deg):
        def run():
            rep = identities.same_identities_up_to(a, b, deg, names=("A", "B"))
            return rep, a, b
        return run

    @staticmethod
    def _matrix_query(tx, ty, deg):
        def run():
            a = algebras.matrix_over_division(tx)
            b = algebras.matrix_over_division(ty)
            rep = identities.same_identities_up_to(a, b, deg, names=("A", "B"))
            return rep, a, b
        return run

    def check(self, label, value):
        kind, x, y, _ = label
        rep, a, b = value
        if kind == "division":
            want, why = expected.division_verdict(x, y)
        else:
            want, why = expected.MATRIX_VERDICTS[(x, y)]
            x, y = f"matrix {x}", f"matrix {y}"
        if rep.equal != want:
            raise OracleError(f"{x} vs {y}: brute force says {rep.equal}, "
                              f"expected {want} ({why})")
        spaces = 0
        for name, alg in ((x, a), (y, b)):
            for key, space in alg._mul_cache.items():
                if isinstance(key, tuple):
                    self.dims.check_space(name, alg, key, space.dimension)
                    spaces += 1
        if spaces == 0:
            raise OracleError(f"{x} vs {y}: no identity space was computed")
        if not rep.equal:
            named = {"A": (a, x), "B": (b, y)}
            (ha, hn), (fa, fn) = named[rep.holds_in], named[rep.fails_in]
            oracles.check_witness(rep.witness, ha, self.dims.tensor(hn, ha),
                                  fa, self.dims.tensor(fn, fa),
                                  rep.witness_substitution)


# -- structural_decide ------------------------------------------------------

STRUCT_CLASSIFY = tuple(n for fam in inputs.FAMILIES.values() for n in fam)

STRUCT_EQUIV = (
    ("H2", "M2_2"), ("H2", "C2"), ("H2", "H4/(a,b->a)"),
    ("M2_2", "H4/(a,b->a)"), ("C2", "H4/(a,b->a)"),
    ("H4", "M2_4"), ("H4", "pauli(2,1)"), ("M2_4", "M2_8/(drop last)"),
    ("pauli(2,1)", "M2_4 sheared"), ("H4 swapped", "M2_8/(drop last)"),
    ("H4", "M4_4"), ("M2_4", "quat_trivial"), ("pauli(2,1)", "M4_4"),
    ("M4_4", "quat_trivial"), ("H4 swapped", "M2_4 sheared"),
    ("M2_8", "H4 x C2"), ("M2_8", "C2 x C2 x C2"),
    ("H4 x C2", "C2 x C2 x C2"),
    ("H4 x H4", "M2_4 x M2_4"), ("H4 x H4", "H4 x M2_4"),
    ("M2_4 x M2_4", "H4 x M2_4"),
    ("M2C_Z4", "M2C_Z4 inverted"), ("M2C_Z4", "R[Z4], u^4=-1"),
    ("M2C_Z4 inverted", "C2 on <a^2>"), ("R[Z4], u^4=-1", "C2 on <a^2>"),
    ("pauli(3,1)", "pauli(3,2)"), ("pauli(3,2)", "pauli(3,1) swapped"),
)

STRUCT_MATRIX = tuple(expected.MATRIX_VERDICTS)

# 67 queries a round: with one query more or less below it, the median
# latency falls in the gap between two query costs and moves from run to run


class StructuralDecide:
    """Library classify / equiv_division / normalize_triple decisions."""

    def __init__(self, classify=STRUCT_CLASSIFY, equiv=STRUCT_EQUIV,
                 matrix=STRUCT_MATRIX):
        self.classify_names = classify
        self.equiv = equiv
        self.matrix = matrix
        self.algs: dict = {}

    def build(self):
        self.algs = inputs.build_algebras()

    def round(self, rng) -> list:
        out = []
        for x in self.classify_names:
            a = inputs.fresh(self.algs[x])
            out.append((("classify", x), lambda a=a: structure.classify(a)))
        for x, y in self.equiv:
            a, b = inputs.fresh(self.algs[x]), inputs.fresh(self.algs[y])
            out.append((("equiv", x, y),
                        lambda a=a, b=b: structure.equiv_division(a, b)))
        for x, y in self.matrix:
            tx = inputs.fresh_triple(x, self.algs)
            ty = inputs.fresh_triple(y, self.algs)
            out.append((("matrix", x, y), self._matrix_query(tx, ty)))
        rng.shuffle(out)
        return out

    @staticmethod
    def _matrix_query(tx, ty):
        def run():
            na = structure.normalize_triple(tx)
            nb = structure.normalize_triple(ty)
            return structure.equiv_matrix_over_division(na, nb), na, nb
        return run

    @staticmethod
    def _check_report(name, rep):
        want, why = expected.TYPE_TAGS[name]
        if rep.type_tag != want:
            raise OracleError(f"{name}: Type {rep.type_tag}, expected "
                              f"{want} ({why})")
        for table in (rep.bichar,
                      rep.quotient.bichar if rep.quotient else None):
            if table is not None:
                oracles.check_bicharacter(table)

    def check(self, label, value):
        kind = label[0]
        if kind == "classify":
            self._check_report(label[1], value)
            return
        x, y = label[1:]
        if kind == "equiv":
            want, why = expected.division_verdict(x, y)
            self._check_report(x, value.left)
            self._check_report(y, value.right)
            verdict = value.verdict
        else:
            want, why = expected.MATRIX_VERDICTS[(x, y)]
            rep, na, nb = value
            for n in (na, nb):
                if set(n.division.support()) != set(n.subgroup.elements):
                    raise OracleError(f"normalised {x} / {y}: division "
                                      "part does not fill H")
            verdict = rep.verdict
        if verdict != want:
            raise OracleError(f"{x} vs {y}: verdict {verdict}, expected "
                              f"{want} ({why})")


# -- cli_cache --------------------------------------------------------------

_TENSOR_H4_C2 = ("tensor(catalog(H4), catalog(C2), into=Z2 x Z2 x Z2, "
                 "embedA=[(1,0,0),(0,1,0)], embedB=[(0,0,1)])")
_M2C_INVERTED = "regrade(catalog(M2C_Z4), into=Z4, images=[3])"

# algebra reference -> name in the expected tables
CLI_NAMES = {
    "catalog:H2": "H2", "catalog:M2_2": "M2_2", "catalog:C2": "C2",
    "catalog:H4": "H4", "catalog:M2_4": "M2_4", "catalog:M4_4": "M4_4",
    "catalog:pauli(2,1)": "pauli(2,1)", "catalog:M2_8": "M2_8",
    "catalog:M2C_Z4": "M2C_Z4", "catalog:pauli(3,1)": "pauli(3,1)",
    "catalog:quat_trivial": "quat_trivial",
    _TENSOR_H4_C2: "H4 x C2", _M2C_INVERTED: "M2C_Z4 inverted",
}

CLI_COMMANDS = (
    # commands that read and write the identity-space cache
    ("equiv", "catalog:M2_2", "catalog:C2"),
    ("equiv", "catalog:H2", "catalog:M2_2"),
    ("equiv", "--max-degree", "3", "catalog:H4", "catalog:M2_4"),
    ("equiv", "--max-degree", "3", "catalog:M2_4", "catalog:M4_4"),
    ("equiv", "--max-degree", "3", "catalog:M2C_Z4", _M2C_INVERTED),
    ("equiv", "--mode", "brute", "--max-degree", "3", "catalog:pauli(2,1)",
     "catalog:H4"),
    ("equiv", "--max-degree", "2", "catalog:M2_8", _TENSOR_H4_C2),
    ("idspace", "catalog:pauli(3,1)", "--tuple", "(1,0),(0,1)"),
    ("idspace", "catalog:M4_4", "--tuple", "(1,0),(0,1),(1,1)"),
    ("idspace", "catalog:M2_8", "--tuple", "(1,0,0),(0,1,0),(0,0,1),(1,1,1)"),
    ("idspace", "catalog:M2C_Z4", "--tuple", "1,2,3"),
    ("idspace", "catalog:H4", "--tuple", "(1,0),(0,1),(1,1),(0,0)"),
    # commands that do not use the cache
    ("check", "catalog:M2_4", "--poly", "[x[e,1],y[e,2]]"),
    ("check", "catalog:H4", "--poly", "x[(1,0),1]*y[(0,1),2] + "
     "y[(0,1),2]*x[(1,0),1]"),
    ("check", "catalog:M4_4", "--poly", "[x[e,1],y[e,2]]"),
    ("check", "catalog:pauli(3,1)", "--poly", "[x[(1,0),1],y[(0,1),2]]"),
    ("classify", "catalog:M2C_Z4"),
    ("classify", "catalog:M2_8"),
    ("classify", "catalog:H2"),
    ("classify", "catalog:M4_4"),
    ("normalize", "catalog:M2C_Z4"),
    ("normalize", "catalog:quat_trivial"),
    ("normalize", "catalog:H2"),
    ("normalize", "catalog:M4_4"),
    ("classify", "catalog:pauli(2,1)"),
)


def _refs(cmd):
    """Algebra references of a command, in order."""
    out, skip = [], False
    for arg in cmd[1:]:
        if skip:
            skip = False
        elif arg.startswith("--"):
            skip = True
        else:
            out.append(arg)
    return out


class CliCache:
    """In-process `gradedpi.cli.main` with a private disk cache.

    A round empties the cache directory, then replays the command list
    `replays` times in a fresh order each time: the first replay computes and
    writes cache entries, the later ones read them.
    """

    def __init__(self, cache_dir: str, commands=CLI_COMMANDS, replays=4):
        self.cache_dir = cache_dir
        self.commands = commands
        self.replays = replays
        self.algs: dict = {}
        self.first_docs: dict = {}
        self.dims = oracles.DimensionOracle()

    def build(self):
        """Resolve every algebra reference, degree tuple and polynomial."""
        os.environ["GRADEDPI_CACHE_DIR"] = self.cache_dir
        algs = {}
        for cmd in self.commands:
            for ref in _refs(cmd):
                a = cli.load_ref(ref)
                algs[ref] = a
                if "--tuple" in cmd:
                    cli.parse_degree_tuple(cmd[cmd.index("--tuple") + 1],
                                           a.group)
                if "--poly" in cmd:
                    identities.parse_polynomial(
                        cmd[cmd.index("--poly") + 1], a.group)
        self.algs = algs

    def round(self, rng) -> list:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.first_docs = {}
        out = []
        for replay in range(self.replays):
            order = list(self.commands)
            rng.shuffle(order)
            out.extend(((replay, cmd), self._query(cmd)) for cmd in order)
        return out

    def _query(self, cmd):
        argv = ["--json", "--cache-dir", self.cache_dir, *cmd]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        return run

    def check(self, label, value):
        replay, cmd = label
        code, out, err = value
        text = " ".join(cmd)
        if code not in (0, 1):
            raise OracleError(f"{text}: exit {code}: {err.strip()}")
        doc = json.loads(out)
        # warm documents equal the cold one
        if cmd in self.first_docs:
            if self.first_docs[cmd] != (code, doc):
                raise OracleError(f"{text}: replay {replay} differs from "
                                  "the first replay")
        else:
            self.first_docs[cmd] = (code, doc)
        getattr(self, "_check_" + cmd[0])(cmd, code, doc)

    def _check_equiv(self, cmd, code, doc):
        left, right = _refs(cmd)
        want, why = expected.division_verdict(CLI_NAMES[left], CLI_NAMES[right])
        if doc["verdict"] != want or code != (0 if want else 1):
            raise OracleError(f"{' '.join(cmd)}: verdict {doc['verdict']} "
                              f"(exit {code}), expected {want} ({why})")
        if doc["mode"] == "both" and not doc["agreement"]:
            raise OracleError(f"{' '.join(cmd)}: engines disagree")

    def _check_idspace(self, cmd, code, doc):
        ref = _refs(cmd)[0]
        a = self.algs[ref]
        degrees = cli.parse_degree_tuple(cmd[cmd.index("--tuple") + 1],
                                         a.group)
        if doc["monomials"] != math.factorial(len(degrees)):
            raise OracleError(f"{' '.join(cmd)}: wrong monomial count")
        if len(doc["basis"]) != doc["dimension"]:
            raise OracleError(f"{' '.join(cmd)}: basis size is not the "
                              "dimension")
        self.dims.check_space(ref, a, degrees, doc["dimension"])

    def _check_check(self, cmd, code, doc):
        ref = _refs(cmd)[0]
        a = self.algs[ref]
        f = identities.parse_polynomial(cmd[cmd.index("--poly") + 1], a.group)
        want = oracles.vanishes_everywhere(f, a, self.dims.tensor(ref, a))
        if doc["verdict"] != want or code != (0 if want else 1):
            raise OracleError(f"{' '.join(cmd)}: verdict {doc['verdict']}"
                              f", the float evaluation gives {want}")

    def _check_classify(self, cmd, code, doc):
        name = CLI_NAMES[_refs(cmd)[0]]
        want, why = expected.TYPE_TAGS[name]
        if doc["report"]["type"] != want:
            raise OracleError(f"{' '.join(cmd)}: Type "
                              f"{doc['report']['type']}, expected {want} "
                              f"({why})")

    def _check_normalize(self, cmd, code, doc):
        name = CLI_NAMES[_refs(cmd)[0]]
        want, why = expected.TYPE_TAGS[name]
        if doc["type_before"] != want or doc["division_type"] not in ("I", "IV"):
            raise OracleError(f"{' '.join(cmd)}: types "
                              f"{doc['type_before']} -> "
                              f"{doc['division_type']}, expected {want} "
                              f"({why}) -> I or IV")
        if doc["changed"] != (want in ("II", "III")):
            raise OracleError(f"{' '.join(cmd)}: 'changed' is "
                              f"{doc['changed']} for Type {want}")


def make(name: str, cache_dir: str):
    if name == "brute_identities":
        return BruteIdentities()
    if name == "structural_decide":
        return StructuralDecide()
    if name == "cli_cache":
        return CliCache(cache_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("brute_identities", "structural_decide", "cli_cache")
