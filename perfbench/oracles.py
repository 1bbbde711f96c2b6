"""Floating-point oracles, independent of the package's exact arithmetic.

Every check here reads only the data that defines an algebra (its basis
degrees and the rational power-basis coordinates of its structure constants)
or the data a result reports, and recomputes what it needs with numpy in
double precision.  None of it calls CycloScalar arithmetic, RowReducer or any
decision procedure of the package.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

TOL = 1e-8


class OracleError(Exception):
    """An answer of the program disagrees with an oracle."""


def scalar_value(s) -> complex:
    """Numeric value of a cyclotomic scalar from its power-basis coordinates."""
    m = s.conductor
    return sum(float(c) * cmath.exp(2j * math.pi * k / m)
               for k, c in enumerate(s.coeffs) if c)


def structure_tensor(a) -> np.ndarray:
    """C[i, j, k]: coefficient of basis k in the product of basis i and j."""
    c = np.zeros((a.dim, a.dim, a.dim))
    for (i, j), entries in a.table.items():
        for k, s in entries:
            v = scalar_value(s)
            if abs(v.imag) > TOL:
                raise OracleError(f"structure constant ({i},{j},{k}) is not real")
            c[i, j, k] = v.real
    return c


def _product(c: np.ndarray, word) -> np.ndarray:
    vec = np.zeros(c.shape[0])
    vec[word[0]] = 1.0
    for t in word[1:]:
        vec = vec @ c[:, t, :]
    return vec


def identity_dimension(a, c: np.ndarray, degrees) -> int:
    """Dimension of the multilinear identities of a at a degree tuple.

    Columns are the n! permutation monomials; each basis substitution adds
    one block of rows, the coordinates of every monomial's value.  The
    identities are the real kernel of that system.
    """
    n = len(degrees)
    perms = list(itertools.permutations(range(n)))
    comps = [a.component(g) for g in degrees]
    if any(not comp for comp in comps):
        return len(perms)
    blocks = []
    for sub in itertools.product(*comps):
        blocks.append(np.stack([_product(c, [sub[p] for p in perm])
                                for perm in perms], axis=1))
    system = np.concatenate(blocks, axis=0)
    scale = max(1.0, float(np.abs(system).max()))
    return len(perms) - int(np.linalg.matrix_rank(system, tol=TOL * scale))


class DimensionOracle:
    """Memoised float identity dimensions per (algebra name, degree tuple)."""

    def __init__(self):
        self._tensors: dict = {}
        self._dims: dict = {}

    def tensor(self, name: str, a) -> np.ndarray:
        c = self._tensors.get(name)
        if c is None:
            c = self._tensors[name] = structure_tensor(a)
        return c

    def dimension(self, name: str, a, degrees) -> int:
        key = (name, tuple(g.exps for g in degrees))
        dim = self._dims.get(key)
        if dim is None:
            dim = self._dims[key] = identity_dimension(
                a, self.tensor(name, a), degrees)
        return dim

    def check_space(self, name: str, a, degrees, reported_dim: int):
        want = self.dimension(name, a, degrees)
        if reported_dim != want:
            raise OracleError(
                f"{name}: identity space at {degrees} has dimension "
                f"{reported_dim}, the float rank gives {want}")


def evaluate_polynomial(f, c: np.ndarray, assignment: dict) -> np.ndarray:
    """Value of a graded polynomial with variables sent to basis indices."""
    total = np.zeros(c.shape[0])
    for mono, coeff in f.terms.items():
        v = scalar_value(coeff)
        if abs(v.imag) > TOL:
            raise OracleError("witness has a non-real coefficient")
        total += v.real * _product(c, [assignment[x] for x in mono])
    return total


def _variables(f):
    return sorted({v for mono in f.terms for v in mono},
                  key=lambda v: v.sort_key())


def vanishes_everywhere(f, a, c: np.ndarray) -> bool:
    """Does a multilinear polynomial vanish on every basis substitution?"""
    variables = _variables(f)
    for choice in itertools.product(*(a.component(v.degree)
                                      for v in variables)):
        val = evaluate_polynomial(f, c, dict(zip(variables, choice)))
        if np.abs(val).max(initial=0.0) > TOL:
            return False
    return True


def check_witness(f, holds_alg, holds_c, fails_alg, fails_c, substitution):
    """A separating polynomial vanishes on one algebra, not on the other.

    It must vanish on every basis substitution of the algebra it is reported
    to hold in, and be nonzero on the reported substitution of the other.
    """
    if f is None:
        raise OracleError("a false verdict carries no witness")
    if not vanishes_everywhere(f, holds_alg, holds_c):
        raise OracleError(f"witness {f!r} does not vanish where it is "
                          "reported to hold")
    if not substitution:
        raise OracleError("a false verdict carries no witness substitution")
    assignment = {v: fails_alg.labels.index(lab)
                  for v, lab in substitution.items()}
    for v, idx in assignment.items():
        if fails_alg.degrees[idx] != v.degree:
            raise OracleError(f"substitution for {v!r} has the wrong degree")
    val = evaluate_polynomial(f, fails_c, assignment)
    if np.abs(val).max(initial=0.0) <= TOL:
        raise OracleError(f"witness {f!r} vanishes on the reported "
                          "substitution")


def check_bicharacter(table):
    """Skew-symmetry and multiplicativity of a bicharacter table, in floats."""
    dom = list(table.domain)
    val = {k: scalar_value(v) for k, v in table.values.items()}
    for g in dom:
        for h in dom:
            if abs(val[(g, h)] * val[(h, g)] - 1) > TOL:
                raise OracleError(f"table is not skew-symmetric at ({g}, {h})")
    domset = set(dom)
    for g in dom:
        for h in dom:
            gh = g * h
            if gh not in domset:
                continue
            for k in dom:
                if abs(val[(gh, k)] - val[(g, k)] * val[(h, k)]) > TOL:
                    raise OracleError(
                        f"table is not multiplicative at ({g}, {h}; {k})")
