"""A fixed unit of interpreter work that measures the machine's speed.

The benchmark runs on shared virtual machines whose speed drifts by a
factor of two or more over minutes, and by a third within a second; process
CPU time drifts with it, because the drift comes from the host (shared cores
and caches), not from other processes in the guest.  A run therefore
interleaves its timed work with calibration units and expresses every
timing at a fixed reference speed:

    reported = measured * REF_UNIT_S / (measured seconds per unit nearby)

A unit is pure-Python exact arithmetic of the same kind as the package's
hot paths (Fraction polynomials modulo a cyclotomic polynomial, tuple
hashing, dict lookups, small-matrix elimination over Fractions) and shares
no code with the package, so a change to the package does not move it.
"""

import time
from fractions import Fraction

# seconds one unit is taken to last at the reference speed; a fixed scale
# (a unit took 1.0-1.45 ms on the 2-vCPU virtual machine of the README)
REF_UNIT_S = 1e-3

_PHI8 = 4  # x^4 + 1, the 8th cyclotomic polynomial


def _polymul(a, b):
    """Product of two coefficient tuples modulo x^4 + 1."""
    out = [Fraction(0)] * _PHI8
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = i + j
            if k < _PHI8:
                out[k] += x * y
            else:
                out[k - _PHI8] -= x * y
    return tuple(out)


def _rank(rows):
    """Rank of a small matrix over the rationals, by row reduction."""
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def unit() -> int:
    """One unit of work; returns a checksum so nothing is optimised away."""
    seen = {}
    p = (Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(2, 5))
    q = (Fraction(1), Fraction(1, 7), Fraction(-3, 4), Fraction(0))
    for _ in range(8):
        p = _polymul(p, q)
        # keep the heights bounded so every unit costs the same
        p = tuple(Fraction(x.numerator % 997, x.denominator % 991 + 1)
                  for x in p)
        seen[p] = seen.get(p, 0) + 1
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7)
             for j in range(5)] for i in range(5)]
    return len(seen) + _rank(rows)


class Meter:
    """Accumulates calibration units and the CPU time they took."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.units = 0
        self.spent = 0.0

    def sample(self, seconds: float) -> float:
        """Run whole units until at least `seconds` (and one unit) have gone;
        returns the speed factor of this sample alone."""
        t0 = self.clock()
        n = 0
        while True:
            unit()
            n += 1
            if self.clock() - t0 >= seconds:
                break
        spent = self.clock() - t0
        self.units += n
        self.spent += spent
        return spent / n / REF_UNIT_S

    def factor(self) -> float:
        """How many times slower than the reference speed all samples ran."""
        return self.spent / self.units / REF_UNIT_S
