"""Expected verdicts and type tags, each derived from a criterion of the paper.

The classification splits on dim A_e and on whether A_e is central:
dim A_e = 1 is Type I (regular grading, real commutation bicharacter);
dim A_e = 4 is Type III (quaternion e-component); dim A_e = 2 central is
Type I when every commutation factor is real and Type IV (non-regular Pauli
grading) otherwise; dim A_e = 2 non-central is Type II.  Two division
gradings by the same group satisfy the same graded identities exactly when
they have the same type and support and
  - Type I / III: equal commutation bicharacters;
  - Type IV: bicharacters equal or complex conjugate;
  - Type II: equal supp_R and bicharacter there, or, for a non-elementary
    support, equal data of the quotient by the subgroup of squares.
Matrix gradings M_n(D) with Type I/IV division parts agree exactly when the
sizes and the subgroups H agree, the division parts agree, and the coset
multisets {g_i H} agree after one global shift.

No entry here was copied from the program's output: every class below is
stated with the invariant that puts its members together.
"""

from __future__ import annotations

# name -> (type tag, reason)
TYPE_TAGS = {
    "H2": ("II", "dim A_e = 2, e-component span(1,i) does not commute with j"),
    "M2_2": ("II", "dim A_e = 2, e-component span(I,C) does not commute with A"),
    "C2": ("I", "dim A_e = 1"),
    "H4/(a,b->a)": ("II", "dim A_e = 2, e-component span(1,k) not central"),
    "H4": ("I", "dim A_e = 1"),
    "M2_4": ("I", "dim A_e = 1"),
    "pauli(2,1)": ("I", "dim A_e = 2 central, factors are +-1 (real)"),
    "H4 swapped": ("I", "dim A_e = 1"),
    "M2_4 sheared": ("I", "dim A_e = 1"),
    "M2_8/(drop last)": ("I", "dim A_e = 2 central (C2 factor), real factors"),
    "M4_4": ("III", "dim A_e = 4 (trivially graded quaternion factor)"),
    "quat_trivial": ("III", "dim A_e = 4"),
    "M2_8": ("I", "dim A_e = 1"),
    "H4 x C2": ("I", "dim A_e = 1"),
    "C2 x C2 x C2": ("I", "dim A_e = 1"),
    "H4 x H4": ("I", "dim A_e = 1"),
    "M2_4 x M2_4": ("I", "dim A_e = 1"),
    "H4 x M2_4": ("I", "dim A_e = 1"),
    "M2C_Z4": ("II", "dim A_e = 2, e-component span(I,C) not central"),
    "M2C_Z4 inverted": ("II", "dim A_e = 2, e-component span(I,C) not central"),
    "R[Z4], u^4=-1": ("I", "dim A_e = 1"),
    "C2 on <a^2>": ("I", "dim A_e = 1"),
    "pauli(3,1)": ("IV", "dim A_e = 2 central, factors are cube roots of 1"),
    "pauli(3,2)": ("IV", "dim A_e = 2 central, factors are cube roots of 1"),
    "pauli(3,1) swapped": ("IV", "dim A_e = 2 central, factors cube roots of 1"),
    "pauli(4,1)": ("IV", "dim A_e = 2 central, factors are powers of i"),
    "pauli(4,3)": ("IV", "dim A_e = 2 central, factors are powers of i"),
}

# identity classes: members of one class are equivalent, of two classes not
DIVISION_CLASSES = (
    (("H2", "M2_2", "H4/(a,b->a)"),
     "Type II on Z2, elementary support, supp_R = {e}: equal data"),
    (("C2",), "Type I on Z2 with the trivial bicharacter"),
    (("H4", "M2_4", "pauli(2,1)", "H4 swapped", "M2_4 sheared",
      "M2_8/(drop last)"),
     "Type I on Z2^2 with beta(a,b) = -1: equal supports and bicharacters"),
    (("M4_4",), "Type III with support Z2^2"),
    (("quat_trivial",), "Type III with support {e}"),
    (("M2_8", "H4 x C2"),
     "Type I on Z2^3, beta(a,b) = -1, c central: equal bicharacters"),
    (("C2 x C2 x C2",), "Type I on Z2^3 with the trivial bicharacter"),
    (("H4 x H4", "M2_4 x M2_4", "H4 x M2_4"),
     "Type I on Z2^4, beta = -1 on each factor's generators: equal tables"),
    (("M2C_Z4", "M2C_Z4 inverted"),
     "Type II on Z4, non-elementary support: equal quotient data"),
    (("R[Z4], u^4=-1",), "Type I on Z4 with the trivial bicharacter"),
    (("C2 on <a^2>",), "Type I with support <a^2>"),
    (("pauli(3,1)", "pauli(3,2)", "pauli(3,1) swapped"),
     "Type IV on Z3^2: bicharacters equal or conjugate"),
    (("pauli(4,1)", "pauli(4,3)"),
     "Type IV on Z4^2: conjugate bicharacters"),
)

_CLASS_OF = {name: (i, why) for i, (members, why) in enumerate(DIVISION_CLASSES)
             for name in members}


def division_verdict(a: str, b: str) -> tuple[bool, str]:
    """Expected verdict for two division gradings by the same group."""
    ca, why_a = _CLASS_OF[a]
    cb, why_b = _CLASS_OF[b]
    if ca == cb:
        return True, why_a
    return False, f"{a}: {why_a}; {b}: {why_b}"


# (left, right) -> (verdict, reason)
MATRIX_VERDICTS = {
    ("R (e,a)", "R (a,e)"): (True, "H = {e}: coset multisets {e,a} agree"),
    ("R (e,e)", "R (e,a)"): (False, "H = {e}: no shift maps {e,a} to {e,e}"),
    ("R (e,b)", "R (ab,a)"): (True, "H = {e}: shift by a maps {ab,a} to {b,e}"),
    ("C on <a^2> (e,a)", "C on <a^2> (a^2,a^3)"):
        (True, "H = <a^2>: both tuples meet the cosets H and aH once"),
    ("C on <a^2> (e,a)", "C on <a^2> (e,e)"):
        (False, "H = <a^2>: {H, aH} is no shift of {H, H}"),
    ("H4 (e,e)", "M2_4 (a,b)"):
        (True, "H = G: one coset; H4 and M2_4 are equivalent Type I parts"),
    ("M4_4 (e)", "H4 (e,e)"):
        (True, "Type III M4_4 normalises to size 2 over H4's bicharacter"),
    ("M4_4 (e)", "M2_4 (a,b)"):
        (True, "Type III M4_4 normalises to size 2 over M2_4's bicharacter"),
    ("M4_4 (e)", "M2_4 (e)"): (False, "sizes differ after normalisation: 2, 1"),
    ("quat_trivial (e)", "R (e,e)"):
        (True, "Type III H normalises to M_2 over R with the tuple (e,e)"),
    ("quat_trivial (e)", "R (e,a)"):
        (False, "H normalises to (e,e), no shift of which gives {e,a}"),
    ("M2C_Z4 (e)", "M2C_Z4 inverted (e)"):
        (True, "equivalent Type II division parts, tuple (e)"),
    ("H2 (e)", "M2_2 (e)"): (True, "equivalent Type II division parts"),
}
