"""The Alexander polynomial of a closed braid from its reduced Burau
matrix, kept as an oracle for Delta that builds no Seifert matrix.

For a braid b on n strands with reduced Burau matrix psi(b), an
(n - 1) x (n - 1) matrix over Z[t, 1/t],

    (1 + t + ... + t^(n-1)) Delta(t) = det(I - psi(b))

up to units +-t^k, for knots and links alike (W. Burau, 1935; C. Kassel
and V. Turaev, *Braid Groups*, GTM 247, 2008, ch. 3).  Here psi(s_i) is
the identity but in column i, which holds t above the diagonal, -t on it
and 1 below it (indices 1..n-1; the entries past the edge are left out),
and t psi(s_i^-1) is t times the identity but in column i, which holds t,
-1 and 1.  So with e inverse letters P = t^e psi(b) is a product of
integer polynomial matrices, and det(t^e I - P) = t^(e(n-1)) det(I -
psi(b)).  That determinant is one elimination by the eager reference
kernel (bareiss_reference._bareiss); the division by 1 + t + ... +
t^(n-1) is exact.  Nothing here shares code with the braid walk of
linkbound.braids or with the packed kernel of linkbound.linalg.
"""

from __future__ import annotations

from linkbound import BraidWord

from bareiss_reference import _bareiss


def _add(p: list, q: list) -> list:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def letter_matrix(letter: int, strands: int) -> list:
    """psi(s_i) for letter i > 0, t psi(s_i^-1) for letter -i, as a
    (strands - 1) x (strands - 1) matrix of dense integer polynomials."""
    size, i = strands - 1, abs(letter) - 1
    diagonal = [1] if letter > 0 else [0, 1]
    m = [[diagonal if r == c else [] for c in range(size)] for r in range(size)]
    m[i][i] = [0, -1] if letter > 0 else [-1]
    if i > 0:
        m[i - 1][i] = [0, 1]
    if i + 1 < size:
        m[i + 1][i] = [1]
    return m


def _matmul(a: list, b: list) -> list:
    size = len(a)
    return [[_trim(_sum(_mul(a[r][k], b[k][c]) for k in range(size) if b[k][c]))
             for c in range(size)] for r in range(size)]


def _sum(polys) -> list:
    out = []
    for p in polys:
        out = _add(out, p)
    return out


def _divide(p: list, q: list) -> list:
    """p / q for a monic q that divides p exactly; AssertionError else."""
    p, out = _trim(p), []
    if not p:
        return []
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = p[k + len(q) - 1]
        for j, d in enumerate(q):
            p[k + j] -= c * d
    assert not any(p), "1 + t + ... + t^(n-1) does not divide det(I - psi)"
    return out


def up_to_units(p: list) -> tuple:
    """A dense integer polynomial with the units +-t^k taken out: no
    leading or trailing zeros, the highest coefficient positive."""
    p = _trim(p)
    while p and p[0] == 0:
        p.pop(0)
    return tuple(-c for c in p) if p and p[-1] < 0 else tuple(p)


def burau_alexander(b: BraidWord) -> tuple:
    """Delta of the closure of b up to units (see up_to_units), from the
    reduced Burau matrix of b; () when Delta is 0."""
    n = b.strands
    if n == 1:
        return (1,)
    product = [[[1] if r == c else [] for c in range(n - 1)] for r in range(n - 1)]
    for letter in b.letters:
        product = _matmul(product, letter_matrix(letter, n))
    inverses = sum(1 for x in b.letters if x < 0)
    minus = [[_trim(_add([0] * inverses + [1] if r == c else [], [-x for x in e]))
              for c, e in enumerate(row)] for r, row in enumerate(product)]
    sign, pivots, _, _ = _bareiss(minus)
    det = [sign * c for c in pivots[-1]] if len(pivots) == n - 1 else []
    return up_to_units(_divide(det, [1] * n))


def assert_matches(b: BraidWord, delta) -> None:
    """The LaurentPoly delta equals the Burau Delta of b up to units."""
    _, coeffs = delta.to_dense()
    expected = burau_alexander(b)
    assert up_to_units(coeffs) == expected, (b, delta, expected)
