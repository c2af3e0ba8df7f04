"""Litherland's closed form for the signatures of torus knots (R. A.
Litherland, "Signatures of iterated torus knots", Springer LNM 722,
1979), kept as an exact reference for the signature functions of torus
knots, their mirrors and their connected sums.

For T(p, q) with gcd(p, q) = 1 and w = e^(2 pi i theta), theta in (0, 1/2)
off the jumps, sigma_w = -(N_in - N_out), where N_in counts the pairs
1 <= i < p, 1 <= j < q with theta < i/p + j/q < theta + 1 and N_out counts
the other pairs.  This sign convention gives sigma(T(2,3)) = -2 at x = -2,
as linkbound does.  The jumps are at theta = frac(i/p + j/q) in (0, 1/2),
at x = 2cos(2 pi theta): each is one pair crossing its wall, so every jump
is simple, changes sigma by 2 and has nullity 1.  A jump theta = a/m in
lowest terms is a root x of Psi_m, the minimal polynomial of
2cos(2 pi / m); the roots of Psi_m in (-2, 2) are 2cos(2 pi b/m) for the
b in (0, m/2) prime to m, decreasing in b, so a Sturm count of Psi_m
places a rational x exactly among them.
Signatures and jumps add under connected sum, and a mirror negates the
signatures.

The same count holds for torus links, gcd(p, q) > 1: T(p, q) is the link
of x^p + y^q in every case, and its Seifert form splits over the
eigenvalues e^(2 pi i (i/p + j/q)) of the monodromy as for knots
(Sebastiani-Thom).  Now several pairs can share a wall, and a pair with
i/p + j/q = 1 has none in (0, 1/2): det B is not 0 and the nullity at a
jump is the number of pairs on its wall, the multiplicity of the root.
A jump's averaged value is the mean of its two neighbours.  The block
sum with the k x k zero matrix (k more split components) adds k to
every nullity.
"""

from __future__ import annotations

import collections
from fractions import Fraction
from functools import lru_cache
from math import gcd

from linkbound import polys
from linkbound.realroots import RealAlgebraic, count_roots, sturm_chain

HALF = Fraction(1, 2)


def _pairs(p: int, q: int):
    """i/p + j/q over the pairs 1 <= i < p, 1 <= j < q."""
    return [Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q)]


def litherland_signature(p: int, q: int, theta: Fraction) -> int:
    """sigma of T(p, q) at e^(2 pi i theta), theta in (0, 1/2) off the jumps."""
    n_in = sum(1 for v in _pairs(p, q) if theta < v < theta + 1)
    return -(2 * n_in - (p - 1) * (q - 1))


def litherland_jumps(p: int, q: int) -> list:
    """The jumps theta = frac(i/p + j/q) in (0, 1/2), increasing, each as
    often as pairs lie on its wall."""
    return sorted(w for w in (v % 1 for v in _pairs(p, q)) if 0 < w < HALF)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple:
    """Phi_m: t^m - 1 over the Phi_d of the proper divisors d of m."""
    phi = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi = polys.div_exact(phi, list(_cyclotomic(d)))
    return tuple(phi)


@lru_cache(maxsize=None)
def psi(m: int) -> tuple:
    """Psi_m, m >= 3: t^(-h) Phi_m(t), of degree 2h, in x = t + 1/t."""
    phi = _cyclotomic(m)
    h = (len(phi) - 1) // 2
    out, old, cur = [phi[h]], [2], [0, 1]  # D_0 = 2, D_1 = x, D_(e+1) = x D_e - D_(e-1)
    for c in phi[h + 1:]:
        out = polys.add(out, [c * a for a in cur])
        old, cur = cur, polys.sub([0] + cur, old)
    return tuple(polys.trim(out))


@lru_cache(maxsize=None)
def _roots_below(m: int, x: Fraction) -> int:
    """The number of roots of Psi_m in (-2, x), x not one of them."""
    assert polys.sign_at(list(psi(m)), x) != 0, "x is a jump"
    return count_roots(sturm_chain(psi(m)), Fraction(-2), x)


def _below(theta: Fraction, x: Fraction) -> bool:
    """Whether 2cos(2 pi theta) < x, for theta = a/m in (0, 1/2) and x in
    (-2, 2) not that number: the roots of Psi_m below x are those of the
    largest b prime to m below m/2."""
    a, m = theta.numerator, theta.denominator
    ranks = [b for b in range(1, (m + 1) // 2) if gcd(b, m) == 1]
    return ranks.index(a) >= len(ranks) - _roots_below(m, x)


def litherland_signature_at_x(p: int, q: int, x: Fraction) -> int:
    """sigma of T(p, q) at the circle point with z + 1/z = x, a rational in
    (-2, 2) off the jumps, with theta(x) placed exactly among the walls."""
    n_in = 0
    for v in _pairs(p, q):
        w = v % 1
        if w == 0 or w >= HALF:  # v = 1, in; or theta(x) < 1/2 <= w: in for v < 1
            n_in += v <= 1
        else:  # v < 1: in iff theta(x) < w; v > 1: in iff theta(x) > w
            n_in += _below(w, x) == (v < 1)
    return -(2 * n_in - (p - 1) * (q - 1))


def assert_matches(f, knots, padding: int = 0) -> None:
    """Check a linkbound SignatureFunction f against Litherland's formula
    for the connected sum of T(p, q), mirrored when sign < 0, over the
    (p, q, sign) in `knots`, in block sum with the padding x padding zero
    matrix: the number of breakpoints, each breakpoint a root of Psi_m for
    its jump a/m, the interval values at midpoints of the jumps and at f's
    own samples, the nullity `padding` off the jumps, and at each jump the
    averaged value and the nullity, `padding` plus the number of pairs on
    its wall over all summands."""
    counts = collections.Counter(w for p, q, _ in knots for w in litherland_jumps(p, q))
    thetas = sorted(counts, reverse=True)  # increasing x
    walls = [HALF] + thetas + [Fraction(0)]
    values = [sum(s * litherland_signature(p, q, (a + b) / 2) for p, q, s in knots)
              for a, b in zip(walls, walls[1:])]
    assert len(f.breakpoints) == len(thetas), (len(f.breakpoints), len(thetas))
    for bp, theta in zip(f.breakpoints, thetas):
        root = list(psi(theta.denominator))
        if isinstance(bp, RealAlgebraic):
            assert bp.vanishes(root), (bp, theta)
        else:
            assert polys.sign_at(root, bp) == 0, (bp, theta)
    assert [s for s, _ in f.interval_values] == values
    assert all(nu == padding for _, nu in f.interval_values)
    for x, value in zip(f.samples, values):
        assert sum(s * litherland_signature_at_x(p, q, x) for p, q, s in knots) == value, x
    for (sig, nu), left, right, theta in zip(f.averaged_values, values, values[1:], thetas):
        assert sig == Fraction(left + right, 2) and nu == counts[theta] + padding, \
            (theta, sig, nu)
