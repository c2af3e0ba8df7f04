"""The factorization and Fox-Milnor pairing as they stood before each
job ran once, kept as a reference for tests/test_factor.py:
factor_integer_polynomial merged the irreducible factors of every Yun
factor in a dict of counts (Yun's factors are pairwise coprime, so
nothing ever merged), and fox_milnor_test walked the sorted factors with
a dict of the multiplicities not yet consumed by a pair.  The code is
unchanged but for its docstrings, the LaurentPoly methods it calls in
place of the module functions normalize and involution, and the
integrality guard, which an integer-only LaurentPoly made dead; the
Kronecker search and the rational-root split are the library's.
rational_root_split is the split as it stood before a quadratic was
read off its discriminant: a divisor search at every degree above 1.
"""

from __future__ import annotations

import math

from linkbound import polys
from linkbound.errors import ZeroPolynomialError
from linkbound.factor import (FoxMilnorResult, _divisors, _kronecker_factor,
                              _rational_root_split, _reversed_factor, check_degree_cap)
from linkbound.laurent import LaurentPoly


def rational_root_split(p) -> tuple[list, list[list]]:
    linear = []
    while polys.degree(p) >= 1:
        if p[0] == 0:
            found = [0, 1]
        elif polys.degree(p) == 1:
            found = polys.primitive_positive(p)[1]
        else:
            nums = _divisors(p[0])
            found = next((polys.primitive_positive([-s, den])[1]
                          for den in _divisors(p[-1]) for num in nums
                          for s in (num, -num) if polys.sign_at_ratio(p, s, den) == 0), None)
            if not found:
                break
        linear.append(found)
        p = polys.div_exact(p, found)
    return p, linear


def _factor_squarefree(p) -> list[list]:
    rest, factors = _rational_root_split(p)
    stack = [rest] if polys.degree(rest) >= 1 else []
    while stack:
        q = stack.pop()
        g = _kronecker_factor(q)
        if g is None:
            factors.append(q)
        else:
            stack.append(g)
            stack.append(polys.div_exact(q, g))
    return factors


def factor_integer_polynomial(p) -> tuple[int, list[tuple[tuple, int]]]:
    p = polys.trim(list(p))
    if not p:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    c, prim = polys.primitive_positive(p)
    counts: dict[tuple, int] = {}
    for sq_factor, mult in polys.squarefree_decomposition(prim):
        for f in _factor_squarefree(sq_factor):
            key = tuple(f)
            counts[key] = counts.get(key, 0) + mult
    return c, sorted(counts.items())


def fox_milnor_test(p: LaurentPoly, degree_cap: int = 12) -> FoxMilnorResult:
    check_degree_cap(degree_cap)
    if p.is_zero:
        raise ZeroPolynomialError("Fox-Milnor test needs a nonzero polynomial")
    at_one = abs(sum(v for _, v in p.items()))
    if at_one != 1:
        return FoxMilnorResult("fails", reason=f"|p(1)| = {at_one} != 1")
    q = p.normalize()
    if q.width() % 2 != 0:
        return FoxMilnorResult("fails", reason=f"odd width {q.width()}")
    at_minus_one = abs(sum(-v if e % 2 else v for e, v in q.items()))
    if math.isqrt(at_minus_one) ** 2 != at_minus_one:
        return FoxMilnorResult(
            "fails", reason=f"|p(-1)| = {at_minus_one} is not a perfect square")
    if q.width() > degree_cap:
        return FoxMilnorResult(
            "inconclusive", reason=f"degree {q.width()} exceeds cap {degree_cap}")

    _, dense = q.to_dense()
    _, factors = factor_integer_polynomial(dense)
    remaining = dict(factors)
    witness = LaurentPoly.one()
    for f, mult in factors:
        if remaining.get(f, 0) == 0:
            continue
        rev = _reversed_factor(f)
        if rev == f:
            if mult % 2 != 0:
                return FoxMilnorResult(
                    "fails",
                    reason=f"self-reciprocal factor {list(f)} has odd multiplicity {mult}")
            witness = witness * LaurentPoly.from_dense(f) ** (mult // 2)
            remaining[f] = 0
        else:
            if remaining.get(rev, 0) != mult:
                return FoxMilnorResult(
                    "fails",
                    reason=f"factor {list(f)} does not pair with its reciprocal")
            witness = witness * LaurentPoly.from_dense(f) ** mult
            remaining[f] = 0
            remaining[rev] = 0
    product = witness * witness.involution()
    if product.normalize() != q:
        raise AssertionError("witness reconstruction failed")
    return FoxMilnorResult("passes", witness=witness.normalize())
