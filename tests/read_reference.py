"""The read layer as it stood before reads ran on the integers of x, kept
as a reference for tests/test_reads.py: _as_x, value_at (with _locate),
signature_nullity_at, pointwise_signature_nullity and to_json (with
_json_rat).  The code is unchanged, most docstrings left out, but for
`self` becoming the argument `f`; signature_nullity_at reads the
function `f` it is given instead of the cached one, so a test can run
this route on its own copy of the breakpoints and compare how both
refine them.

This route normalises x twice per signature_nullity_at, tests x = +-2 by
Fraction equality, refines a bracket through refine_away_from and
builds a Fraction per rational in to_json.

functions_equal and breakpoints_equal, the equality of two signature
functions as functions on the circle, are kept here for the tests that
compare functions built from different Seifert matrices.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from linkbound import CirclePoint, RealAlgebraic
from linkbound.linalg import _frobenius
from linkbound.signature import (_endpoint, _principal_block, _separated,
                                 _trace_signature_nullity, _wall)

from isolation_reference import sign_at


def _as_x(x):
    """The x of a circle point: a Fraction or RealAlgebraic in [-2, 2]."""
    if type(x) is not Fraction:
        if isinstance(x, CirclePoint):
            return x.x
        if isinstance(x, RealAlgebraic):
            if x.compare_rational(-2) <= 0 or x.compare_rational(2) >= 0:
                raise ValueError("algebraic x outside (-2, 2)")
            return x
        if type(x) is not int:  # nor a bool, an int subclass
            raise TypeError("x must be rational, RealAlgebraic or a CirclePoint")
        x = Fraction(x)
    if abs(x.numerator) > 2 * x.denominator:  # |x| > 2, in integers
        raise ValueError(f"x = {x} outside [-2, 2]")
    return x


def pointwise_signature_nullity(data, x) -> tuple[int, int]:
    x = _as_x(x)
    if not isinstance(x, Fraction):
        raise TypeError("pointwise evaluation needs a rational x")
    n = data.size
    if abs(x) == 2:
        return _endpoint(data, int(x) // 2)
    _, minors = _principal_block(data)
    signs = [sign_at(mx, x) for mx in minors if mx]
    if all(signs):
        return _frobenius(signs, len(minors)), n - len(minors)
    return _trace_signature_nullity(data, x)


def signature_nullity_at(data, f, point) -> tuple:
    x = _as_x(point)
    sig, nul = value_at(f, x)
    if isinstance(x, Fraction) and x in (-2, 2):
        nul = _endpoint(data, int(x) // 2)[1]
    return sig, nul


def value_at(f, x) -> tuple:
    x = _as_x(x)
    if not isinstance(x, Fraction):
        return _locate(f, x)
    los, his, den = f._walls
    k, r = divmod(x.numerator * den, x.denominator)  # x D lies in [k, k + 1)
    i = bisect.bisect_left(his, k + (r > 0))  # the first wall that ends at or after x
    if i == len(his) or k < los[i]:
        return f.interval_values[i]
    bp = f.breakpoints[i]
    if isinstance(bp, Fraction):
        return f.averaged_values[i]
    _, b, d = _wall(bp.refine_away_from(x))  # x now lies outside the bracket
    return f.interval_values[i + (b * x.denominator <= x.numerator * d)]


def _locate(f, x: RealAlgebraic) -> tuple:
    los, his, den = f._walls
    a, b, d = _wall(x)
    count = bisect.bisect_right(his, a * den // d)
    for i in range(count, bisect.bisect_left(los, -(-b * den // d))):
        bp = f.breakpoints[i]
        if isinstance(bp, Fraction):
            if x.compare_rational(bp) <= 0:
                break
        elif bp is x or bp.equals(x):
            return f.averaged_values[i]
        else:
            while not (_separated(bp, x) or _separated(x, bp)):
                bp._bisect()
                x._bisect()
            if _separated(x, bp):
                break
        count += 1
    return f.interval_values[count]


def to_json(f) -> dict:
    bps = []
    for bp in f._json_breakpoints:
        if isinstance(bp, Fraction):
            bps.append(_json_rat(bp))
        else:
            a, b, d = _wall(bp.refine(Fraction(1, 2 ** 20)))
            bps.append({"polynomial": list(bp.poly),
                        "interval": [_json_rat(a, d), _json_rat(b, d)]})
    return {
        "size": f.size,
        "generic_nullity": f.generic_nullity,
        "breakpoints": bps,
        "interval_values": [[s, nu] for s, nu in f.interval_values],
        "averaged_values": [[_json_rat(s), nu] for s, nu in f.averaged_values],
        "samples": [_json_rat(s) for s in f.samples],
    }


def _json_rat(v, d=1):
    v = Fraction(v, d)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def breakpoints_equal(a, b) -> bool:
    if isinstance(a, RealAlgebraic):
        return a.equals(b)  # False for a rational b
    return isinstance(b, Fraction) and a == b


def functions_equal(f, g) -> bool:
    """Equality as functions on the circle (matrix sizes may differ)."""
    return (len(f.breakpoints) == len(g.breakpoints)
            and all(breakpoints_equal(a, b) for a, b in zip(f.breakpoints, g.breakpoints))
            and f.interval_values == g.interval_values
            and f.averaged_values == g.averaged_values)
