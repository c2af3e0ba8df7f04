"""Independent checks of every result, run after the clock stops.

Alexander polynomials and nullities are recomputed with sympy from the
Seifert matrix: det(kV - V^T) and its rank at the n + 1 integer points
k = 0..n determine det(tV - V^T) by interpolation, and the largest of those
ranks is the rank over Q(t) (a nonzero minor of size r <= n has at most r
roots).  Torus knots are also checked against the closed form
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).  Signature values are checked
against the floating-point eigenvalue oracle `linkbound.float_oracle` at
the certified sample of each interval, at each queried rational and on
both sides of each breakpoint.  `check` returns None for a correct result
and otherwise the reason it is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import sympy
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

import linkbound

import inputs

T = sympy.Symbol("t")


def normalized(coeffs: list[int]) -> list[int]:
    """Strip t^k and the sign: lowest exponent 0, leading coefficient > 0;
    [] for the zero polynomial (the convention of `linkbound.normalize`)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if coeffs and coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def sympy_alexander_nullity(v) -> tuple[list[int], int]:
    """(normalized det(tV - V^T) low-to-high, corank of tV - V^T over Q(t))."""
    n = len(v)
    if n == 0:
        return [1], 0
    points, dets, rank = [], [], 0
    for k in range(n + 1):
        m = DomainMatrix([[ZZ(k * v[i][j] - v[j][i]) for j in range(n)] for i in range(n)],
                         (n, n), ZZ)
        points.append(k)
        dets.append(int(m.det()))
        rank = max(rank, m.convert_to(QQ).rank())
    if not any(dets):
        return [], n - rank
    return normalized(interpolate(points, dets)), n - rank


def interpolate(points: list[int], values: list[int]) -> list[int]:
    """Coefficients, low to high, of the polynomial of degree < len(points)
    through (points[k], values[k]): Newton's divided differences in exact
    rationals.  The polynomial has integer coefficients here."""
    coef = [Fraction(v) for v in values]
    for j in range(1, len(points)):
        for k in range(len(points) - 1, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (points[k] - points[k - j])
    poly = [Fraction(0)] * len(points)
    for k in range(len(points) - 1, -1, -1):  # Horner: poly = poly * (t - x_k) + coef[k]
        poly = [(poly[i - 1] if i else 0) - points[k] * poly[i] for i in range(len(poly))]
        poly[0] += coef[k]
    assert all(c.denominator == 1 for c in poly)
    return [int(c) for c in poly]


def torus_knot_alexander(p: int, q: int) -> list[int]:
    num = sympy.Poly((T ** (p * q) - 1) * (T - 1), T)
    den = sympy.Poly((T ** p - 1) * (T ** q - 1), T)
    quo, rem = num.div(den)
    assert rem.is_zero
    return normalized([int(c) for c in reversed(quo.all_coeffs())])


def float_value(data, x: float) -> tuple[int, int]:
    """Float-oracle (sigma, nullity) at the circle point with z + 1/z = x."""
    return linkbound.float_oracle(data, math.acos(max(-1.0, min(1.0, x / 2))))


def _width_bound(delta: list[int]) -> int:
    return len(delta) // 2  # ceil(width / 2) with width = len - 1


class ReportOracle:
    """Checks `linkbound bound` reports; reference values are computed
    once per input and float values once per sample."""

    def __init__(self):
        self.refs: dict[str, dict] = {}
        self._floats: dict[tuple, tuple] = {}

    def reference(self, inp: dict) -> dict:
        name = inp["name"]
        if name not in self.refs:
            data = inputs.seifert_data(inp)
            delta, beta = sympy_alexander_nullity(data.matrix)
            library = linkbound.alexander_from_seifert(data)
            problems = []
            if ([] if library.is_zero else library.to_dense()[1]) != delta:
                problems.append("Alexander polynomial differs from sympy")
            torus = inp["torus"]
            if torus and math.gcd(*torus) == 1 and torus_knot_alexander(*torus) != delta:
                problems.append("sympy Alexander polynomial differs from the torus closed form")
            verdict = None
            if data.components == 1:
                verdict = linkbound.fox_milnor_test(library).verdict
            self.refs[name] = {"data": data, "n": data.size, "m": data.components,
                               "genus": data.genus, "delta": delta, "beta": beta,
                               "fox_milnor": verdict, "problems": problems}
        return self.refs[name]

    def _float(self, name: str, data, x: Fraction) -> tuple[int, int]:
        key = (name, x)
        if key not in self._floats:
            self._floats[key] = float_value(data, float(x))
        return self._floats[key]

    def check(self, inp: dict, line: dict) -> str | None:
        if line["rc"] != 0:
            return f"exit code {line['rc']}: {line['err'].strip()[:200]}"
        ref = self.reference(inp)
        if ref["problems"]:
            return "; ".join(ref["problems"])
        report = json.loads(line["out"])
        fn = line["fn"]
        m, beta = ref["m"], ref["beta"]
        if report["components"] != m:
            return f"components {report['components']} != {m}"
        if fn["generic_nullity"] != beta:
            return f"generic nullity {fn['generic_nullity']} != sympy beta {beta}"
        for sample, (sig, nul) in zip(fn["samples"], fn["values"]):
            expected = self._float(inp["name"], ref["data"], Fraction(sample))
            if (sig, nul) != expected:
                return f"interval value {(sig, nul)} at {sample} != float oracle {expected}"
        lower = [p for p in report["provenance"] if p["bound"] == "lower"]
        stated = re.search(r"max \|sigma\| = (\d+).*beta = (\d+)", lower[0]["source"])
        max_sigma = max(abs(s) for s, _ in fn["values"])
        if stated is None or (int(stated[1]), int(stated[2])) != (max_sigma, beta):
            return f"lower-bound provenance {lower[0]['source']!r} disagrees with the oracle"
        expected_lower = -(-(max_sigma + m - 1 - beta) // 2)
        if report["lower"] != expected_lower:
            return f"lower bound {report['lower']} != {expected_lower}"
        upper = report["upper"]
        if m == 1:
            legs = {p["source"]: p["value"] for p in report["provenance"]
                    if p["bound"] == "upper"}
            expected = {"Alexander-width (topological category)": _width_bound(ref["delta"]),
                        "pushed-in Seifert surface": ref["genus"]}
            if legs != expected or upper != min(expected.values()):
                return f"upper bounds {legs} != {expected}"
            if inp.get("slice") and report["slice_verdict"] != "consistent-with-slice":
                return f"K # mirror(K) verdict {report['slice_verdict']}"
        elif upper is not None:
            return "a link report has an upper bound"
        if upper is not None and report["lower"] > upper:
            return f"lower bound {report['lower']} > upper bound {upper}"
        return None


class QueryOracle:
    """Checks signature_queries answers against the float oracle."""

    def __init__(self, fixed: list[dict], before: list[dict]):
        self.before = before
        self.data = [inputs.seifert_data(inp) for inp in fixed]
        self.bps = [[self._bp_float(bp) for bp in doc["breakpoints"]] for doc in before]
        self._cache: dict[tuple, tuple] = {}
        self.unchecked = 0  # rationals too close to a breakpoint for floats
        # The set-up JSON is the reference for to_json and csv_rows reads,
        # so its interval values are checked first.
        self.problems = [
            f"{inp['name']}: interval value {value} at {sample} != float oracle"
            for inp, d, doc in zip(fixed, self.data, before)
            for sample, value in zip(doc["samples"], doc["interval_values"])
            if tuple(value) != float_value(d, float(Fraction(sample)))]

    @staticmethod
    def _bp_float(bp) -> float:
        if not isinstance(bp, dict):
            return float(Fraction(bp))
        lo, hi = (float(Fraction(v)) for v in bp["interval"])
        roots = np.roots(list(reversed(bp["polynomial"])))
        inside = [r.real for r in roots if abs(r.imag) < 1e-9 and lo <= r.real <= hi]
        return inside[0]

    def _side(self, i: int, x: float) -> tuple[int, int]:
        return float_value(self.data[i], x)

    def _gap(self, i: int, x: float) -> float:
        others = [b for b in self.bps[i] if b != x] + [-2.0, 2.0]
        return min(abs(x - b) for b in others)

    def _at_breakpoint(self, i: int, x: float) -> tuple[Fraction, int]:
        d = min(1e-6, self._gap(i, x) / 3)
        left, right = self._side(i, x - d)[0], self._side(i, x + d)[0]
        return Fraction(left + right, 2), self._side(i, x)[1]

    def expected(self, kind: str, i: int, x) -> tuple | None:
        key = (kind if kind == "pointwise" else "at", i, str(x))
        if key in self._cache:
            return self._cache[key]
        bps = self.bps[i]
        n = self.data[i].size
        if kind == "pointwise":
            value = self._side(i, -2.0)
        elif isinstance(x, list):
            value = self._at_breakpoint(i, bps[x[1]])
        else:
            xq = Fraction(x)
            xf = float(xq)
            if xq == 2:
                value = (self._side(i, ((bps[-1] if bps else -2.0) + 2) / 2)[0], n)
            elif xq == -2:
                sig, nul = self._side(i, -2.0)
                if nul:
                    sig = self._side(i, ((bps[0] if bps else 2.0) - 2) / 2)[0]
                value = (sig, nul)
            elif any(not isinstance(b, dict) and Fraction(b) == xq
                     for b in self.before[i]["breakpoints"]):
                value = self._at_breakpoint(i, xf)
            elif any(abs(xf - b) < 1e-7 for b in bps):
                self.unchecked += 1
                return None
            else:
                value = self._side(i, xf)
        self._cache[key] = value
        return value

    def check(self, kind: str, i: int, x, answer) -> str | None:
        """Check one read of function i at x (a rational, ["bp", j] or None)."""
        if self.problems:
            return self.problems[0]
        if kind == "to_json":
            return self._check_json(i, answer)
        if kind == "csv_rows":
            return self._check_csv(i, answer)
        expected = self.expected(kind, i, x)
        if expected is None:
            return None
        if (Fraction(answer[0]), answer[1]) != (Fraction(expected[0]), expected[1]):
            return f"{kind} at {x}: {answer} != float oracle {expected}"
        return None

    def _check_json(self, i: int, doc: dict) -> str | None:
        """Equal to the set-up JSON except for narrower breakpoint brackets
        (the in-place refinement that signature.json_drift counts)."""
        old = self.before[i]
        if {k: v for k, v in doc.items() if k != "breakpoints"} != \
                {k: v for k, v in old.items() if k != "breakpoints"}:
            return "to_json values changed after queries"
        if len(doc["breakpoints"]) != len(old["breakpoints"]):
            return "to_json breakpoint count changed"
        for new, was in zip(doc["breakpoints"], old["breakpoints"]):
            if isinstance(was, dict):
                lo, hi = (Fraction(v) for v in new["interval"])
                wlo, whi = (Fraction(v) for v in was["interval"])
                if new["polynomial"] != was["polynomial"] or not wlo <= lo < hi <= whi:
                    return "to_json breakpoint bracket left its set-up bracket"
            elif new != was:
                return "to_json rational breakpoint changed"
        return None

    def _check_csv(self, i: int, rows: list) -> str | None:
        doc = self.before[i]
        expected = []
        for k, (sig, nul) in enumerate(doc["interval_values"]):
            expected.append((float(sig), nul))
            if k < len(doc["averaged_values"]):
                a_sig, a_nul = doc["averaged_values"][k]
                expected.append((float(Fraction(a_sig)), a_nul))
        if [(r[2], r[3]) for r in rows] != expected:
            return "csv_rows values differ from the function"
        walls = [r[0] for r in rows] + [rows[-1][1]]
        if walls != sorted(walls) or walls[0] != -2.0 or walls[-1] != 2.0:
            return "csv_rows walls out of order"
        return None
