"""Shared random-instance generators, spies and a fresh-interpreter runner
for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import assume
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import linkbound.linalg
import linkbound.realroots
from linkbound import BraidWord, LaurentPoly, RealAlgebraic, SeifertData, closure_components, \
    connected_sum, seifert_matrix_from_braid, torus_braid
from linkbound import polys

from bareiss_reference import int_rank_det
from braid_reference import stabilize

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

T = sympy.Symbol("t")
ZZ_T = sympy.ZZ[T]


def random_laurent_dict(rng: random.Random, max_deg=8, max_coeff=9,
                        min_exp=-4) -> dict:
    n_terms = rng.randint(1, 6)
    out = {}
    for _ in range(n_terms):
        e = rng.randint(min_exp, max_deg)
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            out[e] = out.get(e, 0) + c
    return out


def random_seifert_data(rng: random.Random, max_size=6, max_entry=3) -> SeifertData:
    """A valid random SeifertData: any square integer matrix has even skew
    rank 2g, so m = n - 2g + 1 works; reject the m = 1 cases whose skew
    part is not unimodular (those are not knot Seifert matrices)."""
    while True:
        n = rng.randint(1, max_size)
        v = [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(n)]
        skew = [[v[i][j] - v[j][i] for j in range(n)] for i in range(n)]
        rank, det = int_rank_det(skew)
        m = n - rank + 1
        if m == 1 and abs(det) != 1:
            continue
        return SeifertData.from_matrix(v, m)


def b_laurent(data: SeifertData) -> list[list[LaurentPoly]]:
    """B(t) = (1 - t)V + (1 - 1/t)V^T as a matrix of Laurent polynomials,
    built from V for the reference computations."""
    v = data.matrix
    return [[LaurentPoly({0: v[i][j] + v[j][i], 1: -v[i][j], -1: -v[j][i]})
             for j in range(data.size)] for i in range(data.size)]


def domain_matrix(m) -> DomainMatrix:
    """A matrix of dense integer polynomials as a sympy matrix over ZZ[t]."""
    rows = [[ZZ_T.from_sympy(sum(c * T ** i for i, c in enumerate(e))) for e in row]
            for row in m]
    return DomainMatrix(rows, (len(m), len(m[0]) if m else 0), ZZ_T)


def sympy_det(m) -> list:
    """det over ZZ[t] by sympy, as dense coefficients from the constant up."""
    if not m:
        return [1]
    det = ZZ_T.to_sympy(domain_matrix(m).det())
    return polys.trim(reversed(sympy.Poly(det, T).all_coeffs())) if det != 0 else []


def random_braid(rng: random.Random, max_strands=4, max_len=10) -> BraidWord:
    """A braid using every generator index at least once."""
    while True:
        strands = rng.randint(2, max_strands)
        length = rng.randint(strands, max_len)
        letters = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                   for _ in range(length)]
        if {abs(x) for x in letters} == set(range(1, strands)):
            return BraidWord(strands, tuple(letters))


def random_knot_data(rng: random.Random, max_strands=3, max_len=9,
                     stabilizations=0) -> SeifertData:
    """Seifert data of a random braid-closure knot, optionally stabilized."""
    while True:
        b = random_braid(rng, max_strands, max_len)
        if closure_components(b) == 1:
            break
    data = seifert_matrix_from_braid(b)
    for _ in range(stabilizations):
        direction = rng.choice(["row-first", "column-first"])
        column = [rng.randint(-2, 2) for _ in range(data.size)]
        data = stabilize(data, direction, column)
    return data


def rebuilt_breakpoints(f) -> list:
    """The breakpoints of a SignatureFunction as a client rebuilds them
    from its to_json."""
    return [RealAlgebraic(bp["polynomial"], *map(Fraction, bp["interval"]))
            if isinstance(bp, dict) else Fraction(bp) for bp in f.to_json()["breakpoints"]]


def zero_padded(data: SeifertData, k: int) -> SeifertData:
    """The block sum V + 0_k: k more components, nullity up by k."""
    n = data.size
    v = [list(row) + [0] * k for row in data.matrix] + [[0] * (n + k) for _ in range(k)]
    return SeifertData.from_matrix(v, data.components + k)


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1: row operations on the
    identity, then a row shuffle."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    rng.shuffle(p)
    return p


def mixed_double(q: int, dense: bool = False) -> SeifertData:
    """T(2,3) # T(2,3) # T(3,q) # T(3,q): block sums, pivots in block
    order, so every pivot from the second on vanishes at the roots of
    Delta_T(2,3) and the two classes of double roots stop far apart.
    dense: the same knot after the change of basis P V P^T with
    P = random_unimodular(random.Random(q), n), which fills the block sums
    (README's "dense mixed" rows)."""
    trefoil = seifert_matrix_from_braid(torus_braid(2, 3))
    knot = seifert_matrix_from_braid(torus_braid(3, q))
    data = connected_sum(connected_sum(connected_sum(trefoil, trefoil), knot), knot)
    if not dense:
        return data
    n, v = data.size, data.matrix
    p = random_unimodular(random.Random(q), n)
    pv = [[sum(p[i][a] * v[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
    return SeifertData.from_matrix(
        [[sum(pv[i][b] * p[j][b] for b in range(n)) for j in range(n)] for i in range(n)], 1)


def degenerate_family(knot: SeifertData, f: int, k: int,
                      p: list[list[int]]) -> SeifertData:
    """P (V_K + V_p + 0_k) P^T with V_p = [[0,0,0],[0,0,1],[1,0,f]].

    det(tV_p - V_p^T) is identically zero but tV_p - V_p^T has no constant
    kernel vector, so the pivot rows of the generic-rank elimination are
    not the leading ones.  The result has k + 2 components, nullity k + 1
    and the signature function of K, with nullities shifted by k + 1."""
    nk = knot.size
    n = nk + 3 + k
    v = [[0] * n for _ in range(n)]
    for i in range(nk):
        v[i][:nk] = knot.matrix[i]
    v[nk + 1][nk + 2] = 1
    v[nk + 2][nk] = 1
    v[nk + 2][nk + 2] = f
    w = [[sum(p[i][a] * v[a][b] * p[j][b] for a in range(n) for b in range(n))
          for j in range(n)] for i in range(n)]
    return SeifertData.from_matrix(w, knot.components + k + 1)


def cold_caches():
    """Empty every cache of the realroots layer, which is keyed on
    polynomials.  The signature layer keeps what it derives from V on the
    SeifertData itself (see cold)."""
    for obj in vars(linkbound.realroots).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def cold(data: SeifertData) -> SeifertData:
    """A fresh SeifertData equal to `data`, with empty realroots caches:
    none of what the signature layer derived from `data` carries over, so
    a read or a report on it builds everything from V.  Its construction
    runs the elimination of tV - V^T that every later read uses."""
    cold_caches()
    return SeifertData(data.matrix, data.components, label=data.label)


def count_eliminations(monkeypatch) -> list[int]:
    """Record the size of every matrix the Bareiss kernel eliminates from
    now on, in the list returned: every elimination, packed or integer,
    runs the one loop `linalg._eliminate`, which every other module
    reaches through `linalg`.  A SeifertData runs its elimination of
    tV - V^T when it is built and keeps it, so build the data after
    calling (see cold) to count from its construction."""
    calls = []
    eliminate = linkbound.linalg._eliminate

    def counted(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return eliminate(matrix, *args, **kwargs)

    monkeypatch.setattr(linkbound.linalg, "_eliminate", counted)
    return calls


def record_stops(patch) -> list[tuple[int, int]]:
    """Record (the steps it resumed from, stop) for every run of the
    Bareiss kernel that stops after `stop` steps from now on, in the list
    returned.  A test passes monkeypatch.setattr; a script run in a process
    of its own passes setattr, and the spy stays for the rest of it."""
    runs = []
    eliminate = linkbound.linalg._eliminate

    def stopped(m, *args, stop=None, start=None, **kwargs):
        if stop is not None:
            runs.append((len(start[1]) if start else 0, stop))
        return eliminate(m, *args, stop=stop, start=start, **kwargs)

    patch(linkbound.linalg, "_eliminate", stopped)
    return runs


def run_python(args, timeout: float) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of `python ARGS` in a fresh interpreter,
    sys.executable, with src and tests first on PYTHONPATH.  Past
    `timeout` seconds, which count the interpreter's start and imports,
    the process is killed and subprocess.TimeoutExpired raised."""
    path = os.pathsep.join(filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=timeout)
    return done.stdout, done.stderr, done.returncode


@st.composite
def degenerate_seifert(draw):
    """Seifert matrices V, n <= 5, with entries in -2..2; optionally a zero
    (1,1) entry, which makes the first leading minor of B(t) vanish, and/or
    the congruence P V P^T whose P copies index 0 to index k-1, which makes
    the leading minors of B from size k on, and det B, vanish.  Knots whose
    V - V^T is not unimodular are rejected."""
    n = draw(st.integers(1, 5))
    v = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        v[0][0] = 0
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(2, n))
        p = [[int(j == (0 if i == k - 1 else i)) for j in range(n)] for i in range(n)]
        v = [[sum(p[i][a] * v[a][b] * p[j][b] for a in range(n) for b in range(n))
              for j in range(n)] for i in range(n)]
    rank, det = int_rank_det([[v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
    assume(rank < n or abs(det) == 1)
    return SeifertData.from_matrix(v, n - rank + 1)
