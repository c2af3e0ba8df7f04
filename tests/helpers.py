"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import random

import linkbound.linalg
import linkbound.realroots
import linkbound.signature
from linkbound import BraidWord, LaurentPoly, SeifertData, closure_components, \
    seifert_matrix_from_braid, stabilize
from linkbound.linalg import int_rank_det


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
    """Empty every cache of the signature and realroots layers."""
    for module in (linkbound.signature, linkbound.realroots):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def count_eliminations(monkeypatch) -> list[int]:
    """Record the size of every matrix the Bareiss kernel eliminates from
    now on, in the list returned, starting from empty signature and
    realroots caches.
    Build Seifert data before calling: its validation runs the kernel on
    integers."""
    calls = []
    bareiss = linkbound.linalg._bareiss

    def counted(matrix, *args):
        calls.append(len(matrix))
        return bareiss(matrix, *args)

    monkeypatch.setattr(linkbound.linalg, "_bareiss", counted)
    monkeypatch.setattr(linkbound.signature, "_bareiss", counted)
    cold_caches()
    return calls
