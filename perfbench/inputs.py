"""Seeded inputs for the three workloads.

Every input is a dict with a unique `name`, the `json` object that the
`linkbound` CLI reads, and the facts the oracle needs: `torus` = [p, q]
for torus links (knots have a closed-form Alexander polynomial) and
`slice` for K # mirror(K), whose Fox-Milnor test must pass.  The same
seed gives the same inputs.  The seed changes only the random Seifert
matrices (and, in worker.py, the order of operations and the query
stream); the torus inputs and the genus of every random input are fixed,
so the cost of a pass barely depends on the seed.
"""

from __future__ import annotations

import random

from linkbound import (SeifertData, connected_sum, mirror, seifert_matrix_from_braid,
                       torus_braid)

# The cost of one report ranges from milliseconds to seconds, so the
# median and the tail of a run are rank statistics over a ladder of
# inputs.  Each ladder has an odd number of inputs, and its middle and its
# two heaviest inputs are torus inputs, whose cost does not depend on the
# seed.  With seven runs of each input, the median of a run is the median
# run of the middle input (T(2,9) for knots, T(2,10) for links) and the
# tail the median run of the second heaviest (T(3,7) for knots,
# T(3,5) + 0_3 for links); see README.md.

# Torus knots T(2,q) with n = 8..18, where Delta and the leading minors
# dominate and beta is trivial.
KNOT_T2 = (9, 11, 13, 15, 19)
# T(3,q); at n = 12 (T(3,7)) beta (link_nullity) dominates.  T(3,8)
# (n = 14) takes 5-8 s and T(4,5) (n = 12) 2.3 s, more than half a pass.
KNOT_T3 = ((3, 4), (3, 5), (3, 7))
# Genus of each random knot Seifert matrix V = S + E.  Genus 4 stops at
# about 0.13 s, between the middle input and T(3,7); a genus-5 report took
# 0.1-0.9 s depending on the seed, which alone moved a pass by +-10%.
KNOT_RANDOM_GENERA = (1, 2, 2, 3, 4)
# Genus of K in each K # mirror(K) double (Fox-Milnor passes after a
# complete Kronecker search).
KNOT_DOUBLE_GENERA = (1, 1)

# Torus links T(2,2k), T(3,6), T(4,4).
LINK_TORUS = ((2, 8), (2, 10), (2, 12), (3, 6), (4, 4))
# Zero padding k of the boundary links T(3,5) + 0_k, whose C(n, r) minor
# enumeration doubles with each k (k = 5 and 6 take 3-9 s).
LINK_T35_PADDING = (1, 2, 3, 4)
# Zero padding k of the boundary links K + 0_k, K a random knot of genus 1.
LINK_RANDOM_PADDING = (1, 2, 3, 4, 5, 6)
LINK_RANDOM_GENUS = 1

# The fixed set behind signature_queries: torus knots and links with
# rational and algebraic breakpoints, and one degenerate (det B = 0)
# family.  It does not depend on the seed; the seed drives the query
# stream (worker.py).
QUERY_TORUS = ((2, 5), (2, 7), (3, 4), (3, 5), (2, 6), (2, 8), (3, 3))
QUERY_PADDED = (2, 5)  # T(2,5) + 0_1


def random_knot_matrix(rng: random.Random, genus: int) -> list[list[int]]:
    """V = S + E: S symmetric with entries in [-2, 2], E one 1 per symplectic
    pair, so V - V^T is the standard symplectic form (a knot, Delta(1) = 1)."""
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v[i][j] = v[j][i] = rng.randint(-2, 2)
    for k in range(genus):
        v[2 * k][2 * k + 1] += 1
    return v


def zero_padded(matrix: list[list[int]], k: int) -> list[list[int]]:
    """Block sum with the k x k zero matrix: a boundary link with k more
    components and nullity k, so det B is identically zero."""
    n = len(matrix)
    return [list(row) + [0] * k for row in matrix] + [[0] * (n + k) for _ in range(k)]


def torus_input(p: int, q: int) -> dict:
    """T(p,q) as the braid (s1...s_{p-1})^q."""
    b = torus_braid(p, q)
    return {"name": f"T({p},{q})", "torus": [p, q], "slice": False,
            "json": {"braid": {"strands": b.strands, "word": list(b.letters)}}}


def _matrix_input(name: str, matrix, components: int, slice_double=False) -> dict:
    return {"name": name, "torus": None, "slice": slice_double,
            "json": {"seifert_matrix": [list(r) for r in matrix],
                     "components": components, "label": name}}


def knot_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"knots-{seed}")
    out = [torus_input(2, q) for q in KNOT_T2]
    out += [torus_input(p, q) for p, q in KNOT_T3]
    for i, g in enumerate(KNOT_RANDOM_GENERA):
        out.append(_matrix_input(f"K{i}(g={g})", random_knot_matrix(rng, g), 1))
    for i, g in enumerate(KNOT_DOUBLE_GENERA):
        k = SeifertData.from_matrix(random_knot_matrix(rng, g))
        double = connected_sum(k, mirror(k))
        out.append(_matrix_input(f"D{i}(g={g})#mirror", double.matrix, 1, True))
    return out


def link_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"links-{seed}")
    out = [torus_input(p, q) for p, q in LINK_TORUS]
    t35 = seifert_matrix_from_braid(torus_braid(3, 5)).matrix
    for k in LINK_T35_PADDING:
        out.append(_matrix_input(f"T(3,5)+0_{k}", zero_padded(t35, k), k + 1))
    for k in LINK_RANDOM_PADDING:
        v = random_knot_matrix(rng, LINK_RANDOM_GENUS)
        out.append(_matrix_input(f"L{k}(g={LINK_RANDOM_GENUS})+0_{k}", zero_padded(v, k), k + 1))
    return out


def query_inputs(seed: int) -> list[dict]:
    """The fixed set; the same for every seed."""
    out = [torus_input(p, q) for p, q in QUERY_TORUS]
    t = seifert_matrix_from_braid(torus_braid(*QUERY_PADDED)).matrix
    out.append(_matrix_input("T(%d,%d)+0_1" % QUERY_PADDED, zero_padded(t, 1), 2))
    return out


INPUTS = {"knot_reports": knot_inputs, "link_reports": link_inputs,
          "signature_queries": query_inputs}


def seifert_data(inp: dict) -> SeifertData:
    """The SeifertData the CLI builds from `inp["json"]`."""
    obj = inp["json"]
    if "braid" in obj:
        p, q = inp["torus"]
        return seifert_matrix_from_braid(torus_braid(p, q))
    return SeifertData.from_matrix(obj["seifert_matrix"], obj["components"], obj["label"])
