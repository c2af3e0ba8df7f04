"""The all-pairs construction of a braid closure's Seifert matrix, kept as
the reference that `seifert_matrix_from_braid` is compared against.

It lists the basis loops (one per consecutive pair of bands on the same
generator), sorts them by the position of their first band, and scans all
n^2 pairs of loops for the entries Collins' rules (J. Collins, "An
algorithm for computing the Seifert matrix of a link from a braid
representation", 2007) make nonzero.  The library builds the same matrix
in one walk of the word.
"""

from __future__ import annotations

from linkbound import BraidWord, braid_text, closure_components


def reference_seifert_matrix(b: BraidWord) -> tuple[tuple[tuple[int, ...], ...], int, str]:
    """(matrix, components, label) of the closure of `b`, whose every
    generator must occur in the word."""
    occurrences: dict[int, list[tuple[int, int]]] = {k: [] for k in range(1, b.strands)}
    for pos, x in enumerate(b.letters):
        occurrences[abs(x)].append((pos, 1 if x > 0 else -1))

    # One basis loop per consecutive pair of bands on the same generator.
    loops = []  # (generator, pos1, sign1, pos2, sign2)
    for k in range(1, b.strands):
        occ = occurrences[k]
        for (p1, e1), (p2, e2) in zip(occ, occ[1:]):
            loops.append((k, p1, e1, p2, e2))
    # Then in braid order, by the position of the first band.
    loops.sort(key=lambda l: l[1])
    n = len(loops)
    assert n == len(b.letters) - b.strands + 1

    v = [[0] * n for _ in range(n)]
    for i, (_, _, e1, _, e2) in enumerate(loops):
        if e1 == e2:
            v[i][i] = -1 if e1 > 0 else 1
    for i, (k1, a1, _, a2, e2) in enumerate(loops):
        for j, (k2, b1, f1, b2, _) in enumerate(loops):
            if k1 == k2 and a2 == b1:
                # consecutive loops sharing their middle band
                if e2 > 0:
                    v[j][i] = 1
                else:
                    v[i][j] = -1
            elif k2 == k1 + 1:
                # loops on adjacent generators, interleaved
                if b1 < a1 < b2 < a2:
                    v[j][i] = 1
                elif a1 < b1 < a2 < b2:
                    v[j][i] = -1

    m = closure_components(b)
    assert (n - m + 1) % 2 == 0
    return tuple(tuple(row) for row in v), m, braid_text(b)
