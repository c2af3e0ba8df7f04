"""Braid words, braid-closure bookkeeping, and Seifert matrices.

The Seifert matrix of a braid closure comes from Seifert's algorithm:
the closure of a braid on s strands bounds a surface made of s discs
joined by one band per crossing.  A basis of first homology is given by
the loops through consecutive bands of the same generator, and the
linking numbers of these loops with their pushoffs follow purely
combinatorial rules read off the letter sequence (J. Collins, "An
algorithm for computing the Seifert matrix of a link from a braid
representation", 2007).

Convention: a positive letter k denotes a positive (right-handed)
crossing of strands k, k+1.  With this convention the closure of
``strands=2; 1 1 1`` is the positive trefoil and its signature at z = -1
is -2.  Only convention-independent quantities (|sigma|, Delta up to
units) should be compared across tools.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace

from .errors import InvalidSeifertData, ParseError
from .linalg import int_rank_det


@dataclass(frozen=True)
class BraidWord:
    """A braid on `strands` strands; letters are nonzero ints with
    1 <= |letter| <= strands - 1, the sign giving the crossing sign."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ParseError(f"strands must be >= 1, got {self.strands}")
        letters = tuple(int(x) for x in self.letters)
        object.__setattr__(self, "letters", letters)
        for x in letters:
            if x == 0 or abs(x) > self.strands - 1:
                raise ParseError(
                    f"letter {x} out of range for {self.strands} strands")


_TOKEN = re.compile(r"^s(\d+)(\^-1)?$")


def parse_braid(text: str) -> BraidWord:
    """Parse "strands=3; 1 2 -1" or token form "strands=3; s1 s2^-1"."""
    strands = None
    letters = []
    for raw in text.replace(";", " ").split():
        token = raw.strip().rstrip(",")
        if not token:
            continue
        if token.startswith("strands="):
            try:
                strands = int(token[len("strands="):])
            except ValueError:
                raise ParseError(f"bad strand count in {token!r}") from None
            continue
        m = _TOKEN.match(token)
        if m:
            idx = int(m.group(1))
            letters.append(-idx if m.group(2) else idx)
            continue
        try:
            letters.append(int(token))
        except ValueError:
            raise ParseError(f"malformed braid token {token!r}") from None
    if strands is None:
        raise ParseError("missing strands=<n> declaration")
    return BraidWord(strands, tuple(letters))


def braid_text(b: BraidWord) -> str:
    """Serialize in the form accepted by parse_braid (round-trips)."""
    return f"strands={b.strands}; " + " ".join(str(x) for x in b.letters)


def torus_braid(p: int, q: int) -> BraidWord:
    """The braid (s1 s2 ... s_{p-1})^q on p strands, closing to the
    (p, q) torus link."""
    if p < 2 or q < 2:
        raise ValueError("torus braid requires p, q >= 2")
    return BraidWord(p, tuple(list(range(1, p)) * q))


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """Permutation induced on strand positions by the braid."""
    perm = list(range(b.strands))
    for x in b.letters:
        k = abs(x) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    return tuple(perm)


def closure_components(b: BraidWord) -> int:
    """Number of link components of the braid closure (permutation cycles)."""
    perm = braid_permutation(b)
    seen = [False] * b.strands
    cycles = 0
    for i in range(b.strands):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


@dataclass(frozen=True)
class SeifertData:
    """An integer Seifert matrix with its link bookkeeping.

    Invariants checked at construction: size n = 2g + m - 1, the skew
    part V - V^T has rank 2g over Q, and for knots (m = 1) the skew part
    is unimodular.  The hash is computed once, at construction: Seifert
    data keys the signature caches, which would otherwise hash n^2 entries
    per lookup."""

    matrix: tuple[tuple[int, ...], ...]
    components: int
    genus: int
    label: str = ""

    def __post_init__(self):
        v = tuple(tuple(map(int, row)) for row in self.matrix)
        object.__setattr__(self, "matrix", v)
        n = len(v)
        for row in v:
            if len(row) != n:
                raise InvalidSeifertData("Seifert matrix must be square")
        if self.components < 1:
            raise InvalidSeifertData("components must be >= 1")
        if self.genus < 0:
            raise InvalidSeifertData("genus must be >= 0")
        if n != 2 * self.genus + self.components - 1:
            raise InvalidSeifertData(
                f"size {n} != 2g + m - 1 for g={self.genus}, m={self.components}")
        skew = [[a - b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))]
        rank, det = int_rank_det(skew)
        if rank != 2 * self.genus:
            raise InvalidSeifertData(
                "rank of V - V^T does not equal twice the genus")
        if self.components == 1 and abs(det) != 1:
            raise InvalidSeifertData("V - V^T must be unimodular for a knot")
        object.__setattr__(self, "_hash", hash((v, self.components)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_matrix(cls, matrix, components: int = 1, label: str = "") -> "SeifertData":
        n = len(matrix)
        if (n - components + 1) % 2 != 0 or n - components + 1 < 0:
            raise InvalidSeifertData(
                f"no genus fits size {n} with {components} components")
        return cls(tuple(tuple(int(x) for x in row) for row in matrix),
                   components, (n - components + 1) // 2, label)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def transposed(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.matrix))


def seifert_matrix_from_braid(b: BraidWord) -> SeifertData:
    """Seifert matrix of the braid closure via Seifert's algorithm.

    Every generator index 1..strands-1 must occur in the word, otherwise
    the closure is a split link and the algorithm's surface would be
    disconnected; such input is rejected.
    """
    used = {abs(x) for x in b.letters}
    if len(used) < b.strands - 1:
        missing = (k for k in range(1, b.strands) if k not in used)
        first = ", ".join(map(str, itertools.islice(missing, 5)))
        raise InvalidSeifertData(
            f"disconnected surface: {b.strands - 1 - len(used)} generator(s) unused, "
            f"first {first}")

    occurrences: dict[int, list[tuple[int, int]]] = {k: [] for k in range(1, b.strands)}
    for pos, x in enumerate(b.letters):
        occurrences[abs(x)].append((pos, 1 if x > 0 else -1))

    # One basis loop per consecutive pair of bands on the same generator.
    loops = []  # (generator, pos1, sign1, pos2, sign2)
    for k in range(1, b.strands):
        occ = occurrences[k]
        for (p1, e1), (p2, e2) in zip(occ, occ[1:]):
            loops.append((k, p1, e1, p2, e2))
    # Then in braid order, by the position of the first band: a congruence
    # by a permutation, which changes no invariant, and it puts each loop
    # next to the loops it links, so tV - V^T of a torus braid has a band
    # of width 2-3 instead of about n/2.
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
    return SeifertData(tuple(tuple(row) for row in v), m, (n - m + 1) // 2,
                       label=braid_text(b))


def connected_sum(a: SeifertData, b: SeifertData) -> SeifertData:
    """Block-diagonal Seifert matrix of a connected sum of knots."""
    if a.components != 1 or b.components != 1:
        raise InvalidSeifertData("connected sum defined here for knots only")
    na, nb = a.size, b.size
    v = [[0] * (na + nb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(na):
            v[i][j] = a.matrix[i][j]
    for i in range(nb):
        for j in range(nb):
            v[na + i][na + j] = b.matrix[i][j]
    label = f"{a.label or '?'}#{b.label or '?'}"
    return SeifertData(tuple(tuple(row) for row in v), 1, a.genus + b.genus, label)


def mirror(a: SeifertData) -> SeifertData:
    """Mirror image: V -> -V^T; components and genus unchanged."""
    n = a.size
    v = tuple(tuple(-a.matrix[j][i] for j in range(n)) for i in range(n))
    return replace(a, matrix=v, label=f"mirror({a.label})" if a.label else "")


def stabilize(a: SeifertData, direction: str, new_column) -> SeifertData:
    """Surface stabilization (an S-equivalence enlargement).

    Appends one row/column pair in the standard pattern: a single
    off-diagonal 1, a zero diagonal corner, and the supplied integer
    vector in the free slots.  Genus grows by one; the Alexander class
    and the whole signature function are unchanged.
    """
    xi = [int(c) for c in new_column]
    n = a.size
    if len(xi) != n:
        raise InvalidSeifertData(f"new_column must have length {n}")
    if direction not in ("row-first", "column-first"):
        raise ValueError("direction must be 'row-first' or 'column-first'")
    v = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            v[i][j] = a.matrix[i][j]
    if direction == "row-first":
        for i in range(n):
            v[i][n] = xi[i]
        v[n][n + 1] = 1
    else:
        for j in range(n):
            v[n][j] = xi[j]
        v[n + 1][n] = 1
    return SeifertData(tuple(tuple(row) for row in v), a.components,
                       a.genus + 1, a.label)


# -- JSON input ------------------------------------------------------------


def _json_int(value, what: str) -> int:
    """value when it is a JSON integer; a float, bool, string or null
    raises ParseError instead of being truncated or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be an integer, got {value!r}")


def braid_from_json(obj) -> BraidWord:
    if isinstance(obj, str):
        return parse_braid(obj)
    if isinstance(obj, dict):
        word = obj.get("word", [])
        if "strands" not in obj or not isinstance(word, list):
            raise ParseError("bad braid object: it needs 'strands' and a 'word' list")
        return BraidWord(_json_int(obj["strands"], "strands"),
                         tuple(_json_int(x, "braid letter") for x in word))
    raise ParseError("braid must be a string or {strands, word} object")


def braid_to_json(b: BraidWord) -> dict:
    return {"strands": b.strands, "word": list(b.letters)}


def seifert_data_from_json(obj) -> SeifertData:
    """Accepts {"braid": {...}} or {"seifert_matrix": [[...]], "components": m}."""
    if not isinstance(obj, dict):
        raise ParseError("input must be a JSON object")
    if "braid" in obj:
        return seifert_matrix_from_braid(braid_from_json(obj["braid"]))
    if "seifert_matrix" in obj:
        matrix = obj["seifert_matrix"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ParseError("seifert_matrix must be a list of rows")
        matrix = [[_json_int(x, "seifert_matrix entry") for x in row] for row in matrix]
        return SeifertData.from_matrix(
            matrix, _json_int(obj.get("components", 1), "components"),
            str(obj.get("label", "")))
    raise ParseError('input needs a "braid" or a "seifert_matrix" field')
