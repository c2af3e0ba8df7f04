"""Braid words, braid-closure bookkeeping, and Seifert matrices.

The Seifert matrix of a braid closure comes from Seifert's algorithm:
the closure of a braid on s strands bounds a surface made of s discs
joined by one band per crossing.  A basis of first homology is given by
the loops through consecutive bands of the same generator, and the
linking numbers of these loops with their pushoffs follow purely
combinatorial rules read off the letter sequence (J. Collins, "An
algorithm for computing the Seifert matrix of a link from a braid
representation", 2007), applied here in one walk of the word.

Convention: a positive letter k denotes a positive (right-handed)
crossing of strands k, k+1.  With this convention the closure of
``strands=2; 1 1 1`` is the positive trefoil and its signature at z = -1
is -2.  Only convention-independent quantities (|sigma|, Delta up to
units) should be compared across tools.
"""

from __future__ import annotations

import itertools
import operator
import re
import reprlib
import sys

from . import linalg
from .errors import InvalidSeifertData, ParseError


class _Shown(reprlib.Repr):
    """reprlib's short form of an outside value, which every refusal shows:
    an int with more digits than str() writes (sys.get_int_max_str_digits,
    4300 by default; no limit before it existed) is shown by its size,
    where repr() would raise ValueError inside the refusal."""

    def repr_int(self, x, level):
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and abs(x) >= 10 ** limit:
            return f"<integer of {x.bit_length()} bits>"
        return super().repr_int(x, level)


_shown = _Shown().repr


def _check_integer(value, what: str, error=ParseError) -> int:
    """The value as an int, through operator.index: an int or a value with
    __index__ (a NumPy integer, say); a float, Fraction, string or bool
    raises `error`, where int() would truncate or parse it."""
    kind = type(value)
    if kind is int:
        return value
    if kind is bool or not hasattr(kind, "__index__"):
        raise error(f"{what} must be integers, got {kind.__name__}")
    return operator.index(value)


def _check_str(value, what: str, error=ParseError) -> str:
    """The value when it is a str; anything else raises `error`, where str()
    would turn a list or a number into text."""
    if isinstance(value, str):
        return value
    raise error(f"{what} must be a string, got {_shown(value)}")


def _check_list(value, what: str) -> tuple:
    """The value as a tuple when it is a list or a tuple; anything else
    raises ParseError, where tuple() would read a string by its letters and
    an object by its keys."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ParseError(f"{what} must be a list, got {_shown(value)}")


def _check_integers(values, what: str, error=ParseError) -> tuple[int, ...]:
    """_check_integer on each value; the first bad one is named."""
    return tuple(v if type(v) is int else _check_integer(v, what, error) for v in values)


def _decimal(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits only, else ValueError
    (int() also reads '+1', ' 1', '1_0' and other scripts' digits)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {_shown(text)}")
    return int(text)


class _Value:
    """An immutable record of the fields named in `_fields`.  A subclass's
    __init__ checks its arguments, then passes one value per field, in
    `_fields` order, to _Value.__init__, which stores them past __setattr__;
    a wrong number of values raises ValueError.  Equal to a record of the
    same class with equal fields, hashed as the tuple of its fields, shown by
    field name, and refusing assignment and deletion."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BraidWord(_Value):
    """A braid on `strands` strands; letters are nonzero ints with
    1 <= |letter| <= strands - 1, the sign giving the crossing sign."""

    _fields = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        strands, *letters = _check_integers((strands, *letters), "strands and braid letters")
        if strands < 1:
            raise ParseError(f"strands must be >= 1, got {_shown(strands)}")
        for x in letters:
            if x == 0 or abs(x) > strands - 1:
                raise ParseError(
                    f"letter {_shown(x)} out of range for {_shown(strands)} strands")
        super().__init__(strands, tuple(letters))


_TOKEN = re.compile(r"s([0-9]+)(\^-1)?")


def parse_braid(text: str) -> BraidWord:
    """Parse "strands=3; 1 2 -1" or token form "strands=3; s1 s2^-1"."""
    strands = None
    letters = []
    for raw in text.replace(";", " ").split():
        token = raw.strip().rstrip(",")
        if not token:
            continue
        if token.startswith("strands="):
            if strands is not None:
                raise ParseError("more than one strands=<n> declaration")
            try:
                strands = _decimal(token[len("strands="):])
            except ValueError:
                raise ParseError(f"bad strand count in {_shown(token)}") from None
            continue
        m = _TOKEN.fullmatch(token)
        try:
            idx = _decimal(m.group(1) if m else token)
        except ValueError:  # also an index past Python's limit on digits
            raise ParseError(f"malformed braid token {_shown(token)}") from None
        letters.append(-idx if m and m.group(2) else idx)
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


def closure_components(b: BraidWord) -> int:
    """Number of link components of the braid closure: the cycles of the
    permutation that the braid induces on strand positions."""
    perm = list(range(b.strands))
    for x in b.letters:
        k = abs(x) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
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


class SeifertData(_Value):
    """An integer Seifert matrix with its link bookkeeping.

    Invariants checked at construction: int or __index__ entries and
    component count (no float, Fraction, str or bool), stored as ints; a
    str label;
    size n = 2g + m - 1 for the derived genus g; V - V^T of rank 2g over
    Q, and unimodular for knots (m = 1).  Both are read at t = 1, where
    evaluation commutes with every minor, off the elimination of tV - V^T
    over Q(t) that the construction runs (linalg._Run) and keeps for every
    invariant read later.  For a knot of rank n det(V - V^T) = +-p_n(1).
    The skew V - V^T has even rank, in [k, r] for the last k with
    p_k(1) != 0, below n if p_n(1) = 0: where one even number fits, it is
    the rank, else the run's ranks_at reads it.  So building one costs
    that elimination, also for the intermediates of mirror() and
    connected_sum().

    `_run` holds the elimination, a linalg._Run, and `_derived` what the
    signature layer derives from it (principal block, value at z = -1 and
    signature function).  Neither is a field: equality, hashing and mirror() see
    only V, m and the label.  A copy or an unpickled SeifertData keeps
    `_run` and starts with an empty `_derived`."""

    _fields = ("matrix", "components", "label")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], components: int = 1, *,
                 label: str = ""):
        m, n = components, len(matrix)
        ints = None
        if type(m) is not int or not all(type(x) is int for row in matrix for x in row):
            ints = _check_integers(itertools.chain((m,), *matrix),
                                   "components and Seifert matrix entries", InvalidSeifertData)
            m = ints[0]
        if any(len(row) != n for row in matrix):
            raise InvalidSeifertData("Seifert matrix must be square")
        if m < 1:
            raise InvalidSeifertData("components must be >= 1")
        if (n - m + 1) % 2 != 0 or n - m + 1 < 0:
            raise InvalidSeifertData(f"no genus fits size {n} with {_shown(m)} components")
        v = (tuple(map(tuple, matrix)) if ints is None
             else tuple(ints[1 + i * n:1 + (i + 1) * n] for i in range(n)))
        super().__init__(v, m, _check_str(label, "label", InvalidSeifertData))
        run = linalg._Run(v)
        pivots, r = run.pivots, len(run.pivots)
        # p(1) is the sum of the coefficients of p
        k = next((k for k in range(r, 0, -1) if sum(pivots[k - 1])), 0)
        top = r if k == r or r < n else n - 1
        even = k + k % 2
        rank = even if top < even + 2 else run.ranks_at([sum])[0]
        if rank != n - m + 1:
            raise InvalidSeifertData("rank of V - V^T does not equal twice the genus")
        if m == 1 and n and abs(sum(pivots[-1])) != 1:
            raise InvalidSeifertData("V - V^T must be unimodular for a knot")
        self.__dict__.update(_run=run, _derived={})

    def __getstate__(self):
        return {**self.__dict__, "_derived": {}}

    @classmethod
    def from_matrix(cls, matrix, components: int = 1, label: str = "") -> "SeifertData":
        return cls(matrix, components, label=label)

    @property
    def genus(self) -> int:
        """The genus g of the Seifert surface: n = 2g + m - 1."""
        return (len(self.matrix) - self.components + 1) // 2

    @property
    def size(self) -> int:
        return len(self.matrix)

    def transposed(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.matrix))


def seifert_matrix_from_braid(b: BraidWord) -> SeifertData:
    """Seifert matrix of the braid closure via Seifert's algorithm, in one
    walk of the word.

    Every generator index 1..strands-1 must occur in the word, otherwise
    the closure is a split link and the algorithm's surface would be
    disconnected; such input is rejected before the matrix is allocated.

    Loop (a, p) runs through consecutive bands a < p of one generator k.
    Loops are numbered by their first band: a congruence, which changes no
    invariant, that puts each loop next to the loops it links (tV - V^T of
    a torus braid is banded, width 2-3).  At band p the walk sets Collins'
    entries between (a, p) and the loops open at p, the only ones not set
    when an earlier loop closed: the diagonal, the next loop on k (it
    starts at p), and the one loop on k +- 1 that can interleave with
    (a, p), the one starting at the latest band of k +- 1 if that band
    comes after a.
    """
    used, starts = set(), []  # from the end: the band is not its generator's last
    for k in map(abs, reversed(b.letters)):
        starts.append(k in used)
        used.add(k)
    if len(used) < b.strands - 1:
        missing = (k for k in range(1, b.strands) if k not in used)
        first = ", ".join(map(str, itertools.islice(missing, 5)))
        raise InvalidSeifertData(
            f"disconnected surface: {_shown(b.strands - 1 - len(used))} generator(s) "
            f"unused, first {first}")

    n = len(b.letters) - len(used)
    v = [[0] * n for _ in range(n)]
    # Per generator (0 and strands pad k - 1 and k + 1): the loop starting at
    # its latest band, or -1 (no band yet, or its last), and that band's sign.
    opened = [-1] * (b.strands + 1)
    positive = [False] * (b.strands + 1)
    count = 0  # loops started so far
    for x, start in zip(b.letters, reversed(starts)):
        k, e = abs(x), x > 0
        i = opened[k]
        if i >= 0:  # this band closes loop i
            if positive[k] == e:
                v[i][i] = -1 if e else 1
            if start:  # loop `count` starts here: consecutive loops share this band
                if e:
                    v[count][i] = 1
                else:
                    v[i][count] = -1
            if opened[k + 1] > i:
                v[opened[k + 1]][i] = -1
            if opened[k - 1] > i:
                v[i][opened[k - 1]] = 1
        opened[k], positive[k] = (count if start else -1), e
        count += start
    return SeifertData(v, closure_components(b), label=braid_text(b))


def connected_sum(a: SeifertData, b: SeifertData) -> SeifertData:
    """Block-diagonal Seifert matrix of a connected sum of knots."""
    if a.components != 1 or b.components != 1:
        raise InvalidSeifertData("connected sum defined here for knots only")
    v = [row + (0,) * b.size for row in a.matrix] + [(0,) * a.size + row for row in b.matrix]
    return SeifertData(v, 1, label=f"{a.label or '?'}#{b.label or '?'}")


def mirror(a: SeifertData) -> SeifertData:
    """Mirror image: V -> -V^T; components and genus unchanged."""
    n = a.size
    v = tuple(tuple(-a.matrix[j][i] for j in range(n)) for i in range(n))
    return SeifertData(v, a.components, label=f"mirror({a.label})" if a.label else "")


def stabilize(a: SeifertData, direction: str, new_column) -> SeifertData:
    """Surface stabilization (an S-equivalence enlargement).

    Appends one row/column pair in the standard pattern: a single
    off-diagonal 1, a zero diagonal corner, and the supplied integer
    vector in the free slots.  Genus grows by one; the Alexander class
    and the whole signature function are unchanged.  The entries of
    new_column are checked as those of a Seifert matrix.
    """
    xi = list(new_column)
    n = a.size
    if len(xi) != n:
        raise InvalidSeifertData(f"new_column must have length {n}")
    if direction not in ("row-first", "column-first"):
        raise ValueError("direction must be 'row-first' or 'column-first'")
    v = [list(row) + [0, 0] for row in a.matrix] + [[0] * (n + 2), [0] * (n + 2)]
    if direction == "row-first":
        for i in range(n):
            v[i][n] = xi[i]
        v[n][n + 1] = 1
    else:
        v[n][:n] = xi
        v[n + 1][n] = 1
    return SeifertData(v, a.components, label=a.label)


# -- JSON input ------------------------------------------------------------


def _json_keys(obj, keys: tuple[str, ...], what: str) -> dict:
    """obj when it is a JSON object whose keys are all among `keys`; else
    ParseError, naming the first other key, which would be ignored unread."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in obj:
        if key not in keys:
            raise ParseError(f"{what}: unknown key {_shown(key)}")
    return obj


def braid_from_json(obj) -> BraidWord:
    if isinstance(obj, str):
        return parse_braid(obj)
    if isinstance(obj, dict):
        obj = _json_keys(obj, ("strands", "word"), "braid")
        return BraidWord(obj.get("strands"), _check_list(obj.get("word", []), "braid word"))
    raise ParseError("braid must be a string or {strands, word} object")


def _braid_field(obj: dict) -> BraidWord | None:
    """The braid an input object holds, or None; ParseError on a key that
    is not one of an input's, or where it holds a braid and also
    seifert_matrix, components or label, which the braid would drop: a
    braid input is labelled by its braid text."""
    if "braid" not in _json_keys(obj, ("braid", "seifert_matrix", "components", "label"), "input"):
        return None
    if "seifert_matrix" in obj or "components" in obj or "label" in obj:
        raise ParseError('an input holds "braid", or "seifert_matrix" with "components" and '
                         '"label", not both')
    return braid_from_json(obj["braid"])


def seifert_data_from_json(obj) -> SeifertData:
    """Accepts {"braid": {...}} or {"seifert_matrix": [[...]], "components": m}."""
    if not isinstance(obj, dict):
        raise ParseError("input must be a JSON object")
    if (braid := _braid_field(obj)) is not None:
        return seifert_matrix_from_braid(braid)
    if "seifert_matrix" in obj:
        matrix = obj["seifert_matrix"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ParseError("seifert_matrix must be a list of rows")
        # Checked here as well as in SeifertData: a wrong JSON type exits 2,
        # where SeifertData's InvalidSeifertData exits 3.
        _check_integers(itertools.chain(*matrix), "seifert_matrix entries")
        return SeifertData.from_matrix(
            matrix, _check_integer(obj.get("components", 1), "components"),
            _check_str(obj.get("label", ""), "label"))
    raise ParseError('input needs a "braid" or a "seifert_matrix" field')
