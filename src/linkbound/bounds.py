"""Certified lower/upper bounds on the topological 4-genus.

Lower bounds come from the averaged signature function: for any circle
point z, |sigma_L(z)| + m - 1 - beta(L) <= 2 g_4(L).  Upper bounds come
from the Alexander-polynomial width (Feller's theorem, knots, topological
category), from the genus of the constructing Seifert surface pushed into
the 4-ball, and from user-supplied band-move certificates.  Satellite
(string-link infection) transfer carries bounds to the infected link
under declared, tool-unverifiable hypotheses, which the report records as
assumptions rather than silently trusting.
"""

from __future__ import annotations

from .braids import (SeifertData, _check_integer, _check_integers, _check_list, _check_str,
                     _json_keys, _shown, _Value)
from .errors import InconsistentBounds, InvalidSeifertData, ParseError
from .factor import FoxMilnorResult, fox_milnor_test
from .laurent import LaurentPoly
from .signature import (CirclePoint, SignatureFunction, alexander_from_seifert,
                        link_nullity, signature_function)

OBSTRUCTED = "obstructed"
CONSISTENT = "consistent-with-slice"
INCONCLUSIVE = "inconclusive"


def _json(value):
    """The JSON form of a record's value: a record becomes the object of its
    `_fields` by name, a tuple an array, and anything else stays as it is."""
    if isinstance(value, _Value):
        return {name: _json(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value


class Provenance(_Value):
    """One bound, "lower" or "upper", and where it comes from; `value` is
    stored as an int."""

    _fields = ("bound", "value", "source")

    def __init__(self, bound: str, value: int, source: str):
        value = _check_integer(value, "provenance value")
        if bound not in ("lower", "upper"):
            raise ParseError(
                f'provenance bound must be "lower" or "upper", got {_shown(bound)}')
        super().__init__(bound, value, _check_str(source, "provenance source"))

    def to_json(self) -> dict:
        return _json(self)

    @classmethod
    def from_json(cls, obj) -> "Provenance":
        """The entry that to_json wrote; a missing field raises TypeError."""
        return cls(**_json_keys(obj, cls._fields, "provenance entry"))


class BoundReport(_Value):
    """Assembled 4-genus bounds with provenance and declared assumptions;
    the bounds (`upper` may be None) and `components` (>= 1) are stored
    as ints, the provenance entries and the assumptions (strings), each
    given as a list or a tuple, as tuples, and the verdict is OBSTRUCTED,
    CONSISTENT or INCONCLUSIVE."""

    _fields = ("lower", "upper", "slice_verdict", "provenance", "assumptions", "components")

    def __init__(self, lower: int, upper: int | None, slice_verdict: str,
                 provenance: tuple[Provenance, ...] = (), assumptions: tuple[str, ...] = (),
                 components: int = 1):
        lower = _check_integer(lower, "lower")
        upper = None if upper is None else _check_integer(upper, "upper")
        components = _check_integer(components, "components")
        if components < 1:
            raise ParseError(f"components must be >= 1, got {_shown(components)}")
        if slice_verdict not in (OBSTRUCTED, CONSISTENT, INCONCLUSIVE):
            raise ParseError(f"unknown slice_verdict {_shown(slice_verdict)}")
        provenance = _check_list(provenance, "provenance")
        assumptions = _check_list(assumptions, "assumptions")
        for p in provenance:
            if not isinstance(p, Provenance):
                raise ParseError(f"provenance entries must be Provenance, got {type(p).__name__}")
        if lower < 0:
            raise InconsistentBounds("lower bound must be >= 0")
        if upper is not None and lower > upper:
            raise InconsistentBounds(f"lower bound {_shown(lower)} exceeds upper bound "
                                     f"{_shown(upper)}")
        super().__init__(lower, upper, slice_verdict, provenance,
                         tuple(_check_str(a, "assumption") for a in assumptions), components)

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def to_json(self) -> dict:
        return {**_json(self), "exact": self.exact}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundReport":
        """The report that to_json wrote; ParseError on a malformed one,
        or on a key that to_json does not write."""
        fields = {"upper": None, "slice_verdict": INCONCLUSIVE,
                  **_json_keys(obj, (*cls._fields, "exact"), "bound report")}
        fields.pop("exact", None)
        try:
            if isinstance(provenance := fields.get("provenance"), list):
                fields["provenance"] = [Provenance.from_json(p) for p in provenance]
            return cls(**fields)
        except TypeError as e:  # a missing field
            raise ParseError(f"malformed bound report: {e}") from None


class InfectionDecl(_Value):
    """User-declared data for a string-link infection S(L, J).

    `linking_numbers[k][i]` is lk(axis_k, L_i).  `double_points` is the
    declared total number of intersection and self-intersection points of
    the immersed null-homotopy discs of the axes in the complement of the
    surfaces; the infection string link's closure must have vanishing
    Milnor invariants through length 2 * double_points, and the declared
    `milnor_vanishing_length` must say so.  None of this is verified by
    the tool; it is recorded as an assumption.
    """

    _fields = ("axes", "linking_numbers", "double_points", "milnor_vanishing_length", "notes")

    def __init__(self, axes: int, linking_numbers: tuple[tuple[int, ...], ...],
                 double_points: int, milnor_vanishing_length: int, notes: str = ""):
        axes = _check_integer(axes, "axes")
        double_points = _check_integer(double_points, "double_points")
        milnor_vanishing_length = _check_integer(milnor_vanishing_length,
                                                 "milnor_vanishing_length")
        lk = tuple(_check_integers(_check_list(row, "linking_numbers row"), "linking numbers")
                   for row in _check_list(linking_numbers, "linking_numbers"))
        if axes < 1:
            raise InvalidSeifertData("infection needs at least one axis")
        if len(lk) != axes:
            raise InvalidSeifertData("linking_numbers must have one row per axis")
        if double_points < 0:
            raise InvalidSeifertData("double_points must be >= 0")
        if milnor_vanishing_length < 2 * double_points:
            raise InvalidSeifertData(
                "hypotheses of the infection-transfer theorem not declared: "
                f"need Milnor vanishing length >= {_shown(2 * double_points)}, "
                f"declared {_shown(milnor_vanishing_length)}")
        super().__init__(axes, lk, double_points, milnor_vanishing_length,
                         _check_str(notes, "notes"))

    @property
    def all_linking_zero(self) -> bool:
        return all(v == 0 for row in self.linking_numbers for v in row)

    def to_json(self) -> dict:
        return _json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "InfectionDecl":
        """The declaration that to_json wrote; ParseError on a malformed
        one, or on a key that to_json does not write."""
        try:
            return cls(**_json_keys(obj, cls._fields, "infection declaration"))
        except TypeError as e:  # a missing field
            raise ParseError(f"malformed infection declaration: {e}") from None


class BandCertificate(_Value):
    """b oriented band moves turning a knot into a u-component unlink.

    Certifies a smooth surface in the 4-ball with euler characteristic
    chi = u - b, hence genus (1 - chi) / 2 for one boundary circle: chi
    must be odd and the genus nonnegative, or the certificate is invalid
    (ParseError).
    """

    _fields = ("bands", "resulting_unlink_components")

    def __init__(self, bands: int, resulting_unlink_components: int):
        what = "band certificate counts"
        bands = _check_integer(bands, what)
        resulting_unlink_components = _check_integer(resulting_unlink_components, what)
        if bands < 0 or resulting_unlink_components < 1:
            raise ParseError("need bands >= 0 and at least one unlink component")
        chi = resulting_unlink_components - bands
        if chi % 2 == 0:
            raise ParseError(f"invalid certificate: chi = {_shown(chi)} must be odd for "
                             "one boundary circle")
        if (genus := (1 - chi) // 2) < 0:
            raise ParseError(f"invalid certificate: negative genus {_shown(genus)}")
        super().__init__(bands, resulting_unlink_components)


def lt_lower_bound(data: SeifertData) -> tuple[int, CirclePoint]:
    """Best signature lower bound: ceil((max|sigma| + m - 1 - beta) / 2).

    The maximum runs over interval values only; averaged values are means
    of their neighbours, so |averaged| <= max adjacent |interval value|
    and intervals already attain the maximum.  The witness is the sample
    point of an attaining interval.
    """
    return _signature_bound(signature_function(data), link_nullity(data),
                            data.components)


def _signature_bound(f: SignatureFunction, beta: int, m: int) -> tuple[int, CirclePoint]:
    s = f.max_abs_sigma()
    witness = CirclePoint(f.samples[f.argmax_interval()])
    bound = -((-(s + m - 1 - beta)) // 2)  # ceil of a nonnegative quantity
    return bound, witness


def width_upper_bound(delta: LaurentPoly) -> int:
    """Alexander-width upper bound for knots: twice the topological
    4-genus is at most the width (Feller), so g4 <= ceil(width / 2)."""
    w = delta.width()  # raises ZeroPolynomialError for 0
    return (w + 1) // 2


def band_certificate_genus(cert: BandCertificate) -> int:
    """Genus (1 - u + b) / 2 of the smooth surface a band certificate
    describes; BandCertificate has checked that it is a whole number >= 0."""
    return (1 - cert.resulting_unlink_components + cert.bands) // 2


def seifert_genus_upper_bound(data: SeifertData) -> int:
    """Genus of the given Seifert surface pushed into the 4-ball (knots)."""
    if data.components != 1:
        raise InvalidSeifertData(
            "pushed-in Seifert surface bound implemented for knots only")
    return data.genus


class SliceObstruction(_Value):
    _fields = ("verdict", "fox_milnor", "signature_bound")

    def __init__(self, verdict: str, fox_milnor: FoxMilnorResult, signature_bound: int):
        super().__init__(verdict, fox_milnor, signature_bound)


def slice_obstruction(data: SeifertData) -> SliceObstruction:
    """Slice obstruction for a knot: Fox-Milnor on the Alexander
    polynomial, with a positive signature lower bound reported as an
    independent obstruction when it fires."""
    if data.components != 1:
        raise InvalidSeifertData("slice obstruction implemented for knots only")
    fm = fox_milnor_test(alexander_from_seifert(data))
    bound, _ = lt_lower_bound(data)
    return SliceObstruction(_slice_verdict(fm, bound), fm, bound)


def _slice_verdict(fm: FoxMilnorResult, signature_bound: int) -> str:
    if fm.verdict == "fails" or signature_bound > 0:
        return OBSTRUCTED
    if fm.verdict == "passes":
        return CONSISTENT
    return INCONCLUSIVE


def infection_transfer(base: BoundReport, decl: InfectionDecl) -> BoundReport:
    """Bounds for the infection S(L, J) of the base link by a string link.

    The upper bound always carries over, tagged with the declared
    hypotheses (immersed discs with the stated number of double points,
    Milnor invariants vanishing through twice that length).  The lower
    bound carries only when every axis/component linking number vanishes:
    then the axes are null-homologous, hence lie in the commutator
    subgroup, and a Seifert form -- so the Alexander polynomial and all
    averaged signatures -- survives the infection unchanged.  A row of
    linking numbers with other than base.components entries is invalid.
    """
    if any(len(row) != base.components for row in decl.linking_numbers):
        raise InvalidSeifertData(
            "linking_numbers rows must have one entry per link component")
    assumptions = list(base.assumptions)
    assumptions.append(
        f"axes bound immersed discs in the surface complement with "
        f"{decl.double_points} double points in total (declared, not verified)")
    if decl.double_points > 0:
        assumptions.append(
            f"infection string link closure has vanishing Milnor invariants "
            f"through length {decl.milnor_vanishing_length} "
            f">= {2 * decl.double_points} (declared, not verified)")
    provenance = _carried(base, "upper", "infection transfer of: ", base.upper,
                          "infection transfer")
    if decl.all_linking_zero:
        lower, slice_verdict = base.lower, base.slice_verdict
        provenance += _carried(base, "lower", "axes null-homologous (all linking numbers zero): ",
                               lower, "axes null-homologous: invariants unchanged")
    else:
        lower, slice_verdict = 0, INCONCLUSIVE
        assumptions.append(
            "nonzero axis linking number: signature/Alexander invariance "
            "argument inapplicable, lower bound reset to 0")
    return BoundReport(lower, base.upper, slice_verdict,
                       tuple(provenance), tuple(assumptions), base.components)


def _carried(base: BoundReport, bound: str, prefix: str, value, source: str) -> list:
    """The provenance of base's `bound` ("lower" or "upper") carried
    through an infection: each entry with `prefix` before its source, or,
    where base has none, one entry (value, source) unless value is None."""
    carried = [Provenance(bound, p.value, prefix + p.source)
               for p in base.provenance if p.bound == bound]
    return carried or ([] if value is None else [Provenance(bound, value, source)])


def assemble_report(data: SeifertData, certs=()) -> BoundReport:
    """One certified report: the signature lower bound against the minimum
    of the available upper bounds, plus the slice verdict.

    For knots the upper-bound legs are the Alexander width, the pushed-in
    Seifert surface, and any band certificates.  For links (m > 1) no
    upper bound is produced here (band certificates assume one boundary
    circle) and the slice verdict is only the signature obstruction.
    The signature function, beta and Delta are each computed once; a
    knot's Fox-Milnor test runs only when the signature bound is 0, since
    a positive bound already obstructs sliceness.
    """
    m = data.components
    f = signature_function(data)
    beta = link_nullity(data)
    lower, witness = _signature_bound(f, beta, m)
    wx = witness.x
    provenance = [Provenance(
        "lower", lower,
        f"Levine-Tristram signature bound: max |sigma| = {f.max_abs_sigma()} "
        f"near x = {wx}, m = {m}, beta = {beta}")]
    uppers: list[Provenance] = []
    assumptions: list[str] = []
    if m == 1:
        delta = alexander_from_seifert(data)
        uppers.append(Provenance("upper", width_upper_bound(delta),
                                 "Alexander-width (topological category)"))
        uppers.append(Provenance("upper", seifert_genus_upper_bound(data),
                                 "pushed-in Seifert surface"))
        for cert in certs:
            uppers.append(Provenance(
                "upper", band_certificate_genus(cert),
                "band-move certificate (user-supplied, smooth)"))
            assumptions.append(
                f"{cert.bands} band moves to a "
                f"{cert.resulting_unlink_components}-component unlink "
                f"(user-supplied, not verified)")
        verdict = OBSTRUCTED if lower > 0 else \
            _slice_verdict(fox_milnor_test(delta), lower)
    else:
        if certs:
            raise InvalidSeifertData(
                "band certificates are accepted for knots only")
        verdict = OBSTRUCTED if lower >= 1 else INCONCLUSIVE
    upper = min((p.value for p in uppers), default=None)
    provenance.extend(uppers)
    return BoundReport(lower, upper, verdict, tuple(provenance),
                       tuple(assumptions), m)
