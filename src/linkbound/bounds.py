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

from dataclasses import dataclass

from .braids import SeifertData, _check_integer, _check_integers, _json_int
from .errors import InconsistentBounds, InvalidSeifertData, ParseError
from .factor import FoxMilnorResult, check_degree_cap, fox_milnor_test
from .laurent import LaurentPoly
from .signature import (CirclePoint, SignatureFunction, alexander_from_seifert,
                        link_nullity, signature_function)

OBSTRUCTED = "obstructed"
CONSISTENT = "consistent-with-slice"
INCONCLUSIVE = "inconclusive"


def _store_integers(obj, names: tuple[str, ...], what: str) -> None:
    """Check the named fields of a frozen dataclass with _check_integer
    and store the ints it returns in their place; of several bad fields,
    the first is named."""
    for name in names:
        object.__setattr__(obj, name, _check_integer(getattr(obj, name), what))


@dataclass(frozen=True)
class Provenance:
    """One bound and where it comes from; `value` is stored as an int."""

    bound: str  # "lower" | "upper"
    value: int
    source: str

    def __post_init__(self):
        _store_integers(self, ("value",), "provenance values")

    def to_json(self) -> dict:
        return {"bound": self.bound, "value": self.value, "source": self.source}


@dataclass(frozen=True)
class BoundReport:
    """Assembled 4-genus bounds with provenance and declared assumptions;
    the bounds (`upper` may be None) and `components` are stored as ints."""

    lower: int
    upper: int | None
    slice_verdict: str
    provenance: tuple[Provenance, ...] = ()
    assumptions: tuple[str, ...] = ()
    components: int = 1

    def __post_init__(self):
        fields = ("lower", "components") if self.upper is None else ("lower", "upper", "components")
        _store_integers(self, fields, "bounds and components")
        if self.lower < 0:
            raise InconsistentBounds("lower bound must be >= 0")
        if self.upper is not None and self.lower > self.upper:
            raise InconsistentBounds(
                f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "slice_verdict": self.slice_verdict,
            "provenance": [p.to_json() for p in self.provenance],
            "assumptions": list(self.assumptions),
            "components": self.components,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoundReport":
        try:
            upper = obj.get("upper")
            fields = dict(
                lower=_json_int(obj["lower"], "lower"),
                upper=None if upper is None else _json_int(upper, "upper"),
                slice_verdict=str(obj.get("slice_verdict", INCONCLUSIVE)),
                provenance=tuple(Provenance(p["bound"], _json_int(p["value"], "provenance value"),
                                            str(p["source"]))
                                 for p in obj.get("provenance", ())),
                assumptions=tuple(str(a) for a in obj.get("assumptions", ())),
                components=_json_int(obj.get("components", 1), "components"))
        except ParseError:
            raise  # already says which field is wrong
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed bound report: {e!r}") from None
        return cls(**fields)


@dataclass(frozen=True)
class InfectionDecl:
    """User-declared data for a string-link infection S(L, J).

    `linking_numbers[k][i]` is lk(axis_k, L_i).  `double_points` is the
    declared total number of intersection and self-intersection points of
    the immersed null-homotopy discs of the axes in the complement of the
    surfaces; the infection string link's closure must have vanishing
    Milnor invariants through length 2 * double_points, and the declared
    `milnor_vanishing_length` must say so.  None of this is verified by
    the tool; it is recorded as an assumption.
    """

    axes: int
    linking_numbers: tuple[tuple[int, ...], ...]
    double_points: int
    milnor_vanishing_length: int
    notes: str = ""

    def __post_init__(self):
        _store_integers(self, ("axes", "double_points", "milnor_vanishing_length"),
                        "axes, double_points and milnor_vanishing_length")
        lk = tuple(_check_integers(row, "linking numbers") for row in self.linking_numbers)
        object.__setattr__(self, "linking_numbers", lk)
        if self.axes < 1:
            raise InvalidSeifertData("infection needs at least one axis")
        if len(lk) != self.axes:
            raise InvalidSeifertData("linking_numbers must have one row per axis")
        if self.double_points < 0:
            raise InvalidSeifertData("double_points must be >= 0")
        if self.milnor_vanishing_length < 2 * self.double_points:
            raise InvalidSeifertData(
                "hypotheses of the infection-transfer theorem not declared: "
                f"need Milnor vanishing length >= {2 * self.double_points}, "
                f"declared {self.milnor_vanishing_length}")

    @property
    def all_linking_zero(self) -> bool:
        return all(v == 0 for row in self.linking_numbers for v in row)

    def to_json(self) -> dict:
        return {
            "axes": self.axes,
            "linking_numbers": [list(r) for r in self.linking_numbers],
            "double_points": self.double_points,
            "milnor_vanishing_length": self.milnor_vanishing_length,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "InfectionDecl":
        try:
            fields = dict(
                axes=_json_int(obj["axes"], "axes"),
                linking_numbers=tuple(tuple(_json_int(v, "linking number") for v in row)
                                      for row in obj["linking_numbers"]),
                double_points=_json_int(obj["double_points"], "double_points"),
                milnor_vanishing_length=_json_int(obj["milnor_vanishing_length"],
                                                  "milnor_vanishing_length"),
                notes=str(obj.get("notes", "")))
        except ParseError:
            raise  # already says which field is wrong
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed infection declaration: {e!r}") from None
        return cls(**fields)


@dataclass(frozen=True)
class BandCertificate:
    """b oriented band moves turning a knot into a u-component unlink.

    Certifies a smooth surface in the 4-ball with euler characteristic
    u - b, hence genus (1 - u + b) / 2 for one boundary circle.
    """

    bands: int
    resulting_unlink_components: int

    def __post_init__(self):
        _store_integers(self, ("bands", "resulting_unlink_components"), "band certificate counts")
        if self.bands < 0 or self.resulting_unlink_components < 1:
            raise ValueError("need bands >= 0 and at least one unlink component")


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
    """Genus of the smooth surface a band certificate describes.

    chi = u - b must be odd (one boundary circle) and the genus
    (1 - chi)/2 nonnegative; anything else is an invalid certificate.
    """
    chi = cert.resulting_unlink_components - cert.bands
    if chi % 2 == 0:
        raise ValueError(
            f"invalid certificate: chi = {chi} must be odd for one boundary circle")
    genus = (1 - chi) // 2
    if genus < 0:
        raise ValueError(f"invalid certificate: negative genus {genus}")
    return genus


def seifert_genus_upper_bound(data: SeifertData) -> int:
    """Genus of the given Seifert surface pushed into the 4-ball (knots)."""
    if data.components != 1:
        raise InvalidSeifertData(
            "pushed-in Seifert surface bound implemented for knots only")
    return data.genus


@dataclass(frozen=True)
class SliceObstruction:
    verdict: str
    fox_milnor: FoxMilnorResult
    signature_bound: int


def slice_obstruction(data: SeifertData, degree_cap: int = 12) -> SliceObstruction:
    """Slice obstruction for a knot: Fox-Milnor on the Alexander
    polynomial, with a positive signature lower bound reported as an
    independent obstruction when it fires."""
    if data.components != 1:
        raise InvalidSeifertData("slice obstruction implemented for knots only")
    fm = fox_milnor_test(alexander_from_seifert(data), degree_cap)
    bound, _ = lt_lower_bound(data)
    return SliceObstruction(_slice_verdict(fm, bound), fm, bound)


def _slice_verdict(fm: FoxMilnorResult, signature_bound: int) -> str:
    if fm.verdict == "fails" or signature_bound > 0:
        return OBSTRUCTED
    if fm.verdict == "passes":
        return CONSISTENT
    return INCONCLUSIVE


def infection_transfer(base: BoundReport, v_base: SeifertData | None,
                       decl: InfectionDecl) -> BoundReport:
    """Bounds for the infection S(L, J) of the base link by a string link.

    The upper bound always carries over, tagged with the declared
    hypotheses (immersed discs with the stated number of double points,
    Milnor invariants vanishing through twice that length).  The lower
    bound carries only when every axis/component linking number vanishes:
    then the axes are null-homologous, hence lie in the commutator
    subgroup, and a Seifert form -- so the Alexander polynomial and all
    averaged signatures -- survives the infection unchanged.
    """
    if v_base is not None and any(len(row) != v_base.components
                                  for row in decl.linking_numbers):
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
    provenance = []
    for p in base.provenance:
        if p.bound == "upper":
            provenance.append(Provenance("upper", p.value,
                                         f"infection transfer of: {p.source}"))
    if base.upper is not None and not any(p.bound == "upper" for p in provenance):
        provenance.append(Provenance("upper", base.upper, "infection transfer"))

    if decl.all_linking_zero:
        lower = base.lower
        slice_verdict = base.slice_verdict
        for p in base.provenance:
            if p.bound == "lower":
                provenance.append(Provenance(
                    "lower", p.value,
                    f"axes null-homologous (all linking numbers zero): {p.source}"))
        if not any(p.bound == "lower" for p in provenance):
            provenance.append(Provenance(
                "lower", lower, "axes null-homologous: invariants unchanged"))
    else:
        lower = 0
        slice_verdict = INCONCLUSIVE
        assumptions.append(
            "nonzero axis linking number: signature/Alexander invariance "
            "argument inapplicable, lower bound reset to 0")
    return BoundReport(lower, base.upper, slice_verdict,
                       tuple(provenance), tuple(assumptions), base.components)


def assemble_report(data: SeifertData, certs=(), degree_cap: int = 12) -> BoundReport:
    """One certified report: the signature lower bound against the minimum
    of the available upper bounds, plus the slice verdict.

    For knots the upper-bound legs are the Alexander width, the pushed-in
    Seifert surface, and any band certificates.  For links (m > 1) no
    upper bound is produced here (band certificates assume one boundary
    circle) and the slice verdict is only the signature obstruction.
    The signature function, beta and Delta are each computed once; a
    knot's Fox-Milnor test runs only when the signature bound is 0, since
    a positive bound already obstructs sliceness.  A degree cap above
    MAX_DEGREE_CAP raises DegreeCapError, for links too.
    """
    check_degree_cap(degree_cap)
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
            _slice_verdict(fox_milnor_test(delta, degree_cap), lower)
    else:
        if certs:
            raise InvalidSeifertData(
                "band certificates are accepted for knots only")
        verdict = OBSTRUCTED if lower >= 1 else INCONCLUSIVE
    upper = min((p.value for p in uppers), default=None)
    provenance.extend(uppers)
    return BoundReport(lower, upper, verdict, tuple(provenance),
                       tuple(assumptions), m)
