"""Exception types shared across linkbound."""


class LinkboundError(Exception):
    """Base class for linkbound errors."""


class ZeroPolynomialError(LinkboundError, ValueError):
    """Raised by operations that are undefined for the zero polynomial."""


class ParseError(LinkboundError, ValueError):
    """Malformed braid text or JSON input."""


class InvalidSeifertData(LinkboundError, ValueError):
    """Matrix/component data violating the Seifert-surface invariants."""


class SingularFamilyError(LinkboundError, ValueError):
    """Hermitian family with identically zero determinant where a
    nonsingular one is required."""


class InconsistentBounds(LinkboundError, ValueError):
    """A certified lower bound exceeds a certified upper bound."""


class DegreeCapError(LinkboundError, ValueError):
    """A Fox-Milnor degree cap above the largest supported one."""
