"""linkbound: exact Levine-Tristram signature functions, Alexander
polynomials, nullities, and certified topological 4-genus bounds for
knots and links given by Seifert matrices or braid words."""

from .braids import (BraidWord, SeifertData, braid_text, closure_components,
                     connected_sum, mirror, parse_braid,
                     seifert_data_from_json, seifert_matrix_from_braid,
                     stabilize, torus_braid)
from .bounds import (BandCertificate, BoundReport, InfectionDecl, Provenance,
                     assemble_report, band_certificate_genus,
                     infection_transfer, lt_lower_bound, seifert_genus_upper_bound,
                     slice_obstruction, width_upper_bound)
from .catalog import CatalogEntry, builtin_catalog, verify_catalog
from .errors import (DegreeCapError, InconsistentBounds, InvalidSeifertData,
                     LinkboundError, ParseError, ZeroPolynomialError)
from .factor import FoxMilnorResult, factor_integer_polynomial, fox_milnor_test
from .laurent import (LaurentPoly, format_laurent, laurent_from_json,
                      laurent_to_json, units_equal)
from .realroots import RealAlgebraic, isolate_real_roots
from .signature import (CirclePoint, SignatureFunction, alexander_from_seifert,
                        float_oracle, link_nullity,
                        pointwise_signature_nullity, signature_function,
                        signature_nullity_at)

__version__ = "0.1.0"
