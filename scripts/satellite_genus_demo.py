#!/usr/bin/env python3
"""End-to-end demo: pin down the 4-genus of a satellite knot.

Builds K = T(3,5) # C, where C is a genus-1 knot with Alexander
polynomial 2t^2 - 5t + 2, then:

  * computes the Alexander polynomial, its width bound, and the
    Fox-Milnor slice obstruction,
  * extracts the best Levine-Tristram signature lower bound (|sigma| = 8
    near z = -1, so g4 >= 4),
  * feeds in the 11-band certificate to a 4-component unlink (g4 <= 4),
  * transfers the resulting exact bound through a string-link infection
    with null-homologous axes and declared Milnor-invariant vanishing.

Everything exact except the float-oracle cross-check at the end.
"""

import json
import math

from linkbound import (BandCertificate, InfectionDecl, SeifertData,
                       alexander_from_seifert, assemble_report, connected_sum,
                       float_oracle, fox_milnor_test, infection_transfer,
                       lt_lower_bound, seifert_matrix_from_braid,
                       signature_function, torus_braid)


def main():
    t35 = seifert_matrix_from_braid(torus_braid(3, 5))
    companion = SeifertData.from_matrix([[0, 2], [1, 0]], 1, "C")
    knot = connected_sum(t35, companion)

    delta = alexander_from_seifert(knot)
    print(f"Alexander polynomial of K: {delta}")
    print(f"  width {delta.width()} -> width upper bound {(delta.width() + 1) // 2}")

    fm = fox_milnor_test(delta)
    print(f"Fox-Milnor: {fm.verdict} ({fm.reason or 'norm factorization found'})")

    bound, witness = lt_lower_bound(knot)
    f = signature_function(knot)
    print(f"max |sigma| = {f.max_abs_sigma()} attained near x = {witness.x} "
          f"=> g4 >= {bound}")

    report = assemble_report(knot, certs=[BandCertificate(11, 4)])
    print("report with the 11-band certificate:")
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))

    decl = InfectionDecl(
        axes=2, linking_numbers=((0,), (0,)), double_points=7,
        milnor_vanishing_length=14,
        notes="axes an unlink, null-homotopic after the band moves")
    infected = infection_transfer(report, decl)
    print("after infection transfer:")
    print(json.dumps(infected.to_json(), indent=2, sort_keys=True))

    theta = math.pi * 0.999
    sigma, nullity = float_oracle(knot, theta)
    print(f"float oracle near z = -1: sigma = {sigma}, nullity = {nullity}")


if __name__ == "__main__":
    main()
