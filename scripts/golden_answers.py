#!/usr/bin/env python3
"""Write tests/golden_answers.json: the report and the signature function,
as JSON, of about a hundred fixed inputs.

    PYTHONPATH=src python scripts/golden_answers.py

tests/test_golden.py recomputes the same answers and compares them with
the file, so a change that claims byte-identical answers is checked
against the code that wrote the file.  Rewrite the file only when an
answer is meant to change.

The inputs are torus knots and links, zero-padded boundary links, and
draws with fixed seeds from the generators of tests/helpers.py: random
Seifert matrices, random braid-closure knots (some with an identically
zero leading minor), K # mirror(K) doubles and degenerate families.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import (degenerate_family, random_knot_data,  # noqa: E402
                     random_seifert_data, random_unimodular, zero_padded)
from linkbound import (assemble_report, connected_sum, mirror,  # noqa: E402
                       seifert_matrix_from_braid, signature_function, torus_braid)

GOLDEN = ROOT / "tests" / "golden_answers.json"

TORUS_KNOTS = ([(2, q) for q in range(3, 27, 2)]
               + [(3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (4, 5), (4, 7), (5, 6)])
TORUS_LINKS = [(2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (2, 12), (3, 3), (3, 6),
               (4, 4), (4, 6)]


def golden_inputs() -> list[tuple[str, object]]:
    """(name, SeifertData) pairs, the same on every run."""
    out = [(f"T({p},{q})", seifert_matrix_from_braid(torus_braid(p, q)))
           for p, q in TORUS_KNOTS + TORUS_LINKS]
    for p, q in ((2, 3), (2, 5), (3, 4)):
        base = seifert_matrix_from_braid(torus_braid(p, q))
        out += [(f"T({p},{q})+0_{k}", zero_padded(base, k)) for k in (1, 2, 3)]
    rng = random.Random(7)
    out += [(f"seifert-{i}", random_seifert_data(rng)) for i in range(30)]
    rng = random.Random(5)
    out += [(f"knot-{i}", random_knot_data(rng, max_strands=4, max_len=12))
            for i in range(20)]
    rng = random.Random(11)
    for i in range(4):
        k = random_knot_data(rng, max_strands=3, max_len=8)
        out.append((f"double-{i}", connected_sum(k, mirror(k))))
    rng = random.Random(13)
    for i in range(10):
        knot = random_knot_data(rng, max_strands=3, max_len=8)
        k = i % 3
        n = knot.size + 3 + k
        out.append((f"degenerate-{i}",
                    degenerate_family(knot, rng.randint(-2, 2), k, random_unimodular(rng, n))))
    return out


def answers() -> dict:
    """name -> {"report": ..., "signature": ...} for every golden input."""
    return {name: {"report": assemble_report(data).to_json(),
                   "signature": signature_function(data).to_json()}
            for name, data in golden_inputs()}


def main():
    GOLDEN.write_text(json.dumps(answers(), separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
