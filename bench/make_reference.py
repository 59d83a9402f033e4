"""Regenerate bench/reference_series.json, the stored T_k for `series`.

    PYTHONPATH=src python3 bench/make_reference.py

The terms T_1..T_8 of q=3, s=2 come from the program's transfer path,
but over extension fields presented by the second irreducible modulus
(modulus_skip=1) instead of the first one the CLI uses.  T_k does not
depend on the presentation, so a CLI report that agrees with this file
agrees with an independent computation.  T_1 and T_2 are also checked
here against the benchmark's own pointwise enumeration.
"""

from __future__ import annotations

import json
import os
import sys

from checks import REFERENCE_PATH, enumerate_t
from workloads import SERIES


def main() -> int:
    from g2rigid.counting import chi_series

    q, s, kmax = SERIES["q"], SERIES["s"], SERIES["kmax"]
    series = chi_series(q, s, kmax, naive_budget=0, modulus_skip=1)
    for k in (1, 2):
        if series.terms[k - 1] != enumerate_t(q, k, s):
            print(f"T_{k} disagrees with the enumeration", file=sys.stderr)
            return 1
    ref = {"q": q, "s": s % q, "variant": "consecutive",
           "modulus_skip": 1, "terms": [str(t) for t in series.terms]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_PATH)}: {ref['terms']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
