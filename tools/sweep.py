"""Sweep the verification suites over many seeds.

Usage:

    python tools/sweep.py > SWEEP.json

Runs suites in process, from the ``src`` tree next to this script, at the
configs of ``report_matrix.CONFIGS``, each with its own suite list: the
msymp, observables and phase-space suites at the ROADMAP's configs A
(seeds 0-99), B (seeds 0-19) and C (seeds 0-9), and the prequant suite at
A (seeds 0-99) and at the wide prequant lattice (seeds 0-19).  It prints
one JSON document.  Per config it gives its suites, the seeds at which any
check failed and, per record name, the seeds at which that record failed
and its worst margin abs_diff / tolerance, taken over the records with a
positive tolerance (null for a name that has none, such as a lower bound
or a bitwise check).  A NaN margin counts as infinite.  The matrix is
fixed, the script takes no options and it changes no tolerance; the run
time goes to stderr, so the document is byte-deterministic.  Uses only the
standard library, covkg and ``report_matrix.py`` beside it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

from covkg.cli import _run_suite  # noqa: E402
from covkg.reporting import RunConfig  # noqa: E402
from report_matrix import CONFIGS  # noqa: E402

FIELD_SUITES = ("msymp", "observables", "phase-space")
MATRIX = {
    "A": (CONFIGS["A"], range(100), (*FIELD_SUITES, "prequant")),
    "B": (CONFIGS["B"], range(20), FIELD_SUITES),
    "C": (CONFIGS["C"], range(10), FIELD_SUITES),
    "wide": (CONFIGS["wide"], range(20), ("prequant",)),
}


def sweep(config: dict, seeds, suites) -> dict:
    """The ``suites`` at each seed of ``config``: the failing seeds, and per
    record name its failing seeds and worst margin."""
    records = {}
    for seed in seeds:
        cfg = RunConfig(seed=seed, **config)
        for rec in (r for suite in suites for r in _run_suite(suite, cfg)):
            row = records.setdefault(rec.name, {"failing_seeds": [],
                                                "worst_margin": None})
            if not rec.passed:
                row["failing_seeds"].append(seed)
            if rec.tolerance > 0:
                margin = rec.abs_diff / rec.tolerance
                margin = math.inf if math.isnan(margin) else margin
                if row["worst_margin"] is None or margin > row["worst_margin"]:
                    row["worst_margin"] = margin
    for row in records.values():
        if row["worst_margin"] == math.inf:
            row["worst_margin"] = "Infinity"  # strict JSON
    failing = sorted({s for row in records.values()
                      for s in row["failing_seeds"]})
    return {"config": config, "n_seeds": len(seeds), "suites": list(suites),
            "failing_seeds": failing, "records": records}


def main() -> int:
    start = time.perf_counter()
    doc = {name: sweep(*row) for name, row in MATRIX.items()}
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
    for name, result in doc.items():
        print(f"{name}: {len(result['failing_seeds'])}/{result['n_seeds']} "
              "seeds fail", file=sys.stderr)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    sys.exit(main())
