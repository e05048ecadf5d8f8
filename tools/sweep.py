"""Sweep the msymp, observables and phase-space suites over many seeds.

Usage:

    python tools/sweep.py > SWEEP.json

Runs the three suites in process, from the ``src`` tree next to this
script, at the ROADMAP's configs A (seeds 0-99), B (seeds 0-19) and C
(seeds 0-9), and prints one JSON document.  Per config it gives the seeds
at which any check failed and, per record name, the seeds at which that
record failed and its worst margin abs_diff / tolerance, taken over the
records with a positive tolerance (null for a name that has none, such as
a lower bound or a bitwise check).  A NaN margin counts as infinite.  The
matrix is fixed, the script takes no options and it changes no tolerance;
the run time goes to stderr, so the document is byte-deterministic.  Uses
only the standard library and covkg.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from covkg.cli import _run_suite  # noqa: E402
from covkg.reporting import RunConfig  # noqa: E402

SUITES = ("msymp", "observables", "phase-space")
MATRIX = {
    "A": ({"d": 1, "N": 32, "n_max": 7}, range(100)),
    "B": ({"d": 2, "N": 16, "n_max": 5}, range(20)),
    "C": ({"d": 3, "N": 8, "n_max": 3}, range(10)),
}


def sweep(config: dict, seeds) -> dict:
    """The suites at each seed of ``config``: the failing seeds, and per
    record name its failing seeds and worst margin."""
    records = {}
    for seed in seeds:
        cfg = RunConfig(seed=seed, **config)
        for rec in (r for suite in SUITES for r in _run_suite(suite, cfg)):
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
    return {"config": config, "n_seeds": len(seeds),
            "failing_seeds": failing, "records": records}


def main() -> int:
    start = time.perf_counter()
    doc = {name: sweep(config, seeds)
           for name, (config, seeds) in MATRIX.items()}
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
