"""Write a fixed matrix of covkg reports to a directory.

Usage:

    python tools/report_matrix.py OUT_DIR

Runs the ``covkg`` CLI in process, from the ``src`` tree next to this
script, over a fixed set of commands, configs and seeds, and writes every
report, CSV and time series to OUT_DIR with the exit codes in
``exit_codes.txt``.  Reports carry no timestamps, so running the script in
two checkouts and comparing the directories with ``diff -r`` shows whether a
change keeps every output byte-identical.  Uses only the standard library
and covkg.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from covkg.cli import main  # noqa: E402

# The three fixed configs of the ROADMAP, the wide prequant lattice, a
# small lattice at a non-dyadic hbar and an aliased lattice (2 n_max + 1 > N)
# that every command must reject.
CONFIGS = {
    "A": {"d": 1, "N": 32, "n_max": 7},
    "B": {"d": 2, "N": 16, "n_max": 5},
    "C": {"d": 3, "N": 8, "n_max": 3},
    "wide": {"d": 1, "N": 32, "n_max": 11},
    "hbar": {"d": 1, "N": 8, "n_max": 3, "hbar": 0.3},
    "aliased": {"d": 1, "N": 8, "n_max": 4},
}


def runs():
    """(name, config, CLI arguments, extra output files) of every run."""
    for seed in (0, 1, 2, 1000, 1001, 4007):
        yield f"verify_all_A_s{seed}", "A", ["verify", "--seed", str(seed)], []
    for seed in (0, 1):
        yield (f"verify_prequant_wide_s{seed}", "wide",
               ["verify", "--suite", "prequant", "--seed", str(seed)], [])
    yield ("verify_prequant_hbar_s0", "hbar",
           ["verify", "--suite", "prequant", "--seed", "0"], [])
    # The heaviest prequant config; about 50 s on a 2-core machine.
    yield ("verify_prequant_B_s0", "B",
           ["verify", "--suite", "prequant", "--seed", "0"], [])
    for cfg in ("B", "C"):
        for suite in ("msymp", "observables", "phase-space"):
            yield (f"verify_{suite}_{cfg}_s0", cfg,
                   ["verify", "--suite", suite, "--seed", "0"], [])
    # Degrees 2 and 3 at C reach billions of terms; they run at A.
    yield ("prequant_deg3_A", "A",
           ["prequant", "--max-degree", "3", "--spectrum-out", "{spectrum}"],
           ["spectrum"])
    yield "prequant_A", "A", ["prequant"], []
    yield "prequant_deg1_C", "C", ["prequant", "--max-degree", "1"], []
    for cfg in ("A", "B"):
        yield f"brackets_{cfg}", cfg, ["brackets"], []
    yield ("simulate_A", "A",
           ["simulate", "--leapfrog-dt", "0.01", "--track", "0,3,7"], [])
    # A leapfrog step that divides no output interval evenly.
    yield ("simulate_leapfrog_short_A", "A",
           ["simulate", "--t-final", "0.35", "--n-out", "2",
            "--leapfrog-dt", "0.25"], [])
    yield "simulate_C", "C", ["simulate"], []
    yield "spec_aliased", "aliased", ["spec"], []


def main_matrix(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    for name, values in CONFIGS.items():
        with open(os.path.join(out_dir, f"config_{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(values, fh)
    codes = []
    for name, cfg, args, extras in runs():
        paths = {e: os.path.join(out_dir, f"{name}.{e}.csv") for e in extras}
        argv = ([a.format(**paths) for a in args]
                + ["--config", os.path.join(out_dir, f"config_{cfg}.json"),
                   "--out", os.path.join(out_dir, f"{name}.out")])
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        codes.append(f"{name} {code}")
        print(name, code, flush=True)
    with open(os.path.join(out_dir, "exit_codes.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main_matrix(sys.argv[1]))
