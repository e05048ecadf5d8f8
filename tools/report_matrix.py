"""Write a fixed matrix of covkg reports to a directory, or compare two.

Usage:

    python tools/report_matrix.py OUT_DIR
    python tools/report_matrix.py --compare REF_DIR OUT_DIR

Runs the ``covkg`` CLI in process, from the ``src`` tree next to this
script, over a fixed set of commands, configs and seeds, and writes every
report, CSV and time series to OUT_DIR with the exit codes in
``exit_codes.txt``.  Reports carry no timestamps, so running the script in
two checkouts and comparing the directories shows whether a change keeps
every output byte-identical.  ``--compare`` reads two such directories and
prints one line per moved check record of each differing report (its old
and new ``lhs`` and its tolerance, flagged when it is 0.0) and one per
other differing file; it exits 0 when every file is byte-identical,
else 1.  Uses only the standard library and covkg.
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
# small lattice at a non-dyadic hbar, and an aliased lattice (2 n_max + 1 > N)
# and an overflowing one (m^2 past the largest double) that every command
# must reject.  ``tools/sweep.py`` and the tests read
# their configs from this table.
CONFIGS = {
    "A": {"d": 1, "N": 32, "n_max": 7},
    "B": {"d": 2, "N": 16, "n_max": 5},
    "C": {"d": 3, "N": 8, "n_max": 3},
    "wide": {"d": 1, "N": 32, "n_max": 11},
    "hbar": {"d": 1, "N": 8, "n_max": 3, "hbar": 0.3},
    "aliased": {"d": 1, "N": 8, "n_max": 4},
    "overflow": {"m": 1e200},
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
    yield "spec_overflow", "overflow", ["spec"], []


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


def _records(path: str):
    """A report's check records by name, or None for a file that is not a
    JSON report."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return {rec["name"]: rec for rec in doc["checks"]}
    except (ValueError, KeyError, TypeError):
        return None


def compare(ref_dir: str, out_dir: str) -> list:
    """One line per difference between two matrix directories, in file
    order: each moved, added or removed check record of a report, and
    each other file that differs or exists on one side only."""
    lines = []
    for name in sorted(set(os.listdir(ref_dir)) | set(os.listdir(out_dir))):
        ref, out = (os.path.join(d, name) for d in (ref_dir, out_dir))
        if not (os.path.exists(ref) and os.path.exists(out)):
            side = ref_dir if os.path.exists(ref) else out_dir
            lines.append(f"{name}: only in {side}")
            continue
        with open(ref, "rb") as fa, open(out, "rb") as fb:
            if fa.read() == fb.read():
                continue
        old, new = _records(ref), _records(out)
        if old is None or new is None:
            lines.append(f"{name}: differs (not a check report)")
            continue
        moved = [key for key in sorted(set(old) | set(new))
                 if old.get(key) != new.get(key)]
        if not moved:
            lines.append(f"{name}: differs outside its check records")
        for key in moved:
            a, b = old.get(key, {}), new.get(key, {})
            tol = b.get("tolerance", a.get("tolerance"))
            lines.append(f"{name}: {key} lhs {a.get('lhs', '(absent)')!r} -> "
                         f"{b.get('lhs', '(absent)')!r}, tolerance {tol!r}"
                         + (" (a 0.0 tolerance)" if tol == 0.0 else ""))
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        diffs = compare(sys.argv[2], sys.argv[3])
        print("\n".join(diffs) if diffs else "every file is byte-identical")
        sys.exit(1 if diffs else 0)
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    sys.exit(main_matrix(sys.argv[1]))
