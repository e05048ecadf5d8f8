"""The seed-sweep tool's core function on a tiny lattice."""

import importlib.util
import json
from pathlib import Path

from covkg import suites
from covkg.reporting import RunConfig

SPEC = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)

TINY = {"d": 1, "N": 8, "n_max": 1}


def test_sweep_reports_failing_seeds_and_worst_margins():
    """Per record name the failing seeds and the worst abs_diff / tolerance
    over the records with a positive tolerance, as the given suites give
    them."""
    seeds, names = [0, 1], (*sweep.FIELD_SUITES, "prequant")
    got = sweep.sweep(TINY, seeds, names)
    assert got["config"] == TINY and got["n_seeds"] == 2
    assert got["suites"] == list(names)
    want = {}
    for seed in seeds:
        cfg = RunConfig(seed=seed, **TINY)
        for name in names:
            for rec in suites.SUITES[name](cfg):
                want.setdefault(rec.name, []).append((seed, rec))
    assert sorted(got["records"]) == sorted(want)
    for name, runs in want.items():
        row = got["records"][name]
        assert row["failing_seeds"] == [s for s, r in runs if not r.passed]
        margins = [r.abs_diff / r.tolerance for _, r in runs if r.tolerance > 0]
        assert row["worst_margin"] == (max(margins) if margins else None)
    assert got["records"]["msymp.omega_nondegenerate"]["worst_margin"] is None
    assert got["failing_seeds"] == sorted(
        {s for row in got["records"].values() for s in row["failing_seeds"]})
    json.dumps(got, allow_nan=False)


def test_each_config_sweeps_its_own_suites():
    """The field suites at A, B and C; prequant at A and the wide lattice."""
    field = ["msymp", "observables", "phase-space"]
    assert list(sweep.FIELD_SUITES) == field
    assert {name: list(row[2]) for name, row in sweep.MATRIX.items()} == {
        "A": [*field, "prequant"], "B": field, "C": field,
        "wide": ["prequant"]}
    assert {name: len(row[1]) for name, row in sweep.MATRIX.items()} == {
        "A": 100, "B": 20, "C": 10, "wide": 20}
