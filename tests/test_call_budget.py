"""Call budget of the msymp, phase-space and observables suites at the
default config and at config C (d = 3, N = 8, n_max = 3), of the default
``covkg simulate``, and of the prequant suite's ladder operators.

Each finite-difference, lambda or time family is evaluated as one stacked
pass (the lambda actions, the criticality pair's one ``WindowedPerturbation``
family over both signs of eps and both bases, whose bases and variation
are one ``mode_sum_grid`` call per block, the dtheta draws,
the shifted bases of fd_delta_theta and theta_difference_vs_action, the
lambda pair of fd_delta_theta, the Theta linearity triple, the slice
integrals compared across times, the representative shifts, the
translations of the P_mu bracket identity, the lambda pair of each P_mu
integral).  The bounds are the totals of that design; a change that splits
a family into separate evaluations again raises them and fails here.  At
config C a family split back per mu makes d + 1 = 4 evaluations of one.
A history's grids come from ``mode_sum_grid`` without ``synthesize``, so
both are counted; every synthesis is also one mode sum.
Real grids take the half-spectrum transforms (``rfftn``/``irfftn``) and
complex syntheses the full-grid pair, so each of the four kinds has its
own bound; a real field sent down the complex path fails here.

The prequant suite applies ``op_a`` and ``op_a_star`` to tagged blocks of
``suites._BLOCK_TERMS`` terms, and each exact-zero check applies them to
both orders of its commutator as one coefficient family; smaller blocks, a
check split back per monomial or an exact-zero check whose two orders run
apart raise its operator calls.  Complex products are the
``lattice._cmul`` calls made through ``prequant``, one per operator call,
``state_scale`` and ``inner_product``; a negation pass that comes back
(scaling A*_g A_f x by -1 to add it in the ccr check) raises them.  Each
comparison of states is one ``prequant._merge`` (``max_abs_diff``): one per
block of each per-monomial check, two for the vacuum, one each for
[P, a*] and the cross-module ccr; a second comparison pass raises them.  Each
sort of an unsorted operator output is one ``prequant._stable_order`` call,
whichever way it sorts; a merge that sorts again, or keys too wide to
pack, raise the ``np.argsort`` calls.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from covkg import cli, lattice, prequant, solution, suites
from covkg.reporting import RunConfig

SPEC = importlib.util.spec_from_file_location(
    "report_matrix",
    Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_matrix)
CONFIGS = report_matrix.CONFIGS

FFT_KINDS = ("fftn", "ifftn", "rfftn", "irfftn")
MSYMP_PHASE_SPACE_BUDGET = {"synthesize": 27, "mode_sum_grid": 45,
                            "fftn": 0, "ifftn": 0, "rfftn": 27, "irfftn": 72}
OBSERVABLES_BUDGET = {"synthesize": 36, "mode_sum_grid": 36, "fftn": 0,
                      "ifftn": 20, "rfftn": 0, "irfftn": 16}
CONFIG_C_BUDGET = {
    "msymp": {"synthesize": 4, "mode_sum_grid": 167, "fftn": 0, "ifftn": 0,
              "rfftn": 201, "irfftn": 368},
    "observables": {"synthesize": 167, "mode_sum_grid": 167},
    "phase-space": {"synthesize": 23, "mode_sum_grid": 88},
}
SIMULATE_BUDGET = {"synthesize": 4, "mode_sum_grid": 4}
PREQUANT_OP_BUDGET = {
    "A": (CONFIGS["A"],
          {"op_a": 12, "op_a_star": 20, "_cmul": 45, "_merge": 14}),
    "wide": (CONFIGS["wide"],
             {"op_a": 40, "op_a_star": 76, "_cmul": 141, "_merge": 44}),
}
# Coalescing sorts of the prequant suite at the same configs: a block's
# first raising comes out key-sorted and sorts nothing.
PREQUANT_SORT_BUDGET = {"A": 21, "wide": 77}
# np.argsort calls there: those of inner_product's np.intersect1d only,
# since merges of key-sorted states fold by np.searchsorted and every
# operator output's keys pack into one np.sort.
PREQUANT_ARGSORT_BUDGET = {"A": 6, "wide": 6}


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, suite_fns, **config):
    """(records, Counter of synthesize and mode_sum_grid calls and of the
    calls of each FFT kind in ``FFT_KINDS``) of the suites run at
    the default config, or with the given config fields."""
    counts = _patch_counters(monkeypatch)
    cfg = RunConfig(**config)
    records = [rec for fn in suite_fns for rec in fn(cfg)]
    return records, counts


def _patch_counters(monkeypatch):
    """A Counter that counts every covkg ``synthesize`` and
    ``mode_sum_grid`` call and the calls of each FFT kind from now on."""
    counts = Counter()
    for key, original in (("synthesize", solution.synthesize),
                          ("mode_sum_grid", lattice.mode_sum_grid)):
        counted = _counting(counts, key, original)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("covkg") and mod is not None
                    and getattr(mod, key, None) is original):
                monkeypatch.setattr(mod, key, counted)
    for key in FFT_KINDS:
        monkeypatch.setattr(np.fft, key,
                            _counting(counts, key, getattr(np.fft, key)))
    return counts


def _check_budget(counts, budget):
    """Each count within its bound, and positive unless the bound is 0."""
    for key, bound in budget.items():
        assert counts[key] <= bound and (counts[key] > 0 or bound == 0), key


def test_msymp_and_phase_space_call_budget(monkeypatch):
    records, counts = _count_calls(
        monkeypatch, [suites.suite_msymp, suites.suite_phase_space])
    assert len(records) == 24
    _check_budget(counts, MSYMP_PHASE_SPACE_BUDGET)


def test_observables_call_budget(monkeypatch):
    records, counts = _count_calls(monkeypatch, [suites.suite_observables])
    assert len(records) == 20
    _check_budget(counts, OBSERVABLES_BUDGET)


@pytest.mark.parametrize("suite", sorted(CONFIG_C_BUDGET))
def test_config_c_call_budget(monkeypatch, suite):
    records, counts = _count_calls(monkeypatch, [suites.SUITES[suite]],
                                   **CONFIGS["C"])
    assert records
    _check_budget(counts, CONFIG_C_BUDGET[suite])


def test_simulate_call_budget(monkeypatch, tmp_path):
    """The default ``covkg simulate`` computes its energy, momentum and
    |a_k| columns by one slice-functional call each over all 21 output
    times: 4 syntheses at config A, where one per time made 84."""
    counts = _patch_counters(monkeypatch)
    assert cli.main(["simulate", "--out", str(tmp_path / "sim.csv")]) == 0
    _check_budget(counts, SIMULATE_BUDGET)


@pytest.mark.parametrize("config", sorted(PREQUANT_OP_BUDGET))
def test_prequant_ladder_call_budget(monkeypatch, config):
    fields, budget = PREQUANT_OP_BUDGET[config]
    counts = Counter()
    for key in budget:
        monkeypatch.setattr(prequant, key,
                            _counting(counts, key, getattr(prequant, key)))
    monkeypatch.setattr(prequant, "_stable_order", _counting(
        counts, "sorts", prequant._stable_order))
    monkeypatch.setattr(np, "argsort",
                        _counting(counts, "argsort", np.argsort))
    records = suites.suite_prequant(RunConfig(**fields))
    assert len(records) == 9
    for key, bound in {**budget, "sorts": PREQUANT_SORT_BUDGET[config],
                       "argsort": PREQUANT_ARGSORT_BUDGET[config]}.items():
        assert 0 < counts[key] <= bound, key
