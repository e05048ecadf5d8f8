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
Quantities that several records read are formed once and handed on: the
msymp suite's dt ladder is one ``evaluate_fields`` call, a
``WindowedPerturbation`` block one phase table (complex ``np.exp``) for all
its members, the phase-space suite one ``graph_frame`` and one
``deformation_fields`` per deformation, and a ``verify`` run one lattice
per argument list of ``build_lattice``; forming any of them per record
again fails here.

The prequant suite applies ``op_a`` and ``op_a_star`` to tagged blocks of
``suites._BLOCK_TERMS`` raw terms, and each exact-zero check applies them to
both orders of its commutator as one coefficient family, whose two members
share the block's terms (``suites.ladder_fan_outs``); smaller blocks, a
check split back per monomial, a fan-out that counts a family's members as
terms again or an exact-zero check whose two orders run apart raise its
operator calls.  Each block is one ``monomial_block`` call, and the suite
makes exactly the blocks ``solution._blocks`` predicts from those fan-outs
(and the two vacuums).  Complex products are the
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
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from covkg import (cli, lattice, multisymplectic, phase_space, prequant,
                   solution, suites)
from covkg.reporting import RunConfig

SPEC = importlib.util.spec_from_file_location(
    "report_matrix",
    Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_matrix)
CONFIGS = report_matrix.CONFIGS

FFT_KINDS = ("fftn", "ifftn", "rfftn", "irfftn")
MSYMP_PHASE_SPACE_BUDGET = {"synthesize": 18, "mode_sum_grid": 36,
                            "fftn": 0, "ifftn": 0, "rfftn": 27, "irfftn": 63,
                            "complex_exp": 45}
OBSERVABLES_BUDGET = {"synthesize": 32, "mode_sum_grid": 32, "fftn": 0,
                      "ifftn": 18, "rfftn": 0, "irfftn": 14}
CONFIG_C_BUDGET = {
    "msymp": {"synthesize": 2, "mode_sum_grid": 165, "fftn": 0, "ifftn": 0,
              "rfftn": 201, "irfftn": 366, "complex_exp": 294},
    "observables": {"synthesize": 163, "mode_sum_grid": 163},
    "phase-space": {"synthesize": 16, "mode_sum_grid": 81},
}
# The slice geometry of the phase-space suite: one graph frame of its one
# slice, and one set of deformation fields for each of d1 and d2.
PHASE_SPACE_GEOMETRY = {"graph_frame": 1, "deformation_fields": 2}
SIMULATE_BUDGET = {"synthesize": 4, "mode_sum_grid": 4}
PREQUANT_OP_BUDGET = {
    "A": (CONFIGS["A"], {"op_a": 12, "op_a_star": 16, "_cmul": 41,
                         "_merge": 12, "monomial_block": 10}),
    "wide": (CONFIGS["wide"], {"op_a": 38, "op_a_star": 56, "_cmul": 119,
                               "_merge": 33, "monomial_block": 31}),
}
# Coalescing sorts of the prequant suite at the same configs: a block's
# first raising comes out key-sorted and sorts nothing.
PREQUANT_SORT_BUDGET = {"A": 19, "wide": 65}
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
    """A Counter that counts every covkg ``synthesize``, ``mode_sum_grid``,
    ``graph_frame`` and ``deformation_fields`` call, the calls of each FFT
    kind and the complex ``np.exp`` calls (phase tables) from now on."""
    counts = Counter()
    for key, original in (("synthesize", solution.synthesize),
                          ("mode_sum_grid", lattice.mode_sum_grid),
                          ("graph_frame", multisymplectic.graph_frame),
                          ("deformation_fields",
                           phase_space.deformation_fields)):
        counted = _counting(counts, key, original)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("covkg") and mod is not None
                    and getattr(mod, key, None) is original):
                monkeypatch.setattr(mod, key, counted)
    for key in FFT_KINDS:
        monkeypatch.setattr(np.fft, key,
                            _counting(counts, key, getattr(np.fft, key)))
    exp = np.exp

    def counted_exp(x, *args, **kwargs):
        counts["complex_exp"] += bool(np.iscomplexobj(x))
        return exp(x, *args, **kwargs)
    monkeypatch.setattr(np, "exp", counted_exp)
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


@pytest.mark.parametrize("config", ["A", "C"])
def test_phase_space_builds_its_slice_geometry_once(monkeypatch, config):
    """Every pointwise record of the phase-space suite reads one graph
    frame and one set of fields per deformation, at d = 1 and d = 3."""
    _, counts = _count_calls(monkeypatch, [suites.suite_phase_space],
                             **CONFIGS[config])
    assert {key: counts[key] for key in PHASE_SPACE_GEOMETRY} \
        == PHASE_SPACE_GEOMETRY


@pytest.mark.parametrize("config", ["A", "hbar"])
def test_verify_all_builds_at_most_two_lattices(monkeypatch, tmp_path,
                                                config):
    """``build_lattice`` hands every caller with the same arguments one
    lattice: a fresh ``covkg verify --suite all`` builds the config's, and
    the unit-hbar one of the [a, a] check only where hbar != 1."""
    built = Counter()
    monkeypatch.setattr(lattice.ModeLattice, "__post_init__", _counting(
        built, "lattices", lattice.ModeLattice.__post_init__))
    lattice.build_lattice.cache_clear()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[config]))
    assert cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert built["lattices"] == (1 if config == "A" else 2)


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
    cfg = RunConfig(**fields)
    records = suites.suite_prequant(cfg)
    assert len(records) == 9
    for key, bound in {**budget, "sorts": PREQUANT_SORT_BUDGET[config],
                       "argsort": PREQUANT_ARGSORT_BUDGET[config]}.items():
        assert 0 < counts[key] <= bound, key
    assert counts["monomial_block"] == _predicted_blocks(cfg.lattice())


def _predicted_blocks(lat):
    """``monomial_block`` calls of the prequant suite as ``solution._blocks``
    sizes them: the ccr and [a, a] checks over the degree <= 3 rows, [a*, a*]
    over the degree <= 2 rows, the two P eigenvalue passes at one term a row,
    and the two vacuums."""
    rows = prequant.monomial_rows(lat, 3)
    n_raise = len(prequant.monomial_rows(lat, 2))
    fan_out = suites.ladder_fan_outs(lat.n_modes, rows.shape[1])
    passes = [(len(rows), fan_out["ccr"]), (len(rows), fan_out["aa"]),
              (n_raise, fan_out["astar_astar"]), (len(rows), 1),
              (len(rows), 1)]
    return 2 + sum(len(list(solution._blocks(n, size, suites._BLOCK_TERMS)))
                   for n, size in passes)
