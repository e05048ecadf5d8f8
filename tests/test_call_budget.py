"""Call budget of the msymp, phase-space and observables suites at the
default config, of the phase-space and observables suites at config C
(d = 3, N = 8, n_max = 3), and of the prequant suite's ladder operators.

Each finite-difference, lambda or time family is evaluated as one stacked
pass (the lambda actions, the +-eps criticality fields, the dtheta draws,
the shifted bases of fd_delta_theta and theta_difference_vs_action, the
lambda pair of fd_delta_theta, the Theta linearity triple, the slice
integrals compared across times, the representative shifts, the
translations of the P_mu bracket identity and the lambda pair of each P_mu
integral).  The bounds are the totals of that design; a change that splits
a family into separate evaluations again raises them and fails here.  At
config C a family split back per mu makes d + 1 = 4 evaluations of one.

The prequant suite applies ``op_a`` and ``op_a_star`` to tagged blocks of
``suites._BLOCK_TERMS`` terms; smaller blocks, or a check split back per
monomial, raise its operator calls.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from covkg import prequant, solution, suites
from covkg.reporting import RunConfig

SYNTHESIZE_BUDGET = 72
FFT_BUDGET = {"fftn": 36, "ifftn": 108}
OBSERVABLES_BUDGET = {"synthesize": 36, "ifftn": 36}
CONFIG_C = {"d": 3, "N": 8, "n_max": 3}
CONFIG_C_SYNTHESIZE_BUDGET = {"observables": 167, "phase-space": 88}
PREQUANT_OP_BUDGET = {
    "A": ({}, {"op_a": 20, "op_a_star": 34}),
    "wide": ({"d": 1, "N": 32, "n_max": 11}, {"op_a": 76, "op_a_star": 146}),
}


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, suite_fns, **config):
    """(records, Counter of synthesize and FFT calls) of the suites run at
    the default config, or with the given config fields."""
    counts = Counter()
    original = solution.synthesize
    counted = _counting(counts, "synthesize", original)
    for name, mod in list(sys.modules.items()):
        if (name.startswith("covkg") and mod is not None
                and getattr(mod, "synthesize", None) is original):
            monkeypatch.setattr(mod, "synthesize", counted)
    for key in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, key,
                            _counting(counts, key, getattr(np.fft, key)))
    cfg = RunConfig(**config)
    records = [rec for fn in suite_fns for rec in fn(cfg)]
    return records, counts


def test_msymp_and_phase_space_call_budget(monkeypatch):
    records, counts = _count_calls(
        monkeypatch, [suites.suite_msymp, suites.suite_phase_space])
    assert len(records) == 24
    assert 0 < counts["synthesize"] <= SYNTHESIZE_BUDGET
    for key, budget in FFT_BUDGET.items():
        assert 0 < counts[key] <= budget, key


def test_observables_call_budget(monkeypatch):
    records, counts = _count_calls(monkeypatch, [suites.suite_observables])
    assert len(records) == 20
    for key, budget in OBSERVABLES_BUDGET.items():
        assert 0 < counts[key] <= budget, key


@pytest.mark.parametrize("suite", sorted(CONFIG_C_SYNTHESIZE_BUDGET))
def test_config_c_call_budget(monkeypatch, suite):
    records, counts = _count_calls(monkeypatch, [suites.SUITES[suite]],
                                   **CONFIG_C)
    assert records
    assert 0 < counts["synthesize"] <= CONFIG_C_SYNTHESIZE_BUDGET[suite]


@pytest.mark.parametrize("config", sorted(PREQUANT_OP_BUDGET))
def test_prequant_ladder_call_budget(monkeypatch, config):
    fields, budget = PREQUANT_OP_BUDGET[config]
    counts = Counter()
    for key in budget:
        monkeypatch.setattr(prequant, key,
                            _counting(counts, key, getattr(prequant, key)))
    records = suites.suite_prequant(RunConfig(**fields))
    assert len(records) == 9
    for key, bound in budget.items():
        assert 0 < counts[key] <= bound, key
