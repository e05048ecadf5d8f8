"""Call budget of the msymp and phase-space suites at the default config.

Each finite-difference or lambda family is evaluated as one stacked pass
(the lambda actions, the +-eps criticality fields, the dtheta draws, the
shifted bases of fd_delta_theta and theta_difference_vs_action).  The
bounds are the totals of that design; a change that splits a family into
separate evaluations again raises them and fails here.
"""

import sys
from collections import Counter

import numpy as np

from covkg import solution, suites
from covkg.reporting import RunConfig

SYNTHESIZE_BUDGET = 91
FFT_BUDGET = {"fftn": 36, "ifftn": 127}


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_msymp_and_phase_space_call_budget(monkeypatch):
    counts = Counter()
    original = solution.synthesize
    counted = _counting(counts, "synthesize", original)
    for name, mod in list(sys.modules.items()):
        if (name.startswith("covkg") and mod is not None
                and getattr(mod, "synthesize", None) is original):
            monkeypatch.setattr(mod, "synthesize", counted)
    for key in FFT_BUDGET:
        monkeypatch.setattr(np.fft, key,
                            _counting(counts, key, getattr(np.fft, key)))
    cfg = RunConfig()
    records = suites.suite_msymp(cfg) + suites.suite_phase_space(cfg)
    assert len(records) == 24
    assert 0 < counts["synthesize"] <= SYNTHESIZE_BUDGET
    for key, budget in FFT_BUDGET.items():
        assert 0 < counts[key] <= budget, key
