"""The README's library quickstart runs as written.

The ``python`` block is the documented API surface, so a rename or a
removed name fails here instead of leaving the README stale.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    sol, modes = ns["sol"], np.arange(ns["lat"].n_modes)
    a_k = ns["slice_integral"](ns["generator_alpha_k"](ns["lat"], modes), sol)
    np.testing.assert_allclose(a_k, sol.u, atol=1e-12)
    assert [x.shape for x in ns["tangents"]] == [(6, 32)] * 2
