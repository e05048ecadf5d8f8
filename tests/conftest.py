"""Shared test setup: tests that start ``python -m covkg.cli`` in a subprocess
import covkg from this checkout, as the test process does through
``pythonpath`` in pyproject.toml, so a bare ``pytest`` needs no install.
Every module gets the default lattice (config A) as ``lat`` and a seed-0
real solution on it as ``sol``; a module may override either."""

import os
from pathlib import Path

import numpy as np
import pytest

from covkg import build_lattice, random_solution

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def lat():
    return build_lattice(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0)


@pytest.fixture(scope="module")
def sol(lat):
    return random_solution(lat, np.random.default_rng(0))


@pytest.fixture(autouse=True)
def _src_on_subprocess_path(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH",
                       SRC if not inherited else SRC + os.pathsep + inherited)
