"""Shared test setup: tests that start ``python -m covkg.cli`` in a subprocess
import covkg from this checkout, as the test process does through
``pythonpath`` in pyproject.toml, so a bare ``pytest`` needs no install."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _src_on_subprocess_path(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH",
                       SRC if not inherited else SRC + os.pathsep + inherited)
