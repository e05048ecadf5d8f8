"""The benchmark tracer still installs on covkg and changes no report.

``perfbench/tracing.py`` patches covkg by name (every public function, the
``at`` method of each history class, ``Report.to_json``).  A rename or a
removal in covkg would break only traced benchmark runs; this test catches
it in the ordinary test run.  The tracer module is loaded read-only, from
its file, without writing bytecode next to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

from covkg.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_covkg_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_installs_fully_and_matches_untraced(tmp_path,
                                                           monkeypatch):
    tracing = _load_tracing(monkeypatch)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"d": 1, "N": 8, "n_max": 1}))

    def verify(name):
        out = tmp_path / name
        main(["verify", "--suite", "all", "--config", str(config),
              "--out", str(out)])
        return out.read_bytes()

    plain = verify("plain.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missed = tracer.missed_references()
        traced = verify("traced.json")
    finally:
        tracer.remove()
    assert missed == []
    assert traced == plain
    assert tracer.layer_metrics()["solution.synthesize_calls"] > 0
