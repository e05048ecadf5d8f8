"""Self-test of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Tracer

ROOT = run.HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"config": {"d": 1, "N": 8, "n_max": 1}, "suites": ["all"]}
PRINTED = ("verify_ref", "verify_s", "verify_s_tail", "verify_cpu_s", "peak_rss_mb",
           "checks_failed_frac", "report_mismatch_frac")


@pytest.mark.parametrize("trace, section",
                         [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_config_prints_every_metric_with_its_unit(trace, section):
    out = run.measure(ROOT, "tiny", TINY, seed=0, seconds=0, trace=trace)
    line = json.loads(run.result_line(BENCH, section, out))
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] == 2
    assert ({name: m["unit"] for name, m in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCH[section]})
    printed = {ln.split(" = ")[0] for ln in out["lines"] if " = " in ln}
    setup = {"setup_s", "setup_wall_s"} if not trace else set()
    assert set(PRINTED) | setup <= printed
    if trace:
        # one ndindex loop in multisymplectic, two in phase_space; 8 cells each
        cells = (line["metrics"]["multisymplectic.pointwise_cells"]["value"],
                 line["metrics"]["phase_space.pointwise_cells"]["value"])
        assert all(n > 0 and n % 8 == 0 for n in cells)


@pytest.mark.parametrize("workload", ["verify-default", "geometry-3d"])
def test_counter_anchors_hold(workload):
    anchors = json.loads((run.HERE / "anchors.json").read_text())
    if run.source_digest(ROOT) != anchors["source_sha256"]:
        pytest.skip("src/covkg differs from the source the anchors were "
                    "counted on")
    out = run.measure(ROOT, workload, run.WORKLOADS[workload], seed=0,
                      seconds=0, trace=True)
    assert any(ln.startswith("anchors: hold exactly") for ln in out["lines"])


def test_tracer_reports_a_call_site_it_cannot_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from covkg import suites
    from covkg.solution import synthesize
    monkeypatch.setattr(suites, "FROZEN", (synthesize,), raising=False)
    with Tracer() as tracer:
        assert suites.synthesize is not synthesize
        missed = tracer.missed_references()
    assert missed == ["suites.FROZEN[0] -> solution.synthesize"]
    assert suites.synthesize is synthesize


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(20)) == (9, 50.0)
    assert run.tail(range(100)) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
