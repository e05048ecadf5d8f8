"""The report matrix tool's ``--compare`` mode on two tiny directories."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py"
SPEC = importlib.util.spec_from_file_location("report_matrix", TOOL)
report_matrix = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_matrix)


def _report(path, records):
    checks = [{"abs_diff": abs(lhs), "lhs": lhs, "name": name,
               "pass": abs(lhs) <= tol, "rhs": 0.0, "tolerance": tol}
              for name, lhs, tol in records]
    path.write_text(json.dumps({"all_pass": True, "checks": checks},
                               indent=2, sort_keys=True) + "\n")


def _dirs(tmp_path):
    ref, out = tmp_path / "ref", tmp_path / "out"
    for d in (ref, out):
        d.mkdir()
        _report(d / "same.out", [("x.a", 1.0, 0.1)])
    _report(ref / "moved.out", [("x.a", 1.0, 0.1), ("x.b", 0.0, 0.0),
                                ("x.c", 3.0, 1e-12), ("x.gone", 4.0, 0.1)])
    _report(out / "moved.out", [("x.a", 1.5, 0.1), ("x.b", 2e-17, 0.0),
                                ("x.c", 3.0, 1e-12), ("x.new", 5.0, 0.1)])
    (ref / "table.csv").write_text("t,e\n0.0,1.0\n")
    (out / "table.csv").write_text("t,e\n0.0,1.5\n")
    (ref / "old.out").write_text("{}\n")
    _report(ref / "flag.out", [("x.a", 1.0, 0.1)])
    (out / "flag.out").write_text(
        (ref / "flag.out").read_text().replace("true", "false"))
    return ref, out


def test_compare_lists_each_moved_record(tmp_path):
    """Each moved, added or removed record of a differing report with its
    old and new lhs and its tolerance, flagged when it is 0.0; a
    differing file that is not a report and a file on one side only get
    one line each, as does a report whose records did not move; identical
    files none."""
    ref, out = _dirs(tmp_path)
    assert report_matrix.compare(str(ref), str(out)) == [
        "flag.out: differs outside its check records",
        "moved.out: x.a lhs 1.0 -> 1.5, tolerance 0.1",
        "moved.out: x.b lhs 0.0 -> 2e-17, tolerance 0.0 (a 0.0 tolerance)",
        "moved.out: x.gone lhs 4.0 -> '(absent)', tolerance 0.1",
        "moved.out: x.new lhs '(absent)' -> 5.0, tolerance 0.1",
        f"old.out: only in {ref}",
        "table.csv: differs (not a check report)",
    ]
    assert report_matrix.compare(str(ref), str(ref)) == []


def test_compare_exit_code(tmp_path):
    """The command line exits 1 on a difference and 0 on identical files."""
    ref, out = _dirs(tmp_path)
    for other, code in ((out, 1), (ref, 0)):
        run = subprocess.run([sys.executable, str(TOOL), "--compare",
                              str(ref), str(other)],
                             capture_output=True, text=True)
        assert run.returncode == code, run.stderr
    assert run.stdout == "every file is byte-identical\n"
