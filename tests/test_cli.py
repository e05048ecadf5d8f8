"""Command-line interface: exit codes, determinism, and file outputs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covkg import observables, phase_space, random_solution
from covkg import suites
from covkg.cli import main
from covkg.reporting import (TOLERANCES, Report, RunConfig, check,
                             lower_bound_check)
from covkg.solution import evaluate_fields, leapfrog_evolve, write_cauchy_csv

SPEC = importlib.util.spec_from_file_location(
    "report_matrix",
    Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_matrix)
CONFIGS = report_matrix.CONFIGS


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("value,passed,shortfall", [
    (np.nan, False, np.nan), (np.inf, True, 0.0), (-np.inf, False, np.inf),
    (1e-3, True, 0.0), (2e-3, True, 0.0), (0.5e-3, False, 0.5e-3)])
def test_lower_bound_record(value, passed, shortfall):
    """A value at or above the threshold passes with no shortfall; below
    it, or NaN, the record fails and abs_diff is threshold - value."""
    rec = lower_bound_check("x", value, 1e-3)
    assert rec.passed is passed
    np.testing.assert_equal(rec.abs_diff, shortfall)
    assert (rec.tolerance, rec.rhs) == (0.0, 1e-3)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_verify_single_suite_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "observables", "--out", str(out)]) == 0
    data = json.loads(_read(out))
    assert data["schema_version"] == 1
    assert data["all_pass"] is True


def test_verify_forced_failure_exits_one(tmp_path):
    """An unreachable tolerance flips a passing check to failed."""
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "msymp", "--out", str(out),
                 "--tol", "msymp.kg_residual=0"])
    assert code == 1
    data = json.loads(_read(out))
    assert data["all_pass"] is False
    failed = [c for c in data["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["msymp.kg_residual"]


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["verify", "--suite", "nosuch"]) == 2
    assert main(["verify", "--tol", "oops"]) == 2
    assert main(["verify", "--tol", "msymp.kg_residul=0"]) == 2
    assert "msymp.kg_residul" in capsys.readouterr().err
    assert main(["verify", "--tol", "msymp.omega_nondegenerate_bound=0.5"]) == 2
    assert main(["verify", "--tol", "msymp.kg_residual=-1"]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["simulate", "--n-out", "1"]) == 2
    for dt in ("0", "-1", "nan", "inf"):
        assert main(["simulate", "--n-out", "3", f"--leapfrog-dt={dt}"]) == 2
        assert "leapfrog-dt" in capsys.readouterr().err
        assert main(["simulate", "--n-out", "3", f"--t-final={dt}"]) == 2
        assert "t-final must be a finite positive" in capsys.readouterr().err
    cauchy = tmp_path / "bad.csv"
    for row in ("0,1.0", "0,1.0,2.0,9", "0,1.0,abc", "0,inf,2.0"):
        cauchy.write_text(f"index,phi0,pi0\n{row}\n", encoding="utf-8")
        assert main(["simulate", "--cauchy", str(cauchy)]) == 2
        assert "Cauchy CSV line 2" in capsys.readouterr().err
    assert main(["verify", "--lambda", "nan"]) == 2
    assert "'lam'" in capsys.readouterr().err
    assert main(["prequant", "--max-degree", "9"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--tol", "msymp.kg_residual=5", "--n-out", "2"],
    ["prequant", "--lambda", "3"],
    ["brackets", "--lambda", "7"],
], ids=["simulate_tol", "prequant_lambda", "brackets_lambda"])
def test_flags_a_command_would_ignore_exit_two(argv, capsys):
    """``--tol`` is only on the commands that make or echo check records
    (verify, brackets, prequant, spec) and ``--lambda`` only where the gauge
    enters (verify, simulate, spec): elsewhere argparse refuses them."""
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flags_stay_where_they_act(tmp_path):
    for argv in (["spec", "--lambda", "0.5", "--tol", "msymp.kg_residual=1"],
                 ["simulate", "--lambda", "0.5", "--n-out", "2",
                  "--t-final", "0.1"],
                 ["brackets", "--tol", "observables.bracket_two_path=1"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0, argv


def test_input_errors_name_the_bad_value(capsys):
    """A non-numeric --tol value names its tolerance; a repeated --track
    index exits 2 instead of emitting two columns for one mode, and a
    --track naming no mode exits 2 instead of dropping every a_abs column."""
    assert main(["verify", "--tol", "msymp.kg_residual=abc"]) == 2
    err = capsys.readouterr().err
    assert "msymp.kg_residual" in err and "'abc'" in err
    assert main(["simulate", "--n-out", "2", "--track", "1,1"]) == 2
    assert "track index 1 repeated" in capsys.readouterr().err
    assert main(["simulate", "--n-out", "2", "--track", "3,0,3"]) == 2
    assert "track index 3 repeated" in capsys.readouterr().err
    assert main(["simulate", "--n-out", "2", "--track", "1, x"]) == 2
    assert "--track entry 'x' is not a mode index" in capsys.readouterr().err
    for empty in (",", ""):
        assert main(["simulate", "--n-out", "2", "--track", empty]) == 2
        assert (f"--track {empty!r} names no mode index"
                in capsys.readouterr().err)


def test_spec_writes_the_out_file(tmp_path, capsys):
    """spec --out writes the resolved configuration to the file, not stdout."""
    assert main(["spec", "--seed", "3"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "spec.json"
    assert main(["spec", "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert _read(out) == printed
    assert json.loads(printed)["seed"] == 3


def test_consecutive_calls_share_no_parsed_state(tmp_path, capsys):
    """The parser is built once per process, and no call's flags reach the
    next: ``--tol`` appends start empty, and ``--seed`` and ``--lambda``
    fall back to the config after a call that set them or exited 2."""
    from covkg.cli import build_parser

    assert build_parser() is build_parser()

    def spec(*flags):
        out = tmp_path / "spec.json"
        assert main(["spec", *flags, "--out", str(out)]) == 0
        return json.loads(_read(out))

    first = spec("--tol", "msymp.kg_residual=1e-3", "--tol",
                 "prequant.adjointness=2e-3", "--seed", "5", "--lambda", "0.25")
    assert first["tolerances"] == {"msymp.kg_residual": 1e-3,
                                   "prequant.adjointness": 2e-3}
    assert (first["seed"], first["lam"]) == (5, 0.25)
    default = spec()
    assert (default["tolerances"], default["seed"], default["lam"]) == (
        {}, 0, 1.0)
    assert spec("--tol", "msymp.kg_residual=4e-3")["tolerances"] == {
        "msymp.kg_residual": 4e-3}
    assert main(["spec", "--seed", "7", "--lambda", "oops"]) == 2
    assert main(["spec", "--seed", "7", "--tol", "nosuch=1"]) == 2
    capsys.readouterr()
    assert spec() == default


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw in ({"N": 16, "n_mx": 3}, {"tolerances": {"nope": 1.0}},
                {"tolerances": {"msymp.kg_residual": "1e-3"}},
                {"tolerances": {"msymp.kg_residual": True}}):
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
    for key, value in (("N", 32.5), ("m", "1"), ("d", True), ("d", [1]),
                       ("seed", None), ("L", float("inf")), ("hbar", False),
                       ("n_max", "7")):
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("raw, problem", [
    ({"N": 7}, "grid size N must be a positive even integer"),
    ({"N": 8, "n_max": 4}, "aliasing: need 2*n_max + 1 <= N"),
    ({"m": 1e200}, "out of floating-point range"),
    ({"d": 2, "L": 1e-200, "N": 8, "n_max": 3}, "out of floating-point range"),
    ({"L": 1e-200, "N": 8, "n_max": 3}, "out of floating-point range"),
])
def test_invalid_lattice_exits_two_when_the_config_loads(tmp_path, capsys,
                                                         raw, problem):
    """A config whose lattice no command can build fails as it loads: spec
    prints nothing and verify creates no timings file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert main(["spec", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert problem in captured.err and captured.out == ""
    side = tmp_path / "timings.json"
    assert main(["verify", "--config", str(cfg), "--timings", str(side)]) == 2
    assert problem in capsys.readouterr().err
    assert not side.exists()


def test_non_finite_tolerances_exit_two(tmp_path, capsys):
    """An infinite or NaN tolerance is a usage error: it would pass any
    check, fail any lower bound and print as the non-JSON ``Infinity``."""
    for value in ("inf", "-inf", "nan"):
        for name in ("msymp.kg_residual", "msymp.omega_nondegenerate"):
            capsys.readouterr()
            assert main(["verify", "--suite", "msymp",
                         "--tol", f"{name}={value}"]) == 2
            assert "finite" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tolerances": {"msymp.kg_residual": Infinity}}',
                   encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "'msymp.kg_residual'" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("seed", [0, 4007])
def test_verify_reports_are_strict_json(tmp_path, seed):
    """Every record of a full report, failing ones included, is plain JSON."""
    out = tmp_path / "report.json"
    main(["verify", "--seed", str(seed), "--out", str(out),
          "--tol", "msymp.kg_residual=1e300"])
    data = _strict_json(_read(out))
    assert len(data["checks"]) > 40
    assert data["config"]["tolerances"] == {"msymp.kg_residual": 1e300}


def test_non_finite_values_are_strings_in_strict_json():
    """NaN and the infinities, alone or as a part of a complex value, are
    written as the strings JSON's own constants would be."""
    nan, inf = float("nan"), float("inf")
    records = [check("nan", nan, 0.0, 1e-3), check("inf", inf, 1.0, 1e-3),
               lower_bound_check("ninf", -inf, 1e-3),
               check("cnan", complex(2.0, nan), complex(-inf, 0.5), 1e-3)]
    rows = {c["name"]: c for c in _strict_json(
        Report(config={}, checks=records).to_json())["checks"]}
    assert [rows["nan"][k] for k in ("lhs", "rhs", "abs_diff")] == [
        "NaN", 0.0, "NaN"]
    assert [rows["inf"][k] for k in ("lhs", "rhs", "abs_diff")] == [
        "Infinity", 1.0, "Infinity"]
    assert [rows["ninf"][k] for k in ("lhs", "rhs", "abs_diff")] == [
        "-Infinity", 1e-3, "Infinity"]
    assert (rows["cnan"]["lhs"], rows["cnan"]["rhs"]) == (
        [2.0, "NaN"], ["-Infinity", 0.5])
    assert rows["cnan"]["abs_diff"] == "Infinity"  # |inf + i nan| is inf
    assert not any(row["pass"] for row in rows.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_prequant_residuals_fail_as_nan(tmp_path):
    """At hbar = 1e308 the ladder products overflow to NaN; the block and
    zeta reductions keep the NaN, so both records fail and read NaN."""
    config = tmp_path / "huge_hbar.json"
    config.write_text(json.dumps({"hbar": 1e308, "N": 8, "n_max": 3}))
    out = tmp_path / "pq.json"
    assert main(["verify", "--suite", "prequant", "--config", str(config),
                 "--out", str(out)]) == 1
    rows = {c["name"]: c for c in _strict_json(_read(out))["checks"]}
    for name in ("prequant.ccr_monomials", "prequant.p_eigenvalues"):
        assert (rows[name]["lhs"], rows[name]["pass"]) == ("NaN", False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("hbar, degree", [(1e80, 4), (1e200, 3)])
def test_random_states_with_an_overflowing_norm_are_nan(hbar, degree):
    """At hbar = 1e80 the degree-4 states of prequant.adjointness, at 1e200
    also the degree-3 state of prequant.p_astar_commutator, have an infinite
    norm; they are NaN, not the zeros that 1 / inf would scale them to."""
    cfg = RunConfig(hbar=hbar, N=8, n_max=3)
    state = suites._random_state(cfg.lattice(), np.random.default_rng(0),
                                 degree)
    assert len(state.amp) and np.isnan(state.amp).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_random_state_fails_p_astar_commutator(tmp_path):
    """At hbar = 1e200 the NaN state of [P, a*] makes the record read NaN
    and fail; a zero state would read 0.0 and pass."""
    config = tmp_path / "huge_hbar.json"
    config.write_text(json.dumps({"hbar": 1e200, "N": 8, "n_max": 3}))
    out = tmp_path / "pq.json"
    assert main(["verify", "--suite", "prequant", "--config", str(config),
                 "--out", str(out)]) == 1
    rows = {c["name"]: c for c in _strict_json(_read(out))["checks"]}
    row = rows["prequant.p_astar_commutator"]
    assert (row["lhs"], row["pass"]) == ("NaN", False)


@pytest.mark.parametrize("value", [
    0.25, -3, True, 0, np.float64(1e-300), np.float32(0.1), np.int64(-7),
    np.bool_(False), 1.5 + 0j, 1.5 - 2j, np.complex128(0.5 + 0j),
    np.complex64(0.5 - 0.25j), np.array(2.5), np.array(1 + 1j), float("nan"),
    -float("inf"), complex(float("nan"), 1.0), np.longdouble(0.1)])
def test_report_numbers_as_numpy_classifies_them(value):
    """``_num`` classifies scalars by type and gives what classifying every
    value with numpy gave."""
    from covkg.reporting import _num

    def by_numpy(x):
        fin = lambda r: r if np.isfinite(r) else json.dumps(r)
        if isinstance(x, complex) or np.iscomplexobj(x):
            z = complex(x)
            return fin(z.real) if z.imag == 0.0 else [fin(z.real),
                                                      fin(z.imag)]
        return fin(float(x))

    got, want = _num(value), by_numpy(value)
    assert json.dumps(got) == json.dumps(want)
    assert type(got) is type(want)


def test_non_object_tolerances_exit_two(tmp_path, capsys):
    """A config whose tolerances are not a JSON object is a usage error that
    names the key, not a traceback."""
    cfg = tmp_path / "cfg.json"
    for value in ([1, 2], None):
        cfg.write_text(json.dumps({"tolerances": value}), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "'tolerances'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spec", "verify"])
def test_negative_seed_exits_two(command, capsys):
    capsys.readouterr()
    assert main([command, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "'seed'" in captured.err and captured.out == ""


def test_valid_config_values_serialize_as_given(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    raw = {"d": 1, "L": 6, "N": 32, "n_max": 7, "m": 1.0, "hbar": 2,
           "lam": 0.25, "seed": 3}
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert main(["spec", "--config", str(cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {k: data[k] for k in raw} == raw
    assert type(data["L"]) is int and type(data["m"]) is float


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "covkg.cli", "spec"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["schema_version"] == 1
    assert data["N"] == 32


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_verify_report_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "phase-space", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "phase-space", "--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_verify_timings_sidecar_leaves_report_unchanged(tmp_path, capsys):
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    side = tmp_path / "timings.json"
    assert main(["verify", "--seed", "2", "--out", str(plain)]) == 0
    assert main(["verify", "--seed", "2", "--out", str(timed),
                 "--timings", str(side)]) == 0
    assert _read(timed) == _read(plain)
    rows = json.loads(_read(side))["checks"]
    names = [c["name"] for c in json.loads(_read(plain))["checks"]]
    assert sorted(r["name"] for r in rows) == names
    assert {r["suite"] for r in rows} == {"msymp", "observables",
                                          "phase-space", "prequant"}
    assert all(r["wall_s"] >= 0.0 for r in rows)
    capsys.readouterr()
    bad = tmp_path / "missing" / "timings.json"
    assert main(["verify", "--suite", "msymp", "--timings", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not bad.exists()


def test_a_raising_suite_still_writes_the_report(tmp_path, capsys,
                                                 monkeypatch):
    """A suite that raises becomes one failing ``<suite>.raised`` record;
    the other suites run and the report and timings are written."""
    plain = tmp_path / "plain.json"
    assert main(["verify", "--out", str(plain)]) == 0
    others = [c for c in json.loads(_read(plain))["checks"]
              if not c["name"].startswith("observables.")]

    def raiser(cfg):
        raise ZeroDivisionError("injected")

    monkeypatch.setitem(suites.SUITES, "observables", raiser)
    out, side = tmp_path / "report.json", tmp_path / "timings.json"
    capsys.readouterr()
    assert main(["verify", "--out", str(out), "--timings", str(side)]) == 1
    assert ("error: suite observables raised ZeroDivisionError('injected')"
            in capsys.readouterr().err)
    checks = json.loads(_read(out))["checks"]
    raised = {"name": "observables.raised", "lhs": 1.0, "rhs": 0.0,
              "abs_diff": 1.0, "tolerance": 0.0, "pass": False}
    assert sorted(checks, key=lambda c: c["name"]) == sorted(
        others + [raised], key=lambda c: c["name"])
    rows = json.loads(_read(side))["checks"]
    assert sorted(r["name"] for r in rows) == [c["name"] for c in checks]
    brackets = tmp_path / "brackets.json"
    assert main(["brackets", "--out", str(brackets)]) == 1
    assert json.loads(_read(brackets))["checks"] == [raised]


def test_pointwise_omega_defect_fails_records_not_the_run(tmp_path,
                                                          monkeypatch):
    """A 1e-6 relative defect on the pointwise Omega path fails the records
    that compare it with the closed form, and the report is written."""
    original = phase_space.omega_sigma_pointwise

    def mutant(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-6)

    for module in (phase_space, observables):
        monkeypatch.setattr(module, "omega_sigma_pointwise", mutant)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--seed", "0",
                 "--out", str(out)]) == 1
    checks = json.loads(_read(out))["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    assert len(checks) == 53
    assert failed == ["observables.pmu_identity_pointwise_mu0",
                      "observables.pmu_identity_pointwise_mu1",
                      "phase_space.omega_rep_independent",
                      "phase_space.omega_two_path"]


def test_verify_report_structure(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "--suite", "msymp", "--out", str(out)])
    data = json.loads(_read(out))
    assert data["suite"] == "msymp"
    assert data["config"]["N"] == 32
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    for c in data["checks"]:
        assert set(c) >= {"name", "lhs", "rhs", "abs_diff", "tolerance",
                          "pass"}


def test_verify_seed_override_changes_draws(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "observables", "--out", str(a)])
    main(["verify", "--suite", "observables", "--out", str(b), "--seed", "5"])
    da, db = json.loads(_read(a)), json.loads(_read(b))
    assert da["config"]["seed"] == 0 and db["config"]["seed"] == 5
    assert da["all_pass"] and db["all_pass"]
    assert _read(a) != _read(b)


def test_config_file_applies(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 16, "n_max": 5, "m": 1.3}),
                   encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "prequant", "--config", str(cfg),
                 "--out", str(out)]) == 0
    data = json.loads(_read(out))
    assert data["config"]["N"] == 16
    assert data["config"]["m"] == 1.3


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_conserves_tracked_quantities(tmp_path):
    out = tmp_path / "series.csv"
    code = main(["simulate", "--t-final", "2.0", "--n-out", "9",
                 "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    assert header[:3] == ["t", "energy", "momentum_1"]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert rows.shape[0] == 9
    np.testing.assert_allclose(rows[:, 0], np.linspace(0.0, 2.0, 9),
                               atol=1e-12)
    np.testing.assert_allclose(rows[:, 1], rows[0, 1], atol=1e-10)
    np.testing.assert_allclose(rows[:, 2], rows[0, 2], atol=1e-10)
    for col in range(3, rows.shape[1]):
        np.testing.assert_allclose(rows[:, col], rows[0, col], atol=1e-10)


def test_simulate_leapfrog_column_tracks_energy(tmp_path):
    out = tmp_path / "series.csv"
    main(["simulate", "--t-final", "2.0", "--n-out", "5",
          "--leapfrog-dt", "0.01", "--out", str(out)])
    lines = _read(out).strip().split("\n")
    header = lines[1].split(",")
    assert header[-1] == "energy_leapfrog"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    exact, stepped = rows[:, 1], rows[:, -1]
    assert np.max(np.abs(stepped - exact) / exact[0]) < 1e-4


@pytest.mark.parametrize("t_final,n_out,dt,steps", [
    ("0.35", "2", "0.25", 2),  # one step of 0.35 would be unstable
    ("0.5", "3", "0.01", 25),  # 0.25 / 0.01 is 25.000000000000004
])
def test_simulate_leapfrog_step_is_no_longer_than_asked(
        tmp_path, monkeypatch, t_final, n_out, dt, steps):
    """Each output interval takes the fewest leapfrog steps whose length
    does not exceed --leapfrog-dt, up to roundoff."""
    import covkg.cli as cli
    calls = []

    def recording(lat, phi0, pi0, step, n_steps):
        calls.append((step, n_steps))
        return leapfrog_evolve(lat, phi0, pi0, step, n_steps)

    monkeypatch.setattr(cli, "leapfrog_evolve", recording)
    out = tmp_path / "series.csv"
    assert main(["simulate", "--t-final", t_final, "--n-out", n_out,
                 "--leapfrog-dt", dt, "--out", str(out)]) == 0
    assert [n for _, n in calls] == [steps] * (int(n_out) - 1)
    assert all(step <= float(dt) * (1 + 1e-12) for step, _ in calls)
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in _read(out).strip().split("\n")[2:]])
    assert np.max(np.abs(rows[:, -1] - rows[:, 1]) / rows[0, 1]) < 1e-2


def _simulate_begins_work(monkeypatch, argv) -> bool:
    """Whether ``simulate argv`` passes its checks and builds its solution
    (the first work it does), or exits 2."""
    import covkg.cli as cli

    def work(*args):
        raise _WorkBegan

    monkeypatch.setattr(cli, "random_solution", work)
    try:
        assert main(["simulate", *argv]) == 2
    except _WorkBegan:
        return True
    return False


def test_simulate_refuses_work_over_its_budget(monkeypatch, capsys):
    """--leapfrog-dt 1e-9 at the default --t-final 5 asks for 5e9 leapfrog
    steps, --n-out 2e9 for 2e9 output rows: both exit 2, naming the budget,
    before the solution is built."""
    for argv, message in (
            (["--leapfrog-dt", "1e-9"], "5.0e+09 steps, over SIMULATE_BUDGET"),
            (["--t-final", "1e300", "--leapfrog-dt", "1e-300"],
             "inf steps, over SIMULATE_BUDGET"),
            (["--n-out", "2000000000"], "n-out must lie in 2..1e+06")):
        assert not _simulate_begins_work(monkeypatch, argv)
        assert message in capsys.readouterr().err


def test_simulate_budget_is_one_constant(monkeypatch):
    """--t-final 0.5 --n-out 3 --leapfrog-dt 0.01 takes 2 x 25 steps: a
    budget of 50 runs it and one of 49 refuses it; a budget of 2 refuses
    its 3 output rows."""
    import covkg.cli as cli
    argv = ["--t-final", "0.5", "--n-out", "3", "--leapfrog-dt", "0.01"]
    for budget, runs in ((50, True), (49, False), (2, False)):
        monkeypatch.setattr(cli, "SIMULATE_BUDGET", budget)
        assert _simulate_begins_work(monkeypatch, argv) == runs


def test_documented_simulate_runs_fit_the_budget(monkeypatch):
    """The README's simulate example and the report matrix's simulate runs
    pass the budget checks."""
    import shlex
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    examples = [shlex.split(line)[2:] for line in readme.splitlines()
                if line.startswith("covkg simulate ") and "[" not in line]
    runs = [args[1:] for _, _, args, _ in report_matrix.runs()
            if args[0] == "simulate"]
    assert len(examples) == 1 and len(runs) == 4
    for argv in examples + runs:
        assert _simulate_begins_work(monkeypatch, argv)


def test_simulate_refuses_an_unstable_step_before_any_work(
        tmp_path, monkeypatch, capsys):
    """--leapfrog-dt 0.5 takes steps of 0.5 at config A, where max(k0) is
    7.07: exit 2 with the leapfrog's own message, before any exact column
    is formed or the output file is made."""
    import covkg.cli as cli
    calls = []
    monkeypatch.setattr(cli.obs, "bracket_slice_integral",
                        lambda *args: calls.append(args))
    out = tmp_path / "series.csv"
    assert main(["simulate", "--leapfrog-dt", "0.5", "--n-out", "6",
                 "--out", str(out)]) == 2
    assert "unstable step: require dt * max(k0) < 2" in capsys.readouterr().err
    assert not out.exists() and calls == []


def test_simulate_writes_stdout_and_file_alike_across_blocks(
        tmp_path, monkeypatch, capsys):
    """300 rows at config A span three blocks of 128 output times: stdout
    and --out receive the same bytes, one bracket call per block."""
    import covkg.cli as cli
    calls, real = [], cli.obs.bracket_slice_integral

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli.obs, "bracket_slice_integral", spy)
    argv = ["simulate", "--n-out", "300", "--leapfrog-dt", "0.05"]
    out = tmp_path / "series.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8")
    assert len(calls) == 6 and out.read_text().count("\n") == 302


def test_simulate_memory_does_not_grow_with_rows(tmp_path):
    """Rows are written as they are formed: the traced peak of a 5000-row
    run stays within 1.5 times that of a 300-row run (after a warm-up)."""
    import tracemalloc

    def peak(n_out):
        tracemalloc.start()
        try:
            assert main(["simulate", "--n-out", str(n_out),
                         "--out", str(tmp_path / "series.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main(["simulate", "--n-out", "300", "--out", str(tmp_path / "warm.csv")])
    assert peak(5000) <= 1.5 * peak(300)


def test_simulate_from_cauchy_file(tmp_path, lat):
    sol = random_solution(lat, np.random.default_rng(3))
    sd = evaluate_fields(sol, 0.0)
    cauchy = tmp_path / "cauchy.csv"
    write_cauchy_csv(lat, sd.phi, sd.p[0], cauchy)
    out = tmp_path / "series.csv"
    code = main(["simulate", "--cauchy", str(cauchy), "--t-final", "1.0",
                 "--n-out", "3", "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    from covkg import energy_integral

    assert rows[0, 1] == pytest.approx(energy_integral(sol, 0.0), abs=1e-10)


def test_simulate_track_selection(tmp_path):
    out = tmp_path / "series.csv"
    main(["simulate", "--track", "0,7", "--t-final", "1.0", "--n-out", "3",
          "--out", str(out)])
    header = _read(out).strip().split("\n")[1].split(",")
    assert "a_abs_0" in header and "a_abs_7" in header


# ---------------------------------------------------------------------------
# brackets and prequant
# ---------------------------------------------------------------------------

def test_brackets_report_passes(tmp_path):
    out = tmp_path / "br.json"
    assert main(["brackets", "--out", str(out)]) == 0
    data = json.loads(_read(out))
    assert data["all_pass"] is True
    names = {c["name"] for c in data["checks"]}
    assert "observables.bracket_single_mode_pinned" in names


def test_prequant_spectrum_csv(tmp_path):
    out = tmp_path / "pq.json"
    spectrum = tmp_path / "spectrum.csv"
    code = main(["prequant", "--max-degree", "2", "--out", str(out),
                 "--spectrum-out", str(spectrum)])
    assert code == 0
    lines = _read(spectrum).strip().split("\n")
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "multi_index,eigenvalue,energy"
    assert lines[2].startswith(",")  # vacuum row has the empty multi-index
    vac = lines[2].split(",")
    assert float(vac[1]) == 0.0 and float(vac[2]) == 0.0
    rows = [ln.split(",") for ln in lines[3:]]
    assert len(rows) == 135  # C(15 + 2, 2) monomials, the vacuum aside
    for label, eig, energy in rows:
        assert float(energy) == -float(eig)
        assert float(energy) > 0.0
    # by degree: the vacuum first, then degrees never decrease
    degrees = [sum(int(p.split(":")[1]) for p in label.split(";"))
               for label, _, _ in rows]
    assert degrees[0] == 1 and degrees == sorted(degrees)


def test_prequant_fg_file(tmp_path, lat):
    rng = np.random.default_rng(2)
    fg = {"f": [[float(rng.standard_normal()), 0.0]
                for _ in range(lat.n_modes)],
          "g": [[1.0, 0.0] for _ in range(lat.n_modes)]}
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(fg), encoding="utf-8")
    out = tmp_path / "pq.json"
    assert main(["prequant", "--fg", str(path), "--out", str(out)]) == 0
    assert json.loads(_read(out))["all_pass"] is True


def test_prequant_records_are_the_suite_ladder_checks(tmp_path, lat):
    """``covkg prequant --fg`` reports exactly the records of
    ``suites.ladder_checks`` on the same f, g, rows and generator."""
    from covkg import prequant as pq
    from covkg.reporting import Report, RunConfig
    from covkg.suites import ladder_checks
    rng = np.random.default_rng(4)
    fg = {key: rng.standard_normal((lat.n_modes, 2)).tolist()
          for key in ("f", "g")}
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(fg), encoding="utf-8")
    out = tmp_path / "pq.json"
    assert main(["prequant", "--fg", str(path), "--max-degree", "2",
                 "--out", str(out)]) == 0
    cfg = RunConfig()
    f, g = (np.array([complex(*z) for z in fg[key]]) for key in ("f", "g"))
    rows = pq.monomial_rows(lat, 2)
    records = ladder_checks(cfg, np.random.default_rng([cfg.seed, 11]), f, g,
                            rows, rows)
    want = Report(config={}, checks=records).to_dict()["checks"]
    assert [r.name for r in records] == [
        "prequant.ccr_monomials", "prequant.aa_exact_zero",
        "prequant.astar_astar_exact_zero", "prequant.vacuum_annihilated"]
    assert json.loads(_read(out))["checks"] == want


def test_prequant_honours_tolerance_override(tmp_path):
    out = tmp_path / "pq.json"
    assert main(["prequant", "--max-degree", "1", "--out", str(out),
                 "--tol", "prequant.vacuum_annihilated=0.5"]) == 0
    checks = {c["name"]: c for c in json.loads(_read(out))["checks"]}
    assert checks["prequant.vacuum_annihilated"]["tolerance"] == 0.5
    assert checks["prequant.aa_exact_zero"]["tolerance"] == 0.0


class _WorkBegan(Exception):
    pass


@pytest.mark.parametrize("config, degree, estimate", [
    ({}, 4, None),                               # 8.7e5 terms
    (CONFIGS["B"], 2, None),                     # 1.1e8
    (CONFIGS["C"], 1, None),                     # 4.1e7
    (CONFIGS["C"], 2, "7.0e+09"),
    (CONFIGS["B"], 3, "4.5e+09"),
], ids=["A4", "B2", "C1", "C2", "B3"])
def test_prequant_refuses_work_over_the_term_budget(tmp_path, capsys,
                                                    monkeypatch, config,
                                                    degree, estimate):
    """Before building any monomial row, prequant estimates rows x
    n_modes^2 terms and exits 2 naming the estimate when it is over the
    budget; under it, the work begins."""
    from covkg import prequant as pq

    def work(*args):
        raise _WorkBegan

    monkeypatch.setattr(pq, "monomial_rows", work)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["prequant", "--config", str(path), "--max-degree", str(degree)]
    if estimate is None:
        with pytest.raises(_WorkBegan):
            main(argv)
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert estimate in err and "1e+09" in err


@pytest.mark.parametrize("bound", [4, 6, 8])
def test_prequant_degree_range_follows_the_degree_bound(capsys, monkeypatch,
                                                        bound):
    """--max-degree runs up to DEGREE_BOUND - 2, since [a*, a*] raises the
    top rows twice; one more exits 2 before any monomial row is built."""
    from covkg import prequant as pq

    def work(*args):
        raise _WorkBegan

    monkeypatch.setattr(pq, "DEGREE_BOUND", bound)
    monkeypatch.setattr(pq, "monomial_rows", work)
    with pytest.raises(_WorkBegan):
        main(["prequant", "--max-degree", str(bound - 2)])
    assert main(["prequant", "--max-degree", str(bound - 1)]) == 2
    assert f"max-degree must lie in 0..{bound - 2}" in capsys.readouterr().err


def test_prequant_term_budget_is_one_constant(tmp_path, monkeypatch):
    """The estimate at config A, degree 1 is C(16, 1) x 15^2 = 3,600 terms:
    a budget of 3,600 runs it and one of 3,599 refuses it."""
    import covkg.cli as cli
    out = tmp_path / "pq.json"
    argv = ["prequant", "--max-degree", "1", "--out", str(out)]
    monkeypatch.setattr(cli, "PREQUANT_TERM_BUDGET", 3600)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "PREQUANT_TERM_BUDGET", 3599)
    assert main(argv) == 2


def test_prequant_rejects_wrong_length_fg(tmp_path):
    path = tmp_path / "fg.json"
    path.write_text(json.dumps({"f": [[1.0, 0.0]], "g": [[1.0, 0.0]]}),
                    encoding="utf-8")
    assert main(["prequant", "--fg", str(path)]) == 2


@pytest.mark.parametrize("bad_f1, field", [
    (None, "--fg"),
    (["a", 1], "f[1]"),
    (True, "f[1]"),
    ([float("nan"), 0.0], "f[1]"),
], ids=["not_object", "non_numeric_pair", "bool_entry", "nan_entry"])
def test_prequant_malformed_fg_exits_two(tmp_path, capsys, lat, bad_f1,
                                        field):
    """Malformed --fg data exits 2 with the field named, never a traceback.

    ``bad_f1`` replaces f[1] of a valid file; None writes ``[1, 2]``.
    """
    n = lat.n_modes
    f = [[1.0, 0.0]] * n
    raw = ([1, 2] if bad_f1 is None
           else {"f": f[:1] + [bad_f1] + f[2:], "g": f})
    path = tmp_path / "fg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["prequant", "--fg", str(path)]) == 2
    assert field in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

FAMILIES = {"msymp.action_lagrangian", "observables.pmu_identity",
            "observables.pmu_lambda_independent",
            "observables.momentum_conserved"}
# Lower bounds with a fixed threshold of 0.0, which no key tunes.
FIXED = {"observables.energy_nonnegative", "prequant.energy_nonnegative"}


def _keys_of(name):
    return [key for key in TOLERANCES
            if name == key or name.startswith(key + "_")]


@pytest.mark.parametrize("config", [{}, {"d": 2, "N": 8, "n_max": 1}])
def test_every_record_has_one_registry_key(tmp_path, config):
    """verify, brackets and prequant each emit only the table's keys."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    names = {}
    for command in (["verify", "--suite", "all"], ["brackets"],
                    ["prequant", "--max-degree", "1"]):
        out = tmp_path / f"{command[0]}.json"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) \
            in (0, 1)
        names[command[0]] = [c["name"]
                             for c in json.loads(_read(out))["checks"]]
    used = set()
    for name in sum(names.values(), []):
        if name in FIXED:
            assert not _keys_of(name), name
            continue
        keys = _keys_of(name)
        assert len(keys) == 1, (name, keys)
        assert name == keys[0] or keys[0] in FAMILIES, name
        used.add(keys[0])
    assert used == set(TOLERANCES)
    assert names["brackets"] and all(
        n.startswith(("observables.bracket_", "observables.pmu_identity_"))
        for n in names["brackets"])
    assert {n.split(".")[0] for n in names["prequant"]} == {"prequant"}
    if config:
        assert {"observables.pmu_identity_mu2",
                "observables.momentum_conserved_i2"} <= set(names["verify"])


def test_override_reaches_family_records(tmp_path):
    out = tmp_path / "r.json"
    main(["verify", "--suite", "observables", "--out", str(out),
          "--tol", "observables.pmu_identity=0.25"])
    tols = {c["name"]: c["tolerance"]
            for c in json.loads(_read(out))["checks"]}
    assert tols["observables.pmu_identity_mu0"] == 0.25
    assert tols["observables.pmu_identity_mu1"] == 0.25
    assert tols["observables.pmu_lambda_independent_mu0"] == 1e-11
