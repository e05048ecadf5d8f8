"""covkg benchmark: `covkg verify` workloads, end-to-end and per-layer metrics.

Usage, from the root of a covkg checkout:

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  This process uses the
standard library only; the work runs in fresh interpreters (worker.py) with
BLAS and OpenMP pinned to one thread.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# Each workload puts a different module's work in the lead; README.md says why.
WORKLOADS = {
    "verify-default": {
        "config": {"d": 1, "L": 2 * math.pi, "N": 32, "n_max": 7, "m": 1.0},
        "suites": ["all"],
    },
    "geometry-3d": {
        "config": {"d": 3, "L": 2 * math.pi, "N": 8, "n_max": 3, "m": 1.0},
        "suites": ["msymp", "observables", "phase-space"],
    },
    "prequant-wide": {
        "config": {"d": 1, "L": 2 * math.pi, "N": 32, "n_max": 11, "m": 1.0},
        "suites": ["prequant"],
    },
}
SETUP_PROBES = 10  # before the passes and again after them
PROBE_TIMEOUT_S = 4
# The worker starts no pass pair that would end after --seconds; this margin
# covers a last pair that runs long.  At --seconds 50 a run ends within 180 s.
WORKER_MARGIN_S = 60


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result may be printed."""


def source_digest(root: Path) -> str:
    """sha256 over src/covkg/*.py, the program the anchors were counted on."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "covkg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# What `covkg verify` does before its first suite, and nothing else.
PROBE = ("import sys; from covkg import cli; "
         "cli.config_from_file(sys.argv[1]).lattice(); print('ready', flush=True)")
# The same start without covkg.  Timed next to every probe, it gauges the
# machine's speed at that moment for the same kind of work.
BASE = "import numpy; print('ready', flush=True)"
# BASE's median time on the machine the baseline was taken on (README.md,
# Baseline).  setup_s is stated at that speed.
REFERENCE_BASE_S = 0.13


def time_to_ready(root: Path, *args: str) -> float:
    """Seconds from spawning ``python -c *args`` to its line 'ready'."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", *args], cwd=root,
                          env=child_env(root), text=True,
                          stdout=subprocess.PIPE) as proc:
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            proc.kill()
            raise HarnessError(f"set-up probe silent for {PROBE_TIMEOUT_S} s")
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise HarnessError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def probe_setup(root: Path, config_path: Path) -> tuple:
    """(covkg, base): seconds to config parsed and lattice built, and seconds
    for the bare numpy start timed right after it."""
    return (time_to_ready(root, PROBE, str(config_path)),
            time_to_ready(root, BASE))


def run_worker(root: Path, spec: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=root, env=child_env(root), text=True, capture_output=True,
            timeout=spec["seconds"] + WORKER_MARGIN_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker did not finish in {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum
    is reported and labelled p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def check_anchors(root: Path, workload: str, passes: list) -> str:
    """Compare traced counts with the baseline anchors; raise on mismatch."""
    anchors = json.loads((HERE / "anchors.json").read_text())
    if workload not in anchors["workloads"]:
        return f"anchors: none recorded for {workload}"
    if source_digest(root) != anchors["source_sha256"]:
        return ("anchors: not checked, src/covkg differs from the source "
                "they were counted on")
    want = anchors["workloads"][workload]
    for rec in passes:
        got = {k: rec["anchor_counts"][k] for k in want}
        if got != want:
            raise HarnessError(f"anchor mismatch at config seed {rec['seed']}: "
                               f"counted {got}, baseline {want}")
    return f"anchors: hold exactly on every traced pass: {want}"


def summarize(workload: str, result: dict, trace: bool, root: Path) -> dict:
    """Metric values and report lines from the worker's pass records."""
    passes = result["passes"]
    lines = []
    attempted = failed = checks = checks_failed = 0
    exits = {}
    failing = {}
    expected = {}
    for rec in passes:
        for inv in rec["invocations"]:
            if "checks" in inv:
                expected[inv["suite"]] = max(expected.get(inv["suite"], 1),
                                             inv["checks"])
    first_digests = {}
    replays = matches = 0
    for rec in passes:
        digests = []
        for inv in rec["invocations"]:
            attempted += 1
            exits[str(inv["exit"])] = exits.get(str(inv["exit"]), 0) + 1
            digests.append(inv["digest"])
            ok = ("error" not in inv and inv["exit"] in (0, 1)
                  and (inv["exit"] == 0) == inv["all_pass"])
            if not ok:
                failed += 1
                n = expected.get(inv["suite"], 1)
                checks += n
                checks_failed += n
                lines.append(f"failed invocation (suite {inv['suite']}, "
                             f"config seed {rec['seed']}, exit {inv['exit']}): "
                             f"{inv.get('error', 'exit code disagrees with report')}")
                continue
            checks += inv["checks"]
            checks_failed += len(inv["failed_checks"])
            for name in inv["failed_checks"]:
                failing.setdefault(name, []).append(rec["seed"])
        if rec["seed"] in first_digests:
            replays += 1
            matches += digests == first_digests[rec["seed"]]
        else:
            first_digests[rec["seed"]] = digests

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    missed = sorted({m for r in traced for m in r["missed"]})
    if missed:
        raise HarnessError("tracer missed call sites: " + "; ".join(missed))
    walls = [r["wall"] for r in untraced]
    tail_s, tail_p = tail(walls)
    lines += [
        f"passes: {len(untraced)} untraced, {len(traced)} traced; config "
        f"seeds {sorted(first_digests)}",
        "pass wall s: " + ", ".join(f"{r['wall']:.3f}" + "t" * r["traced"]
                                    for r in passes),
        f"invocations: {attempted} attempted, {failed} failed; exit codes {exits}",
        "invocation suite@seed exit/checks: " + ", ".join(
            f"{inv['suite']}@{r['seed']} {inv['exit']}/{inv.get('checks', '-')}"
            for r in passes for inv in r["invocations"]),
    ] + [f"failing check {name} at config seeds {seeds}"
         for name, seeds in sorted(failing.items())]
    refs = [x for r in untraced for x in r["refs"][1:]]
    values = {
        "verify_ref": statistics.median(r["ratio"] for r in untraced),
        "verify_s": statistics.median(walls),
        "verify_s_tail": tail_s,
        "verify_cpu_s": statistics.median(r["cpu"] for r in untraced),
        "peak_rss_mb": result["peak_rss_mb"],
        "checks_passed_frac": 1.0 - checks_failed / checks,
        "report_match_frac": matches / replays,
    }
    lines += [
        f"verify_ref = {values['verify_ref']:.4f} ref: median over passes of "
        "wall time / reference-kernel time (kernel median "
        f"{statistics.median(refs):.4f} s over {len(refs)} kernel runs)",
        f"verify_s = {values['verify_s']:.4f} s: median of {len(walls)} passes",
        f"verify_s_tail = {tail_s:.4f} s: p{tail_p:.0f} of {len(walls)} passes"
        + (" (ten or fewer passes, so the maximum)" if tail_p == 100.0 else ""),
        f"verify_cpu_s = {values['verify_cpu_s']:.4f} s: median per pass",
        f"peak_rss_mb = {values['peak_rss_mb']:.2f} MB",
        f"checks_failed_frac = {checks_failed / checks:.6f} ratio: "
        f"{checks_failed} of {checks} checks failed",
        f"report_mismatch_frac = {1.0 - matches / replays:.6f} ratio: "
        f"{replays - matches} of {replays} replayed passes differ",
    ]
    if trace:
        lines.append(check_anchors(root, workload, traced))
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace_overhead_frac"] = (
            statistics.median(r["ratio"] for r in traced)
            / values["verify_ref"] - 1.0)
    correct = failed == 0 and matches == replays
    return {"values": values, "lines": lines, "correct": correct,
            "attempted": attempted, "failed": failed}


def measure(root: Path, workload: str, spec: dict, seed: int,
            seconds: float, trace: bool) -> dict:
    """Run one workload; returns summarize() output plus set-up samples."""
    if not (root / "src" / "covkg" / "__init__.py").is_file():
        raise HarnessError(f"no covkg source under {root / 'src'}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        config_path = Path(work) / "config.json"
        config_path.write_text(json.dumps(dict(spec["config"], seed=seed)))
        probes = 0 if trace else SETUP_PROBES
        setup = [probe_setup(root, config_path) for _ in range(probes)]
        result = run_worker(root, {
            "config": spec["config"], "suites": spec["suites"],
            "seed": seed, "seconds": seconds, "trace": trace, "workdir": work})
        setup += [probe_setup(root, config_path) for _ in range(probes)]
    out = summarize(workload, result, trace, root)
    out["machine"] = result["machine"]
    if setup:
        walls = [wall for wall, _ in setup]
        out["values"]["setup_s"] = statistics.median(
            wall / base * REFERENCE_BASE_S for wall, base in setup)
        out["values"]["setup_wall_s"] = statistics.median(walls)
        out["lines"] += [
            f"setup_s = {out['values']['setup_s']:.4f} s at reference speed: "
            f"median over {len(setup)} probes of covkg / bare numpy start "
            f"x {REFERENCE_BASE_S} s",
            f"setup_wall_s = {out['values']['setup_wall_s']:.4f} s: median of "
            + ", ".join(f"{w:.4f}" for w in walls),
            "bare numpy start s: " + ", ".join(f"{b:.4f}" for _, b in setup),
        ]
    return out


def result_line(bench: dict, section: str, out: dict) -> str:
    """The closing JSON object: every metric of ``section``, with its unit."""
    metrics = {}
    for m in bench[section]:
        value = out["values"][m["name"]]
        if not math.isfinite(value):
            raise HarnessError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                       "failed": out["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
        out = measure(root, args.workload, WORKLOADS[args.workload],
                      args.seed, args.seconds, bool(args.trace))
        line = result_line(bench, "per_layer" if args.trace else "end_to_end",
                           out)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + json.dumps(out["machine"], sort_keys=True))
    print("\n".join(out["lines"]))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
