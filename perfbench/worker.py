"""Measuring process of the benchmark; run.py starts it in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

Runs ``covkg.cli.main(["verify", ...])`` in-process in a closed loop for
``seconds`` and prints one JSON line with the raw pass records.  SPEC_JSON
holds ``config`` (without seed), ``suites``, ``seed``, ``seconds``,
``trace`` and ``workdir``, where the per-seed config files are written.

The loop runs in units of two passes on one config seed, so every unit
replays its first pass and the reports can be compared byte for byte.
With ``trace`` the second pass of each unit runs under the tracer, which
also shows that tracing leaves the reports unchanged.  Unit i uses config
seed ``seed * 1000 + i``; no seed is skipped.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

REFERENCE_ROUNDS = 6000


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def describe(suite, code, stdout, stderr, error) -> dict:
    """One invocation's exit code, report digest and check outcome."""
    rec = {"suite": suite, "exit": code,
           "digest": hashlib.sha256(stdout.encode()).hexdigest()}
    if error is not None:
        rec["error"] = error
        return rec
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        rec["checks"] = len(checks)
        rec["failed_checks"] = [c["name"] for c in checks if not c["pass"]]
        rec["all_pass"] = bool(report["all_pass"])
    except (ValueError, KeyError, TypeError) as exc:
        rec["error"] = f"no readable report ({exc!r}); stderr: {stderr.strip()}"
    return rec


def reference_kernel() -> float:
    """Wall seconds of a fixed computation shaped like covkg's inner loops.

    Small FFTs and determinants through numpy plus tuple and dict work in
    the interpreter.  It does not call the program, so an invocation's wall
    time divided by the kernel time measured next to it cancels much of the
    drift in the machine's speed.
    """
    x = np.arange(32.0) + 0j
    m = np.eye(4) + 0.125
    acc = {}
    t0 = perf_counter()
    for i in range(REFERENCE_ROUNDS):
        y = np.fft.ifftn(x)
        key = tuple(sorted((i % 97, i % 89, i % 7)))
        acc[key] = acc.get(key, 0.0) + y[1].real + np.linalg.det(m)
    return perf_counter() - t0


def run_pass(cli, suites, config_path, ref, tracer=None) -> dict:
    """One pass; ``ref`` is the kernel time measured just before it.

    The kernel runs again after every invocation.  Each invocation's wall
    time is divided by the mean of the kernel times on either side, and
    ``ratio`` is the sum over the pass.  The tracer, if any, is installed
    around the invocations only, so it never counts the kernel's calls.
    """
    invocations = []
    wall = cpu = ratio = 0.0
    refs = [ref]
    missed = set()
    for suite in suites:
        out, err = io.StringIO(), io.StringIO()
        error = code = None
        t0, c0 = perf_counter(), process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err), \
                    (tracer or nullcontext()):
                code = cli.main(["verify", "--suite", suite,
                                 "--config", config_path])
                if tracer is not None:
                    missed.update(tracer.missed_references())
        except Exception:  # a crash is recorded as a failed invocation
            error = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        cpu += process_time() - c0
        wall += dt
        refs.append(reference_kernel())
        ratio += dt / (0.5 * (refs[-2] + refs[-1]))
        invocations.append(describe(suite, code, out.getvalue(),
                                    err.getvalue(), error))
    rec = {"wall": wall, "cpu": cpu, "ratio": ratio, "refs": refs,
           "traced": tracer is not None, "invocations": invocations}
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics()
        rec["anchor_counts"] = tracer.anchor_counts()
        rec["missed"] = sorted(missed)
    return rec


def loop(spec) -> dict:
    from covkg import cli
    from tracing import Tracer

    work = Path(spec["workdir"])
    passes = []
    ref = reference_kernel()
    start = perf_counter()
    unit = 0
    while True:
        seed = spec["seed"] * 1000 + unit
        path = work / f"config-{seed}.json"
        path.write_text(json.dumps(dict(spec["config"], seed=seed)))
        t0 = perf_counter()
        for tracer in (None, Tracer() if spec["trace"] else None):
            rec = run_pass(cli, spec["suites"], str(path), ref, tracer)
            ref = rec["refs"][-1]
            passes.append(dict(rec, seed=seed))
        unit += 1
        now = perf_counter()
        if now - start + (now - t0) > spec["seconds"]:
            break
    return {"machine": machine_record(), "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def main(argv) -> int:
    print(json.dumps(loop(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
