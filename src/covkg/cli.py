"""Command line front end.

Subcommands: verify (invariant suites), simulate (time series from Cauchy
data), brackets (the bracket records of the observables suite), prequant
(the prequant suite's ladder checks on caller-chosen f, g and the
translation spectrum), spec (resolved configuration).

Every check record is named by its key in ``reporting.TOLERANCES``, or by
``<key>_<index>`` for a per-index family, and ``--tol`` takes those keys.

Exit codes: 0 all checks passed, 1 at least one check failed (a suite that
raises, in ``verify`` or ``brackets``, is one failing ``<suite>.raised``
record), 2 usage or config error, an unknown tolerance or bad lattice too.
Reports carry no timestamps, so a fixed config and seed reproduce
byte-identical output; ``verify --timings FILE`` puts per-check wall
seconds in a separate file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import nullcontext
from functools import lru_cache
from math import comb
from time import perf_counter

import numpy as np

from . import observables as obs
from . import prequant as pq
from .lattice import _modulus
from .reporting import (
    SCHEMA_VERSION,
    Report,
    RunConfig,
    check,
    config_from_file,
    parse_tol_overrides,
)
from .solution import (
    _blocks,
    field_energy,
    from_cauchy,
    leapfrog_evolve,
    random_solution,
    read_cauchy_csv,
    synthesize,
)
from .suites import SUITES, ladder_checks

# Record-name prefixes of the observables checks that ``brackets`` reports.
_BRACKET_RECORDS = ("observables.bracket_", "observables.pmu_identity_",
                    "observables.raised")
# Most terms ``covkg prequant`` may take on: its largest check, [a*, a*] on
# every monomial row, makes rows x n_modes^2 of them.
PREQUANT_TERM_BUDGET = 10 ** 9
# Most output rows, and most leapfrog steps in all, that ``covkg simulate``
# takes on, a bound on time: a step takes about 0.1 ms at config A.
SIMULATE_BUDGET = 10 ** 6


def _add_common(sub: argparse.ArgumentParser, lam=True, tol=True) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output path (default: stdout)")
    if lam:
        sub.add_argument("--lambda", dest="lam", type=float,
                         help="override the theta_lambda gauge parameter")
    if tol:
        sub.add_argument("--tol", action="append", metavar="NAME=VALUE",
                         help="override a named check tolerance (repeatable)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, since every ``parse_args`` call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="covkg",
        description="verification tools for the covariant Klein-Gordon "
                    "field on a periodic box")
    parser.set_defaults(lam=None, tol=None)  # for commands without them
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("--suite", default="all",
                          choices=[*SUITES, "all"])
    p_verify.add_argument("--timings", metavar="FILE",
                          help="also write each check's wall seconds to this "
                          "JSON file; the report does not change")
    _add_common(p_verify)

    p_sim = sub.add_parser("simulate", help="emit conserved-quantity time series")
    p_sim.add_argument("--cauchy", help="Cauchy data CSV (index,phi0,pi0); "
                       "default: seeded random solution")
    p_sim.add_argument("--t-final", type=float, default=5.0)
    p_sim.add_argument("--n-out", type=int, default=21)
    p_sim.add_argument("--track", help="comma-separated mode indices to track "
                       "(default: three largest amplitudes)")
    p_sim.add_argument("--leapfrog-dt", type=float,
                       help="also evolve by leapfrog at this step and emit "
                       "its energy column")
    _add_common(p_sim, tol=False)

    p_br = sub.add_parser("brackets", help="bracket identity table")
    _add_common(p_br, lam=False)

    p_pq = sub.add_parser("prequant", help="operator checks and P spectrum")
    p_pq.add_argument("--fg", help="JSON file {\"f\": [...], \"g\": [...]} "
                      "with per-mode complex entries as [re, im]")
    p_pq.add_argument("--max-degree", type=int, default=2)
    p_pq.add_argument("--spectrum-out", help="CSV path for the monomial "
                      "spectrum of the time translation generator")
    _add_common(p_pq, lam=False)

    p_spec = sub.add_parser("spec", help="print the resolved configuration")
    _add_common(p_spec)
    return parser


def _load_config(args) -> RunConfig:
    cfg = config_from_file(args.config) if args.config else RunConfig()
    changes = {"tolerances": {**cfg.tolerances,
                              **parse_tol_overrides(args.tol)}}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.lam is not None:
        changes["lam"] = float(args.lam)
    if args.out:
        changes["out"] = args.out
    return dataclasses.replace(cfg, **changes)  # re-validates tolerances


def _emit(path):
    """A command's output: ``path`` opened for writing, or stdout."""
    return (open(path, "w", encoding="utf-8", newline="") if path
            else nullcontext(sys.stdout))


def _finish_report(cfg: RunConfig, suite: str, records) -> int:
    report = Report(config=cfg.to_dict(), checks=records, suite=suite)
    with _emit(cfg.out) as fh:
        fh.write(report.to_json())
    if cfg.out:
        n_fail = sum(not c.passed for c in records)
        print(f"{cfg.out}: {len(records)} checks, "
              + ("all passed" if n_fail == 0 else f"{n_fail} failed"))
    return 0 if report.all_pass else 1


def _run_suite(name: str, cfg: RunConfig) -> list:
    try:
        return SUITES[name](cfg)
    except Exception as exc:
        print(f"error: suite {name} raised {exc!r}", file=sys.stderr)
        return [check(f"{name.replace('-', '_')}.raised", 1, 0, 0)]


def cmd_verify(cfg: RunConfig, suite: str, timings=None) -> int:
    """Run the suite; with ``timings``, also write the sidecar JSON.

    A check's wall time is the time since the previous record of its suite
    was made, or since the suite started for its first record.  The file
    is opened first, so a bad path fails before any suite runs.
    """
    sidecar = (open(timings, "w", encoding="utf-8", newline="")
               if timings is not None else nullcontext())
    with sidecar as fh:
        records, rows = [], []
        for name in (list(SUITES) if suite == "all" else [suite]):
            last = perf_counter()
            for rec in _run_suite(name, cfg):
                rows.append({"suite": name, "name": rec.name,
                             "wall_s": rec.made_at - last})
                last = rec.made_at
                records.append(rec)
        if fh is not None:
            doc = {"schema_version": SCHEMA_VERSION, "suite": suite,
                   "checks": rows}
            fh.write(json.dumps(doc, indent=2) + "\n")
    return _finish_report(cfg, suite, records)


def _parse_track(arg, lat, sol):
    if arg is not None:
        picks = []
        for entry in filter(str.strip, arg.split(",")):
            try:
                picks.append(int(entry))
            except ValueError:
                raise ValueError(f"--track entry {entry.strip()!r} is not "
                                 "a mode index") from None
        if not picks:
            raise ValueError(f"--track {arg!r} names no mode index")
        for i, k in enumerate(picks):
            if not 0 <= k < lat.n_modes:
                raise ValueError(f"track index {k} out of range")
            if k in picks[:i]:
                raise ValueError(f"track index {k} repeated")
        return picks
    order = np.argsort(-np.abs(sol.u), kind="stable")
    return sorted(int(k) for k in order[:3])


def cmd_simulate(cfg: RunConfig, args) -> int:
    """Check everything, then write each row as it is formed: one call per
    column family and block of output times (``solution._blocks``)."""
    lat = cfg.lattice()
    if not 2 <= args.n_out <= SIMULATE_BUDGET:
        raise ValueError(f"n-out must lie in 2..{SIMULATE_BUDGET:.0e}")
    if not 0 < args.t_final < np.inf:
        raise ValueError("t-final must be a finite positive number")
    ts, steps = np.linspace(0.0, args.t_final, args.n_out), None
    if args.leapfrog_dt is not None:
        if not 0 < args.leapfrog_dt < np.inf:
            raise ValueError("leapfrog-dt must be a finite positive number")
        # per interval, the fewest steps no longer than asked, up to roundoff
        with np.errstate(over="ignore"):  # a count past any budget reads inf
            steps = np.ceil(np.diff(ts) / args.leapfrog_dt - 1e-9).clip(1.0)
        if steps.sum() > SIMULATE_BUDGET:
            raise ValueError(f"leapfrog-dt takes {steps.sum():.1e} steps, "
                             f"over SIMULATE_BUDGET ({SIMULATE_BUDGET:.0e})")
        dts = np.diff(ts) / steps  # as ``leapfrog_evolve`` checks them
        if np.max(dts) * float(np.max(lat.k0)) >= 2.0:
            raise ValueError("unstable step: require dt * max(k0) < 2")
    if args.cauchy:
        phi0, pi0 = read_cauchy_csv(lat, args.cauchy)
        sol = from_cauchy(lat, phi0, pi0)
    else:
        sol = random_solution(lat, np.random.default_rng(cfg.seed))
    track = _parse_track(args.track, lat, sol)
    alpha_k = obs.generator_alpha_k(lat, np.array(track, dtype=int))

    columns = (["t", "energy"]
               + [f"momentum_{i}" for i in range(1, lat.d + 1)]
               + [f"a_abs_{k}" for k in track])
    if steps is not None:
        columns.append("energy_leapfrog")
        phi, pi = synthesize(sol, 0.0, [(), (0,)])

    with _emit(cfg.out) as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n{','.join(columns)}\n")
        for part in _blocks(len(ts), lat.N ** lat.d):
            tb = ts[part]
            a_t = _modulus(obs.bracket_slice_integral(sol, alpha_k, tb))
            rows = np.column_stack(
                [tb, obs.energy_integral(sol, tb, cfg.lam)]
                + [obs.momentum_integral(sol, i, tb, cfg.lam)
                   for i in range(1, lat.d + 1)] + list(a_t)).tolist()
            for j, row in zip(range(len(ts))[part], rows):
                if steps is not None:
                    if j > 0:
                        sd = leapfrog_evolve(lat, phi, pi, dts[j - 1],
                                             int(steps[j - 1]))
                        phi, pi = sd.phi, sd.p[0]
                    row.append(field_energy(lat, phi, pi))
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def cmd_brackets(cfg: RunConfig) -> int:
    records = [c for c in _run_suite("observables", cfg)
               if c.name.startswith(_BRACKET_RECORDS)]
    return _finish_report(cfg, "brackets", records)


def _parse_complex_list(raw, n_modes: int, name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n_modes:
        raise ValueError(f"{name} must be a list with one entry per mode "
                         f"({n_modes})")
    out = np.empty(n_modes, dtype=complex)
    for i, item in enumerate(raw):
        parts = item if isinstance(item, list) and len(item) == 2 else [item]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                   for p in parts):
            raise ValueError(f"{name}[{i}] must be a number or [re, im]")
        out[i] = complex(*parts)
        if not np.isfinite(out[i]):
            raise ValueError(f"{name}[{i}] must be finite")
    return out


def cmd_prequant(cfg: RunConfig, args) -> int:
    lat = cfg.lattice()
    n, degree = lat.n_modes, args.max_degree
    top = pq.DEGREE_BOUND - 2  # [a*, a*] raises max-degree rows twice
    if not 0 <= degree <= top:
        raise ValueError(f"max-degree must lie in 0..{top}")
    terms = comb(n + degree, degree) * n ** 2
    if terms > PREQUANT_TERM_BUDGET:
        raise ValueError(f"max-degree {degree} on {n} modes takes about "
                         f"{terms:.1e} terms, over the budget of "
                         f"{PREQUANT_TERM_BUDGET:.0e}")
    rng = np.random.default_rng([cfg.seed, 11])
    if args.fg:
        with open(args.fg, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("--fg file must hold a JSON object "
                             "{\"f\": [...], \"g\": [...]}")
        f = _parse_complex_list(raw.get("f"), n, "f")
        g = _parse_complex_list(raw.get("g"), n, "g")
    else:
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows = pq.monomial_rows(lat, degree)
    records = ladder_checks(cfg, rng, f, g, rows, rows)

    if args.spectrum_out:
        eigs = pq.p_eigenvalues(lat, rows, np.eye(lat.d + 1)[0]).tolist()
        with _emit(args.spectrum_out) as fh:
            fh.write(f"# schema_version={SCHEMA_VERSION}\n"
                     "multi_index,eigenvalue,energy\n")
            for alpha, eig in zip(pq.row_alphas(lat, rows), eigs):
                eig += 0.0  # normalizes -0.0 for the vacuum row
                label = ";".join(f"{k}:{e}" for k, e in alpha)
                fh.write(f"{label},{eig!r},{-eig + 0.0!r}\n")
    return _finish_report(cfg, "prequant-cli", records)


def cmd_spec(cfg: RunConfig) -> int:
    data = cfg.to_dict()
    data["schema_version"] = SCHEMA_VERSION
    with _emit(cfg.out) as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.timings)
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "brackets":
            return cmd_brackets(cfg)
        if args.command == "prequant":
            return cmd_prequant(cfg, args)
        if args.command == "spec":
            return cmd_spec(cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
