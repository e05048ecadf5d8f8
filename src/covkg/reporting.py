"""Run configuration and machine-readable verification reports.

A check record always satisfies: passed iff abs_diff <= tolerance.
Lower-bound assertions ("value must exceed threshold") are encoded in the
same shape with abs_diff = max(0, threshold - value) and tolerance 0, so
one invariant covers every row.

Reports carry no timestamps; with a fixed config and seed the serialized
JSON is byte-identical between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ._version import __version__
from .lattice import ModeLattice, _check_number, build_lattice

SCHEMA_VERSION = 1


# Default tolerance of every check, keyed by the check's name.  A family key
# tunes the records named ``<key>_<index>``, one per index.  A lower-bound
# row holds the threshold the value must reach.  The two energy
# non-negativity checks and the ``<suite>.raised`` record of a suite that
# raised have no row: their threshold is a fixed 0.0.
TOLERANCES = {
    "msymp.kg_residual": 1e-12,
    "msymp.hamilton_order": 0.1,
    "msymp.dtheta_vs_omega": 1e-9,
    "msymp.hamilton2_pointwise": 1e-9,
    "msymp.omega_nondegenerate": 0.5,
    "msymp.action_lagrangian": 1e-8,
    "msymp.criticality_onshell": 1e-8,
    "msymp.criticality_offshell": 1e-3,
    "observables.a_k_equals_modes": 1e-12,
    "observables.a_k_t_independent": 1e-12,
    "observables.field_reconstruction": 1e-12,
    "observables.fphi_t_independent": 1e-12,
    "observables.bracket_t_independent": 1e-12,
    "observables.bracket_antisymmetry": 0.0,  # bitwise: commuting real products
    "observables.bracket_two_path": 1e-10,
    "observables.bracket_aa_zero": 1e-12,
    "observables.bracket_single_mode_pinned": 1e-12,
    "observables.noether_order": 0.15,
    "observables.noether_counterexample": 1e-3,
    "observables.pmu_identity": 1e-10,  # closed and pointwise Omega paths
    "observables.pmu_lambda_independent": 1e-11,
    "observables.energy_conserved": 1e-10,
    "observables.momentum_conserved": 1e-10,
    "phase_space.omega_two_path": 1e-10,
    "phase_space.omega_antisymmetry": 0.0,
    "phase_space.omega_t_independent": 1e-12,
    "phase_space.omega_mode_form": 1e-12,
    "phase_space.fd_lambda_independent": 1e-12,
    "phase_space.fd_matches_omega": 1e-10,
    "phase_space.fd_eps_independent": 1e-11,
    "phase_space.gram_min_eig": 1e-8,
    "phase_space.theta_vs_action": 1e-8,
    "phase_space.theta_linearity": 1e-12,
    "phase_space.theta_pointwise_match": 1e-12,
    "phase_space.theta_rep_independent_spatial": 1e-10,
    "phase_space.omega_rep_independent": 1e-10,
    "phase_space.theta_time_shift_identity": 1e-10,
    "prequant.ccr_monomials": 1e-12,
    "prequant.aa_exact_zero": 0.0,  # bitwise for dyadic coefficients
    "prequant.astar_astar_exact_zero": 0.0,
    "prequant.vacuum_annihilated": 0.0,
    "prequant.p_eigenvalues": 1e-12,
    "prequant.p_astar_commutator": 1e-12,
    "prequant.adjointness": 1e-12,
    "prequant.cross_module_ccr": 1e-12,
}


@dataclass
class RunConfig:
    d: int = 1
    L: float = 2.0 * np.pi
    N: int = 32
    n_max: int = 7
    m: float = 1.0
    hbar: float = 1.0
    lam: float = 1.0
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out: str | None = None

    _KEYS = ("d", "L", "N", "n_max", "m", "hbar", "lam", "seed")

    def __post_init__(self):
        for name in self._KEYS:
            _check_number(f"config {name!r}", getattr(self, name),
                          name in ("d", "N", "n_max", "seed"))
        if self.seed < 0:
            raise ValueError(f"config 'seed' must be nonnegative, got {self.seed}")
        if not isinstance(self.tolerances, dict):
            raise ValueError("config 'tolerances' must be a JSON object, got "
                             f"{self.tolerances!r}")
        for name, value in self.tolerances.items():
            if name not in TOLERANCES:
                raise ValueError(f"unknown tolerance name {name!r}")
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 <= value < np.inf):
                raise ValueError(f"tolerance {name!r} must be a finite "
                                 "nonnegative number")
        self.lattice()  # an invalid lattice fails here, not in a command

    def lattice(self) -> ModeLattice:
        return build_lattice(self.d, self.L, self.N, self.n_max, self.m,
                             self.hbar)

    def tolerance(self, key: str) -> float:
        """The override of ``key`` if one was given, else its table default."""
        return float(self.tolerances.get(key, TOLERANCES[key]))

    def check(self, key: str, lhs, rhs, index: str = "") -> "CheckRecord":
        """Equality check ``key``, or its family record ``key_index``."""
        name = f"{key}_{index}" if index else key
        return check(name, lhs, rhs, self.tolerance(key))

    def lower_bound(self, key: str, value) -> "CheckRecord":
        """Lower-bound check ``key``: value must reach the key's threshold."""
        return lower_bound_check(key, value, self.tolerance(key))

    def to_dict(self) -> dict:
        data = {k: getattr(self, k) for k in self._KEYS}
        data["tolerances"] = dict(sorted(self.tolerances.items()))
        return data


def config_from_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    allowed = set(RunConfig._KEYS) | {"tolerances"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**raw)


def parse_tol_overrides(items) -> dict:
    """--tol NAME=VALUE pairs into a tolerance map."""
    out = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"bad tolerance override {item!r}, "
                             "expected NAME=VALUE")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError(f"tolerance {name!r}: {value!r} is not a number")
    return out


@dataclass(frozen=True)
class CheckRecord:
    name: str
    lhs: complex
    rhs: complex
    abs_diff: float
    tolerance: float
    passed: bool
    # perf_counter() when the record was made, for ``verify --timings``;
    # not part of the report.
    made_at: float = field(default_factory=perf_counter, compare=False,
                           repr=False)


def check(name: str, lhs, rhs, tolerance: float) -> CheckRecord:
    """Equality check: lhs and rhs must agree within tolerance."""
    diff = abs(complex(lhs) - complex(rhs))
    return CheckRecord(name=name, lhs=lhs, rhs=rhs, abs_diff=float(diff),
                       tolerance=float(tolerance),
                       passed=bool(diff <= tolerance))


def lower_bound_check(name: str, value: float,
                      threshold: float) -> CheckRecord:
    """Value must be at least threshold; a NaN value fails, with a NaN
    shortfall."""
    value, threshold = float(value), float(threshold)
    passed = value >= threshold
    return CheckRecord(name=name, lhs=value, rhs=threshold,
                       abs_diff=0.0 if passed else threshold - value,
                       tolerance=0.0, passed=passed)


def _finite(x: float):
    """x, or "NaN", "Infinity" or "-Infinity", so reports stay strict JSON."""
    return x if math.isfinite(x) else json.dumps(x)


def _num(value):
    """A report number: a float, or [re, im] for a complex value whose
    imaginary part is nonzero.  Python and numpy scalars are classified by
    type; only arrays reach ``np.iscomplexobj``."""
    if isinstance(value, (float, int, np.floating, np.integer)):
        return _finite(float(value))
    if isinstance(value, complex) or np.iscomplexobj(value):
        z = complex(value)
        if z.imag == 0.0:
            return _finite(z.real)
        return [_finite(z.real), _finite(z.imag)]
    return _finite(float(value))


@dataclass
class Report:
    config: dict
    checks: list
    suite: str = "all"

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "versions": {"artifact": __version__,
                         "numpy": np.__version__},
            "all_pass": self.all_pass,
            "checks": [
                {"name": c.name, "lhs": _num(c.lhs), "rhs": _num(c.rhs),
                 "abs_diff": _num(c.abs_diff),
                 "tolerance": _num(c.tolerance), "pass": c.passed}
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
