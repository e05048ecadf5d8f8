"""End-to-end acceptance gate.

Thirteen property checks at fixed tolerances, one test each, at the default
configuration d = 1, L = 2 pi, N = 32, n_max = 7, m = 1. Each test prints
the measured number next to its tolerance so a failing run is diagnosable
from the log alone.
"""

import json
import subprocess
import sys
import time
from functools import partial

import numpy as np

from covkg import (
    Pmu,
    action_between_slices,
    action_criticality,
    energy_integral,
    fd_delta_theta,
    gram_matrix,
    hamilton_residual,
    noether_divergence,
    omega_sigma,
    random_solution,
    slice_integral,
    theta_difference_vs_action,
)
from covkg.observables import (
    bracket_regularized,
    bracket_slice_integral,
    classical_bracket_integral,
    generator_alpha_f,
    generator_alpha_star_g,
    hamiltonian_deformation,
    omega_bracket_integral,
)
from covkg.phase_space import (deformation_fields, omega_mode_form,
                               omega_sigma_pointwise)
from covkg.multisymplectic import graph_frame, lagrangian_and_actions
from covkg.solution import DetunedHistory, SolutionHistory
from covkg import prequant as pq


def _pair(lat, rng):
    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    return f, g


def test_01_hamilton_residual_second_order(lat, sol):
    t0 = time.perf_counter()
    res = {}
    for dt in (0.1, 0.05, 0.025):
        n = int(round(0.4 / dt))
        res[dt] = hamilton_residual(sol, 0.4 + dt * np.arange(n + 1))
    order = 0.5 * (np.log2(res[0.1] / res[0.05])
                   + np.log2(res[0.05] / res[0.025]))
    elapsed = time.perf_counter() - t0
    print(f"residual order = {order:.4f} (target 2.0 +- 0.1), "
          f"runtime = {elapsed:.2f} s (limit 1 s)")
    assert abs(order - 2.0) <= 0.1
    assert elapsed < 1.0


def test_02_action_equals_lagrangian_quadrature(lat):
    worst_match, worst_null = 0.0, 0.0
    for seed in range(20):
        s = random_solution(lat, np.random.default_rng(seed))
        act1 = action_between_slices(s, 1.0, 0.2, 1.4, n_t=257)
        lag, _ = lagrangian_and_actions(SolutionHistory(s), [1.0], 0.2, 1.4,
                                        257)
        worst_match = max(worst_match, abs(act1 - lag))
        act_half = action_between_slices(s, 0.5, 0.2, 1.4, n_t=257)
        worst_null = max(worst_null, abs(act_half))
    print(f"max |action - lagrangian| = {worst_match:.3e}, "
          f"max |action at midpoint gauge| = {worst_null:.3e} (tol 1e-8)")
    assert worst_match <= 1e-8
    assert worst_null <= 1e-8


def test_03_action_critical_on_solutions_only(lat, sol):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = random_solution(lat, rng)
        variation = random_solution(lat, rng)
        on, = action_criticality([SolutionHistory(base)], variation, 1.0)
        worst = max(worst, on)
    off, = action_criticality([DetunedHistory(sol, 0.5)],
                              random_solution(lat, np.random.default_rng(99)),
                              1.0)
    print(f"max on-shell |dA| = {worst:.3e} (tol 1e-8), "
          f"off-shell |dA| = {off:.3e} (floor 1e-3)")
    assert worst <= 1e-8
    assert off >= 1e-3


def test_04_bracket_time_independent_and_antisymmetric(lat):
    rng = np.random.default_rng(11)
    phi = random_solution(lat, rng, real_flag=False)
    psi = random_solution(lat, rng, real_flag=False)
    vals = [bracket_slice_integral(phi, psi, t) for t in (0.0, 1.0, 2.5, 7.0)]
    drift = max(abs(v - vals[0]) for v in vals)
    exact = all(bracket_slice_integral(phi, psi, t)
                == -bracket_slice_integral(psi, phi, t)
                for t in (0.0, 1.0, 2.5, 7.0))
    print(f"bracket drift over t = {drift:.3e} (tol 1e-12), "
          f"antisymmetry exact = {exact}")
    assert drift <= 1e-12
    assert exact


def test_05_regularized_bracket_two_paths(lat, sol):
    worst_pair, worst_null = 0.0, 0.0
    for seed in range(20):
        f, g = _pair(lat, np.random.default_rng(seed))
        got = bracket_slice_integral(generator_alpha_f(lat, f),
                                     generator_alpha_star_g(lat, g), 0.0)
        worst_pair = max(worst_pair, abs(got - bracket_regularized(lat, f, g)))
        f2, _ = _pair(lat, np.random.default_rng(seed + 1000))
        null = classical_bracket_integral(generator_alpha_f(lat, f),
                                          generator_alpha_f(lat, f2),
                                          sol)
        worst_null = max(worst_null, abs(null))
    print(f"max two-path gap = {worst_pair:.3e} (tol 1e-10), "
          f"max same-branch bracket = {worst_null:.3e} (tol 1e-12)")
    assert worst_pair <= 1e-10
    assert worst_null <= 1e-12


def test_06_solution_space_symplectic_form(lat, sol):
    rng = np.random.default_rng(17)
    d1 = random_solution(lat, rng)
    d2 = random_solution(lat, rng)
    quad = omega_sigma(sol, d1, d2, 0.0)
    mode = omega_mode_form(lat, d1, d2)
    path_gap = abs(complex(quad) - complex(mode))
    t_drift = max(abs(complex(omega_sigma(sol, d1, d2, t)) - complex(quad))
                  for t in (1.3, 2.6))
    def pointwise(t):
        frame = graph_frame(sol, t)
        return omega_sigma_pointwise(lat, frame, *(
            deformation_fields(frame[0], d) for d in (d1, d2)))

    pointwise_gap = max(abs(complex(pointwise(t))
                            - complex(omega_sigma(sol, d1, d2, t)))
                        for t in (0.0, 1.3, 2.6))
    fds = {lam: fd_delta_theta(sol, d1, d2, lam, 0.0) for lam in (0.0, 0.5, 1.0)}
    lam_drift = max(abs(fds[a] - fds[b]) for a in fds for b in fds)
    fd_gap = max(abs(v - complex(quad)) for v in fds.values())
    _, ratio = gram_matrix(lat)
    print(f"path gap = {path_gap:.3e} (1e-10), pointwise gap = "
          f"{pointwise_gap:.3e} (1e-10), t drift = {t_drift:.3e} (1e-12), "
          f"gauge drift = {lam_drift:.3e} (1e-12), fd gap = {fd_gap:.3e} "
          f"(1e-10), gram ratio = {ratio:.3e} (floor 1e-8)")
    assert path_gap <= 1e-10
    assert pointwise_gap <= 1e-10
    assert t_drift <= 1e-12
    assert lam_drift <= 1e-12
    assert fd_gap <= 1e-10
    assert ratio > 1e-8


def test_07_boundary_term_difference_is_action_variation(lat):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = random_solution(lat, rng)
        delta = random_solution(lat, rng)
        lhs, rhs = theta_difference_vs_action(s, delta, 1.0, 0.2, 1.1,
                                              n_t=257)
        worst = max(worst, abs(complex(lhs) - complex(rhs)))
    print(f"max |Theta difference - dS| = {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_08_bracket_coincides_with_omega_on_all_pairs(lat, sol):
    rng = np.random.default_rng(29)
    f, g = _pair(lat, rng)
    probe = random_solution(lat, rng, real_flag=False)
    forms = [probe, generator_alpha_f(lat, f),
             generator_alpha_star_g(lat, g), Pmu(0), Pmu(1)]
    frame = graph_frame(sol, 0.0)
    fields = [deformation_fields(frame[0], hamiltonian_deformation(F, sol))
              for F in forms]
    worst = 0.0
    for F, f_fields in zip(forms, fields):
        for G, g_fields in zip(forms, fields):
            a = complex(omega_bracket_integral(F, G, sol, 0.0))
            b = complex(classical_bracket_integral(F, G, sol, 0.0))
            c = complex(omega_sigma_pointwise(lat, frame, f_fields,
                                              g_fields))
            worst = max(worst, abs(a - b), abs(c - b))
    print(f"max |Omega(Xi_F, Xi_G) - integral of bracket| = {worst:.3e} "
          f"(tol 1e-10) over {len(forms) ** 2} pairs, closed and pointwise")
    assert worst <= 1e-10


def test_09_noether_current_conserved(lat, sol):
    probe = random_solution(lat, np.random.default_rng(3), real_flag=False)
    res = {}
    for dt in (0.1, 0.05, 0.025):
        n = int(round(0.4 / dt))
        res[dt] = noether_divergence(probe, sol,
                                     0.5 + dt * np.arange(n + 1))
    order = 0.5 * (np.log2(res[0.1] / res[0.05])
                   + np.log2(res[0.05] / res[0.025]))
    drift = max(abs(slice_integral(probe, sol, t)
                    - slice_integral(probe, sol, 0.0))
                for t in (1.0, 2.5, 7.0))
    print(f"divergence order = {order:.4f} (target 2.0 +- 0.15), "
          f"slice-integral drift = {drift:.3e} (tol 1e-12)")
    assert abs(order - 2.0) <= 0.15
    assert drift <= 1e-12


def test_10_operator_commutation_relations(lat):
    rng = np.random.default_rng(41)
    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    dyadic = (rng.integers(-8, 9, lat.n_modes)
              + 1j * rng.integers(-8, 9, lat.n_modes)) / 16.0
    dyadic2 = (rng.integers(-8, 9, lat.n_modes)
               + 1j * rng.integers(-8, 9, lat.n_modes)) / 16.0
    scalar = lat.hbar * np.sum(lat.w * f * g)
    worst_ccr = 0.0
    aa_fail = ss_fail = 0
    monos = pq.monomial_rows(lat, 4)
    # Each block tags its monomials 0..255; a tag's terms are bitwise those
    # of that monomial alone (test_tagged_block_matches_single_monomials).
    for start in range(0, len(monos), 256):
        block = pq.monomial_block(lat, monos[start:start + 256])
        comm = pq.commutator(partial(pq.op_a, f), partial(pq.op_a_star, g),
                             block)
        defect = pq.state_sub(comm, pq.state_scale(scalar, block))
        worst_ccr = max(worst_ccr, pq.max_abs_diff(defect))
        # commutator prunes exact zeros, so a tag left is a nonzero state
        aa_fail += len(np.unique(pq.commutator(
            partial(pq.op_a, dyadic), partial(pq.op_a, dyadic2), block).tag))
        ss_fail += len(np.unique(pq.commutator(
            partial(pq.op_a_star, f), partial(pq.op_a_star, g), block).tag))
    print(f"max CCR defect over {len(monos)} monomials = {worst_ccr:.3e} "
          f"(tol 1e-12); nonzero [a,a] states = {aa_fail}, "
          f"nonzero [a*,a*] states = {ss_fail} (must be 0)")
    assert worst_ccr <= 1e-12
    assert aa_fail == 0
    assert ss_fail == 0


def test_11_vacuum_energy_vanishes(lat):
    zeta0 = np.array([1.0, 0.0])
    rng = np.random.default_rng(43)
    zeta_r = rng.standard_normal(2)
    vac_residual = pq.max_abs_diff(pq.op_p(zeta0, pq.vacuum(lat)))
    worst_eig, min_energy = 0.0, np.inf
    for alpha in pq.row_alphas(lat, pq.monomial_rows(lat, 3)):
        state = pq.monomial(lat, list(alpha))
        for zeta in (zeta0, zeta_r):
            out = pq.op_p(zeta, state)
            eig = pq.p_eigenvalue(lat, alpha, zeta)
            got = out.coeffs.get(alpha, 0.0)
            worst_eig = max(worst_eig, abs(got - eig))
        min_energy = min(min_energy, -pq.p_eigenvalue(lat, alpha, zeta0))
    print(f"vacuum residual = {vac_residual} (must be 0.0); max eigenvalue "
          f"defect = {worst_eig:.3e} (tol 1e-12); min energy = "
          f"{min_energy:.3e} (floor 0)")
    assert vac_residual == 0.0
    assert worst_eig <= 1e-12
    assert min_energy >= 0.0


def test_12_lowering_adjoint_to_raising(lat):
    rng = np.random.default_rng(47)
    pool = pq.row_alphas(lat, pq.monomial_rows(lat, 4))

    def rand_state():
        s = pq.vacuum(lat)
        for _ in range(6):
            alpha = pool[rng.integers(len(pool))]
            c = complex(rng.standard_normal(), rng.standard_normal())
            s = pq.state_sum(s, pq.state_scale(
                c, pq.monomial(lat, list(alpha))))
        norm = np.sqrt(abs(pq.inner_product(s, s)))
        return pq.state_scale(1.0 / norm, s)

    worst = 0.0
    for _ in range(5):
        f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
        psi1, psi2 = rand_state(), rand_state()
        lhs = pq.inner_product(pq.op_a(f, psi1), psi2)
        rhs = pq.inner_product(psi1, pq.op_a_star(np.conj(f), psi2))
        worst = max(worst, abs(lhs - rhs))
    print(f"max adjointness defect on normalized states = {worst:.3e} "
          f"(tol 1e-12)")
    assert worst <= 1e-12


def test_13_cli_verify_all_deterministic(tmp_path):
    outs = []
    t0 = time.perf_counter()
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "covkg.cli", "verify", "--suite", "all",
             "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    data = json.loads(outs[0])
    print(f"two full verify runs in {elapsed:.1f} s (limit 60 s per run), "
          f"{len(data['checks'])} checks, byte-identical = {outs[0] == outs[1]}")
    assert elapsed < 120.0
    assert data["all_pass"] is True
    assert outs[0] == outs[1]