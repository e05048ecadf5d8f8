"""Verification suites: each suite returns a list of check records.

Randomized checks draw from a generator seeded per suite from the config
seed, so reports for a fixed config and seed are reproducible.  Every
check's tolerance comes from ``RunConfig``: an override, or the default in
``reporting.TOLERANCES``.  The two energy non-negativity checks are the
exception: their threshold is a fixed 0.0.  A prequant check of states reads
the largest |amplitude| of their difference (``pq.max_abs_diff``).
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from math import comb

import numpy as np

from . import multisymplectic as ms
from . import observables as obs
from . import phase_space as ps
from . import prequant as pq
from .lattice import _modulus
from .reporting import RunConfig, lower_bound_check
from .solution import (
    DetunedHistory,
    PolynomialTimeHistory,
    SolutionHistory,
    _blocks,
    from_modes,
    kg_residual,
    random_solution,
    stack_solutions,
    synthesize,
)

_SUITE_TAG = {"msymp": 1, "observables": 2, "phase-space": 3, "prequant": 4}
# Term budget of the batched prequant checks: a block holds at least one
# and floor(_BLOCK_TERMS / fan_out) monomials, fan_out being the most terms
# one monomial reaches, once per member of a coefficient family (two members
# in the exact-zero checks).  Chosen by peak memory, under 130 traced bytes
# per term at n_max = 11; keys pack for one np.sort but in config C's [a, a].
_BLOCK_TERMS = 16384


def _rng(cfg: RunConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _SUITE_TAG[suite]])


def _order_of_convergence(residuals) -> float:
    """Mean Richardson order from residuals at dt, dt/2, dt/4."""
    r = np.asarray(residuals, dtype=float)
    rates = np.log2(r[:-1] / r[1:])
    return float(np.mean(rates))


def _drift(values) -> float:
    """Max |later - first| over the last (time) axis (``lattice._modulus``)."""
    return float(np.max(_modulus(values[..., 1:] - values[..., :1])))


def _grids_for_dts(t_span: float, dts):
    for dt in dts:
        n = int(round(t_span / dt)) + 1
        yield np.linspace(0.0, t_span, n)


def suite_msymp(cfg: RunConfig) -> list:
    lat = cfg.lattice()
    rng = _rng(cfg, "msymp")
    sol = random_solution(lat, rng)
    out = []

    out.append(cfg.check("msymp.kg_residual", kg_residual(sol), 0.0))

    residuals = [ms.hamilton_residual(sol, grid)
                 for grid in _grids_for_dts(0.4, (0.1, 0.05, 0.025))]
    out.append(cfg.check("msymp.hamilton_order",
                         _order_of_convergence(residuals), 2.0))

    # Four random points and coordinate-vector picks per lambda, drawn in
    # turn, then one dtheta_fd and one omega_eval over all 12 as cells.
    draws = []
    for lam in (0.0, 0.37, 1.0):
        for _ in range(4):
            phi, e = rng.standard_normal(), rng.standard_normal()
            p = rng.standard_normal(lat.d + 1)
            picks = rng.choice(2 * lat.d + 4, size=lat.d + 2, replace=False)
            draws.append((lam, phi, e, p, picks))
    lams, phis, es, moms, picks = (np.array(c) for c in zip(*draws))
    point = ms.coords(np.zeros((lat.d + 1, len(draws))), phis, es, moms.T)
    eye = np.eye(2 * lat.d + 4)
    vectors = [eye[:, col] for col in picks.T]
    diffs = np.abs(ms.dtheta_fd(lams, point, vectors) - ms.omega_eval(vectors))
    out.append(cfg.check("msymp.dtheta_vs_omega", float(np.max(diffs)), 0.0))

    out.append(cfg.check("msymp.hamilton2_pointwise",
                         ms.hamilton_pointwise_residual(sol, 0.3), 0.0))

    # q[row, c] = omega(e_row, e_c0, .., e_cd) for every (d+1)-subset c
    combos = np.array(list(combinations(range(len(eye)), lat.d + 1))).T
    q = ms.omega_eval([eye[:, :, None]] + [eye[:, None, c] for c in combos])
    sigma_min = float(np.linalg.svd(q, compute_uv=False)[-1])
    out.append(cfg.lower_bound("msymp.omega_nondegenerate", sigma_min))

    lams = (0.0, 0.5, 1.0)
    lag, acts = ms.lagrangian_and_actions(SolutionHistory(sol), lams, 0.0,
                                          1.0, 257)
    for lam, got in zip(lams, acts):
        out.append(cfg.check("msymp.action_lagrangian", got,
                             (2.0 * lam - 1.0) * lag, f"lam{lam:g}"))

    # The on-shell base and a detuned one, in one quadrature pass.
    var = random_solution(lat, rng)
    crit, crit_off = ms.action_criticality(
        [SolutionHistory(sol), DetunedHistory(sol, 0.5)], var, cfg.lam)
    out.append(cfg.check("msymp.criticality_onshell", crit, 0.0))
    out.append(cfg.lower_bound("msymp.criticality_offshell", crit_off))
    return out


def suite_observables(cfg: RunConfig) -> list:
    lat = cfg.lattice()
    rng = _rng(cfg, "observables")
    sol = random_solution(lat, rng)
    phi = random_solution(lat, rng, real_flag=False)
    psi = random_solution(lat, rng, real_flag=False)
    out = []

    modes = np.arange(lat.n_modes)
    a_t = obs.bracket_slice_integral(sol, obs.generator_alpha_k(lat, modes),
                                     np.array([0.0, 1.7]))
    a_vals = a_t[:, 0]
    astar_vals = obs.a_star_k(sol, modes)
    out.append(cfg.check("observables.a_k_equals_modes",
                         float(np.max(np.abs(a_vals - sol.u))), 0.0))
    out.append(cfg.check("observables.a_k_t_independent", _drift(a_t), 0.0))

    rebuilt = from_modes(lat, a_vals, astar_vals, real_flag=False)
    recon = float(np.max(np.abs(synthesize(rebuilt, 0.6)
                                - synthesize(sol, 0.6))))
    out.append(cfg.check("observables.field_reconstruction", recon, 0.0))

    ts = np.array([0.0, 1.0, 2.5, 7.0])
    out.append(cfg.check("observables.fphi_t_independent",
                         _drift(obs.slice_integral(phi, sol, ts)), 0.0))
    b_t = obs.bracket_slice_integral(phi, psi, ts)
    out.append(cfg.check("observables.bracket_t_independent", _drift(b_t),
                         0.0))

    out.append(cfg.check("observables.bracket_antisymmetry",
                         abs(b_t[0] + obs.bracket_slice_integral(psi, phi)),
                         0.0))

    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    closed = obs.bracket_regularized(lat, f, g)
    grid = obs.bracket_slice_integral(obs.generator_alpha_f(lat, f),
                                      obs.generator_alpha_star_g(lat, g))
    out.append(cfg.check("observables.bracket_two_path", closed, grid))

    aa = obs.bracket_slice_integral(obs.generator_alpha_f(lat, f),
                                    obs.generator_alpha_f(lat, g))
    out.append(cfg.check("observables.bracket_aa_zero", aa, 0.0))

    k0 = lat.mode_index(np.zeros(lat.d, dtype=int))
    e0 = np.zeros(lat.n_modes)
    e0[k0] = 1.0
    pinned = obs.bracket_slice_integral(obs.generator_alpha_f(lat, e0),
                                        obs.generator_alpha_star_g(lat, e0))
    out.append(cfg.check("observables.bracket_single_mode_pinned", pinned,
                         1j * lat.w[k0]))

    residuals = [obs.noether_divergence(phi, sol, grid)
                 for grid in _grids_for_dts(0.4, (0.1, 0.05, 0.025))]
    out.append(cfg.check("observables.noether_order",
                         _order_of_convergence(residuals), 2.0))

    probe = PolynomialTimeHistory(lat, [0.0, 1.0])
    bad = obs.noether_divergence(probe, sol, np.linspace(0.5, 1.5, 9))
    out.append(cfg.lower_bound("observables.noether_counterexample", bad))

    closed, pointwise, direct = obs.pmu_bracket_identity(range(lat.d + 1),
                                                         phi, sol)
    for mu in range(lat.d + 1):
        out.append(cfg.check("observables.pmu_identity", closed[mu],
                             direct[mu], f"mu{mu}"))
        out.append(cfg.check("observables.pmu_identity", pointwise[mu],
                             direct[mu], f"pointwise_mu{mu}"))
        p0, p1 = obs.slice_integral(obs.Pmu(mu, (0.0, 1.0)), sol, 0.4)
        out.append(cfg.check("observables.pmu_lambda_independent", p0, p1,
                             f"mu{mu}"))

    ts = np.array([0.0, 2.3])
    e0, e1 = obs.energy_integral(sol, ts, cfg.lam)
    out.append(lower_bound_check("observables.energy_nonnegative", e0, 0.0))
    out.append(cfg.check("observables.energy_conserved", e1, e0))
    for i in range(1, lat.d + 1):
        m0, m1 = obs.momentum_integral(sol, i, ts, cfg.lam)
        out.append(cfg.check("observables.momentum_conserved", m1, m0,
                             f"i{i}"))
    return out


def suite_phase_space(cfg: RunConfig) -> list:
    lat = cfg.lattice()
    rng = _rng(cfg, "phase-space")
    sol = random_solution(lat, rng)
    d1 = random_solution(lat, rng)
    d2 = random_solution(lat, rng)
    out = []

    omegas = ps.omega_sigma(sol, d1, d2, np.array([0.0, 1.3, 2.6]))
    path_a = omegas[0]
    path_b = ps.omega_sigma_pointwise(sol, d1, d2, 0.0)
    out.append(cfg.check("phase_space.omega_two_path", path_a, path_b))

    out.append(cfg.check("phase_space.omega_antisymmetry",
                         ps.omega_sigma(sol, d1, d1, 0.0), 0.0))

    out.append(cfg.check("phase_space.omega_t_independent", _drift(omegas),
                         0.0))

    out.append(cfg.check("phase_space.omega_mode_form", path_a,
                         ps.omega_mode_form(lat, d1, d2)))

    fd0, fd1 = ps.fd_delta_theta(sol, d1, d2, np.array([0.0, 1.0]), 0.0)
    out.append(cfg.check("phase_space.fd_lambda_independent", fd0, fd1))
    out.append(cfg.check("phase_space.fd_matches_omega", fd1, path_a))
    fd_half = ps.fd_delta_theta(sol, d1, d2, 1.0, 0.0, eps=5e-5)
    out.append(cfg.check("phase_space.fd_eps_independent", fd1, fd_half))

    _, ratio = ps.gram_matrix(lat)
    out.append(cfg.lower_bound("phase_space.gram_min_eig", ratio))

    lhs, rhs = ps.theta_difference_vs_action(sol, d1, cfg.lam, 0.0, 1.0)
    out.append(cfg.check("phase_space.theta_vs_action", lhs, rhs))

    mixed, closed, theta2 = ps.theta_sigma(
        sol, stack_solutions([0.3 * d1 + (-1.2) * d2, d1, d2]), cfg.lam,
        0.0).tolist()
    out.append(cfg.check("phase_space.theta_linearity",
                         mixed - 0.3 * closed + 1.2 * theta2, 0.0))

    pointwise = ps.theta_sigma_pointwise(sol, d1, cfg.lam, 0.0)
    out.append(cfg.check("phase_space.theta_pointwise_match", closed,
                         pointwise))

    # Representative shifts c X_mu: c = 0.7 along X_0, 0.8 along each X_a.
    mus = np.arange(lat.d + 1)
    cs = np.array([0.7] + [0.8] * lat.d)
    shifted = ps.theta_sigma_pointwise(sol, d1, cfg.lam, 0.0, shift=(cs, mus))
    out.append(cfg.check("phase_space.theta_rep_independent_spatial",
                         _drift(np.append(pointwise, shifted[1:])), 0.0))

    shifted_omega = ps.omega_sigma_pointwise(sol, d1, d2, 0.0, (0.8, mus),
                                             (-0.6, mus))
    out.append(cfg.check("phase_space.omega_rep_independent",
                         _drift(np.append(path_a, shifted_omega)), 0.0))

    phi0, dt0, dtt0 = synthesize(sol, 0.0, [(), (0,), (0, 0)])
    dens = ms.theta_pullback_density(lat, phi0, dt0, dtt0, cfg.lam)
    expected = complex(closed) + cs[0] * lat.cell_volume * np.sum(dens)
    out.append(cfg.check("phase_space.theta_time_shift_identity", shifted[0],
                         expected))
    return out


def _dyadic(rng: np.random.Generator, n: int) -> np.ndarray:
    re = rng.integers(-8, 9, size=n)
    im = rng.integers(-8, 9, size=n)
    return (re + 1j * im) / 16.0


def ladder_residual(lat, rows, fan_out: int, products) -> float:
    """Largest ``pq.max_abs_diff(*products(part, block))`` over the blocks of
    ``rows`` (``solution._blocks`` of ``fan_out`` terms a row), 0.0 for none
    and NaN if any is NaN.  A block holds the tagged states of its rows, at
    most ``_BLOCK_TERMS`` tags, over 230 times fewer than the 3,837,376 that
    int64 keys hold at config C's 343 modes (``pq._column_keys``)."""
    worst = 0.0
    for part in _blocks(len(rows), fan_out, _BLOCK_TERMS):
        # Held until the next block's replace them: freeing them per block
        # lets glibc trim the heap top, and the next block faults it back.
        block = pq.monomial_block(lat, rows[part])
        states = products(part, block)
        worst = np.maximum(worst, pq.max_abs_diff(*states))
    return float(worst)


def ladder_checks(cfg: RunConfig, rng: np.random.Generator, f, g, rows,
                  raise_rows) -> list:
    """The ccr, [a, a], [a*, a*] and vacuum records of the prequant suite:
    [a*_f, a*_g] on ``raise_rows``, the commutators with a lowering on
    ``rows``.  [op(c1), op(c2)] takes A B x and B A x as the members of the
    family op([c1, c2], op([c2, c1], x)) (``pq`` docstring), each with its
    own amplitudes.  [a, a] takes dyadic coefficients from ``rng`` and runs
    at hbar = 1, where hbar f_k alpha_k stays exact, so it vanishes bitwise."""
    lat = cfg.lattice()
    fd1, fd2 = _dyadic(rng, lat.n_modes), _dyadic(rng, lat.n_modes)
    scalar = lat.hbar * np.sum(lat.w * f * g)
    vac = pq.vacuum(lat)
    unit = dataclasses.replace(lat, hbar=1.0)  # op_a scales with hbar

    def ccr(part, x):
        return (pq.op_a(f, pq.op_a_star(g, x)),
                pq.op_a_star(g, pq.op_a(f, x)), pq.state_scale(scalar, x))

    def orders(op, c1, c2):
        def products(part, x):
            both = op(np.stack([c1, c2]), op(np.stack([c2, c1]), x))
            return [dataclasses.replace(both, amp=amp) for amp in both.amp]
        return products

    # a*_g makes up to n_modes terms, a_f lowers each at up to D+1 places.
    return [
        cfg.check("prequant.ccr_monomials", ladder_residual(
            lat, rows, lat.n_modes * (rows.shape[1] + 1), ccr), 0.0),
        cfg.check("prequant.aa_exact_zero", ladder_residual(
            unit, rows, 2 * rows.shape[1] ** 2, orders(pq.op_a, fd1, fd2)),
            0.0),
        cfg.check("prequant.astar_astar_exact_zero", ladder_residual(
            lat, raise_rows, 2 * lat.n_modes ** 2, orders(pq.op_a_star, f, g)),
            0.0),
        # P_time and a_f must both annihilate the vacuum exactly.
        cfg.check("prequant.vacuum_annihilated", float(np.maximum(
            pq.max_abs_diff(pq.op_p(np.eye(lat.d + 1)[0], vac)),
            pq.max_abs_diff(pq.op_a(f, vac)))), 0.0),
    ]


def _random_state(lat, rng, degree: int, rows=None):
    """Random amplitudes at unit norm on ``rows``, by default on six
    distinct random monomials of degree <= ``degree``."""
    if rows is None:
        n = comb(lat.n_modes + degree, degree)
        picks = np.sort(rng.choice(n, size=min(6, n), replace=False))
        rows = np.array([pq.monomial_at(lat, degree, int(i)) for i in picks])
    amp = rng.standard_normal((len(rows), 2)).view(complex).ravel()  # re, im
    state = pq.PolarizedState(lat, rows, amp, np.zeros(len(rows), np.intp))
    norm = np.sqrt(abs(pq.inner_product(state, state)))
    # a norm out of range would scale to zeros (vacuous passes) or inf
    return pq.state_scale(1.0 / norm if 0 < norm < np.inf else np.nan, state)


def suite_prequant(cfg: RunConfig) -> list:
    lat = cfg.lattice()
    rng = _rng(cfg, "prequant")
    mm = lat.n_modes
    f = rng.standard_normal(mm) + 1j * rng.standard_normal(mm)
    g = rng.standard_normal(mm) + 1j * rng.standard_normal(mm)
    rows = pq.monomial_rows(lat, 3)
    out = ladder_checks(cfg, rng, f, g, rows, pq.monomial_rows(lat, 2))
    zeta = np.eye(lat.d + 1)[0]

    # op_p's row sum against p_eigenvalues' exponent counts, per monomial.
    zetas = [zeta, np.concatenate(([0.7], rng.standard_normal(lat.d)))]
    eigs = [pq.p_eigenvalues(lat, rows, z) for z in zetas]
    worst = float(np.max([ladder_residual(lat, rows, 1, lambda part, x: (
        pq.op_p(z, x), dataclasses.replace(x, amp=eig[part])))
        for z, eig in zip(zetas, eigs)]))
    # min(-e) as -max(e): the vacuum's eigenvalue -0.0 gives +0.0.
    emin = -float(np.max(eigs[0], initial=-np.inf))
    out.append(cfg.check("prequant.p_eigenvalues", worst, 0.0))
    out.append(lower_bound_check("prequant.energy_nonnegative", emin, 0.0))

    state = _random_state(lat, rng, 3)
    gprime = pq.minkowski_kz(lat, zeta) * g
    rhs = pq.state_scale(-lat.hbar, pq.op_a_star(gprime, state))
    out.append(cfg.check("prequant.p_astar_commutator", pq.max_abs_diff(
        pq.op_p(zeta, pq.op_a_star(g, state)),
        pq.op_a_star(g, pq.op_p(zeta, state)), rhs), 0.0))

    s1 = _random_state(lat, rng, 4)
    lowered = pq.op_a(f, s1)  # s2 on its rows: both products pair terms
    s2 = _random_state(lat, rng, 3, lowered.idx)
    adj = abs(pq.inner_product(lowered, s2)
              - pq.inner_product(s1, pq.op_a_star(np.conj(f), s2)))
    out.append(cfg.check("prequant.adjointness", adj, 0.0))

    vac = pq.vacuum(lat)
    comm_vac = pq.commutator(lambda s: pq.op_a(f, s),
                             lambda s: pq.op_a_star(g, s), vac)
    scalar = pq.inner_product(vac, comm_vac)  # <0|0> = 1
    classical = obs.bracket_regularized(lat, f, g)
    out.append(cfg.check("prequant.cross_module_ccr", scalar,
                         (lat.hbar / 1j) * classical))
    return out


SUITES = {
    "msymp": suite_msymp,
    "observables": suite_observables,
    "phase-space": suite_phase_space,
    "prequant": suite_prequant,
}
