"""Observable (n-1)-forms: slice integrals, brackets, ladder functionals.

A test solution Phi defines the linear observable

    F_Phi = (p^mu Phi - phi eta^{mu nu} d_nu Phi) beta_mu,

whose slice integral on a graph is (L/N)^d sum_j (p^0 Phi - phi d_t Phi):
the bracket pairing {F_Phi, F_Psi} of the sign table below with the
solution as Phi and the generator as Psi, one kernel for both.  A linear
observable is its generator, a ``Solution``; ``Pmu`` are the translation
currents.  The ladder forms are F_Phi of explicit generators, built by
``generator_alpha_f`` and ``generator_alpha_star_g``; the single-mode ones
are those at f = g = e_k / w_k (``generator_alpha_k`` and its sibling).  A
coefficient array of shape (..., n_modes), or an array of mode indices,
gives a generator batch:

    alpha_f      <->  Phi_f  with ustar_k = i f_k   (u = 0)
    alpha*_g     <->  Phi*_g with u_k     = -i g_k  (ustar = 0)
    alpha_k      <->  Phi =  i exp(+i k.x) / (2 pi)^{d/2}
    alpha*_k     <->  Phi = -i exp(-i k.x) / (2 pi)^{d/2}

so that a_k = u_k and a*_k = u*_k at every slice time.

Sign table, fixed by requiring Omega(Xi_F, Xi_G) = integral of {F, G}:

    {F_Phi, F_Psi}   -> integral (d_t Phi Psi - Phi d_t Psi)
    {a_f, a*_g}      -> i sum_k w_k f_k g_k
    {a_f, a_f'} = {a*_g, a*_g'} = 0
    {P_mu, F_Phi}    -> F_{d_mu Phi},  with Xi_{P_mu}: delta u_k = i k_mu u_k
                        (k_0 = k^0, k_i = -k^i lowered components)

and the translation invariants are nonnegative with the convention
energy = -integral P_0^{(lambda)}, momentum_i = -integral P_i^{(lambda)}.
A 1-D array of times gives each slice integral a last axis, one of lambdas
in ``Pmu`` a first one, each value bit for bit its own call (a scalar time,
a Python scalar); ``pmu_bracket_identity`` takes a 1-D array of mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModeLattice, _cmul, grid_integral
from .multisymplectic import _uniform_dt
from .phase_space import (omega_sigma, omega_sigma_pointwise,
                          translation_deformation)
from .solution import (
    _BLOCK_CELLS,
    PolynomialTimeHistory,
    Solution,
    _blocks,
    _maybe_real,
    derivative_solution,
    fields_and_orders,
    stack_solutions,
    synthesize,
)


@dataclass(frozen=True, eq=False)
class Pmu:
    mu: int
    lam: float = 1.0


def generator_alpha_k(lat: ModeLattice, k) -> Solution:
    """The solution i exp(+i k.x)/(2 pi)^{d/2} generating a_k: the smeared
    generator at f = e_k / w_k.

    An array of mode indices gives a batch of generators, one per index.
    """
    return generator_alpha_f(lat, np.eye(lat.n_modes)[k] / lat.w)


def generator_alpha_star_k(lat: ModeLattice, k) -> Solution:
    """The solution -i exp(-i k.x)/(2 pi)^{d/2} generating a*_k: the
    smeared generator at g = e_k / w_k.

    An array of mode indices gives a batch of generators, one per index.
    """
    return generator_alpha_star_g(lat, np.eye(lat.n_modes)[k] / lat.w)


def generator_alpha_f(lat: ModeLattice, f) -> Solution:
    f = np.asarray(f, dtype=complex)
    if f.shape[-1:] != (lat.n_modes,):
        raise ValueError("f must have one component per mode")
    return Solution(lat, np.zeros_like(f), 1j * f, False)


def generator_alpha_star_g(lat: ModeLattice, g) -> Solution:
    g = np.asarray(g, dtype=complex)
    if g.shape[-1:] != (lat.n_modes,):
        raise ValueError("g must have one component per mode")
    return Solution(lat, -1j * g, np.zeros_like(g), False)


def slice_integral(form, sol: Solution, t=0.0):
    """Integral of the observable form over the slice t = const of the graph.

    A generator ``Solution`` integrates to ``bracket_slice_integral(sol,
    gen, t)``; a batch of generators gives one integral per generator.
    """
    if isinstance(form, Pmu):
        return _pmu_slice_integral(form, sol, t)
    if isinstance(form, Solution):
        return bracket_slice_integral(sol, form, t)
    raise TypeError(f"not an observable form: {form!r}")


def _pmu_slice_integral(form: Pmu, sol: Solution, t):
    lat = sol.lat
    mu, lam = form.mu, form.lam
    if not 0 <= mu <= lat.d:
        raise ValueError(f"mu must lie in 0..{lat.d}")
    orders = [(0, mu)] if mu else [(a, a) for a in range(1, lat.d + 1)]
    sd, dd = fields_and_orders(sol, t, orders)
    dphi = np.moveaxis(sd.dphi, -lat.d - 1, 0)  # before any time axis
    lam = np.reshape(lam, np.shape(lam) + (1,) * sd.phi.ndim)
    if mu == 0:
        # e + lam p^a d_a phi - (1 - lam) phi d_a p^a, with p^a = -d_a phi
        dens = (sd.e - lam * np.sum(dphi[1:] ** 2, axis=0)
                + (1.0 - lam) * sd.phi * sum(dd))
    else:  # p^0 = d_0 phi
        dens = -lam * dphi[0] * dphi[mu] + (1.0 - lam) * sd.phi * dd[0]
    return _maybe_real(grid_integral(lat, dens), sol)


def energy_integral(sol: Solution, t=0.0, lam: float = 1.0):
    """Total energy -integral P_0^{(lambda)}; nonnegative on real solutions."""
    return -np.real(slice_integral(Pmu(0, lam), sol, t))


def momentum_integral(sol: Solution, i: int, t=0.0, lam: float = 1.0):
    """Spatial momentum -integral P_i^{(lambda)}."""
    if not 1 <= i <= sol.lat.d:
        raise ValueError(f"i must lie in 1..{sol.lat.d}")
    return -np.real(slice_integral(Pmu(i, lam), sol, t))


def a_k(sol: Solution, k: int | np.ndarray) -> complex | np.ndarray:
    """Annihilation functional a_k = integral alpha_k; equals u_k.

    An array of mode indices gives the array of a_k from one slice
    quadrature over the generator batch.
    """
    return bracket_slice_integral(sol, generator_alpha_k(sol.lat, k))


def a_star_k(sol: Solution, k: int | np.ndarray) -> complex | np.ndarray:
    """Creation functional a*_k = integral alpha*_k; equals u*_k.

    An array of mode indices gives the array of a*_k, as ``a_k`` does.
    """
    return bracket_slice_integral(sol, generator_alpha_star_k(sol.lat, k))


def bracket_slice_integral(phi: Solution, psi: Solution, t=0.0):
    """Grid quadrature of integral (d_t Phi Psi - Phi d_t Psi) at time t.

    Evaluated termwise with commutative products so that swapping the
    arguments negates every floating-point intermediate: antisymmetry
    holds exactly.  A ``psi`` with a batch axis gives one integral per
    member and a 1-D array of times one per time (a last axis), each equal
    bit for bit to its own integral; the batch is synthesized in blocks
    (``solution._blocks``) of at most ``_BLOCK_CELLS`` grid values.
    """
    lat = phi.lat
    if np.ndim(phi.u) != 1:
        raise ValueError("only the second solution may carry a batch axis")
    a, da = synthesize(phi, t, [(), (0,)])
    u, ustar = (np.reshape(c, (-1, lat.n_modes)) for c in (psi.u, psi.ustar))
    totals = np.empty((len(u),) + np.shape(t), dtype=complex)
    for part in _blocks(len(u), a.size, _BLOCK_CELLS):
        b, db = synthesize(Solution(lat, u[part], ustar[part], psi.real_flag),
                           t, [(), (0,)])
        totals[part] = grid_integral(lat, _cmul(da, b) - _cmul(a, db))
    return _maybe_real(totals.reshape(np.shape(psi.u)[:-1] + np.shape(t)),
                       phi, psi)


def bracket_regularized(lat: ModeLattice, f, g) -> complex:
    """{a_f, a*_g} = i sum_k w_k f_k g_k in closed form.

    The slice bracket of the smeared generators Phi_f, Phi*_g must give the
    same number; the observables suite records that comparison.
    """
    f, g = (np.asarray(v, dtype=complex) for v in (f, g))
    return complex(1j * np.sum(lat.w * f * g))


def _noether_terms(gen, lat: ModeLattice, t):
    """(value, d_t value, [d_a value for a = 1..d], spatial laplacian) of the
    current generator at t."""
    d = lat.d
    if isinstance(gen, Solution):
        grids = synthesize(gen, t, [(), (0,)] + [(a,) for a in range(1, d + 1)]
                           + [(a, a) for a in range(1, d + 1)])
        return grids[0], grids[1], grids[2:d + 2], sum(grids[d + 2:])
    if isinstance(gen, PolynomialTimeHistory):
        val, dval, _ = gen.at(t)
        return val, dval, [np.zeros_like(val)] * d, np.zeros_like(val)
    raise TypeError(f"unsupported current generator: {gen!r}")


def noether_divergence(gen, sol: Solution, t_grid) -> float:
    """Max |d_mu J^mu| of the current J^mu = p^mu Phi - phi eta^{mu nu} d_nu Phi.

    Spatial part by the product rule with exact mode derivatives; time part
    by centered differences over the uniform t_grid (order Delta t^2).
    """
    lat = sol.lat
    dt = _uniform_dt(t_grid)
    sd, sol_aa = fields_and_orders(sol, t_grid,
                                   [(a, a) for a in range(1, lat.d + 1)])
    val, dval, dgen, lap_gen = _noether_terms(gen, lat, t_grid)
    j0 = sd.p[:, 0] * val - sd.phi * dval
    div_space = np.zeros(sd.phi.shape, dtype=complex)
    for a in range(1, lat.d + 1):
        # d_a (p^a Phi + phi d_a Phi) expanded termwise
        dgen_a = dgen[a - 1]
        div_space += (-sol_aa[a - 1] * val
                      + sd.p[:, a] * dgen_a + sd.dphi[:, a] * dgen_a)
    div_space += sd.phi * lap_gen
    resid = (j0[2:] - j0[:-2]) / (2.0 * dt) + div_space[1:-1]
    return float(np.max(np.abs(resid)))


def hamiltonian_deformation(form, sol: Solution) -> Solution:
    """The phase-space vector field Xi_F of an observable, as a Solution."""
    if isinstance(form, Pmu):
        return translation_deformation(sol, form.mu)
    if isinstance(form, Solution):
        return form
    raise TypeError(f"no Hamiltonian deformation for {form!r}")


def classical_bracket_integral(form1, form2, sol: Solution, t: float = 0.0):
    """Slice integral of {F, G} from the closed bracket calculus.

    Pairs of linear observables use the slice bracket of their generators;
    {P_mu, F_Phi} = F_{d_mu Phi}; translations commute among themselves.
    """
    linear1, linear2 = (isinstance(f, Solution) for f in (form1, form2))
    if linear1 and linear2:
        return bracket_slice_integral(form1, form2, t)
    if isinstance(form1, Pmu) and linear2:
        return slice_integral(derivative_solution(form2, form1.mu), sol, t)
    if linear1 and isinstance(form2, Pmu):
        return -slice_integral(derivative_solution(form1, form2.mu), sol, t)
    if isinstance(form1, Pmu) and isinstance(form2, Pmu):
        return 0.0
    raise TypeError(f"no bracket rule for {form1!r}, {form2!r}")


def omega_bracket_integral(form1, form2, sol: Solution, t: float = 0.0):
    """Slice integral of {F, G} via Omega on the Hamiltonian deformations."""
    d1 = hamiltonian_deformation(form1, sol)
    d2 = hamiltonian_deformation(form2, sol)
    return omega_sigma(sol, d1, d2, t)


def pmu_bracket_identity(mus, phi: Solution, sol: Solution, t: float = 0.0):
    """{P_mu, F_Phi} three ways, as complex arrays over the 1-D array
    ``mus``: Omega(Xi_{P_mu}, Phi) by the closed slice reduction and by the
    pointwise form, each one call on the stacked translations, and the
    integral of F_{d_mu Phi}, one slice integral; the entries must agree."""
    if np.ndim(mus) != 1:
        raise ValueError("mus must be a 1-D array of translation indices")
    xis = stack_solutions([translation_deformation(sol, mu) for mu in mus])
    dmu_phi = stack_solutions([derivative_solution(phi, mu) for mu in mus])
    return tuple(np.asarray(v, dtype=complex) for v in (
        omega_sigma(sol, xis, phi, t), omega_sigma_pointwise(sol, xis, phi, t),
        slice_integral(dmu_phi, sol, t)))
