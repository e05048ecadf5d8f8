"""The covariant phase space: slice 1-form Theta, symplectic form Omega.

Deformations of a solution graph are themselves Solutions (for the linear
Klein-Gordon equation the Jacobi equation coincides with the field
equation).  A deformation enters the geometry through its vertical
representative: delta phi comes from the deformation's own field, while

    delta p^mu = eta^{mu nu} d_nu delta phi
    delta e    = -eta^{mu nu} d_mu phi d_nu delta phi - m^2 phi delta phi

(the last line linearizes the on-shell constraint H = 0 along the base).

Sign conventions, fixed once and verified against the bracket calculus:

    Theta^Sigma(delta)     = integral ( lambda p^0 delta phi
                                        - (1 - lambda) phi delta p^0 )
    Omega(delta1, delta2)  = delta1 Theta(delta2) - delta2 Theta(delta1)
                           = integral ( delta1 p^0 delta2 phi
                                        - delta2 p^0 delta1 phi )

With these choices Omega(Xi_F, Xi_G) equals the slice integral of the
observable bracket {F, G} for every implemented observable pair, and in
mode coordinates Omega = i sum_k w_k (delta1 u*_k delta2 u_k -
delta1 u_k delta2 u*_k); two real deformations concentrated on one mode k
give exactly 2 w_k Im(delta1 u_k conj(delta2 u_k)).
"""

from __future__ import annotations

import numpy as np

from .lattice import ModeLattice
from .multisymplectic import (
    MPoint,
    MTangent,
    action_between_slices,
    graph_frame,
    graph_tangent,
    omega_eval,
    theta_eval,
    vertical_tangent,
)
from .solution import (
    Solution,
    _maybe_real,
    derivative_solution,
    evaluate_fields,
    synthesize,
)


def _add_tangent(a: MTangent, b: MTangent, cb: complex) -> MTangent:
    return MTangent(dx=a.dx + cb * b.dx, dphi=a.dphi + cb * b.dphi,
                    de=a.de + cb * b.de, dp=a.dp + cb * b.dp)


def deformation_fields(sol: Solution, delta: Solution, t: float):
    """Vertical components (delta phi, delta p^mu, delta e) on the slice."""
    lat = sol.lat
    base = evaluate_fields(sol, t)
    dphi = np.stack([synthesize(delta, t, (mu,)) for mu in range(lat.d + 1)])
    val = synthesize(delta, t)
    eta = np.array([1.0] + [-1.0] * lat.d)
    dp = np.einsum("m,m...->m...", eta, dphi)
    quad = base.dphi[0] * dphi[0] - np.sum(base.dphi[1:] * dphi[1:], axis=0)
    de = -quad - lat.m ** 2 * base.phi * val
    return val, dp, de


def theta_sigma(sol: Solution, delta: Solution, lam: float, t: float):
    """Slice 1-form Theta^Sigma_lambda evaluated on one deformation."""
    lat = sol.lat
    base = evaluate_fields(sol, t)
    dphi_val = synthesize(delta, t)
    dp0 = synthesize(delta, t, (0,))
    integrand = lam * base.p[0] * dphi_val - (1.0 - lam) * base.phi * dp0
    return _maybe_real(lat.cell_volume * np.sum(integrand), sol, delta)


def theta_sigma_pointwise(sol: Solution, delta: Solution, lam: float, t: float,
                          shift=None):
    """Theta^Sigma via pointwise theta_eval on (xi, X_1..X_d).

    ``shift = (c, mu)`` adds the tangential component c * X_mu to the
    representative xi, probing representative independence.
    """
    lat = sol.lat
    frame = graph_frame(sol, t)
    sd = frame.slice
    val, dp, de = deformation_fields(sol, delta, t)
    total = 0.0j
    for j in np.ndindex(lat.grid_shape):
        xi = vertical_tangent(lat.d + 1, dphi=val[j], de=de[j],
                              dp=np.array([dp[nu][j] for nu in range(lat.d + 1)]))
        if shift is not None:
            c, mu = shift
            cj = complex(c[j]) if np.ndim(c) else complex(c)
            xi = _add_tangent(xi, graph_tangent(frame, mu, j), cj)
        point = MPoint(x=np.zeros(lat.d + 1), phi=sd.phi[j], e=sd.e[j],
                       p=np.array([sd.p[nu][j] for nu in range(lat.d + 1)]))
        spatial = [graph_tangent(frame, a, j) for a in range(1, lat.d + 1)]
        total += theta_eval(lam, point, [xi] + spatial)
    return complex(lat.cell_volume * total)


def omega_mode_form(lat: ModeLattice, d1: Solution, d2: Solution):
    """Exact mode reduction i sum_k w_k (d1u*_k d2u_k - d1u_k d2u*_k)."""
    return 1j * np.sum(lat.w * (d1.ustar * d2.u - d1.u * d2.ustar))


def omega_sigma_pointwise(sol: Solution, d1: Solution, d2: Solution, t: float,
                          shift1=None, shift2=None):
    """Omega via pointwise omega_eval on (xi1, xi2, X_1..X_d).

    Optional shifts add tangential components c * X_mu to either
    representative (they must not change the value).
    """
    lat = sol.lat
    frame = graph_frame(sol, t)
    v1, p1, e1 = deformation_fields(sol, d1, t)
    v2, p2, e2 = deformation_fields(sol, d2, t)
    total = 0.0j
    for j in np.ndindex(lat.grid_shape):
        def vert(v, p, e):
            return vertical_tangent(
                lat.d + 1, dphi=v[j], de=e[j],
                dp=np.array([p[nu][j] for nu in range(lat.d + 1)]))
        xi1, xi2 = vert(v1, p1, e1), vert(v2, p2, e2)
        if shift1 is not None:
            c, mu = shift1
            cj = complex(c[j]) if np.ndim(c) else complex(c)
            xi1 = _add_tangent(xi1, graph_tangent(frame, mu, j), cj)
        if shift2 is not None:
            c, mu = shift2
            cj = complex(c[j]) if np.ndim(c) else complex(c)
            xi2 = _add_tangent(xi2, graph_tangent(frame, mu, j), cj)
        spatial = [graph_tangent(frame, a, j) for a in range(1, lat.d + 1)]
        total += omega_eval([xi1, xi2] + spatial)
    return complex(lat.cell_volume * total)


def omega_sigma(sol: Solution, d1: Solution, d2: Solution, t: float = 0.0,
                check: bool = True):
    """Symplectic pairing of two Jacobi deformations.

    Path (a) is the closed-form slice reduction; path (b) re-evaluates the
    multisymplectic form pointwise on full vertical tangents wedged with
    the slice directions.  Their disagreement beyond 1e-10 signals an
    internal inconsistency and raises.
    """
    lat = sol.lat
    d1p0 = synthesize(d1, t, (0,))
    d2p0 = synthesize(d2, t, (0,))
    d1v = synthesize(d1, t)
    d2v = synthesize(d2, t)
    path_a = lat.cell_volume * np.sum(d1p0 * d2v - d2p0 * d1v)
    if check:
        path_b = omega_sigma_pointwise(sol, d1, d2, t)
        if abs(complex(path_a) - path_b) > 1e-10:
            raise RuntimeError(
                "omega_sigma internal check failed: slice reduction "
                f"{complex(path_a)} vs pointwise form {path_b}")
    return _maybe_real(path_a, sol, d1, d2)


def fd_delta_theta(sol: Solution, d1: Solution, d2: Solution, lam: float,
                   t: float, eps: float = 1e-4):
    """delta1 Theta(delta2) - delta2 Theta(delta1) by central differences.

    Theta is bilinear in (base, deformation), so the central difference in
    mode coordinates is exact up to roundoff and must reproduce omega_sigma
    for every lambda.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")

    def d_along(da, db):
        plus = theta_sigma(sol + eps * da, db, lam, t)
        minus = theta_sigma(sol - eps * da, db, lam, t)
        return (plus - minus) / (2.0 * eps)

    return d_along(d1, d2) - d_along(d2, d1)


def gram_matrix(lat: ModeLattice):
    """Omega on the real/imaginary basis of mode deformations.

    Returns (G, min_ratio): the 2M x 2M antisymmetric Gram matrix and the
    smallest |eigenvalue| divided by the largest, the nondegeneracy
    margin of the truncated phase space.
    """
    mm = lat.n_modes
    basis_u = []
    basis_us = []
    for k in range(mm):
        ek = np.zeros(mm, dtype=complex)
        ek[k] = 1.0
        basis_u.append(ek)
        basis_us.append(ek.copy())          # real direction: du = dus = e_k
        basis_u.append(1j * ek)
        basis_us.append(-1j * ek)           # imaginary direction
    g = np.empty((2 * mm, 2 * mm))
    for a in range(2 * mm):
        for b in range(2 * mm):
            val = 1j * np.sum(lat.w * (basis_us[a] * basis_u[b]
                                       - basis_u[a] * basis_us[b]))
            g[a, b] = val.real
    eig = np.abs(np.linalg.eigvals(g))
    return g, float(np.min(eig) / np.max(eig))


def theta_difference_vs_action(sol: Solution, delta: Solution, lam: float,
                               t1: float, t2: float, eps: float = 1e-3,
                               n_t: int = 257):
    """(Theta^{Sigma2} - Theta^{Sigma1}, directional action derivative).

    The action is quadratic in mode coefficients, so the central difference
    along the deformation is exact and the pair must agree to the time
    quadrature tolerance.
    """
    lhs = theta_sigma(sol, delta, lam, t2) - theta_sigma(sol, delta, lam, t1)
    plus = action_between_slices(sol + eps * delta, lam, t1, t2, n_t)
    minus = action_between_slices(sol - eps * delta, lam, t1, t2, n_t)
    rhs = (plus - minus) / (2.0 * eps)
    return lhs, rhs


def translation_deformation(sol: Solution, mu: int) -> Solution:
    """Deformation generated by the spacetime translation d/dx^mu.

    In mode coordinates delta u_k = i (k . zeta) u_k with (k . zeta) the
    Minkowski pairing, i.e. the lowered component k_mu: minus d_mu Phi.
    """
    return -1.0 * derivative_solution(sol, mu)
