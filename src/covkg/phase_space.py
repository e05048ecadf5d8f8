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

Central differences evaluate each family in one pass: ``fd_delta_theta``
stacks its four shifted bases and their deformations into two solution
batches (``stack_solutions``) for one ``theta_sigma`` call, and
``theta_difference_vs_action`` takes Theta on both slices from one call and
the two shifted actions as one batch.  Each member's value equals, bit for
bit, that of its own call.
"""

from __future__ import annotations

import numpy as np

from .lattice import ModeLattice, _cmul, grid_integral
from .multisymplectic import (
    action_between_slices,
    coords,
    graph_frame,
    omega_eval,
    theta_eval,
)
from .solution import (
    SliceData,
    Solution,
    _maybe_real,
    derivative_solution,
    evaluate_fields,
    stack_solutions,
    synthesize,
)


def deformation_fields(base: SliceData, delta: Solution):
    """Vertical components (delta phi, delta p^mu, delta e) on the slice of
    the base fields ``base`` (a ``SliceData`` at one time)."""
    dfl = evaluate_fields(delta, base.t)
    quad = (base.dphi[0] * dfl.dphi[0]
            - np.sum(base.dphi[1:] * dfl.dphi[1:], axis=0))
    return dfl.phi, dfl.p, -quad - delta.lat.m ** 2 * base.phi * dfl.phi


def theta_sigma(sol: Solution, delta: Solution, lam: float, t: float):
    """Slice 1-form Theta^Sigma_lambda evaluated on one deformation.

    A base or deformation with a batch axis gives an array of values, one
    per member of the (broadcast) batch; a 1-D array of times adds a last
    axis with one value per time.
    """
    phi, p0 = synthesize(sol, t, [(), (0,)])
    dphi_val, dp0 = synthesize(delta, t, [(), (0,)])
    integrand = lam * p0 * dphi_val - (1.0 - lam) * phi * dp0
    return _maybe_real(grid_integral(sol.lat, integrand), sol, delta)


def _representative(tangents, fields, shift=None):
    """Vertical tangent with ``deformation_fields`` ``fields``, plus c X_mu
    = c * ``tangents[mu]`` when ``shift = (c, mu)`` (c may vary by cell)."""
    val, dp, de = fields
    xi = coords(np.zeros(len(dp)), val, de, dp)
    if shift is None:
        return xi
    c, mu = shift
    return xi + _cmul(np.asarray(c, dtype=complex), tangents[mu])


def _slice_sum(lat: ModeLattice, values) -> complex:
    """Cell volume times the sum of ``values`` over the grid, added in C
    order one cell after another, as a loop over the cells would."""
    return complex(lat.cell_volume * complex(np.cumsum(values)[-1]))


def theta_sigma_pointwise(sol: Solution, delta: Solution, lam: float, t: float,
                          shift=None):
    """Theta^Sigma via pointwise theta_eval on (xi, X_1..X_d).

    ``shift = (c, mu)`` adds the tangential component c * X_mu to the
    representative xi, probing representative independence.
    """
    lat = sol.lat
    sd, xs = graph_frame(sol, t)
    xi = _representative(xs, deformation_fields(sd, delta), shift)
    point = coords(np.zeros(lat.d + 1), sd.phi, sd.e, sd.p)
    return _slice_sum(lat, theta_eval(lam, point, [xi] + xs[1:]))


def omega_mode_form(lat: ModeLattice, d1: Solution, d2: Solution):
    """Exact mode reduction i sum_k w_k (d1u*_k d2u_k - d1u_k d2u*_k)."""
    return 1j * np.sum(lat.w * (d1.ustar * d2.u - d1.u * d2.ustar))


def omega_sigma_pointwise(sol: Solution, d1: Solution, d2: Solution, t: float,
                          shift1=None, shift2=None):
    """Omega via pointwise omega_eval on (xi1, xi2, X_1..X_d).

    Optional shifts add tangential components c * X_mu to either
    representative (they must not change the value).
    """
    sd, xs = graph_frame(sol, t)
    xi1 = _representative(xs, deformation_fields(sd, d1), shift1)
    xi2 = _representative(xs, deformation_fields(sd, d2), shift2)
    return _slice_sum(sol.lat, omega_eval([xi1, xi2] + xs[1:]))


def omega_sigma(sol: Solution, d1: Solution, d2: Solution, t: float = 0.0,
                check: bool = True):
    """Symplectic pairing of two Jacobi deformations.

    Path (a) is the closed-form slice reduction; path (b) re-evaluates the
    multisymplectic form pointwise on full vertical tangents wedged with
    the slice directions.  Their disagreement beyond 1e-10 signals an
    internal inconsistency and raises.
    """
    d1v, d1p0 = synthesize(d1, t, [(), (0,)])
    d2v, d2p0 = synthesize(d2, t, [(), (0,)])
    path_a = grid_integral(sol.lat, d1p0 * d2v - d2p0 * d1v)
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
    bases = stack_solutions([sol + eps * d1, sol - eps * d1,
                             sol + eps * d2, sol - eps * d2])
    plus1, minus1, plus2, minus2 = theta_sigma(
        bases, stack_solutions([d2, d2, d1, d1]), lam, t).tolist()
    return (plus1 - minus1) / (2.0 * eps) - (plus2 - minus2) / (2.0 * eps)


def gram_matrix(lat: ModeLattice):
    """Omega on the real/imaginary basis of mode deformations.

    Returns (G, min_ratio): the 2M x 2M antisymmetric Gram matrix and the
    smallest |eigenvalue| divided by the largest, the nondegeneracy
    margin of the truncated phase space.
    """
    mm = lat.n_modes
    ek = np.eye(mm, dtype=complex)
    # rows 2k, 2k + 1: du = du* = e_k and du = i e_k, du* = -i e_k
    u = np.stack([ek, 1j * ek], axis=1).reshape(2 * mm, mm)
    us = np.stack([ek, -1j * ek], axis=1).reshape(2 * mm, mm)
    # i sum_k w_k (d1u*_k d2u_k - d1u_k d2u*_k) over all row pairs at once
    left = np.hstack([us * lat.w, -u * lat.w])
    g = (1j * (left @ np.hstack([u, us]).T)).real
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
    if not eps > 0:
        raise ValueError("eps must be positive")
    theta1, theta2 = theta_sigma(sol, delta, lam,
                                 np.array([t1, t2])).tolist()
    lhs = theta2 - theta1
    plus, minus = action_between_slices(
        stack_solutions([sol + eps * delta, sol - eps * delta]),
        lam, t1, t2, n_t)
    rhs = (plus - minus) / (2.0 * eps)
    return lhs, rhs


def translation_deformation(sol: Solution, mu: int) -> Solution:
    """Deformation generated by the spacetime translation d/dx^mu.

    In mode coordinates delta u_k = i (k . zeta) u_k with (k . zeta) the
    Minkowski pairing, i.e. the lowered component k_mu: minus d_mu Phi.
    """
    return -1.0 * derivative_solution(sol, mu)
