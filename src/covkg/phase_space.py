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
batches (``stack_solutions``) for one ``theta_sigma`` call over every
lambda, and ``theta_difference_vs_action`` takes Theta on both slices from
one call and the two shifted actions as one batch.  Omega's two paths,
the slice reduction ``omega_sigma`` and the pointwise form
``omega_sigma_pointwise``, share only mode synthesis; the suites record
their comparison.  The pointwise forms sum cells with ``grid_integral`` and
take a deformation batch and 1-D arrays (c, mu) of representative shifts
c X_mu on one graph frame.  Each value equals, bit for bit, its own call.
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
    ``base`` (a ``SliceData``), a batch axis after delta p's component one."""
    dfl = evaluate_fields(delta, base.t)
    d, m = delta.lat.d, delta.lat.m
    prod = np.moveaxis(base.dphi * dfl.dphi, -d - 1, 0)
    de = -(prod[0] - np.sum(prod[1:], axis=0)) - m ** 2 * base.phi * dfl.phi
    return dfl.phi, np.moveaxis(dfl.p, -d - 1, 0), de


def theta_sigma(sol: Solution, delta: Solution, lam, t):
    """Slice 1-form Theta^Sigma_lambda evaluated on one deformation.

    A base or deformation with a batch axis gives one value per member of
    the (broadcast) batch; a 1-D array of times adds a last axis, and one
    of lambdas a first axis.
    """
    phi, p0 = synthesize(sol, t, [(), (0,)])
    dphi_val, dp0 = synthesize(delta, t, [(), (0,)])
    lam = np.reshape(lam, np.shape(lam) + (1,) * max(p0.ndim, dp0.ndim))
    integrand = lam * p0 * dphi_val - (1.0 - lam) * phi * dp0
    return _maybe_real(grid_integral(sol.lat, integrand), sol, delta)


def _representative(tangents, fields, shift=None):
    """Vertical tangent with ``deformation_fields`` ``fields``, plus c X_mu
    when ``shift = (c, mu)``; 1-D c and mu give one each, on a first axis."""
    val, dp, de = fields
    xi = coords(np.zeros(len(dp)), val, de, dp)
    if shift is None:
        return xi
    c, mu = np.broadcast_arrays(np.asarray(shift[0], dtype=complex), shift[1])
    if np.any((mu < 0) | (mu >= len(tangents))):
        raise ValueError(f"mu must lie in 0..{len(tangents) - 1}")
    batch = tuple(range(2, 2 + xi.ndim - tangents[0].ndim))
    frame = np.expand_dims(np.stack(tangents), batch)[mu]
    shifts = _cmul(c.reshape(c.shape + (1,) * (frame.ndim - c.ndim)), frame)
    return (xi[:, None] if mu.ndim else xi) + np.moveaxis(shifts, mu.ndim, 0)


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
    return grid_integral(lat, theta_eval(lam, point, [xi] + xs[1:]))


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
    return grid_integral(sol.lat, omega_eval([xi1, xi2] + xs[1:]))


def omega_sigma(sol: Solution, d1: Solution, d2: Solution, t=0.0):
    """Symplectic pairing of two Jacobi deformations by the closed-form
    slice reduction integral (delta1 p^0 delta2 phi - delta2 p^0 delta1 phi);
    ``omega_sigma_pointwise`` is the independent path.  A 1-D array of
    times gives one value per time on a last axis."""
    d1v, d1p0 = synthesize(d1, t, [(), (0,)])
    d2v, d2p0 = synthesize(d2, t, [(), (0,)])
    return _maybe_real(grid_integral(sol.lat, d1p0 * d2v - d2p0 * d1v),
                       sol, d1, d2)


def fd_delta_theta(sol: Solution, d1: Solution, d2: Solution, lam,
                   t: float, eps: float = 1e-4):
    """delta1 Theta(delta2) - delta2 Theta(delta1) by central differences.

    Theta is bilinear in (base, deformation), so the central difference in
    mode coordinates is exact up to roundoff and must reproduce omega_sigma
    for every lambda; a 1-D array of lambdas gives one value per lambda.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    bases = stack_solutions([sol + eps * d1, sol - eps * d1,
                             sol + eps * d2, sol - eps * d2])
    plus1, minus1, plus2, minus2 = np.moveaxis(theta_sigma(
        bases, stack_solutions([d2, d2, d1, d1]), lam, t), -1, 0)
    return _maybe_real((plus1 - minus1) / (2.0 * eps)
                       - (plus2 - minus2) / (2.0 * eps), sol, d1, d2)


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
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
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
