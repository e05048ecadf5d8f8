"""The multisymplectic kernel on M = {(x^mu, phi, e, p^mu)}.

Conventions (n = d + 1 spacetime dimensions, metric eta = diag(+, -, ..., -)):

    beta   = dx^0 ^ ... ^ dx^(n-1)
    beta_mu = d/dx^mu  _|  beta = (-1)^mu dx^0 ^ ... ^ [dx^mu] ^ ... ^ dx^(n-1)
    omega  = de ^ beta + dp^mu ^ dphi ^ beta_mu
    theta_lambda = e beta + lambda p^mu dphi ^ beta_mu
                   - (1 - lambda) phi dp^mu ^ beta_mu
    H      = e + (1/2) eta_{mu nu} p^mu p^nu + (1/2) m^2 phi^2

Both forms are evaluated by explicit determinant expansion over the fixed
coordinate order (x^0..x^(n-1), phi, e, p^0..p^(n-1)); the space has
dimension 2n + 2, so no general exterior-algebra machinery is needed.

Points and tangents of M are arrays of their 2n + 2 coordinates in that
order, shape (2n + 2,) + cells; ``coords`` stacks one from its parts and
``graph_frame`` builds the tangents X_mu of a solution's graph.  The forms
evaluate whole slices at once: the cell axes of the point and the
tangents broadcast against each other, and a point or tangent without them
is the zero-axis case of the same code, which returns a numpy scalar where
a stack returns an array of cells.  A cell's value is bitwise that of
evaluating the cell alone because each minor is one ``np.linalg.det`` over
matrices [..., b, a] = component a of vector b, which factors every cell
separately in that orientation, and because complex products go through
``lattice._cmul`` (numpy's array multiply may fuse into an FMA, its scalar
one does not).  ``phase_space`` sums the cell values with ``grid_integral``.
"""

from __future__ import annotations

import numpy as np

from .lattice import (
    ModeLattice,
    _cmul,
    grid_integral,
    spectral_divergence,
    spectral_gradient,
    spectral_gradient_laplacian,
)
from .solution import (
    Solution,
    SolutionHistory,
    WindowedPerturbation,
    _blocks,
    evaluate_fields,
    fields_and_orders,
)


def coords(x, phi, e, p) -> np.ndarray:
    """A point or tangent of M as its 2n + 2 coordinates (x^mu, phi, e, p^mu),
    the parts broadcast against each other: shape (2n + 2,) + cells."""
    return np.stack(np.broadcast_arrays(*x, phi, e, *p))


def _stack(vectors, extra: int, point=None):
    """(mats, n) for n + ``extra`` tangents: per cell the matrix
    [..., b, a] = component a of vector b.  Rejects bad tangent dimensions,
    a wrong vector count and a point without 2n + 2 coordinates."""
    comps = [np.moveaxis(np.asarray(v), 0, -1) for v in vectors]
    dim = comps[0].shape[-1] if comps else 0
    if any(c.shape[-1] != dim for c in comps):
        raise ValueError("tangent vectors have mismatched dimensions")
    if dim % 2 != 0 or dim < 6:
        raise ValueError("bad tangent dimension")
    n = dim // 2 - 1
    if len(comps) != n + extra:
        raise ValueError(f"the form takes n + {extra} = {n + extra} vectors, "
                         f"got {len(comps)}")
    if point is not None and np.shape(point)[:1] != (dim,):
        raise ValueError(f"the point must have 2n + 2 = {dim} coordinates")
    return np.stack(np.broadcast_arrays(*comps), axis=-2), n


def _det_on(indices, mats):
    return np.linalg.det(mats[..., indices])


def _mul(a, b):
    return _cmul(a, b) if np.iscomplexobj(a) or np.iscomplexobj(b) else a * b


def omega_eval(vectors):
    """Evaluate omega on exactly n + 1 tangent vectors."""
    mats, n = _stack(vectors, 1)
    ix, iphi, ie, ip = list(range(n)), n, n + 1, n + 2
    val = _det_on([ie] + ix, mats)
    for mu in range(n):
        sign = -1.0 if mu % 2 else 1.0
        rest = [a for a in ix if a != mu]
        val = val + sign * _det_on([ip + mu, iphi] + rest, mats)
    return val


def theta_eval(lam: float, point, vectors):
    """Evaluate theta_lambda at ``point`` on exactly n tangent vectors."""
    mats, n = _stack(vectors, 0, point)
    ix, iphi, ip = list(range(n)), n, n + 2
    phi, e, p = point[n], point[n + 1], point[n + 2:]
    val = _mul(e, _det_on(ix, mats))
    for mu in range(n):
        sign = -1.0 if mu % 2 else 1.0
        rest = [a for a in ix if a != mu]
        val = val + _mul(lam * p[mu] * sign, _det_on([iphi] + rest, mats))
        val = val - _mul((1.0 - lam) * phi * sign,
                         _det_on([ip + mu] + rest, mats))
    return val


def dtheta_fd(lam: float, point, vectors, eps: float = 1e-3):
    """Exterior derivative d theta_lambda on n + 1 constant vector fields.

    d theta(v_0..v_n) = sum_i (-1)^i v_i[theta(.. v_i omitted ..)];
    the coefficients of theta are linear in the point coordinates, so the
    central differences below are exact up to roundoff and the result must
    reproduce omega_eval on the same vectors for every lambda.  Points and
    vectors with cell axes, and ``lam`` as an array over the cells, give
    one difference per cell from the same 2 (n + 1) ``theta_eval`` calls.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    vectors = list(vectors)
    total = 0.0
    for i, v in enumerate(vectors):
        rest = vectors[:i] + vectors[i + 1:]
        der = (theta_eval(lam, point + eps * v, rest)
               - theta_eval(lam, point - eps * v, rest)) / (2.0 * eps)
        total = total + (-1.0 if i % 2 else 1.0) * der
    return total


def hamiltonian(point, m: float):
    """H = e + (1/2) eta_{mu nu} p^mu p^nu + (1/2) m^2 phi^2."""
    n = len(point) // 2 - 1
    phi, e, p = point[n], point[n + 1], point[n + 2:]
    sq = _mul(p, p)
    quad = sq[0] - np.sum(sq[1:], axis=0)
    return e + 0.5 * quad + 0.5 * m ** 2 * _mul(phi, phi)


# ---------------------------------------------------------------------------
# Graph frames: the canonical tangent basis X_mu of a solution graph in M
# ---------------------------------------------------------------------------

def graph_frame(sol: Solution, t: float) -> tuple:
    """(slice fields, [X_0, ..., X_d]) of the solution graph at time t, with
    X_mu = d/dx^mu + d_mu phi d/dphi + d_mu e d/de + d_mu p^nu d/dp^nu."""
    lat = sol.lat
    upper = np.triu_indices(lat.d + 1)  # the distinct d_mu d_nu phi
    sd, grids = fields_and_orders(sol, t, list(zip(*upper)))
    dd = np.empty((lat.d + 1,) * 2 + grids.shape[1:], dtype=grids.dtype)
    dd[upper] = dd[upper[::-1]] = grids
    eta = np.array([1.0] + [-1.0] * lat.d)
    dp = np.einsum("n,mn...->mn...", eta, dd)
    quad = dd[:, 0] * sd.dphi[0] - np.sum(dd[:, 1:] * sd.dphi[1:], axis=1)
    de = -quad - lat.m ** 2 * sd.phi * sd.dphi
    return sd, list(map(coords, np.eye(lat.d + 1), sd.dphi, de, dp))


def hamilton_pointwise_residual(sol: Solution, t: float) -> float:
    """Max deviation in omega(xi, X_0..X_d) = dH(xi) beta(X) over the slice.

    xi runs over all coordinate directions; X is the canonical graph basis.
    Exact mode derivatives make this a roundoff-level identity on solutions.
    """
    lat = sol.lat
    sd, xs = graph_frame(sol, t)
    n = lat.d + 1
    beta_x = float(np.linalg.det(np.eye(n)))  # X_mu has dx = e_mu
    # xi: every coordinate direction, along one leading axis
    eye = np.eye(2 * n + 2).reshape((2 * n + 2,) * 2 + (1,) * lat.d)
    lhs = omega_eval([eye] + xs)
    # dH components in coordinate order (x, phi, e, p)
    dh = np.zeros_like(lhs)
    dh[n], dh[n + 1] = lat.m ** 2 * sd.phi, 1.0
    dh[n + 2], dh[n + 3:] = sd.p[0], -sd.p[1:]
    return float(np.max(np.abs(lhs - dh * beta_x)))


# ---------------------------------------------------------------------------
# Hamilton-system residual (finite differences in time, spectral in space)
# ---------------------------------------------------------------------------

def _uniform_dt(t_grid) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 3:
        raise ValueError("need at least three time samples")
    steps = np.diff(t_grid)
    if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, abs(steps[0])):
        raise ValueError("time grid must be uniform")
    return float(steps[0])


def hamilton_residual_fields(lat: ModeLattice, t_grid, phis, ps) -> float:
    """Residual of the Hamilton system for sampled (phi, p^mu) histories.

    Checks d phi/dx^mu = eta_{mu nu} p^nu and sum_mu d p^mu/dx^mu = -m^2 phi,
    with centered differences in time and spectral space derivatives.
    ``phis`` has shape (n_t,) + grid_shape and ``ps`` (n_t, d+1) + grid_shape.
    """
    dt = _uniform_dt(t_grid)
    phis, ps = np.asarray(phis), np.asarray(ps)
    mid, p_mid = phis[1:-1], ps[1:-1]
    dphi_dt = (phis[2:] - phis[:-2]) / (2.0 * dt)
    dp0_dt = (ps[2:, 0] - ps[:-2, 0]) / (2.0 * dt)
    resids = (dphi_dt - p_mid[:, 0],
              spectral_gradient(lat, mid) + p_mid[:, 1:],
              dp0_dt + spectral_divergence(lat, p_mid[:, 1:])
              + lat.m ** 2 * mid)
    return float(np.max([np.max(np.abs(r)) for r in resids]))


def hamilton_residual(sol: Solution, t_grid) -> float:
    """Hamilton-system residual of an exact solution sampled on t_grid."""
    sd = evaluate_fields(sol, t_grid)
    return hamilton_residual_fields(sol.lat, sd.t, sd.phi, sd.p)


# ---------------------------------------------------------------------------
# Action between slices and criticality
# ---------------------------------------------------------------------------

def _check_simpson_count(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number >= 3 of samples")


def simpson(values, dt: float):
    """Composite Simpson rule over the last axis; requires an odd number of
    samples.  Leading axes give one sum each."""
    values = np.asarray(values)
    n = values.shape[-1]
    _check_simpson_count(n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (dt / 3.0) * np.sum(w * values, axis=-1)


def theta_pullback_density(lat: ModeLattice, phi, dtphi, dttphi, lam):
    """Density of the pullback of theta_lambda to a holonomic graph.

    Everything is derived from (phi, d_t phi, d_tt phi) on one slice:
    p^mu = eta grad phi and d_mu p^mu = box phi, with spectral space
    derivatives from one forward transform.  On shell the density reduces
    to (2 lambda - 1) times the Lagrangian density.  Fields with leading
    (family, time) axes give a density with those axes; a 1-D array ``lam``
    puts its own axis in front of them, so a lambda family shares one
    gradient and Laplacian.
    """
    lam = np.reshape(lam, np.shape(lam) + (1,) * np.ndim(phi))
    grad, lap = spectral_gradient_laplacian(lat, phi)
    quad = dtphi ** 2 - np.sum(grad ** 2, axis=-lat.d - 1)
    divp = dttphi - lap
    en = -0.5 * quad - 0.5 * lat.m ** 2 * phi ** 2
    return en + lam * quad - (1.0 - lam) * phi * divp


def _lagrangian_density(lat: ModeLattice, phi, dtphi, _):
    """The Lagrangian density, from first derivatives only."""
    grad = spectral_gradient(lat, phi)
    return 0.5 * (dtphi ** 2 - np.sum(grad ** 2, axis=-lat.d - 1)) \
        - 0.5 * lat.m ** 2 * phi ** 2


def _time_quadrature(hist, densities, t1: float, t2: float, n_t: int) -> list:
    """Simpson rule over [t1, t2] of the grid integral of each density.

    ``hist.at`` is evaluated once per block of times (``solution._blocks``
    of members x cells).  A block holds ``_BLOCK_CELLS`` grid values per
    derivative order, summed over a solution batch's members
    (``hist.sol``), so each of a history's own mode sums stays within that
    bound.  A history without ``sol``, such as a ``WindowedPerturbation``
    family, takes blocks of one member's size: the family holds n_eps x
    n_bases grids per block, 4 for the criticality pair, and its one
    ``mode_sum_grid`` call (n_bases + 1) x ``_BLOCK_CELLS`` values per
    derivative order.
    Each density maps (lat, *fields) to its values on the block, shape
    (..., block times) + grid_shape.  Returns one Simpson sum per density,
    with its leading axes (a lambda family, the eps signs, a batch); blocks
    do not change any value.
    """
    if not t2 > t1:
        raise ValueError("need t1 < t2")
    _check_simpson_count(n_t)
    lat = hist.lat
    sol = getattr(hist, "sol", None)  # a DetunedHistory or SolutionHistory
    members = 1 if sol is None else int(np.prod(np.shape(sol.u)[:-1]))
    ts = np.linspace(t1, t2, n_t)
    sums = [[] for _ in densities]
    for part in _blocks(n_t, members * int(np.prod(lat.grid_shape))):
        block = hist.at(ts[part])
        for density, vals in zip(densities, sums):
            vals.append(grid_integral(lat, density(lat, *block)))
    return [simpson(np.concatenate(vals, axis=-1), ts[1] - ts[0])
            for vals in sums]


def _real_or_complex(value):
    """A float or complex per value: a scalar for a scalar, else a list."""
    if np.ndim(value):
        return [_real_or_complex(v) for v in value]
    return complex(value) if np.iscomplexobj(value) else float(value)


def action_of_history(hist, lam, t1: float, t2: float, n_t: int):
    """Integral of the theta_lambda pullback over t in [t1, t2] (Simpson).

    A 1-D array of lambdas gives one action per lambda, sharing every field
    and spectral derivative; a history with family axes (a solution batch,
    a ``WindowedPerturbation`` family) one per member, after the lambda axis.
    """
    total, = _time_quadrature(
        hist, [lambda *f: theta_pullback_density(*f, lam)], t1, t2, n_t)
    return _real_or_complex(total)


def action_between_slices(sol: Solution, lam, t1: float, t2: float,
                          n_t: int = 257):
    """``action_of_history`` of the solution.  A solution batch gives one
    action per member, and a lambda array one per lambda (lambda first)."""
    return action_of_history(SolutionHistory(sol), lam, t1, t2, n_t)


def lagrangian_and_actions(hist, lams, t1: float, t2: float, n_t: int) -> tuple:
    """(Lagrangian action, ``action_of_history`` at each of ``lams``) from
    one quadrature pass: one ``hist.at`` per block serves both densities,
    and the lambda family shares one gradient and Laplacian.  The
    Lagrangian keeps its own first-derivative density, so it stays an
    independent computation; each action equals, bit for bit, that of
    ``action_of_history``, and an empty ``lams`` gives an empty list."""
    lam = np.atleast_1d(lams)
    lag, acts = _time_quadrature(
        hist, [_lagrangian_density,
               lambda *f: theta_pullback_density(*f, lam)], t1, t2, n_t)
    return lag, _real_or_complex(acts)


def action_criticality(bases, variation: Solution, lam: float,
                       eps: float = 1e-3, t1: float = 0.0, t2: float = 1.0,
                       n_t: int = 1025) -> list:
    """|dA/d eps| for a compact-in-time holonomic variation of each base
    history, one value per base.

    The variation is eta(t) * variation-field with eta a smooth bump
    supported in (t1, t2); p and e follow the perturbed phi holonomically,
    so the configuration leaves the shell and the derivative probes true
    criticality.  The action is quadratic in eps, hence the central
    difference equals the exact derivative up to quadrature error.  Both
    signs of eps and every base form one ``WindowedPerturbation`` family,
    integrated by one ``action_of_history`` call.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    family = WindowedPerturbation(bases, SolutionHistory(variation), t1, t2,
                                  [eps, -eps])
    plus, minus = action_of_history(family, lam, t1, t2, n_t)
    return [abs(p - m) / (2.0 * eps) for p, m in zip(plus, minus)]
