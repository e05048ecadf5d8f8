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
one does not).  For the same parity ``phase_space`` sums cell values in C
order, one after the other, not pairwise as ``np.sum`` does.
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
    _BLOCK_CELLS,
    Solution,
    SolutionHistory,
    TimeWindow,
    evaluate_fields,
    second_derivatives,
    windowed_fields,
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
    if not eps > 0:
        raise ValueError("eps must be positive")
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
    sd, dd = second_derivatives(sol, t)
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
    return max(float(np.max(np.abs(r))) for r in resids)


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
    (batch, time) axes give a density with those axes; an array ``lam``
    broadcasts against them, so a lambda family shares one gradient and
    Laplacian.
    """
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


def _time_quadrature(lat: ModeLattice, fields, densities, t1: float, t2: float,
                     n_t: int, members: int = 1) -> list:
    """Simpson rule over [t1, t2] of the grid integral of each density.

    ``fields`` is evaluated once per block of times, for ``members``
    solutions (a batch) at most ``_BLOCK_CELLS`` grid values in all; each
    density gets its result unpacked and returns its values on the block,
    shape (..., block times) + grid_shape.  Returns one Simpson sum per
    density, with the density's leading axes (a lambda family, the two
    signs of eps, a solution batch).  Blocks do not change any value.
    """
    if not t2 > t1:
        raise ValueError("need t1 < t2")
    _check_simpson_count(n_t)
    ts = np.linspace(t1, t2, n_t)
    step = max(1, _BLOCK_CELLS // (members * int(np.prod(lat.grid_shape))))
    sums = [[] for _ in densities]
    for i in range(0, n_t, step):
        block = fields(ts[i:i + step])
        for density, vals in zip(densities, sums):
            vals.append(grid_integral(lat, density(*block)))
    return [simpson(np.concatenate(vals, axis=-1), ts[1] - ts[0])
            for vals in sums]


def _real_or_complex(value):
    """A float or complex per value: a scalar for a scalar, else a list."""
    if np.ndim(value):
        return [_real_or_complex(v) for v in value]
    return complex(value) if np.iscomplexobj(value) else float(value)


def _family_axis(values, lat: ModeLattice):
    """A scalar as a float; a 1-D array on a leading axis of its own, before
    the (time,) + grid_shape axes of the fields it multiplies."""
    if np.ndim(values) == 0:
        return float(values)
    return np.asarray(values, dtype=float).reshape((-1,) + (1,) * (lat.d + 1))


def action_of_history(lat: ModeLattice, hist, lam, t1: float, t2: float,
                      n_t: int):
    """Integral of the theta_lambda pullback over t in [t1, t2] (Simpson).

    A 1-D array of lambdas gives a list of actions, one per lambda; they
    share every field and spectral derivative.  A history of a solution
    batch gives one action per member, in blocks of fewer times.
    """
    lam = _family_axis(lam, lat)
    sol = getattr(hist, "sol", None)  # SolutionHistory, DetunedHistory
    members = 1 if sol is None else int(np.prod(np.shape(sol.u)[:-1]))
    total, = _time_quadrature(
        lat, hist.at, [lambda *f: theta_pullback_density(lat, *f, lam)],
        t1, t2, n_t, members)
    return _real_or_complex(total)


def action_between_slices(sol: Solution, lam, t1: float, t2: float,
                          n_t: int = 257):
    """``action_of_history`` of the solution.  A solution batch gives one
    action per member, and a lambda array one per lambda (lambda first)."""
    return action_of_history(sol.lat, SolutionHistory(sol), lam, t1, t2, n_t)


def lagrangian_action(lat: ModeLattice, hist, t1: float, t2: float,
                      n_t: int) -> float:
    """Independent quadrature of the Lagrangian (first derivatives only)."""
    return _time_quadrature(lat, hist.at,
                            [lambda *f: _lagrangian_density(lat, *f)],
                            t1, t2, n_t)[0]


def lagrangian_and_actions(lat: ModeLattice, hist, lams, t1: float, t2: float,
                           n_t: int) -> tuple:
    """(``lagrangian_action``, ``action_of_history`` at each of ``lams``)
    from one quadrature pass: one ``hist.at`` per block serves both
    densities, and the lambda family shares one gradient and Laplacian.
    The Lagrangian keeps its own first-derivative density, so it stays an
    independent computation; each value equals, bit for bit, that of its
    own function."""
    lam = _family_axis(np.atleast_1d(lams), lat)
    lag, acts = _time_quadrature(
        lat, hist.at, [lambda *f: _lagrangian_density(lat, *f),
                       lambda *f: theta_pullback_density(lat, *f, lam)],
        t1, t2, n_t)
    return lag, _real_or_complex(acts)


def action_criticality(sol: Solution, variation: Solution, lam: float,
                       eps: float = 1e-3, t1: float = 0.0, t2: float = 1.0,
                       n_t: int = 1025, base_history=None) -> float:
    """|dA/d eps| for a compact-in-time holonomic variation of the graph.

    The variation is eta(t) * variation-field with eta a smooth bump
    supported in (t1, t2); p and e follow the perturbed phi holonomically,
    so the configuration leaves the shell and the derivative probes true
    criticality.  The action is quadratic in eps, hence the central
    difference equals the exact derivative up to quadrature error.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lat = sol.lat
    base = base_history if base_history is not None else SolutionHistory(sol)
    win = TimeWindow(t1, t2)
    var = SolutionHistory(variation)
    # One evaluation of base and variation per block; the fields of
    # WindowedPerturbation(+eps) and (-eps) are stacked on a leading axis
    # and go through one density call.
    signs = _family_axis([float(eps), -float(eps)], lat)

    def density(b, v, w):
        return theta_pullback_density(lat, *windowed_fields(b, v, w, signs),
                                      lam)

    total, = _time_quadrature(
        lat, lambda tb: (base.at(tb), var.at(tb), win.on_grid(tb, lat.d)),
        [density], t1, t2, n_t)
    plus, minus = _real_or_complex(total)
    return abs(plus - minus) / (2.0 * eps)
