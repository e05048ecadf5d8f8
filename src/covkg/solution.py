"""Klein-Gordon solutions as mass-shell mode data.

A solution of box phi + m^2 phi = 0 on the periodic box is stored through its
mode coefficients (u_k, u*_k):

    phi(t, x) = (2pi)^(-d/2) sum_k w_k (u_k e^{-i k.x} + u*_k e^{+i k.x}),

with k.x = k0 t - kvec.xvec, so the u branch carries e^{-i k0 t} e^{+i kvec.x}
and the u* branch its reflection.  Real fields satisfy u*_k = conj(u_k).
Time never enters the state: evaluation is exact mode arithmetic, and
``evolve_exact`` merely re-bases the phases.  A leapfrog integrator is kept
alongside as an independent finite-difference oracle for the same equation.

Evaluation.  A field is its mode-space time coefficients (a solution's
``_coefficients``, from one phase table), and one ``mode_sum_grid`` call
makes the grids of any stack of them: one scatter onto the FFT bins and
one inverse FFT, real grids from the u branch alone and an ``irfftn``.
``synthesize`` takes a list of derivative orders, a 1-D array of times
and, through ``u``/``ustar`` of shape (n_batch, n_modes), a batch of
solutions (the observables suite stacks its ladder generators this way),
giving axes (order, batch, time) + grid_shape; each grid equals, bit for
bit, the grid of the call that asks for it alone.  ``fields_and_orders``
(with ``evaluate_fields`` built on it) and the ``at`` of a detuned history
make one such call, a ``WindowedPerturbation`` family one for all its
members; the slice functionals keep the time axis.  ``SolutionHistory`` is
the detuned history at detune 0, which keeps the solution's phase table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    ModeLattice,
    _check_number,
    dft_forward,
    grid_integral,
    mode_sum_grid,
    out_of_band_fraction,
    spectral_gradient,
    spectral_laplacian,
)

_CONJ_TOL = 1e-12
# Grid values per derivative order of a block (``_blocks``), summed over a
# batch's members: sizes the action quadratures', the bracket pairing's and
# ``covkg simulate``'s blocks.  A ``WindowedPerturbation`` family's blocks
# are sized as for one member, so its one mode sum holds (n_bases + 1) times
# as many (see ``multisymplectic._time_quadrature``).
_BLOCK_CELLS = 4096
_WINDOW_ORDER = 6  # q of the bump (4 s (1-s))^q of ``WindowedPerturbation``


def _blocks(n: int, size: int, budget: int = _BLOCK_CELLS) -> list:
    """Slices of range(n) of max(1, budget // size) items each (the last may
    hold fewer): the one block rule of every memory-bounded loop."""
    step = max(1, budget // max(1, size))
    return [slice(i, i + step) for i in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class Solution:
    """A Hamiltonian n-curve: per-mode coefficients (u_k, u*_k); its
    fields are arrays, so it compares and hashes by identity."""

    lat: ModeLattice
    u: np.ndarray
    ustar: np.ndarray
    real_flag: bool

    def __add__(self, other: "Solution") -> "Solution":
        if other.lat is not self.lat and other.lat != self.lat:
            raise ValueError("solutions live on different lattices")
        return Solution(self.lat, self.u + other.u, self.ustar + other.ustar,
                        self.real_flag and other.real_flag)

    def __sub__(self, other: "Solution") -> "Solution":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "Solution":
        stays_real = self.real_flag and np.imag(c) == 0
        return Solution(self.lat, c * self.u, c * self.ustar, stays_real)


def stack_solutions(sols) -> Solution:
    """The solutions as one batch: ``u`` and ``ustar`` of shape
    (len(sols), n_modes), real when every member is."""
    lat = sols[0].lat
    if any(s.lat is not lat and s.lat != lat for s in sols):
        raise ValueError("solutions live on different lattices")
    return Solution(lat, np.stack([s.u for s in sols]),
                    np.stack([s.ustar for s in sols]),
                    all(s.real_flag for s in sols))


def _maybe_real(value, *sols):
    """``value`` as a float when every solution is real, else as a complex;
    an array of values stays an array of that kind."""
    real = all(s.real_flag for s in sols)
    if np.ndim(value):
        return np.real(value) if real else np.asarray(value, dtype=complex)
    return float(np.real(value)) if real else complex(value)


@dataclass(frozen=True)
class SliceData:
    """Fields of a solution on one constant-time slice, or on a stack of them.

    ``dphi`` stacks the spacetime derivatives (index 0 is time), ``p`` the
    momenta p^mu = eta^{mu nu} d_nu phi, and ``e`` the energy coordinate
    fixed by the on-shell constraint H = 0.  For a 1-D array of times ``t``
    every field carries a leading time axis: ``phi`` and ``e`` have shape
    (n_t,) + grid_shape, ``dphi`` and ``p`` shape (n_t, d+1) + grid_shape.
    """

    t: float | np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    p: np.ndarray
    e: np.ndarray


def from_modes(lat: ModeLattice, u, ustar=None, real_flag: bool = True) -> Solution:
    """Build a solution from mode coefficients.

    With ``real_flag`` the conjugacy u*_k = conj(u_k) is enforced: a
    supplied ``ustar`` must lie within 1e-12 of conj(u), and conj(u) is
    stored either way.  Non-finite coefficients are a ValueError.
    """
    u = np.array(u, dtype=complex)
    if u.shape != (lat.n_modes,):
        raise ValueError(f"expected {lat.n_modes} coefficients, got {u.shape}")
    if ustar is None and not real_flag:
        raise ValueError("complex solutions need explicit ustar")
    ustar = np.conj(u) if ustar is None else np.array(ustar, dtype=complex)
    if ustar.shape != u.shape:
        raise ValueError("u and ustar shapes differ")
    if not (np.isfinite(u).all() and np.isfinite(ustar).all()):
        raise ValueError("mode coefficients u and ustar must be finite")
    if real_flag:
        err = np.max(np.abs(ustar - np.conj(u))) if u.size else 0.0
        if not err <= _CONJ_TOL:
            raise ValueError(
                f"reality violated: max |ustar - conj(u)| = {err:.3e}")
        ustar = np.conj(u)
    u.setflags(write=False)
    ustar.setflags(write=False)
    return Solution(lat, u, ustar, bool(real_flag))


def random_solution(lat: ModeLattice, rng: np.random.Generator,
                    real_flag: bool = True) -> Solution:
    """Seeded random solution with mildly decaying mode amplitudes."""
    amp = 1.0 / (1.0 + np.sum(lat.k ** 2, axis=1))
    def draw():
        z = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
        return amp * z / np.sqrt(2.0)
    u = draw()
    ustar = np.conj(u) if real_flag else draw()
    return from_modes(lat, u, ustar, real_flag)


def derivative_factors(lat: ModeLattice, mu: int):
    """Per-branch mode multipliers implementing d/dx^mu (0 = time)."""
    if mu == 0:
        f = -1j * lat.k0
    elif 1 <= mu <= lat.d:
        f = 1j * lat.k[:, mu - 1]
    else:
        raise ValueError(f"mu must lie in 0..{lat.d}")
    return f, -f


def derivative_solution(sol: Solution, mu: int) -> Solution:
    """The solution d_mu Phi: ``derivative_factors`` applied to the modes."""
    a, b = derivative_factors(sol.lat, mu)
    return Solution(sol.lat, a * sol.u, b * sol.ustar, sol.real_flag)


@lru_cache(maxsize=64)
def _order_factors(lat: ModeLattice, orders: tuple) -> np.ndarray:
    """Read-only branch multipliers (fu, fus) of each derivative order,
    stacked on a first axis: shape (2, len(orders), n_modes)."""
    out = np.ones((2, len(orders), lat.n_modes), dtype=complex)
    for i, mus in enumerate(orders):
        for mu in mus:
            out[:, i] *= derivative_factors(lat, mu)
    out.setflags(write=False)
    return out


def _coefficients(sol: Solution, t, orders, factor=None) -> tuple:
    """The branch coefficients whose ``mode_sum_grid`` is the grid of each
    derivative order in the list ``orders`` at time t, with axes (order,
    [batch,] [time,] mode): (plus,) for a real solution, whose u* branch is
    conj(plus) and is not formed, else (plus, minus).  ``factor``, broadcast
    against them, multiplies the u branch and its conjugate the u* branch."""
    lat = sol.lat
    t = np.asarray(t, dtype=float)
    shape = ((2, len(orders)) + (1,) * (np.ndim(sol.u) - 1 + t.ndim)
             + (lat.n_modes,))
    fu, fus = _order_factors(lat, tuple(map(tuple, orders))).reshape(shape)
    if factor is not None:
        fu = fu * factor
    pref = (2.0 * np.pi) ** (-lat.d / 2.0)
    phase = np.exp(-1j * lat.k0 * t[..., None])
    coeffs = np.shape(sol.u)[:-1] + (1,) * t.ndim + (lat.n_modes,)
    plus = pref * lat.w * np.reshape(sol.u, coeffs) * phase * fu
    if sol.real_flag:
        return (plus,)
    fus = fus if factor is None else fus * np.conj(factor)
    ustar = np.reshape(sol.ustar, coeffs)
    return plus, pref * lat.w * ustar * np.conj(phase) * fus


def synthesize(sol: Solution, t, mus=()):
    """Evaluate (prod_mu d_mu) phi on the grid at time t.

    ``t`` is a scalar, giving one grid, or a 1-D array of n_t times, giving
    stacked grids of shape (n_t,) + grid_shape with the time axis first.
    A solution with a batch axis (``u`` of shape (n_batch, n_modes)) puts
    that axis before the time axis.  ``mus`` is one derivative order, a
    tuple of axes, or a list of such tuples: a list stacks one grid per
    order on a new leading axis, all from one phase table, one scatter and
    one inverse FFT, each equal bit for bit to the call with that order
    alone; anything else, a tuple of tuples included, is a TypeError.
    """
    stacked = isinstance(mus, list)
    orders = mus if stacked else [mus]
    for order in orders:
        if not (isinstance(order, tuple)
                and all(isinstance(a, (int, np.integer)) for a in order)):
            raise TypeError("mus must be a tuple of axes or a list of "
                            f"such tuples, not {mus!r}")
    grid = mode_sum_grid(sol.lat, *_coefficients(sol, t, orders))
    return grid if stacked else grid[0]


def _slice_data(lat: ModeLattice, t, phi, dphi) -> SliceData:
    """Slice fields from phi and d_mu phi; p and e follow from them."""
    p = dphi.copy()
    p_mu = np.moveaxis(p, -lat.d - 1, 0)  # views, component index first
    p_mu[1:] = -p_mu[1:]
    d_mu = np.moveaxis(dphi, -lat.d - 1, 0)
    quad = d_mu[0] ** 2 - np.sum(d_mu[1:] ** 2, axis=0)
    e = -0.5 * quad - 0.5 * lat.m ** 2 * phi ** 2
    return SliceData(t=t, phi=phi, dphi=dphi, p=p, e=e)


def fields_and_orders(sol: Solution, t, orders) -> tuple:
    """(slice fields at time t, grids of the further derivative ``orders``).

    The slice fields are those of ``evaluate_fields``; phi, the d + 1 first
    derivatives and the listed orders come from one stacked synthesis, the
    extra grids stacked on a leading axis in the order listed.
    """
    lat = sol.lat
    first = [()] + [(mu,) for mu in range(lat.d + 1)]
    grids = synthesize(sol, t, first + list(orders))
    dphi = np.stack(grids[1:len(first)], axis=-lat.d - 1)
    t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    return _slice_data(lat, t, grids[0], dphi), grids[len(first):]


def evaluate_fields(sol: Solution, t) -> SliceData:
    """All slice fields (phi, d_mu phi, p^mu, e) at time t.

    A 1-D array of times gives stacked fields with a leading time axis.
    phi and the d + 1 first derivatives come from one stacked synthesis.
    """
    return fields_and_orders(sol, t, [])[0]


def from_cauchy(lat: ModeLattice, phi0, pi0) -> Solution:
    """Real solution with phi(0) = phi0 and d_t phi(0) = pi0.

    Inverts the slice data through u_k = i pihat_0(k) + k0 phihat_0(k);
    inputs must be real and band-limited (out-of-band power <= 1e-10).
    """
    phi0 = np.asarray(phi0, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    for name, arr in (("phi0", phi0), ("pi0", pi0)):
        frac = out_of_band_fraction(lat, arr)
        if frac > 1e-10:
            raise ValueError(
                f"{name} is not band-limited: out-of-band fraction {frac:.3e}")
    u = 1j * dft_forward(lat, pi0) + lat.k0 * dft_forward(lat, phi0)
    return from_modes(lat, u, None, real_flag=True)


def evolve_exact(sol: Solution, t: float) -> Solution:
    """Re-base the solution so its new t=0 slice is the old t slice."""
    ph = np.exp(-1j * sol.lat.k0 * t)
    return Solution(sol.lat, sol.u * ph, sol.ustar * np.conj(ph), sol.real_flag)


def kg_residual(sol: Solution, t: float = 0.0) -> float:
    """Max-norm of (box + m^2) phi with exact mode derivatives."""
    lat = sol.lat
    sym = lat.m ** 2 + np.sum(lat.k ** 2, axis=1) - lat.k0 ** 2
    grid, = mode_sum_grid(lat, *_coefficients(sol, t, [()], factor=sym))
    return float(np.max(np.abs(grid)))


def leapfrog_evolve(lat: ModeLattice, phi0, pi0, dt: float, steps: int) -> SliceData:
    """Kick-drift-kick integration of phidotdot = Lap phi - m^2 phi.

    Independent finite-difference oracle: spatial derivatives are spectral
    on the full grid, time stepping is second order and symplectic.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    _check_number("steps", steps, True)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if dt * float(np.max(lat.k0)) >= 2.0:
        raise ValueError("unstable step: require dt * max(k0) < 2")
    phi = np.array(phi0, dtype=float)
    pi = np.array(pi0, dtype=float)
    if phi.shape != lat.grid_shape or pi.shape != lat.grid_shape:
        raise ValueError(f"Cauchy data must have shape {lat.grid_shape}")

    def force(f):
        return spectral_laplacian(lat, f) - lat.m ** 2 * f

    half = 0.5 * dt
    for _ in range(steps):
        pi = pi + half * force(phi)
        phi = phi + dt * pi
        pi = pi + half * force(phi)

    dphi = np.concatenate([pi[None], spectral_gradient(lat, phi)])
    return _slice_data(lat, dt * steps, phi, dphi)


def field_energy(lat: ModeLattice, phi, pi) -> float:
    """Grid quadrature of (pi^2 + |grad phi|^2 + m^2 phi^2) / 2."""
    grad = spectral_gradient(lat, phi)
    dens = 0.5 * (pi ** 2 + np.sum(grad ** 2, axis=0) + lat.m ** 2 * phi ** 2)
    return float(grid_integral(lat, dens))


# ---------------------------------------------------------------------------
# Field histories: ``at(t)`` gives (phi, d_t phi, d_tt phi) grids on ``lat``,
# family axes first, then a time axis for a 1-D array of times.  An action
# quadrature takes only a history, so it runs on configurations that are not
# solutions: detuned frequencies, probes, windowed perturbations of bases.
# ---------------------------------------------------------------------------

class DetunedHistory:
    """Solution-shaped history with every frequency shifted by ``detune``.

    For detune != 0 the configuration violates the field equation by
    (2 k0 detune + detune^2) per mode, giving a controlled off-shell field;
    at detune 0 it is the solution's own history.  A detune that is not
    finite is a ValueError.
    """

    def __init__(self, sol: Solution, detune: float):
        self.sol = sol
        self.lat = sol.lat
        self.detune = float(detune)
        if not abs(self.detune) < np.inf:
            raise ValueError(f"detune must be finite, got {detune!r}")

    def coefficients(self, t):
        """The ``_coefficients`` of (phi, d_t phi, d_tt phi) at t: at detune
        0 the solution's own, from its one phase table, else the solution's
        phases times exp(-i detune t) and (-i (k0 + detune))^r."""
        if self.detune == 0.0:
            return _coefficients(self.sol, t, [(), (0,), (0, 0)])
        om = self.lat.k0 + self.detune
        tc = np.asarray(t, dtype=float)[..., None]
        down = np.exp(-1j * (om - self.lat.k0) * tc)
        factor = np.stack([(-1j * om) ** order * down for order in range(3)])
        batch = tuple(range(1, np.ndim(self.sol.u)))  # after the order axis
        return _coefficients(self.sol, t, [()] * 3,
                             factor=np.expand_dims(factor, batch))

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them
        first, and a solution batch puts its axis before them."""
        return tuple(mode_sum_grid(self.lat, *self.coefficients(t)))


class SolutionHistory(DetunedHistory):
    """History view of an exact solution: the detuned history at detune 0."""

    def __init__(self, sol: Solution):
        DetunedHistory.__init__(self, sol, 0.0)

    # Its own ``at``: perfbench/tracing.py wraps each class's by name.
    at = DetunedHistory.at


class PolynomialTimeHistory:
    """Spatially constant history phi(t) = sum_j c_j t^j (a probe, not a solution)."""

    def __init__(self, lat: ModeLattice, coeffs):
        self.lat = lat
        self.coeffs = [float(c) for c in coeffs]

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them first."""
        tx = np.multiply.outer(t, np.ones(self.lat.grid_shape))
        return tuple(np.polyval(np.polyder(self.coeffs[::-1], r), tx) for r in range(3))


class WindowedPerturbation:
    """base + eps * eta(t) * variation for each base and each eps.

    eta is the bump (4 s (1-s))^q, s = (t - t1) / (t2 - t1), on [t1, t2] and
    zero outside; its q derivatives vanish at both ends, keeping the windowed
    integrand smooth enough for clean Simpson convergence.  The bases' fields
    are stacked on a leading axis, and a 1-D array ``eps`` puts its own axis
    in front of that: shape ([n_eps,] n_bases) + a base's.  The bases and
    the variation are unbatched detuned histories (solution histories
    included) of one lattice and one realness; ``at`` stacks their
    coefficients for one ``mode_sum_grid`` call, each member's grids bit for
    bit those of its own ``at``, and applies the window by the product rule,
    so the time derivatives are exact.  Other members, no base, a non-finite
    eps and a window without finite ends t1 < t2 are a ValueError.
    """

    def __init__(self, bases, variation, t1: float, t2: float, eps):
        t1, t2 = float(t1), float(t2)
        if not (abs(t1) < np.inf and abs(t2) < np.inf):
            raise ValueError(f"the window ends must be finite, got [{t1}, {t2}]")
        if not t1 < t2:
            raise ValueError(f"the window needs t1 < t2, got [{t1}, {t2}]")
        self.bases = list(bases)
        self.var = variation
        self.t1, self.t2 = t1, t2
        self.eps = np.asarray(eps, dtype=float)
        if not self.bases:
            raise ValueError("bases must hold at least one history")
        if not np.isfinite(self.eps).all():
            raise ValueError(f"eps must be finite, got {eps!r}")
        members = [*self.bases, variation]
        if not (all(isinstance(h, DetunedHistory) and np.ndim(h.sol.u) == 1
                    for h in members)
                and len({(h.lat, h.sol.real_flag) for h in members}) == 1):
            raise ValueError("the family takes unbatched solution or detuned "
                             "histories of one lattice and one realness")
        self.lat = variation.lat

    def _window(self, t):
        """(eta, eta', eta'') at t, shaped to broadcast over the grid axes."""
        T, q = self.t2 - self.t1, _WINDOW_ORDER
        s = (np.asarray(t, dtype=float) - self.t1) / T
        inside = (s > 0.0) & (s < 1.0)
        s = np.where(inside, s, 0.0)
        u = s * (1.0 - s)
        eta = ((4.0 * s * (1.0 - s)) ** q,
               q * 4.0 ** q * u ** (q - 1) * (1.0 - 2.0 * s) / T,
               q * 4.0 ** q * ((q - 1) * u ** (q - 2) * (1.0 - 2.0 * s) ** 2
                               - 2.0 * u ** (q - 1)) / T ** 2)
        grid = (Ellipsis,) + (None,) * self.lat.d
        return tuple(np.where(inside, v, 0.0)[grid] for v in eta)

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t, after the eps and base axes."""
        members = [h.coefficients(t) for h in (*self.bases, self.var)]
        grids = mode_sum_grid(self.lat, *(np.stack(branch, axis=1)
                                          for branch in zip(*members)))
        b0, b1, b2 = grids[:, :-1]  # (order, member, [time,]) + grid_shape
        v0, v1, v2 = grids[:, -1]
        w, w1, w2 = self._window(t)
        e = self.eps.reshape(self.eps.shape + (1,) * b0.ndim)
        return (b0 + e * w * v0,
                b1 + e * (w1 * v0 + w * v1),
                b2 + e * (w2 * v0 + 2.0 * w1 * v1 + w * v2))


def write_cauchy_csv(lat: ModeLattice, phi0, pi0, path) -> None:
    """Columns: flat (C-order) grid index, phi0, pi0."""
    phi0 = np.asarray(phi0, dtype=float).reshape(-1)
    pi0 = np.asarray(pi0, dtype=float).reshape(-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "phi0", "pi0"])
        for i, (a, b) in enumerate(zip(phi0, pi0)):
            writer.writerow([i, repr(float(a)), repr(float(b))])


def read_cauchy_csv(lat: ModeLattice, path):
    """Inverse of write_cauchy_csv; validates length against the grid."""
    idx, phi, pi = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "index":
                continue
            where = f"Cauchy CSV line {reader.line_num}"
            if len(row) != 3:
                raise ValueError(f"{where}: expected three fields index,phi0,pi0")
            try:
                k, a, b = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.isfinite([a, b]).all():
                raise ValueError(f"{where}: phi0 and pi0 must be finite")
            idx.append(k)
            phi.append(a)
            pi.append(b)
    n_cells = int(np.prod(lat.grid_shape))
    if len(idx) != n_cells or sorted(idx) != list(range(n_cells)):
        raise ValueError("Cauchy CSV does not cover the grid exactly once")
    phi_arr = np.empty(n_cells)
    pi_arr = np.empty(n_cells)
    phi_arr[idx] = phi
    pi_arr[idx] = pi
    return phi_arr.reshape(lat.grid_shape), pi_arr.reshape(lat.grid_shape)
