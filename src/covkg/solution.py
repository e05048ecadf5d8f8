"""Klein-Gordon solutions as mass-shell mode data.

A solution of box phi + m^2 phi = 0 on the periodic box is stored through its
mode coefficients (u_k, u*_k):

    phi(t, x) = (2pi)^(-d/2) sum_k w_k (u_k e^{-i k.x} + u*_k e^{+i k.x}),

with k.x = k0 t - kvec.xvec, so the u branch carries e^{-i k0 t} e^{+i kvec.x}
and the u* branch its reflection.  Real fields satisfy u*_k = conj(u_k).
Time never enters the state: evaluation is exact mode arithmetic, and
``evolve_exact`` merely re-bases the phases.  A leapfrog integrator is kept
alongside as an independent finite-difference oracle for the same equation.

Evaluation.  ``synthesize`` makes grids from the mode data in one pass: one
phase table, one scatter onto the FFT bins and one inverse FFT over stacked
leading axes.  A call may ask for a list of derivative orders, a 1-D array
of times and, through ``u``/``ustar`` of shape (n_batch, n_modes), a batch
of solutions (the observables suite stacks its ladder generators this way);
the grids come out with the axes (order, batch, time) + grid_shape.  Each
grid equals, bit for bit, the grid of the call that asks for it alone.
``fields_and_orders`` (with ``evaluate_fields`` and ``second_derivatives``
built on it) and each history's ``at`` make one such call.  A time window's
``on_grid`` gives the window and its two derivatives from one pass.
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
# Grid values per block of stacked synthesized fields: bounds the memory of
# the action quadratures and of the batched bracket pairing.
_BLOCK_CELLS = 4096


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

    With ``real_flag`` the conjugacy u*_k = conj(u_k) is enforced: it is
    filled in when ``ustar`` is omitted and validated (within 1e-12) when
    both arrays are supplied.
    """
    u = np.array(u, dtype=complex)
    if u.shape != (lat.n_modes,):
        raise ValueError(f"expected {lat.n_modes} coefficients, got {u.shape}")
    if ustar is None:
        if not real_flag:
            raise ValueError("complex solutions need explicit ustar")
        ustar = np.conj(u)
    else:
        ustar = np.array(ustar, dtype=complex)
        if ustar.shape != u.shape:
            raise ValueError("u and ustar shapes differ")
        if real_flag:
            err = np.max(np.abs(ustar - np.conj(u))) if u.size else 0.0
            if err > _CONJ_TOL:
                raise ValueError(
                    f"reality violated: max |ustar - conj(u)| = {err:.3e}")
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
def _order_factors(lat: ModeLattice, orders: tuple):
    """Branch multipliers (fu, fus) of each derivative order, stacked into
    two read-only arrays of shape (len(orders), n_modes)."""
    stacks = ([], [])
    for mus in orders:
        fu = np.ones(lat.n_modes, dtype=complex)
        fus = np.ones(lat.n_modes, dtype=complex)
        for mu in mus:
            a, b = derivative_factors(lat, mu)
            fu, fus = fu * a, fus * b
        stacks[0].append(fu)
        stacks[1].append(fus)
    out = tuple(np.stack(s) for s in stacks)
    for arr in out:
        arr.setflags(write=False)
    return out


def synthesize(sol: Solution, t, mus=(), extra_u=None, extra_us=None):
    """Evaluate (prod_mu d_mu) phi on the grid at time t.

    ``t`` is a scalar, giving one grid, or a 1-D array of n_t times, giving
    stacked grids of shape (n_t,) + grid_shape with the time axis first.
    A solution with a batch axis (``u`` of shape (n_batch, n_modes)) puts
    that axis before the time axis.  ``mus`` is one derivative order, a
    tuple of axes, or a list of such tuples: a list stacks one grid per
    order on a new leading axis, all from one phase table, one scatter and
    one inverse FFT, each equal bit for bit to the call with that order
    alone; anything else, a tuple of tuples included, is a TypeError.
    ``extra_u``/``extra_us`` multiply the two branches with
    arbitrary per-mode factors (used for operator polynomials such as the
    Klein-Gordon symbol); they broadcast against the coefficient table of
    shape ([n_orders,] [n_batch,] [n_t,] n_modes).  Real solutions yield
    real grids whenever the branch factors are conjugate.
    """
    lat = sol.lat
    stacked = isinstance(mus, list)
    orders = mus if stacked else [mus]
    for order in orders:
        if not (isinstance(order, tuple)
                and all(isinstance(a, (int, np.integer)) for a in order)):
            raise TypeError("mus must be a tuple of axes or a list of "
                            f"such tuples, not {mus!r}")
    t = np.asarray(t, dtype=float)
    shape = ((len(orders),) + (1,) * (np.ndim(sol.u) - 1 + t.ndim)
             + (lat.n_modes,))
    fu, fus = (f.reshape(shape)
               for f in _order_factors(lat, tuple(map(tuple, orders))))
    if extra_u is not None:
        fu = fu * extra_u
    if extra_us is not None:
        fus = fus * extra_us
    pref = (2.0 * np.pi) ** (-lat.d / 2.0)
    tc = t[..., None]
    u, ustar = (np.expand_dims(c, tuple(range(-1 - t.ndim, -1)))
                for c in (sol.u, sol.ustar))
    plus = pref * lat.w * u * np.exp(-1j * lat.k0 * tc) * fu
    minus = pref * lat.w * ustar * np.exp(1j * lat.k0 * tc) * fus
    grid = mode_sum_grid(lat, plus, minus)
    if not stacked:
        grid = grid[0]
    if sol.real_flag and extra_u is None and extra_us is None:
        return grid.real
    return grid


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


def second_derivatives(sol: Solution, t: float) -> tuple:
    """(slice fields, the matrix d_mu d_nu phi of shape (d+1, d+1, N^d)).

    Both come from one stacked synthesis (``fields_and_orders``).
    """
    n = sol.lat.d + 1
    pairs = [(mu, nu) for mu in range(n) for nu in range(mu, n)]
    sd, grids = fields_and_orders(sol, t, pairs)
    out = np.empty((n, n) + sol.lat.grid_shape, dtype=grids.dtype)
    for (mu, nu), grid in zip(pairs, grids):
        out[mu, nu] = out[nu, mu] = grid
    return sd, out


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
    grid = synthesize(sol, t, extra_u=sym, extra_us=sym)
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
# Field histories: anything that can produce (phi, d_t phi, d_tt phi) grids.
# They let the action and current functionals run on configurations that are
# not solutions (windowed perturbations, detuned frequencies, probes).
# ---------------------------------------------------------------------------

class SolutionHistory:
    """History view of an exact solution."""

    def __init__(self, sol: Solution):
        self.sol = sol
        self.lat = sol.lat

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them first."""
        return tuple(synthesize(self.sol, t, [(), (0,), (0, 0)]))


class DetunedHistory:
    """Solution-shaped history with every frequency shifted by ``detune``.

    For detune != 0 the configuration violates the field equation by
    (2 k0 detune + detune^2) per mode, giving a controlled off-shell field.
    """

    def __init__(self, sol: Solution, detune: float):
        self.sol = sol
        self.lat = sol.lat
        self.detune = float(detune)

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them first."""
        lat, s = self.lat, self.sol
        om = lat.k0 + self.detune
        tc = np.asarray(t, dtype=float)[..., None]
        down = np.exp(-1j * (om - lat.k0) * tc)
        up = np.exp(1j * (om - lat.k0) * tc)
        grids = synthesize(
            s, t, [()] * 3,
            extra_u=np.stack([(-1j * om) ** order * down for order in range(3)]),
            extra_us=np.stack([(1j * om) ** order * up for order in range(3)]))
        return tuple(grids.real if s.real_flag else grids)


class PolynomialTimeHistory:
    """Spatially constant history phi(t) = sum_j c_j t^j (a probe, not a solution)."""

    def __init__(self, lat: ModeLattice, coeffs):
        self.lat = lat
        self.coeffs = [float(c) for c in coeffs]

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them first."""
        tx = np.multiply.outer(t, np.ones(self.lat.grid_shape))
        return tuple(np.polyval(np.polyder(self.coeffs[::-1], r), tx) for r in range(3))


@dataclass(frozen=True)
class TimeWindow:
    """Polynomial bump on [t1, t2]: eta = (4 s (1-s))^q, zero outside.

    q derivatives vanish at both ends, keeping the windowed integrand
    smooth enough for clean Simpson convergence.
    """

    t1: float
    t2: float
    q: int = 6

    def on_grid(self, t, d: int):
        """(eta, eta', eta'') at t, shaped to broadcast over d grid axes."""
        T, q = self.t2 - self.t1, self.q
        s = (np.asarray(t, dtype=float) - self.t1) / T
        inside = (s > 0.0) & (s < 1.0)
        s = np.where(inside, s, 0.0)
        u = s * (1.0 - s)
        value = (4.0 * s * (1.0 - s)) ** q
        d1 = q * 4.0 ** q * u ** (q - 1) * (1.0 - 2.0 * s) / T
        d2 = q * 4.0 ** q * ((q - 1) * u ** (q - 2) * (1.0 - 2.0 * s) ** 2
                             - 2.0 * u ** (q - 1)) / T ** 2
        grid = (Ellipsis,) + (None,) * d
        return tuple(np.where(inside, v, 0.0)[grid] for v in (value, d1, d2))


def windowed_fields(base, var, window, eps: float):
    """(phi, d_t phi, d_tt phi) of base + eps * eta * var by the product rule.

    ``base`` and ``var`` are the (phi, d_t phi, d_tt phi) of the two
    histories and ``window`` is ``TimeWindow.on_grid`` at the same times.
    An array ``eps`` with a leading axis stacks one set of fields per value.
    """
    b0, b1, b2 = base
    v0, v1, v2 = var
    w, w1, w2 = window
    e = eps
    return (b0 + e * w * v0,
            b1 + e * (w1 * v0 + w * v1),
            b2 + e * (w2 * v0 + 2.0 * w1 * v1 + w * v2))


class WindowedPerturbation:
    """base + eps * eta(t) * variation, with exact time derivatives."""

    def __init__(self, base, variation, window: TimeWindow, eps: float):
        self.base = base
        self.var = variation
        self.window = window
        self.eps = float(eps)
        self.lat = base.lat

    def at(self, t):
        """(phi, d_t phi, d_tt phi) at t; a 1-D array of times stacks them first."""
        return windowed_fields(self.base.at(t), self.var.at(t),
                               self.window.on_grid(t, self.lat.d), self.eps)


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
