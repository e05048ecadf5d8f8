"""Periodic box, truncated Fourier modes, and the discrete mass-shell measure.

Space is the periodic box [0, L)^d sampled on a uniform grid of N points per
axis, x_j = j L / N.  Retained wave vectors are k = (2pi/L) n with integer
|n_i| <= n_max; each carries the frequency k0 = sqrt(m^2 + |k|^2) and the
quadrature weight

    w_k = (2pi/L)^d / (2 k0),

the discrete counterpart of the invariant measure dk/(2 k0) on the positive
mass shell.  The hat transform uses the convention

    psi_hat(k) = (2pi)^(-d/2) (L/N)^d sum_j psi(x_j) e^(-i k.x_j),

which is exact (to roundoff) on band-limited fields because 2 n_max + 1 <= N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _modulus(z) -> np.ndarray:
    """|z| rounded as by Python's abs(complex); np.abs may differ."""
    return np.hypot(z.real, z.imag)


def _check_number(what: str, value, integral: bool) -> None:
    """The rule for lattice and config numbers: integers where ``integral``,
    else int or float, never a bool, inf or nan."""
    kind = int if integral else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) < np.inf):
        raise ValueError(f"{what} must be " + (
            "an integer" if integral else "a finite real number")
            + f", got {value!r}")


def _integers(what: str, value) -> np.ndarray:
    """``value`` as intp; a nonempty float or boolean array, or a boolean
    among integers (numpy would cast it to 0 or 1), is a ValueError."""
    arr = np.asarray(value)
    mixed = not isinstance(value, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(value, object).flat
    )
    if arr.size and (arr.dtype.kind not in "iu" or mixed):
        raise ValueError(f"{what} must be integers, got {value!r}")
    return arr.astype(np.intp, copy=False)


def _cmul(a, b) -> np.ndarray:
    """a * b from real and imaginary parts, one ufunc call per product,
    written into the parts of the output with one scratch array."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)),
                   dtype=complex)
    re, im, scratch = out.real, out.imag, np.empty(out.shape)
    np.multiply(a.real, b.real, out=re)
    np.subtract(re, np.multiply(a.imag, b.imag, out=scratch), out=re)
    np.multiply(a.real, b.imag, out=im)
    np.add(im, np.multiply(a.imag, b.real, out=scratch), out=im)
    return out


@dataclass(frozen=True)
class ModeLattice:
    """Spatial grid plus the truncated positive mass shell.

    Parameters
    ----------
    d : spatial dimension (>= 1)
    L : box side length (> 0)
    N : grid points per axis (even, with 2*n_max + 1 <= N)
    n_max : per-axis mode cutoff (>= 0)
    m : mass (> 0; the massless zero mode has w_k = inf and is rejected)
    hbar : Planck constant (> 0)

    Derived arrays (read-only): ``modes`` the integer vectors n, ``k`` the
    wave vectors, ``k0`` the frequencies, ``w`` the weights.
    """

    d: int
    L: float
    N: int
    n_max: int
    m: float
    hbar: float = 1.0
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    k0: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("d", "L", "N", "n_max", "m", "hbar"):
            _check_number(f"lattice {name!r}", getattr(self, name),
                          name in ("d", "N", "n_max"))
        if self.d < 1:
            raise ValueError("spatial dimension d must be >= 1")
        if not self.L > 0:
            raise ValueError("box length L must be positive")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("grid size N must be a positive even integer")
        if self.n_max < 0:
            raise ValueError("mode cutoff n_max must be >= 0")
        if 2 * self.n_max + 1 > self.N:
            raise ValueError(
                "aliasing: need 2*n_max + 1 <= N "
                f"(got n_max={self.n_max}, N={self.N})"
            )
        if not self.m > 0:
            raise ValueError("mass must be positive (k0 > 0 on the mass shell)")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

        rng_n = range(-self.n_max, self.n_max + 1)
        modes = np.array(list(itertools.product(rng_n, repeat=self.d)), dtype=int)
        with np.errstate(all="ignore"):  # out-of-range values fail below
            try:
                k = (2.0 * np.pi / self.L) * modes.astype(float)
                k0 = np.sqrt(self.m ** 2 + np.sum(k * k, axis=1))
                w = (2.0 * np.pi / self.L) ** self.d / (2.0 * k0)
            except OverflowError:  # a Python float power
                k0 = w = np.array([np.inf])
        if not np.all((0 < k0) & (k0 < np.inf) & (0 < w) & (w < np.inf)):
            raise ValueError("lattice out of floating-point range: every "
                             "k0 and w must be finite and positive")
        for name, arr in (("modes", modes), ("k", k), ("k0", k0), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def grid_shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.d

    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis, x_j = j L / N."""
        return np.arange(self.N) * (self.L / self.N)

    def mode_index(self, n) -> int:
        """Index of the mode with integer vector n (lexicographic order)."""
        n = np.atleast_1d(_integers("a mode vector", n))
        if n.shape != (self.d,) or np.any(np.abs(n) > self.n_max):
            raise ValueError(f"{n} is not a lattice mode")
        return int(np.ravel_multi_index(n + self.n_max,
                                        (2 * self.n_max + 1,) * self.d))

    def conj_index(self) -> np.ndarray:
        """Permutation sending each mode to its spatial reflection k -> -k."""
        # lexicographic enumeration of a symmetric range reverses under n -> -n
        return np.arange(self.n_modes)[::-1].copy()

    def fft_indices(self) -> tuple:
        """Per-axis FFT bin of each mode (n_i mod N), as an index tuple."""
        return tuple(np.mod(self.modes[:, a], self.N) for a in range(self.d))


@lru_cache(typed=True)
def build_lattice(d: int, L: float, N: int, n_max: int, m: float,
                  hbar: float = 1.0) -> ModeLattice:
    """Validate parameters and build a ModeLattice, once per argument list."""
    return ModeLattice(d=d, L=L, N=N, n_max=n_max, m=m, hbar=hbar)


def _check_grid(lat: ModeLattice, grid_field, batched: bool = False) -> np.ndarray:
    """The field as an array; ``batched`` also admits leading (batch, time)
    axes before the grid axes."""
    arr = np.asarray(grid_field)
    shape = arr.shape[arr.ndim - lat.d:] if batched else arr.shape
    if shape != lat.grid_shape:
        raise ValueError(f"grid field must have shape {lat.grid_shape}, "
                         f"got {arr.shape}")
    return arr


def dft_forward(lat: ModeLattice, grid_field) -> np.ndarray:
    """Hat transform: per-mode psi_hat(k) under the stated normalization."""
    arr = _check_grid(lat, grid_field)
    spec = np.fft.fftn(arr)
    coeff = spec[lat.fft_indices()]
    return (2.0 * np.pi) ** (-lat.d / 2.0) * (lat.L / lat.N) ** lat.d * coeff


def dft_inverse(lat: ModeLattice, mode_coefficients) -> np.ndarray:
    """Inverse of dft_forward on the retained band (returns a complex grid)."""
    coeff = np.asarray(mode_coefficients, dtype=complex)
    if coeff.shape != (lat.n_modes,):
        raise ValueError(f"expected {lat.n_modes} mode coefficients, "
                         f"got shape {coeff.shape}")
    spec = np.zeros(lat.grid_shape, dtype=complex)
    scale = (2.0 * np.pi) ** (lat.d / 2.0) / lat.L ** lat.d
    np.add.at(spec, lat.fft_indices(), coeff * scale)
    return np.fft.ifftn(spec) * lat.N ** lat.d


def mode_sum_grid(lat: ModeLattice, plus_coeff,
                  minus_coeff=None) -> np.ndarray:
    """Evaluate sum_k (c+_k e^{+i k.x} + c-_k e^{-i k.x}) on the grid.

    The two coefficient arrays sit on the same mode list.  The e^{-ik.x}
    branch of mode -k lands on the bin of mode k, so every retained bin gets
    S_k = plus[k] + minus[conj(k)] in one assignment; the bins are distinct
    because ``conj_index`` reverses the mode list.  Exact for the retained
    band since all bin residues are distinct.  Coefficient arrays with
    leading axes, shape (..., n_modes), give stacked grids of shape
    (...) + grid_shape from one inverse FFT over the trailing grid axes.
    Without ``minus_coeff`` the sum is real, c-_k = conj(c+_k): then
    S_k = plus[k] + conj(plus[-k]) fills the half spectrum, the modes with
    last component >= 0, and one unscaled ``irfftn`` gives real grids.
    """
    bins, conj, half_bins, half, half_conj = _scatter_indices(lat)
    plus = np.asarray(plus_coeff)
    axes, lead = range(-lat.d, 0), plus.shape[:-1]
    if minus_coeff is None:
        spec = np.zeros(lead + lat.grid_shape[:-1] + (lat.N // 2 + 1,),
                        dtype=complex)
        spec[half_bins] = plus[..., half] + np.conj(plus[..., half_conj])
        return np.fft.irfftn(spec, lat.grid_shape, axes, norm="forward")
    spec = np.zeros(lead + lat.grid_shape, dtype=complex)
    spec[bins] = plus + np.asarray(minus_coeff)[..., conj]
    return np.fft.ifftn(spec, axes=axes) * lat.N ** lat.d


@lru_cache(maxsize=64)
def _scatter_indices(lat: ModeLattice) -> tuple:
    """Read-only (retained bins on stacked grids, ``conj_index``, and the
    half bins, indices and reflections of modes with last component >= 0).
    ``conj_index`` reverses the mode list, and at d = 1 the half modes are
    n = 0..n_max in order, so those are slices: indexing takes views."""
    bins, conj = lat.fft_indices(), lat.conj_index()
    half = np.flatnonzero(lat.modes[:, -1] >= 0)
    half_bins, half_conj = tuple(b[half] for b in bins), conj[half]
    for arr in (*bins, *half_bins, half, half_conj):
        arr.setflags(write=False)
    if lat.d == 1:
        n = lat.n_max
        half_bins, half, half_conj = ((slice(0, n + 1),), slice(n, None),
                                      slice(n, None, -1))
    return ((Ellipsis,) + bins, slice(None, None, -1),
            (Ellipsis,) + half_bins, half, half_conj)


def _spectral(lat: ModeLattice, grid_field, kind: int,
              stacked: bool) -> np.ndarray:
    """irfft(mult * rfft(field)) over the grid axes on the half spectrum,
    mult the ``kind`` entry of ``_multipliers``; a complex field returns
    ``_complex`` of the results of its real and imaginary parts.

    The one transform pair behind every spectral derivative.  With
    ``stacked`` the multipliers carry an axis of their own, which lands
    just before the grid axes of the output; each of its grids equals, bit
    for bit, the grid of that multiplier applied alone."""
    arr = _check_grid(lat, grid_field, batched=True)
    if np.iscomplexobj(arr):
        return _complex(_spectral(lat, arr.real, kind, stacked),
                        _spectral(lat, arr.imag, kind, stacked))
    axes = range(-lat.d, 0)
    spec = np.fft.rfftn(arr, axes=axes)
    if stacked:
        spec = np.expand_dims(spec, -lat.d - 1)
    return np.fft.irfftn(_multipliers(lat)[kind] * spec, lat.grid_shape, axes)


@lru_cache(maxsize=64)
def _multipliers(lat: ModeLattice) -> tuple:
    """Read-only (i k_a stacked over the d axes, -|k|^2, both stacked with
    the Laplacian last) on the half spectrum.  The gradient is 0 on the
    Nyquist bin of its axis: the real part of the full-grid gradient of a
    real field drops that term, and covkg's grids are band-limited
    (2 n_max + 1 <= N leaves the bin empty), so it changes nothing there."""
    k = 2.0 * np.pi * np.fft.fftfreq(lat.N, d=lat.L / lat.N)
    k_odd = np.where(np.arange(lat.N) == lat.N // 2, 0.0, k)
    half = (Ellipsis, slice(0, lat.N // 2 + 1))
    kk, kk_odd = (np.stack(np.broadcast_arrays(*(
        v.reshape([-1 if b == a else 1 for b in range(lat.d)])
        for a in range(lat.d))))[half] for v in (k, k_odd))
    grad, lap = 1j * kk_odd, -sum(ka ** 2 for ka in kk)
    out = (grad, lap, np.concatenate([grad, lap[None]]))
    for arr in out:
        arr.setflags(write=False)
    return out


def spectral_gradient(lat: ModeLattice, grid_field) -> np.ndarray:
    """All spatial derivatives of a band-limited grid field, shape (d, N^d).

    A stack of fields with leading (batch, time) axes gives those axes,
    then d, then grid_shape.
    """
    return _spectral(lat, grid_field, 0, True)


def spectral_divergence(lat: ModeLattice, vector_field) -> np.ndarray:
    """sum_a d/dx^a of component a, for fields of shape (..., d) + grid_shape,
    from one transform pair; the terms are added in component order."""
    terms = _spectral(lat, vector_field, 0, False)
    total = 0.0
    for term in np.moveaxis(terms, -lat.d - 1, 0):
        total = total + term
    return total


def spectral_laplacian(lat: ModeLattice, grid_field) -> np.ndarray:
    """Laplacian of a band-limited grid field via the half-spectrum FFT.

    Accepts a stack of fields with leading (batch, time) axes, like
    ``spectral_gradient``; the output has the shape of the input.
    """
    return _spectral(lat, grid_field, 1, False)


def spectral_gradient_laplacian(lat: ModeLattice, grid_field) -> tuple:
    """(``spectral_gradient``, ``spectral_laplacian``) of one field, from one
    forward transform with the d + 1 multipliers stacked; each equals, bit
    for bit, the output of its own function."""
    out = _spectral(lat, grid_field, 2, True)
    grid = (slice(None),) * lat.d
    return out[(Ellipsis, slice(0, lat.d)) + grid], out[(Ellipsis, lat.d) + grid]


def grid_integral(lat: ModeLattice, values):
    """Cell volume times the sum of ``values`` over the trailing grid axes,
    one pairwise sum per grid; leading axes stay, empty ones included."""
    values = np.asarray(values)
    flat = values.reshape(*values.shape[:-lat.d], prod(values.shape[-lat.d:]))
    return lat.cell_volume * np.sum(flat, axis=-1)


def out_of_band_fraction(lat: ModeLattice, grid_field) -> float:
    """Fraction of spectral power carried by bins outside the retained band."""
    arr = _check_grid(lat, grid_field)
    spec = np.fft.fftn(arr)
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    mask = np.zeros(lat.grid_shape, dtype=bool)
    mask[lat.fft_indices()] = True
    return float(np.sum(np.abs(spec[~mask]) ** 2) / total)
