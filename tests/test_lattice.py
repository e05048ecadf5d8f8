"""Grid, mode table, and transform tests against direct-sum oracles."""

import numpy as np
import pytest

from covkg import build_lattice, dft_forward, dft_inverse
from covkg.lattice import (
    ModeLattice,
    _cmul,
    _complex,
    _scatter_indices,
    grid_integral,
    mode_sum_grid,
    out_of_band_fraction,
    spectral_divergence,
    spectral_gradient,
    spectral_gradient_laplacian,
    spectral_laplacian,
)
from covkg.solution import random_solution, stack_solutions, synthesize


@pytest.fixture(scope="module")
def lat2d():
    return build_lattice(d=2, L=5.0, N=12, n_max=4, m=0.7)


def test_mode_table_shapes(lat, lat2d):
    assert lat.n_modes == 15
    assert lat.modes.shape == (15, 1)
    assert lat2d.n_modes == 81
    assert lat2d.modes.shape == (81, 2)
    assert lat2d.k.shape == (81, 2)
    assert lat2d.k0.shape == (81,)
    assert lat2d.w.shape == (81,)


def test_modes_lexicographic(lat2d):
    rows = [tuple(r) for r in lat2d.modes]
    assert rows == sorted(rows)


def test_wavevectors_and_weights(lat):
    """k = (2 pi / L) n, k0 on the mass shell, w = (2 pi / L)^d / (2 k0)."""
    np.testing.assert_allclose(lat.k[:, 0], lat.modes[:, 0].astype(float))
    np.testing.assert_allclose(lat.k0, np.sqrt(1.0 + lat.k[:, 0] ** 2))
    np.testing.assert_allclose(lat.w, 1.0 / (2.0 * lat.k0))


def test_zero_mode_weight_is_half(lat):
    i0 = lat.mode_index((0,))
    assert lat.k0[i0] == 1.0
    assert lat.w[i0] == 0.5


@pytest.mark.parametrize("n", [[0.9], [-0.5], True, [True], np.array([1.0])])
def test_mode_index_rejects_non_integer_vectors(lat, n):
    """A float or boolean mode vector raises instead of truncating to a
    neighbouring mode (0.9 and -0.5 read as the zero mode, True as mode 1)."""
    with pytest.raises(ValueError, match="must be integers"):
        lat.mode_index(n)
    assert lat.mode_index(np.array([1])) == lat.mode_index((1,)) == 8


def test_mode_index_rejects_a_boolean_among_integers(lat2d):
    """numpy reads (True, 2) as the int array [1, 2], so the boolean is
    found in the sequence itself."""
    with pytest.raises(ValueError, match="must be integers"):
        lat2d.mode_index((True, 2))
    assert lat2d.mode_index((1, 2)) == lat2d.mode_index(np.array([1, 2]))


def test_dispersion_matches_table(lat2d):
    for i in range(lat2d.n_modes):
        k0 = np.sqrt(lat2d.m ** 2 + lat2d.k[i] @ lat2d.k[i])
        assert k0 == pytest.approx(lat2d.k0[i])


def test_conj_index_reverses(lat2d):
    ci = lat2d.conj_index()
    np.testing.assert_array_equal(lat2d.modes[ci], -lat2d.modes)
    np.testing.assert_array_equal(ci[ci], np.arange(lat2d.n_modes))


@pytest.mark.parametrize("bad", [
    dict(d=0, L=1.0, N=8, n_max=2, m=1.0),
    dict(d=1, L=0.0, N=8, n_max=2, m=1.0),
    dict(d=1, L=1.0, N=7, n_max=2, m=1.0),
    dict(d=1, L=1.0, N=8, n_max=4, m=1.0),
    dict(d=1, L=1.0, N=8, n_max=-1, m=1.0),
    dict(d=1, L=1.0, N=8, n_max=2, m=0.0),
    dict(d=1, L=1.0, N=8, n_max=2, m=-2.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        build_lattice(**bad)


_GOOD = dict(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0, hbar=1.0)


@pytest.mark.parametrize("name, value", [
    ("N", 32.5), ("N", 32.0), ("N", True), ("N", "32"),
    ("d", 1.7), ("d", True), ("n_max", True), ("n_max", 7.0),
    ("L", np.inf), ("L", np.nan), ("L", True), ("L", "6.28"),
    ("m", np.inf), ("m", -np.inf), ("m", False), ("hbar", np.inf),
])
def test_parameters_are_validated_not_coerced(name, value):
    """Integers stay integers (no bool, no truncation) and reals are finite,
    as in RunConfig; the error names the parameter."""
    for make in (build_lattice, ModeLattice):
        with pytest.raises(ValueError, match=f"lattice '{name}' must be"):
            make(**{**_GOOD, name: value})


@pytest.mark.parametrize("change", [
    {"m": 1e200}, {"d": 2, "L": 1e-200, "N": 8, "n_max": 3},
    {"L": 1e-200, "N": 8, "n_max": 3}])
def test_a_lattice_out_of_float_range_is_rejected(change):
    """A lattice whose k0 or w is not finite and positive is a ValueError,
    not an OverflowError of the Python float powers m^2 and (2 pi / L)^d,
    nor a lattice with k0 = inf and w = 0 (|k|^2 overflows at d = 1 and
    L = 1e-200)."""
    with pytest.raises(ValueError, match="out of floating-point range"):
        ModeLattice(**{**_GOOD, **change})


def test_integer_reals_are_accepted():
    assert build_lattice(1, 6, 32, 7, 1, 1) == build_lattice(1, 6.0, 32, 7, 1.0)


def test_build_lattice_shares_one_frozen_lattice_per_argument_list():
    """Every caller with one argument list gets the same lattice, which no
    caller can change; an int and a float of one value are two lists."""
    lat = build_lattice(1, 6.0, 32, 7, 1.0)
    assert build_lattice(1, 6.0, 32, 7, 1.0) is lat
    assert build_lattice(1, 6, 32, 7, 1.0) is not lat
    with pytest.raises(AttributeError):
        lat.N = 16
    for arr in (lat.modes, lat.k, lat.k0, lat.w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def _direct_hat(lat, grid_field):
    """Slow direct-sum transform used as the oracle for dft_forward."""
    x = lat.axis()
    out = np.zeros(lat.n_modes, dtype=complex)
    cell = (lat.L / lat.N) ** lat.d
    norm = (2.0 * np.pi) ** (-lat.d / 2.0)
    for i in range(lat.n_modes):
        phase = np.ones(lat.grid_shape, dtype=complex)
        for ax in range(lat.d):
            shape = [1] * lat.d
            shape[ax] = lat.N
            phase = phase * np.exp(-1j * lat.k[i, ax] * x).reshape(shape)
        out[i] = norm * cell * np.sum(grid_field * phase)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_dft_forward_matches_direct_sum(lat, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lat.grid_shape)
    np.testing.assert_allclose(dft_forward(lat, f), _direct_hat(lat, f),
                               atol=1e-13)


def test_dft_forward_matches_direct_sum_2d(lat2d):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(lat2d.grid_shape)
    np.testing.assert_allclose(dft_forward(lat2d, f), _direct_hat(lat2d, f),
                               atol=1e-13)


@pytest.mark.parametrize("d,L,N,n_max", [(1, 2 * np.pi, 32, 7), (2, 3.0, 10, 3)])
def test_round_trip_on_band_limited_fields(d, L, N, n_max):
    """inverse(forward(f)) = f whenever f has no modes beyond the cutoff."""
    lat = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.3)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    f = dft_inverse(lat, coeffs)
    np.testing.assert_allclose(dft_forward(lat, f), coeffs, atol=1e-12)
    np.testing.assert_allclose(dft_inverse(lat, dft_forward(lat, f)), f,
                               atol=1e-12)


def test_real_field_has_hermitian_coefficients(lat):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(lat.grid_shape)
    fh = dft_forward(lat, f)
    np.testing.assert_allclose(fh[lat.conj_index()], np.conj(fh), atol=1e-13)


def test_mode_sum_grid_matches_direct_sum(lat):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    b = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    got = mode_sum_grid(lat, a, b)
    x = lat.axis()
    want = np.zeros(lat.N, dtype=complex)
    for i in range(lat.n_modes):
        want = (want + a[i] * np.exp(1j * lat.k[i, 0] * x)
                + b[i] * np.exp(-1j * lat.k[i, 0] * x))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d,N,n_max", [(1, 32, 7), (1, 8, 0), (1, 32, 15),
                                       (2, 12, 4), (3, 8, 3)])
def test_scatter_indices_pick_what_their_index_arrays_pick(d, N, n_max):
    """Each index of ``_scatter_indices`` selects the elements of its index
    array form; at d = 1 all but the full bins are slices, so they read
    and write views; at d > 1 only ``conj_index``, the full reversal, is."""
    lat = build_lattice(d=d, L=2.0, N=N, n_max=n_max, m=1.0)
    bins, conj, half_bins, half, half_conj = _scatter_indices(lat)
    half_arr = np.flatnonzero(lat.modes[:, -1] >= 0)
    modes = np.arange(lat.n_modes)
    assert np.array_equal(modes[conj], lat.conj_index())
    assert np.array_equal(modes[half], half_arr)
    assert np.array_equal(modes[half_conj], lat.conj_index()[half_arr])
    grid = np.arange(N ** d).reshape(lat.grid_shape)
    assert np.array_equal(grid[bins], grid[lat.fft_indices()])
    assert np.array_equal(grid[..., :N // 2 + 1][half_bins], grid[tuple(
        b[half_arr] for b in lat.fft_indices())])
    runs = [isinstance(i, slice) for i in (conj, half, half_conj)
            + half_bins[1:]]
    assert runs == [True] + [d == 1] * (2 + d)


@pytest.mark.parametrize("which", ["lat", "lat2d"], ids=["lat1d", "lat2d"])
def test_mode_sum_grid_one_assignment_matches_two_scatters(which, request):
    """plus + minus[conj] in one assignment equals zeroed bins with one +=
    scatter per branch, bit for bit, on stacked coefficient arrays."""
    lat = request.getfixturevalue(which)
    rng = np.random.default_rng(12)
    shape = (2, 3, lat.n_modes)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = np.zeros(shape[:-1] + lat.grid_shape, dtype=complex)
    ridx = tuple(np.mod(-lat.modes[:, ax], lat.N) for ax in range(lat.d))
    spec[(Ellipsis,) + lat.fft_indices()] += a
    spec[(Ellipsis,) + ridx] += b
    want = np.fft.ifftn(spec, axes=range(-lat.d, 0)) * lat.N ** lat.d
    got = mode_sum_grid(lat, a, b)
    assert got.shape == shape[:-1] + lat.grid_shape
    assert np.array_equal(got, want)
    assert np.array_equal(got[1, 2], mode_sum_grid(lat, a[1, 2], b[1, 2]))


def _plane_waves(lat, indices):
    """Stacked plane waves exp(i k.x) of the given modes, and their k."""
    x = lat.axis()
    ks = lat.k[indices]
    waves = np.stack([np.exp(1j * kx * x)[:, None] * np.exp(1j * ky * x)[None, :]
                      for kx, ky in ks])
    return waves, ks


def test_spectral_gradient_on_plane_wave(lat2d):
    """d/dx_a exp(i k.x) = i k_a exp(i k.x), exact for retained modes."""
    x = lat2d.axis()
    kx, ky = lat2d.k[17]
    wave = (np.exp(1j * kx * x)[:, None] * np.exp(1j * ky * x)[None, :])
    grad = spectral_gradient(lat2d, wave)
    np.testing.assert_allclose(grad[0], 1j * kx * wave, atol=1e-12)
    np.testing.assert_allclose(grad[1], 1j * ky * wave, atol=1e-12)

    waves, ks = _plane_waves(lat2d, [3, 17, 40, 80])
    stacked = spectral_gradient(lat2d, waves)
    assert stacked.shape == (4, 2) + lat2d.grid_shape
    for row, w, (kx, ky) in zip(stacked, waves, ks):
        np.testing.assert_allclose(row[0], 1j * kx * w, atol=1e-12)
        np.testing.assert_allclose(row[1], 1j * ky * w, atol=1e-12)
        assert np.array_equal(row, spectral_gradient(lat2d, w))
    with pytest.raises(ValueError):
        spectral_gradient(lat2d, waves[:, :, :-1])
    # The divergence of a stack of vector fields from one transform pair is,
    # bit for bit, the gradient components of each component added in order.
    fields = np.stack([waves.real, waves.imag], axis=1)[:, :lat2d.d]
    div = spectral_divergence(lat2d, fields)
    assert div.shape == waves.shape
    want = np.zeros(waves.shape)
    for a in range(lat2d.d):
        want = want + spectral_gradient(lat2d, fields[:, a])[:, a]
    assert np.array_equal(div, want)


def test_spectral_laplacian_on_plane_wave(lat2d):
    x = lat2d.axis()
    kx, ky = lat2d.k[40]
    wave = (np.exp(1j * kx * x)[:, None] * np.exp(1j * ky * x)[None, :])
    lap = spectral_laplacian(lat2d, wave)
    np.testing.assert_allclose(lap, -(kx ** 2 + ky ** 2) * wave, atol=1e-12)

    waves, ks = _plane_waves(lat2d, [3, 17, 40, 80])
    stacked = spectral_laplacian(lat2d, waves)
    assert stacked.shape == waves.shape
    for row, w, (kx, ky) in zip(stacked, waves, ks):
        np.testing.assert_allclose(row, -(kx ** 2 + ky ** 2) * w, atol=1e-12)
        assert np.array_equal(row, spectral_laplacian(lat2d, w))
    with pytest.raises(ValueError):
        spectral_laplacian(lat2d, waves[:, :-1, :])


_CONFIGS = [(1, 2 * np.pi, 32, 7), (2, 5.0, 16, 5), (3, 4.0, 8, 3)]


def _band_fields(d, L, N, n_max, real):
    """A band-limited field at one time, at 5 times and for a batch of 2 at
    5 times: shapes grid, (5,) + grid and (2, 5) + grid."""
    lat = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(d)
    sols = [random_solution(lat, rng, real_flag=real) for _ in range(2)]
    ts = np.linspace(0.1, 0.9, 5)
    if not real:
        sols = [0.5j * s for s in sols]  # complex grids
    return lat, [synthesize(sols[0], 0.3), synthesize(sols[0], ts),
                 synthesize(stack_solutions(sols), ts)]


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("config", _CONFIGS)
def test_real_mode_sum_is_the_real_part_of_the_complex_one(config):
    """For arbitrary, non-Hermitian coefficients (c+, c-) with (order,
    batch, time) axes, the real part of the full-grid sum is the real sum
    of the one array p = (c+ + conj(c-)) / 2, its c-_k being conj(p_k);
    the half-spectrum sum of p gives it within
    4 eps sum_k (|c+_k| + |c-_k|) per grid, and each stacked grid equals,
    bit for bit, the grid of its coefficients alone."""
    d, L, N, n_max = config
    lat = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(d)
    shape = (2, 2, 3, lat.n_modes)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p = 0.5 * (a + np.conj(b))
    got = mode_sum_grid(lat, p)
    assert got.dtype == np.float64
    assert got.shape == shape[:-1] + lat.grid_shape
    bound = 4 * _EPS * np.sum(np.abs(a) + np.abs(b), axis=-1)
    err = np.abs(got - mode_sum_grid(lat, a, b).real)
    assert np.all(err <= bound[(Ellipsis,) + (None,) * d])
    for lead in np.ndindex(shape[:-1]):
        assert np.array_equal(got[lead], mode_sum_grid(lat, p[lead]))


def _full_grid_derivatives(lat, field):
    """(gradient, Laplacian) of a field in plain numpy: ``fftn`` over the
    grid axes, times i k_a (Nyquist bin included) or -|k|^2, ``ifftn``, and
    the real part."""
    axes = tuple(range(-lat.d, 0))
    spec = np.fft.fftn(field, axes=axes)
    k = 2.0 * np.pi * np.fft.fftfreq(lat.N, d=lat.L / lat.N)
    ks = np.meshgrid(*[k] * lat.d, indexing="ij")
    grad = np.stack([np.fft.ifftn(1j * ka * spec, axes=axes).real
                     for ka in ks], axis=-lat.d - 1)
    lap = np.fft.ifftn(-sum(ka ** 2 for ka in ks) * spec, axes=axes).real
    return grad, lap


@pytest.mark.parametrize("config", _CONFIGS)
def test_real_spectral_derivatives_are_the_real_part_of_the_complex_path(
        config):
    """On real stacked fields, band-limited or not, the half-spectrum
    gradient, Laplacian, divergence and gradient-Laplacian pair are real and
    equal the real part of the full-grid results (``_full_grid_derivatives``)
    within 4 eps |k|_max^p max sum_x |f| for p derivatives."""
    lat, fields = _band_fields(*config, True)
    rng = np.random.default_rng(7)
    fields.append(rng.standard_normal((2, 3) + lat.grid_shape))
    k_max = np.pi * lat.N / lat.L
    vector = rng.standard_normal((2, lat.d) + lat.grid_shape)
    for field in fields + [vector]:
        cells = np.abs(field).reshape(-1, lat.N ** lat.d).sum(axis=-1).max()
        grad, lap = _full_grid_derivatives(lat, field)
        pairs = [(spectral_gradient(lat, field), grad, 1),
                 (spectral_laplacian(lat, field), lap, 2)]
        pairs += [(got, want, p) for got, want, p in zip(
            spectral_gradient_laplacian(lat, field), (grad, lap), (1, 2))]
        if field is vector:
            div = sum(grad[:, a, a] for a in range(lat.d))
            pairs.append((spectral_divergence(lat, field), div, 1))
        for got, want, p in pairs:
            assert got.dtype == np.float64 and got.shape == want.shape
            bound = 4 * _EPS * (lat.d * k_max ** 2) ** (p / 2) * cells
            assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("config", _CONFIGS)
def test_complex_spectral_derivatives_are_those_of_the_parts(config):
    """On complex stacked fields the gradient, Laplacian, divergence and
    gradient-Laplacian pair equal, bit for bit, ``_complex`` of the results
    of the real and imaginary parts."""
    lat, fields = _band_fields(*config, False)
    rng = np.random.default_rng(11)
    vector = (rng.standard_normal((2, lat.d) + lat.grid_shape)
              + 1j * rng.standard_normal((2, lat.d) + lat.grid_shape))

    def derivatives(field, divergence):
        out = [spectral_gradient(lat, field), spectral_laplacian(lat, field),
               *spectral_gradient_laplacian(lat, field)]
        return out + [spectral_divergence(lat, field)] if divergence else out

    for field in fields + [vector]:
        got, re, im = (derivatives(f, field is vector) for f in (
            field, np.ascontiguousarray(field.real),
            np.ascontiguousarray(field.imag)))
        for z, x, y in zip(got, re, im, strict=True):
            assert z.dtype == complex
            assert z.tobytes() == _complex(x, y).tobytes()


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("config", _CONFIGS)
def test_one_transform_gradient_laplacian_is_bitwise(config, real):
    """One forward FFT with the gradient and Laplacian multipliers stacked
    gives, bit for bit, spectral_gradient and spectral_laplacian, on one
    grid and on time- and (batch, time)-stacked grids."""
    lat, fields = _band_fields(*config, real)
    for field in fields:
        grad, lap = spectral_gradient_laplacian(lat, field)
        assert np.isrealobj(grad) == np.isrealobj(lap) == real
        assert grad.shape == field.shape[:field.ndim - lat.d] + (lat.d,) \
            + lat.grid_shape
        assert np.array_equal(grad, spectral_gradient(lat, field))
        assert np.array_equal(lap, spectral_laplacian(lat, field))
        for lead in np.ndindex(field.shape[:field.ndim - lat.d]):
            alone = spectral_gradient_laplacian(lat, field[lead])
            assert np.array_equal(grad[lead], alone[0])
            assert np.array_equal(lap[lead], alone[1])
    with pytest.raises(ValueError):
        spectral_gradient_laplacian(lat, fields[1][..., :-1])


@pytest.mark.parametrize("config", _CONFIGS)
def test_grid_integral_sums_each_grid_like_np_sum(config):
    lat, fields = _band_fields(*config, True)
    for field in fields:
        got = grid_integral(lat, field)
        assert np.shape(got) == field.shape[:field.ndim - lat.d]
        for lead in np.ndindex(np.shape(got)):
            assert got[lead] == lat.cell_volume * np.sum(field[lead])


def test_out_of_band_fraction(lat):
    x = lat.axis()
    inside = np.cos(3.0 * x)
    outside = np.cos(9.0 * x)  # n = 9 > n_max = 7
    assert out_of_band_fraction(lat, inside) < 1e-14
    assert out_of_band_fraction(lat, outside) > 0.9
    assert out_of_band_fraction(lat, inside + 0.1 * outside) > 1e-3


def _parts_product(a, b):
    """a * b as separate real and imaginary products, each a fresh array."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return re, im


def test_cmul_writes_the_part_products_bitwise():
    """``_cmul`` gives the real and imaginary parts of the part-wise
    products, bit for bit (signed zeros included), for broadcast arrays,
    0-d operands, a real operand and mirrored operands."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b[0] = complex(-0.0, 0.0)
    cases = [(a, b), (b, a), (np.complex128(0.3 - 1.7j), b), (b, 1.5 - 0.5j),
             (np.complex128(2.0 + 1.0j), np.complex128(-0.5 + 0.25j)),
             (b.real, a), (a[:, 0], a[::-1, 0])]
    for x, y in cases:
        got = _cmul(x, y)
        re, im = _parts_product(x, y)
        assert got.dtype == complex and got.shape == np.shape(re)
        assert got.real.tobytes() == np.asarray(re).tobytes()
        assert got.imag.tobytes() == np.asarray(im).tobytes()
    assert _cmul(a, b).tobytes() == _cmul(b, a).tobytes()
