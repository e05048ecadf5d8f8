"""Mode-synthesis, evolution, and Cauchy-file tests.

Closed-form oracles: a single retained mode is an explicit traveling wave,
so every field and derivative is checkable by hand.
"""

import numpy as np
import pytest

from covkg import build_lattice, evolve_exact, from_cauchy, from_modes, kg_residual
from covkg.lattice import mode_sum_grid
from covkg.solution import (
    Solution,
    SolutionHistory,
    DetunedHistory,
    PolynomialTimeHistory,
    TimeWindow,
    WindowedPerturbation,
    derivative_solution,
    evaluate_fields,
    field_energy,
    fields_and_orders,
    leapfrog_evolve,
    random_solution,
    read_cauchy_csv,
    second_derivatives,
    synthesize,
    write_cauchy_csv,
)


@pytest.fixture(scope="module")
def lat():
    return build_lattice(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0)


@pytest.fixture(scope="module")
def sol(lat):
    return random_solution(lat, np.random.default_rng(0))


def _single_mode(lat, n):
    u = np.zeros(lat.n_modes, dtype=complex)
    u[lat.mode_index(n)] = 1.0
    return from_modes(lat, u)


def test_rest_mode_is_standing_cosine(lat):
    """u = delta_{k=0} gives phi(t, x) = cos(t) / sqrt(2 pi)."""
    sol = _single_mode(lat, (0,))
    amp = 1.0 / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(synthesize(sol, 0.0),
                               np.full(32, 0.3989422804014327), atol=1e-15)
    for t in (0.0, 0.4, 2.0):
        np.testing.assert_allclose(synthesize(sol, t), amp * np.cos(t),
                                   atol=1e-14)
        np.testing.assert_allclose(synthesize(sol, t, (0,)),
                                   -amp * np.sin(t), atol=1e-14)


def test_traveling_mode_matches_plane_wave(lat):
    """u = delta_k gives phi = 2 w_k cos(k0 t - k x) / sqrt(2 pi)."""
    sol = _single_mode(lat, (3,))
    i = lat.mode_index((3,))
    k, k0, w = lat.k[i, 0], lat.k0[i], lat.w[i]
    x = lat.axis()
    for t in (0.0, 0.9):
        want = 2.0 * w * np.cos(k0 * t - k * x) / np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(synthesize(sol, t), want, atol=1e-14)
        np.testing.assert_allclose(synthesize(sol, t, (0,)),
                                   2.0 * w * k0 * np.sin(k0 * t - k * x)
                                   / np.sqrt(2.0 * np.pi) * -1.0, atol=1e-14)
        np.testing.assert_allclose(synthesize(sol, t, (1,)),
                                   2.0 * w * k * np.sin(k0 * t - k * x)
                                   / np.sqrt(2.0 * np.pi), atol=1e-14)


def test_time_derivative_against_central_difference(lat, sol):
    h = 1e-6
    fd = (synthesize(sol, 0.3 + h) - synthesize(sol, 0.3 - h)) / (2 * h)
    np.testing.assert_allclose(synthesize(sol, 0.3, (0,)), fd, atol=1e-8)


def test_momentum_fields_follow_gradient(lat, sol):
    """p^0 = dphi/dt and p^i = -dphi/dx_i on the constraint surface."""
    sd = evaluate_fields(sol, 0.6)
    np.testing.assert_allclose(sd.p[0], synthesize(sol, 0.6, (0,)), atol=1e-13)
    np.testing.assert_allclose(sd.p[1], -sd.dphi[1], atol=1e-13)
    np.testing.assert_allclose(sd.dphi[1], synthesize(sol, 0.6, (1,)), atol=1e-13)


def test_energy_density_field_negative_sum(lat, sol):
    """e = -(1/2) eta^{mu nu} d_mu phi d_nu phi - (1/2) m^2 phi^2."""
    sd = evaluate_fields(sol, 1.1)
    want = (-0.5 * sd.dphi[0] ** 2 + 0.5 * sd.dphi[1] ** 2
            - 0.5 * lat.m ** 2 * sd.phi ** 2)
    np.testing.assert_allclose(sd.e, want, atol=1e-13)


def test_second_derivatives_symmetric_and_consistent(lat, sol):
    _, hess = second_derivatives(sol, 0.8)
    assert hess.shape == (2, 2, 32)
    np.testing.assert_allclose(hess[0, 1], hess[1, 0], atol=1e-13)
    h = 1e-5
    fd = (synthesize(sol, 0.8 + h, (1,)) - synthesize(sol, 0.8 - h, (1,))) / (2 * h)
    np.testing.assert_allclose(hess[0, 1], fd, atol=1e-7)
    # trace of the Hessian reproduces the field equation
    np.testing.assert_allclose(hess[0, 0] - hess[1, 1],
                               -lat.m ** 2 * synthesize(sol, 0.8), atol=1e-12)


@pytest.mark.parametrize("mu", [0, 1])
def test_derivative_solution_synthesizes_the_derivative(lat, sol, mu):
    """d_mu Phi as a solution equals the spectral derivative of Phi."""
    from covkg.phase_space import translation_deformation

    deriv = derivative_solution(sol, mu)
    assert deriv.real_flag
    ts = np.array([0.0, 0.7])
    np.testing.assert_allclose(synthesize(deriv, ts),
                               synthesize(sol, ts, (mu,)), atol=1e-12)
    xi = translation_deformation(sol, mu)
    assert np.array_equal(xi.u, -deriv.u)
    assert np.array_equal(xi.ustar, -deriv.ustar)
    with pytest.raises(ValueError):
        derivative_solution(sol, 2)


def test_real_flag_gives_real_fields(lat):
    sol = random_solution(lat, np.random.default_rng(4))
    vals = synthesize(sol, 0.37)
    assert vals.dtype == np.float64


def test_from_cauchy_round_trip(lat):
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    base = from_modes(lat, coeffs + coeffs[lat.conj_index()].conj())
    sd = evaluate_fields(base, 0.0)
    rebuilt = from_cauchy(lat, sd.phi, sd.p[0])
    np.testing.assert_allclose(rebuilt.u, base.u, atol=1e-12)
    sd2 = evaluate_fields(rebuilt, 0.0)
    np.testing.assert_allclose(sd2.phi, sd.phi, atol=1e-12)
    np.testing.assert_allclose(sd2.p[0], sd.p[0], atol=1e-12)


def test_evolve_exact_shifts_time_origin(lat, sol):
    T = 1.37
    shifted = evolve_exact(sol, T)
    np.testing.assert_allclose(synthesize(shifted, 0.0), synthesize(sol, T),
                               atol=1e-13)
    np.testing.assert_allclose(synthesize(shifted, 0.25),
                               synthesize(sol, T + 0.25), atol=1e-13)


def test_evolve_exact_composes(lat, sol):
    two_step = evolve_exact(evolve_exact(sol, 0.5), 0.7)
    one_step = evolve_exact(sol, 1.2)
    np.testing.assert_allclose(two_step.u, one_step.u, atol=1e-14)


@pytest.mark.parametrize("t", [0.0, 1.9])
def test_kg_residual_vanishes_on_solutions(lat, sol, t):
    assert kg_residual(sol, t) < 1e-12


def test_leapfrog_requires_stable_step(lat):
    phi = np.zeros(32)
    with pytest.raises(ValueError):
        leapfrog_evolve(lat, phi, phi, dt=2.0 / lat.k0.max(), steps=1)


@pytest.mark.parametrize("steps", [-5, -1, 2.5, True, "3"])
def test_leapfrog_rejects_bad_step_count(lat, steps):
    """A negative count would return the t = 0 fields labelled t < 0."""
    phi = np.zeros(32)
    with pytest.raises(ValueError, match="^steps must be"):
        leapfrog_evolve(lat, phi, phi, dt=0.05, steps=steps)


def test_leapfrog_zero_steps_returns_the_cauchy_data(lat, sol):
    sd = evaluate_fields(sol, 0.0)
    out = leapfrog_evolve(lat, sd.phi, sd.p[0], 0.05, 0)
    assert out.t == 0.0
    assert np.array_equal(out.phi, sd.phi)
    assert np.array_equal(out.p[0], sd.p[0])


def test_leapfrog_energy_drift_second_order(lat, sol):
    """Relative energy drift to t = 10 stays bounded and scales like dt^2."""
    sd = evaluate_fields(sol, 0.0)
    E0 = field_energy(lat, sd.phi, sd.p[0])
    drift = {}
    for dt in (0.01, 0.005):
        out = leapfrog_evolve(lat, sd.phi, sd.p[0], dt, int(round(10.0 / dt)))
        drift[dt] = abs(field_energy(lat, out.phi, out.p[0]) - E0) / E0
    assert drift[0.01] < 1e-4
    assert 3.2 < drift[0.01] / drift[0.005] < 4.8


def test_leapfrog_tracks_exact_solution(lat, sol):
    sd = evaluate_fields(sol, 0.0)
    out = leapfrog_evolve(lat, sd.phi, sd.p[0], 0.002, 500)
    np.testing.assert_allclose(out.phi, synthesize(sol, 1.0), atol=1e-4)


def test_cauchy_csv_round_trip(lat, sol, tmp_path):
    sd = evaluate_fields(sol, 0.0)
    path = tmp_path / "cauchy.csv"
    write_cauchy_csv(lat, sd.phi, sd.p[0], path)
    phi, pi = read_cauchy_csv(lat, path)
    np.testing.assert_allclose(phi, sd.phi, atol=1e-15)
    np.testing.assert_allclose(pi, sd.p[0], atol=1e-15)


@pytest.mark.parametrize("row, message", [
    ("1,1.0,2.0,9", "expected three fields"),
    ("1,1.0", "expected three fields"),
    ("1,1.0,abc", "could not convert"),
    ("x,1.0,2.0", "invalid literal"),
    ("1,inf,2.0", "must be finite"),
    ("1,1.0,nan", "must be finite"),
])
def test_read_cauchy_csv_rejects_bad_row(lat, tmp_path, row, message):
    """The row after a good one is line 3 of the file."""
    path = tmp_path / "bad.csv"
    path.write_text(f"index,phi0,pi0\n0,1.0,2.0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^Cauchy CSV line 3: .*{message}"):
        read_cauchy_csv(lat, path)


def test_solution_vector_space_ops(lat):
    rng = np.random.default_rng(9)
    A = random_solution(lat, rng)
    B = random_solution(lat, rng)
    np.testing.assert_allclose(synthesize(A + B, 0.5),
                               synthesize(A, 0.5) + synthesize(B, 0.5),
                               atol=1e-13)
    np.testing.assert_allclose(synthesize(A - 0.5 * B, 0.5),
                               synthesize(A, 0.5) - 0.5 * synthesize(B, 0.5),
                               atol=1e-13)


def test_solution_compares_and_hashes_by_identity(lat, sol):
    """A solution is a linear observable's generator, so it is used as a
    form, a dict key and a list member; its array fields must not be
    compared elementwise."""
    twin = Solution(lat, sol.u.copy(), sol.ustar.copy(), sol.real_flag)
    assert sol == sol and sol != twin
    assert [twin, sol].index(sol) == 1
    assert {sol: 1, twin: 2}[sol] == 1
    assert hash(sol) == hash(sol)


def test_history_wrappers_agree_with_synthesize(lat, sol):
    hist = SolutionHistory(sol)
    phi, dt1, dt2 = hist.at(0.45)
    np.testing.assert_allclose(phi, synthesize(sol, 0.45), atol=1e-14)
    np.testing.assert_allclose(dt1, synthesize(sol, 0.45, (0,)), atol=1e-14)
    np.testing.assert_allclose(dt2, synthesize(sol, 0.45, (0, 0)), atol=1e-14)

    ts = np.array([-0.3, 0.0, 0.45, 0.7, 1.9])
    var = random_solution(lat, np.random.default_rng(4))
    histories = [hist, DetunedHistory(sol, 0.5),
                 PolynomialTimeHistory(lat, [2.0, -1.0, 0.25, 0.125]),
                 WindowedPerturbation(hist, SolutionHistory(var),
                                      TimeWindow(0.0, 1.0), 1e-3)]
    for h in histories:
        stacked = h.at(ts)
        for i, t in enumerate(ts):
            for grid, row in zip(h.at(t), stacked):
                assert row.shape == (len(ts),) + lat.grid_shape
                assert np.array_equal(row[i], grid)


def test_detuned_history_breaks_dispersion(lat, sol):
    """Detuning scales every frequency, so the wave equation fails."""
    hist = DetunedHistory(sol, 0.5)
    phi, _, dtt = hist.at(0.2)
    from covkg.lattice import spectral_laplacian

    resid = dtt - spectral_laplacian(lat, phi) + lat.m ** 2 * phi
    assert np.max(np.abs(resid)) > 1e-2


def test_polynomial_history_derivatives(lat):
    hist = PolynomialTimeHistory(lat, [2.0, -1.0, 0.25])
    phi, d1, d2 = hist.at(3.0)
    assert phi.shape == lat.grid_shape
    np.testing.assert_allclose(phi, 2.0 - 3.0 + 0.25 * 9.0)
    np.testing.assert_allclose(d1, -1.0 + 0.5 * 3.0)
    np.testing.assert_allclose(d2, 0.5)


def test_time_window_compact_support_and_derivatives():
    win = TimeWindow(0.0, 1.0, q=6)

    def value(t):
        return win.on_grid(t, 0)[0]

    for t in (-0.1, 0.0, 1.0, 1.1):
        assert all(v == 0.0 for v in win.on_grid(t, 0))
    assert value(0.5) == 1.0
    h1, h2 = 1e-6, 1e-4
    for t in (0.3, 0.71):
        fd1 = (value(t + h1) - value(t - h1)) / (2 * h1)
        fd2 = (value(t + h2) - 2 * value(t) + value(t - h2)) / h2 ** 2
        _, d1, d2 = win.on_grid(t, 0)
        assert float(d1) == pytest.approx(fd1, abs=1e-7)
        assert float(d2) == pytest.approx(fd2, abs=1e-4)
    ts = np.array([-0.2, 0.3, 0.71, 1.4])
    stacked = win.on_grid(ts, 2)
    for got, want in zip(stacked, zip(*(win.on_grid(t, 0) for t in ts))):
        assert got.shape == (4, 1, 1)
        assert np.array_equal(got[:, 0, 0], np.array(want))


def _synthesize_one_order(sol, t, mus=(), extra_u=None, extra_us=None):
    """Reference synthesis of one derivative order of one solution, with
    its own phase table and mode sum (pinned in test_lattice)."""
    lat = sol.lat
    fu = np.ones(lat.n_modes, dtype=complex)
    fus = np.ones(lat.n_modes, dtype=complex)
    for mu in mus:
        f = -1j * lat.k0 if mu == 0 else 1j * lat.k[:, mu - 1]
        fu, fus = fu * f, fus * -f
    if extra_u is not None:
        fu = fu * extra_u
    if extra_us is not None:
        fus = fus * extra_us
    pref = (2.0 * np.pi) ** (-lat.d / 2.0)
    tc = np.asarray(t, dtype=float)[..., None]
    plus = pref * lat.w * sol.u * np.exp(-1j * lat.k0 * tc) * fu
    minus = pref * lat.w * sol.ustar * np.exp(1j * lat.k0 * tc) * fus
    grid = mode_sum_grid(lat, plus, minus)
    if sol.real_flag and extra_u is None and extra_us is None:
        return grid.real
    return grid


@pytest.mark.parametrize("d,N,n_max", [(1, 32, 7), (3, 8, 2)])
@pytest.mark.parametrize("real_flag", [True, False])
@pytest.mark.parametrize("t", [0.37, np.array([-0.2, 0.0, 0.45, 1.3])])
def test_stacked_orders_equal_one_call_per_order(d, N, n_max, real_flag, t):
    """A list of orders gives, bit for bit, one reference synthesis per order."""
    lat_d = build_lattice(d=d, L=5.0, N=N, n_max=n_max, m=0.8)
    sol = random_solution(lat_d, np.random.default_rng(d), real_flag=real_flag)
    orders = [(), (0,)] + [(mu,) for mu in range(1, d + 1)] + [(0, 0), (1, d)]
    grids = synthesize(sol, t, orders)
    assert grids.shape == (len(orders),) + np.shape(t) + lat_d.grid_shape
    for mus, grid in zip(orders, grids):
        assert np.array_equal(grid, _synthesize_one_order(sol, t, mus))
        assert np.array_equal(grid, synthesize(sol, t, mus))


@pytest.mark.parametrize("mus", [((), (0,)), np.array([0, 1]), [(0,), [1]],
                                 (0.5,), 0])
def test_synthesize_rejects_ambiguous_orders(lat, sol, mus):
    """Only a tuple of axes or a list of such tuples names the orders."""
    with pytest.raises(TypeError, match="mus must be"):
        synthesize(sol, 0.3, mus)


@pytest.mark.parametrize("t", [0.6, np.array([0.1, 0.6, 2.0])])
def test_solution_batch_equals_each_solution_alone(lat, t):
    rng = np.random.default_rng(9)
    sols = [random_solution(lat, rng, real_flag=False) for _ in range(4)]
    batch = Solution(lat, np.stack([s.u for s in sols]),
                     np.stack([s.ustar for s in sols]), False)
    grids = synthesize(batch, t, [(), (0,)])
    assert grids.shape == (2, 4) + np.shape(t) + lat.grid_shape
    for b, s in enumerate(sols):
        for mus, grid in zip([(), (0,)], grids[:, b]):
            assert np.array_equal(grid, _synthesize_one_order(s, t, mus))


def test_history_at_equals_one_synthesis_per_order(lat, sol):
    ts = np.array([0.0, 0.3, 0.9])
    want = [_synthesize_one_order(sol, ts, (0,) * r) for r in range(3)]
    for got, ref in zip(SolutionHistory(sol).at(ts), want):
        assert np.array_equal(got, ref)
    detune = 0.5
    om = lat.k0 + detune
    tc = ts[:, None]
    for r, got in enumerate(DetunedHistory(sol, detune).at(ts)):
        ref = _synthesize_one_order(
            sol, ts, extra_u=(-1j * om) ** r * np.exp(-1j * detune * tc),
            extra_us=(1j * om) ** r * np.exp(1j * detune * tc))
        assert np.array_equal(got, ref.real)


def test_fields_and_second_derivatives_equal_one_synthesis_per_order(lat, sol):
    sd = evaluate_fields(sol, 0.8)
    assert np.array_equal(sd.phi, _synthesize_one_order(sol, 0.8))
    for mu in range(lat.d + 1):
        assert np.array_equal(sd.dphi[mu], _synthesize_one_order(sol, 0.8, (mu,)))
    sd2, dd = second_derivatives(sol, 0.8)
    for name in ("phi", "dphi", "p", "e"):
        assert np.array_equal(getattr(sd2, name), getattr(sd, name))
    ts = np.array([0.3, 0.8])
    sd3, (d11,) = fields_and_orders(sol, ts, [(1, 1)])
    assert np.array_equal(sd3.dphi[1, 0], sd.dphi[0])
    assert np.array_equal(d11[1], _synthesize_one_order(sol, 0.8, (1, 1)))
    for mu in range(lat.d + 1):
        for nu in range(lat.d + 1):
            ref = _synthesize_one_order(sol, 0.8, (min(mu, nu), max(mu, nu)))
            assert np.array_equal(dd[mu, nu], ref)
