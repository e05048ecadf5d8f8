"""Mode-synthesis, evolution, and Cauchy-file tests.

Closed-form oracles: a single retained mode is an explicit traveling wave,
so every field and derivative is checkable by hand.
"""

import numpy as np
import pytest

from covkg import build_lattice, evolve_exact, from_cauchy, from_modes, kg_residual
from covkg.lattice import mode_sum_grid
from covkg.multisymplectic import graph_frame
from covkg.solution import (
    _coefficients,
    Solution,
    SolutionHistory,
    DetunedHistory,
    PolynomialTimeHistory,
    WindowedPerturbation,
    derivative_solution,
    evaluate_fields,
    field_energy,
    fields_and_orders,
    leapfrog_evolve,
    random_solution,
    read_cauchy_csv,
    stack_solutions,
    synthesize,
    write_cauchy_csv,
)


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


def _second_derivatives(sol, t):
    """(slice fields, d_mu d_nu phi) read from ``graph_frame``: the p^nu
    component of X_mu is eta_nu_nu d_mu d_nu phi, and a product with +-1
    is exact."""
    d = sol.lat.d
    sd, xs = graph_frame(sol, t)
    eta = np.array([1.0] + [-1.0] * d).reshape((-1,) + (1,) * d)
    return sd, np.stack([eta * x[d + 3:] for x in xs])


def test_second_derivatives_symmetric_and_consistent(lat, sol):
    _, hess = _second_derivatives(sol, 0.8)
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


def test_real_grids_whenever_the_branch_factors_are_conjugate(lat, sol):
    """A real solution gives real grids with or without a branch factor
    (the detuned history, the Klein-Gordon symbol, a complex phase), since
    its u* branch is the conjugate of the u branch; a complex solution
    gives complex ones."""
    ts = np.array([0.0, 0.3, 0.9])
    for grid in DetunedHistory(sol, 0.5).at(ts):
        assert grid.dtype == np.float64 and grid.shape == (3,) + lat.grid_shape
    sym = lat.m ** 2 + np.sum(lat.k ** 2, axis=1) - lat.k0 ** 2
    for factor in (sym, np.exp(0.3j * lat.k0)):
        grid, = mode_sum_grid(lat, *_coefficients(sol, 0.4, [()], factor))
        assert grid.dtype == np.float64
    complex_sol = random_solution(lat, np.random.default_rng(3), False)
    assert np.iscomplexobj(synthesize(complex_sol, 0.4))


def test_conjugate_phase_table_is_the_reflected_exponential(lat):
    """A complex solution's u* branch takes conj(exp(-i k0 t)) for
    exp(+i k0 t):
    equal bit for bit on the lattice's phases and on 15,000 random ones."""
    rng = np.random.default_rng(11)
    for k0, t in ((lat.k0, np.linspace(-3.0, 40.0, 1001)[:, None]),
                  (rng.uniform(0.1, 50.0, 15000), rng.uniform(-100, 100))):
        assert np.array_equal(np.conj(np.exp(-1j * k0 * t)),
                              np.exp(1j * k0 * t))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_from_modes_rejects_non_finite_coefficients(lat, bad):
    """A NaN must not hide a reality violation: with u = [1, nan, 3, ...]
    and ustar = conj(u) + 0.5 the conjugacy error is NaN, not > 1e-12."""
    u = np.arange(1.0, lat.n_modes + 1) + 0.5j
    bad_u = u.copy()
    bad_u[1] = bad
    bad_ustar = np.conj(bad_u)
    for args, real_flag in [((bad_u,), True),
                            ((bad_u, np.conj(u) + 0.5), True),
                            ((bad_u, bad_ustar), True),
                            ((u, bad_ustar), True),
                            ((bad_u, u), False),
                            ((u, bad_ustar), False)]:
        with pytest.raises(ValueError, match="must be finite"):
            from_modes(lat, *args, real_flag=real_flag)
    with pytest.raises(ValueError, match="reality violated"):
        from_modes(lat, u, np.conj(u) + 0.5)


def test_every_real_solution_stores_ustar_as_conj_u(lat):
    """Real syntheses read the u branch alone, which holds because every
    way covkg builds a real solution leaves ustar == conj(u) bit for bit;
    ``from_modes`` stores conj(u) for a ustar within 1e-12 of it."""
    rng = np.random.default_rng(21)
    sol = random_solution(lat, rng)
    other = random_solution(lat, rng)
    u = sol.u.copy()
    u[1] += 3e-13j  # ustar = conj(u) + 3e-13j passes the 1e-12 check
    near = from_modes(lat, u, np.conj(sol.u))
    phi0 = synthesize(sol, 0.0)
    pi0 = synthesize(sol, 0.0, (0,))
    built = {
        "from_modes": from_modes(lat, sol.u),
        "from_modes_near": near,
        "random_solution": sol,
        "from_cauchy": from_cauchy(lat, phi0, pi0),
        "sum": sol + other,
        "difference": sol - other,
        "float_multiple": 0.37 * sol,
        "int_multiple": -3 * sol,
        "numpy_multiple": np.float64(2.5) * sol,
        "complex_zero_imag": (1.5 + 0j) * sol,
        "evolve_exact": evolve_exact(sol, 0.83),
        "stack_solutions": stack_solutions([sol, other, near]),
    }
    for mu in range(lat.d + 1):
        built[f"derivative_{mu}"] = derivative_solution(sol, mu)
    for name, s in built.items():
        assert s.real_flag, name
        assert s.ustar.tobytes() == np.conj(s.u).tobytes(), name
    assert np.array_equal(near.u, u)


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
                 WindowedPerturbation([hist], SolutionHistory(var), 0.0, 1.0,
                                      1e-3)]
    for h, lead in zip(histories, [()] * 3 + [(1,)]):
        stacked = h.at(ts)
        for i, t in enumerate(ts):
            for grid, row in zip(h.at(t), stacked):
                assert row.shape == lead + (len(ts),) + lat.grid_shape
                assert np.array_equal(row[..., i, :], grid)


def test_windowed_family_equals_one_perturbation_per_member(lat, monkeypatch):
    """Each (eps, base) member of a family of a solution, a detuned and a
    second solution base equals, bit for bit, its own single-base,
    single-eps perturbation, under a real and then a complex variation.
    One ``at`` of the family makes one ``mode_sum_grid`` call and no
    ``synthesize`` call."""
    import covkg.solution as solution

    calls = []
    for name in ("mode_sum_grid", "synthesize"):
        def spy(*args, _name=name, _real=getattr(solution, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(solution, name, spy)
    rng = np.random.default_rng(4)
    ts = np.array([-0.3, 0.2, 0.45, 0.9])
    eps = np.array([1e-3, -1e-3, 0.25])
    for real_flag in (True, False):
        one, two, var = (random_solution(lat, rng, real_flag)
                         for _ in range(3))
        bases = [SolutionHistory(one), DetunedHistory(one, 0.5),
                 SolutionHistory(two)]
        var = SolutionHistory(var)
        family = WindowedPerturbation(bases, var, 0.0, 1.0, eps)
        calls.clear()
        got = family.at(ts)
        assert calls == ["mode_sum_grid"]
        shape = (3, len(bases), len(ts)) + lat.grid_shape
        for j, base in enumerate(bases):
            for i, e in enumerate(eps):
                single = WindowedPerturbation([base], var, 0.0, 1.0,
                                              e).at(ts)
                for field, want in zip(got, single):
                    assert field.shape == shape
                    assert field.dtype == want.dtype
                    assert np.array_equal(field[i, j], want[0])


def test_windowed_family_rejects_other_members(lat, sol):
    """Polynomial, batched, mixed-realness and other-lattice members, as a
    base or as the variation, are a ValueError at construction."""
    rng = np.random.default_rng(6)
    other = build_lattice(d=1, L=2 * np.pi, N=16, n_max=7, m=1.0)
    pair = stack_solutions([sol, evolve_exact(sol, 0.3)])
    hist = SolutionHistory(sol)
    for bad in (PolynomialTimeHistory(lat, [2.0, -1.0]),
                SolutionHistory(pair), DetunedHistory(pair, 0.5),
                SolutionHistory(random_solution(lat, rng, real_flag=False)),
                DetunedHistory(random_solution(other, rng), 0.5)):
        for bases, var in (([hist, bad], hist), ([hist], bad)):
            with pytest.raises(ValueError, match="unbatched solution or "
                                                 "detuned histories"):
                WindowedPerturbation(bases, var, 0.0, 1.0, 1e-3)


@pytest.mark.parametrize("eps", [np.nan, [1e-3, np.inf], -np.inf])
def test_windowed_perturbation_rejects_a_non_finite_eps(sol, eps):
    base, var = [SolutionHistory(sol)], SolutionHistory(sol)
    with pytest.raises(ValueError, match="eps must be finite"):
        WindowedPerturbation(base, var, 0.0, 1.0, eps)


def test_windowed_perturbation_rejects_a_bad_window(lat, sol):
    base, var = [SolutionHistory(sol)], SolutionHistory(sol)
    with pytest.raises(ValueError, match="t1 < t2"):
        WindowedPerturbation(base, var, 1.0, 0.5, 1e-3)


def test_windowed_perturbation_rejects_an_empty_window(lat, sol):
    base, var = [SolutionHistory(sol)], SolutionHistory(sol)
    with pytest.raises(ValueError, match="t1 < t2"):
        WindowedPerturbation(base, var, 0.5, 0.5, 1e-3)


@pytest.mark.parametrize("t1,t2", [(0.0, np.nan), (np.nan, 1.0),
                                   (0.0, np.inf), (-np.inf, 1.0)])
def test_windowed_perturbation_rejects_non_finite_ends(lat, sol, t1, t2):
    base, var = [SolutionHistory(sol)], SolutionHistory(sol)
    with pytest.raises(ValueError, match="must be finite"):
        WindowedPerturbation(base, var, t1, t2, 1e-3)


@pytest.mark.parametrize("detune", [np.nan, np.inf, -np.inf])
def test_detuned_history_rejects_a_non_finite_detune(sol, detune):
    with pytest.raises(ValueError, match="detune must be finite"):
        DetunedHistory(sol, detune)


@pytest.mark.parametrize("n_batch", [2, 3])
def test_detuned_history_of_a_batch_equals_one_per_member(lat, n_batch):
    """Each member of a detuned batch gets all three fields of its own
    detuned history, bit for bit, whatever the batch size."""
    rng = np.random.default_rng(7)
    sols = [random_solution(lat, rng) for _ in range(n_batch)]
    ts = np.array([-0.4, 0.0, 0.37])
    got = DetunedHistory(stack_solutions(sols), 0.05).at(ts)
    for j, one in enumerate(sols):
        for field, want in zip(got, DetunedHistory(one, 0.05).at(ts)):
            assert field.shape == (n_batch,) + want.shape
            assert np.array_equal(field[j], want)


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


def test_time_window_compact_support_and_derivatives(lat, sol):
    """The window (eta, eta', eta'') is 0 outside [t1, t2] and 1 at its
    middle, with the derivatives of finite differences; a zero base plus
    the window times a variation gives, in every cell, the window times the
    variation's fields by the product rule."""
    var = SolutionHistory(sol)
    hist = WindowedPerturbation([SolutionHistory(0.0 * sol)], var, 0.0, 1.0,
                                1.0)

    def window(t):
        w, w1, w2 = eta = hist._window(t)
        v0, v1, v2 = var.at(t)
        f0, f1, f2 = hist.at(t)
        for f in (f0, f1, f2):
            assert f.shape == (1,) + np.shape(t) + lat.grid_shape
        assert np.array_equal(f0[0], w * v0)
        assert np.array_equal(f1[0], w1 * v0 + w * v1)
        assert np.array_equal(f2[0], w2 * v0 + 2.0 * w1 * v1 + w * v2)
        for v in eta:
            assert v.shape == np.shape(t) + (1,) * lat.d
        return tuple(v[..., 0] for v in eta)

    def value(t):
        return window(t)[0]

    for t in (-0.1, 0.0, 1.0, 1.1):
        assert all(v == 0.0 for v in window(t))
    assert value(0.5) == 1.0
    h1, h2 = 1e-6, 1e-4
    for t in (0.3, 0.71):
        fd1 = (value(t + h1) - value(t - h1)) / (2 * h1)
        fd2 = (value(t + h2) - 2 * value(t) + value(t - h2)) / h2 ** 2
        _, d1, d2 = window(t)
        assert float(d1) == pytest.approx(fd1, abs=1e-7)
        assert float(d2) == pytest.approx(fd2, abs=1e-4)
    ts = np.array([-0.2, 0.3, 0.71, 1.4])
    for got, want in zip(window(ts), zip(*(window(t) for t in ts))):
        assert np.array_equal(got, np.array(want))


def _two_branch_mode_sum(lat, plus, minus, real):
    """Reference mode sum with both branches formed in full: S_k =
    plus[k] + minus[-k] on every retained bin, and for a real sum the
    Hermitian part (S_k + conj(S_-k)) / 2 on the half spectrum, from one
    ``irfftn``; the u-branch-only real path must match it bit for bit."""
    bins, conj = lat.fft_indices(), lat.conj_index()
    half = np.flatnonzero(lat.modes[:, -1] >= 0)
    spec_k = np.asarray(plus) + np.asarray(minus)[..., conj]
    axes, lead = range(-lat.d, 0), spec_k.shape[:-1]
    if real:
        spec = np.zeros(lead + lat.grid_shape[:-1] + (lat.N // 2 + 1,),
                        dtype=complex)
        spec[(Ellipsis,) + tuple(b[half] for b in bins)] = 0.5 * (
            spec_k[..., half] + np.conj(spec_k[..., conj[half]]))
        return np.fft.irfftn(spec, lat.grid_shape, axes, norm="forward")
    spec = np.zeros(lead + lat.grid_shape, dtype=complex)
    spec[(Ellipsis,) + bins] = spec_k
    return np.fft.ifftn(spec, axes=axes) * lat.N ** lat.d


def _two_branch_synthesize(sol, t, orders, factor=None):
    """Reference synthesis of a list of orders with both branches formed in
    full: the u* branch from ``ustar``, the conjugate phase table and the
    conjugate ``factor``, summed by ``_two_branch_mode_sum``; each order's
    branch multipliers are built by hand from the derivative factors."""
    lat = sol.lat
    stacks = ([], [])
    for mus in orders:
        fu = np.ones(lat.n_modes, dtype=complex)
        fus = np.ones(lat.n_modes, dtype=complex)
        for mu in mus:
            f = -1j * lat.k0 if mu == 0 else 1j * lat.k[:, mu - 1]
            fu, fus = fu * f, fus * -f
        stacks[0].append(fu)
        stacks[1].append(fus)
    t = np.asarray(t, dtype=float)
    shape = ((len(orders),) + (1,) * (np.ndim(sol.u) - 1 + t.ndim)
             + (lat.n_modes,))
    fu, fus = (np.stack(f).reshape(shape) for f in stacks)
    if factor is not None:
        fu, fus = fu * factor, fus * np.conj(factor)
    pref = (2.0 * np.pi) ** (-lat.d / 2.0)
    phase = np.exp(-1j * lat.k0 * t[..., None])
    u, ustar = (np.expand_dims(c, tuple(range(-1 - t.ndim, -1)))
                for c in (sol.u, sol.ustar))
    plus = pref * lat.w * u * phase * fu
    minus = pref * lat.w * ustar * np.conj(phase) * fus
    return _two_branch_mode_sum(lat, plus, minus, sol.real_flag)


def _synthesize_one_order(sol, t, mus=(), factor=None):
    """Reference synthesis of one derivative order of one solution, with
    its own phase table and two-branch mode sum."""
    return _two_branch_synthesize(sol, t, [mus], factor)[0]


# Configs A, B and C of the verifier and the prequant-wide lattice.
_REF_CONFIGS = {"A": (1, 32, 7), "B": (2, 16, 5), "C": (3, 8, 3),
                "wide": (1, 32, 11)}


@pytest.mark.parametrize("config", sorted(_REF_CONFIGS))
def test_real_synthesis_equals_the_two_branch_path(config):
    """On real solutions the u branch alone gives, bit for bit, the grids
    of the two-branch Hermitian path: at a scalar time and at a 1-D array
    of times, for one solution and a batch, for stacked orders, and, from
    ``_coefficients``, with the Klein-Gordon symbol and the detuned
    history's factor."""
    d, N, n_max = _REF_CONFIGS[config]
    lat = build_lattice(d=d, L=2 * np.pi, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(n_max)
    sols = [random_solution(lat, rng) for _ in range(3)]
    batch = stack_solutions(sols)
    ts = np.array([-0.4, 0.0, 0.37, 1.25, 3.9])
    orders = [(), (0,), (d,), (0, 0), (0, d), (1, d)]
    sym = lat.m ** 2 + np.sum(lat.k ** 2, axis=1) - lat.k0 ** 2
    cases = [(sols[0], 0.37, orders, None), (sols[1], ts, orders, None),
             (batch, 0.37, orders, None), (batch, ts, orders, None),
             (sols[2], 0.37, [()], sym), (batch, ts, [()], sym)]
    for sol, t, mus, factor in cases:
        got = (synthesize(sol, t, mus) if factor is None
               else mode_sum_grid(lat, *_coefficients(sol, t, mus, factor)))
        assert got.dtype == np.float64
        assert got.tobytes() == _two_branch_synthesize(
            sol, t, mus, factor).tobytes()
    assert kg_residual(sols[2], 0.37) == float(np.max(np.abs(
        _two_branch_synthesize(sols[2], 0.37, [()], sym))))
    for sol, t in ((sols[0], 0.37), (batch, ts)):
        hist = DetunedHistory(sol, 0.05)
        om = lat.k0 + hist.detune
        down = np.exp(-1j * (om - lat.k0) * np.asarray(t)[..., None])
        factor = np.stack([(-1j * om) ** order * down for order in range(3)])
        batch = tuple(range(1, np.ndim(sol.u)))  # after the order axis
        want = _two_branch_synthesize(sol, t, [()] * 3,
                                      np.expand_dims(factor, batch))
        assert np.array(hist.at(t)).tobytes() == want.tobytes()


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
        factor = (-1j * om) ** r * np.exp(-1j * detune * tc)
        # the u* branch's factor is the reflected one, bit for bit
        assert np.array_equal(np.conj(factor),
                              (1j * om) ** r * np.exp(1j * detune * tc))
        assert np.array_equal(got, _synthesize_one_order(sol, ts, factor=factor))


@pytest.mark.parametrize("real_flag", [True, False])
@pytest.mark.parametrize("n_batch", [None, 3])
def test_solution_history_is_the_detuned_history_at_zero(lat, real_flag,
                                                         n_batch):
    """``SolutionHistory`` adds only its constructor and its own ``at``
    entry to ``DetunedHistory``, and its grids are those of detune 0, bit
    for bit, at a scalar time and at a time array."""
    assert "coefficients" not in vars(SolutionHistory)
    assert vars(SolutionHistory)["at"] is DetunedHistory.at
    rng = np.random.default_rng(12)
    sols = [random_solution(lat, rng, real_flag) for _ in range(n_batch or 1)]
    sol = sols[0] if n_batch is None else stack_solutions(sols)
    for t in (0.45, np.array([-0.3, 0.0, 0.45, 1.9])):
        got = SolutionHistory(sol).at(t)
        for field, want in zip(got, DetunedHistory(sol, 0.0).at(t)):
            assert field.shape == np.shape(sol.u)[:-1] + np.shape(t) + \
                lat.grid_shape
            assert field.dtype == want.dtype
            assert field.tobytes() == want.tobytes()


def test_fields_and_second_derivatives_equal_one_synthesis_per_order(lat, sol):
    sd = evaluate_fields(sol, 0.8)
    assert np.array_equal(sd.phi, _synthesize_one_order(sol, 0.8))
    for mu in range(lat.d + 1):
        assert np.array_equal(sd.dphi[mu], _synthesize_one_order(sol, 0.8, (mu,)))
    sd2, dd = _second_derivatives(sol, 0.8)
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
