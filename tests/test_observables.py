"""Slice observables, the regularized bracket, and conservation laws.

The single-mode cases are pinned by hand: at L = 2 pi, m = 1 the rest mode
has weight 1/2, so {a_f, a*_g} with f = g = delta_0 equals i/2 on the nose.
"""

import numpy as np
import pytest

from covkg import (
    Pmu,
    a_k,
    a_star_k,
    bracket_regularized,
    build_lattice,
    energy_integral,
    momentum_integral,
    noether_divergence,
    pmu_bracket_identity,
    random_solution,
    slice_integral,
)
from covkg.observables import (
    bracket_slice_integral,
    classical_bracket_integral,
    derivative_solution,
    generator_alpha_f,
    generator_alpha_k,
    generator_alpha_star_g,
    generator_alpha_star_k,
    hamiltonian_deformation,
    omega_bracket_integral,
)
from covkg.phase_space import (
    omega_sigma,
    omega_sigma_pointwise,
    translation_deformation,
)
from covkg.solution import (
    PolynomialTimeHistory,
    Solution,
    evaluate_fields,
    field_energy,
    from_modes,
    synthesize,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def _random_pair(lat, rng):
    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    return f, g


# ---------------------------------------------------------------------------
# Mode readout
# ---------------------------------------------------------------------------

def test_a_k_reads_mode_coefficients(lat, sol):
    for k in (0, 3, 7, 14):
        assert a_k(sol, k) == pytest.approx(sol.u[k], abs=1e-13)
        assert a_star_k(sol, k) == pytest.approx(sol.ustar[k], abs=1e-13)


@pytest.mark.parametrize("t", [0.0, 1.7, 4.2])
def test_alpha_slice_integral_time_independent(lat, sol, t):
    """The slice functional returns u_k at any time, not just t = 0."""
    for k in (2, 9):
        got = slice_integral(generator_alpha_k(lat, k), sol, t)
        assert got == pytest.approx(sol.u[k], abs=1e-12)
        got = slice_integral(generator_alpha_star_k(lat, k), sol, t)
        assert got == pytest.approx(sol.ustar[k], abs=1e-12)


def test_field_rebuilt_from_mode_readout(lat, sol):
    us = np.array([slice_integral(generator_alpha_k(lat, k), sol, 0.6)
                   for k in range(lat.n_modes)])
    rebuilt = from_modes(lat, us)
    np.testing.assert_allclose(synthesize(rebuilt, 0.9), synthesize(sol, 0.9),
                               atol=1e-12)


@pytest.mark.parametrize("k", [3, np.array([[0, 5], [14, 5]])],
                         ids=["scalar", "array"])
def test_single_mode_generators_are_the_smeared_ones(lat, k):
    """alpha_k and alpha*_k are the smeared generators at f = g = e_k / w_k:
    the same coefficients, bit for bit, one generator per index."""
    rows = np.eye(lat.n_modes)[k] / lat.w
    for single, smeared in ((generator_alpha_k, generator_alpha_f),
                            (generator_alpha_star_k, generator_alpha_star_g)):
        got, want = single(lat, k), smeared(lat, rows)
        assert got.u.shape == got.ustar.shape == np.shape(k) + (lat.n_modes,)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.ustar.tobytes() == want.ustar.tobytes()
        assert got.real_flag is want.real_flag is False


def test_smeared_generator_batch_equals_its_rows(lat, sol):
    """Coefficients of shape (2, 3, n_modes) give a generator batch whose
    members, and whose slice integrals, are those of each row alone."""
    rng = np.random.default_rng(31)
    fs = (rng.standard_normal((2, 3, lat.n_modes))
          + 1j * rng.standard_normal((2, 3, lat.n_modes)))
    for build in (generator_alpha_f, generator_alpha_star_g):
        batch = build(lat, fs)
        integrals = bracket_slice_integral(sol, batch, 0.3)
        assert integrals.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = build(lat, fs[idx])
            assert np.array_equal(batch.u[idx], one.u)
            assert np.array_equal(batch.ustar[idx], one.ustar)
            assert integrals[idx] == bracket_slice_integral(sol, one, 0.3)
        with pytest.raises(ValueError, match="one component per mode"):
            build(lat, fs[..., 1:])


def _alpha_integral_one_k(gen, sol, t):
    """Reference slice integral of one unbatched generator."""
    base = evaluate_fields(sol, t)
    val, dval = synthesize(gen, t), synthesize(gen, t, (0,))
    return complex(sol.lat.cell_volume
                   * np.sum(base.p[0] * val - base.phi * dval))


@pytest.mark.parametrize("d,N,n_max", [(1, 32, 7), (3, 8, 2)])
@pytest.mark.parametrize("budget", [None, 1500])
def test_batched_alpha_integrals_equal_one_k_at_a_time(d, N, n_max, budget,
                                                        monkeypatch):
    """a_k and a*_k over a generator batch equal, bit for bit, the slice
    integral of each generator alone, also when the batch is chunked."""
    import covkg.observables as obs
    if budget is not None:
        monkeypatch.setattr(obs, "_BLOCK_CELLS", budget)
    lat_d = build_lattice(d=d, L=2 * np.pi, N=N, n_max=n_max, m=1.0)
    sol_d = random_solution(lat_d, np.random.default_rng(3))
    modes = np.arange(lat_d.n_modes)
    alpha = generator_alpha_k(lat_d, modes)
    alpha_star = generator_alpha_star_k(lat_d, modes)
    for t in (0.0, 1.7):
        got_a = slice_integral(alpha, sol_d, t)
        got_s = slice_integral(alpha_star, sol_d, t)
        assert got_a.shape == got_s.shape == (lat_d.n_modes,)
        for k in modes:
            assert got_a[k] == _alpha_integral_one_k(
                generator_alpha_k(lat_d, int(k)), sol_d, t)
            assert got_s[k] == _alpha_integral_one_k(
                generator_alpha_star_k(lat_d, int(k)), sol_d, t)
    assert np.array_equal(a_k(sol_d, modes), slice_integral(alpha, sol_d))
    assert np.array_equal(a_star_k(sol_d, modes),
                          slice_integral(alpha_star, sol_d))
    assert a_k(sol_d, modes[:0]).shape == (0,)


@pytest.mark.parametrize("d,N,n_max", [(1, 32, 7), (3, 8, 2)])
def test_time_axis_equals_one_call_per_time(d, N, n_max):
    """A 1-D array of times gives, bit for bit, the scalar call at each
    time: a generator batch crossed with times (chunked at d = 3), a single
    bracket, the P_mu integrals, energy and momentum.  Scalar calls keep
    returning Python scalars."""
    lat_d = build_lattice(d=d, L=2 * np.pi, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(21)
    sol_d = random_solution(lat_d, rng)
    phi = random_solution(lat_d, rng, real_flag=False)
    ts = np.array([0.0, 1.0, 2.5, 7.0])
    alpha = generator_alpha_k(lat_d, np.arange(lat_d.n_modes))
    batch = bracket_slice_integral(sol_d, alpha, ts)
    assert batch.shape == (lat_d.n_modes, len(ts))
    single = bracket_slice_integral(phi, sol_d, ts)
    pmus = {(mu, lam): slice_integral(Pmu(mu, lam), sol_d, ts)
            for mu in range(d + 1) for lam in (0.0, 0.4)}
    energy = energy_integral(sol_d, ts, 0.4)
    momenta = [momentum_integral(sol_d, i, ts, 0.4) for i in range(1, d + 1)]
    for j, t in enumerate(ts.tolist()):
        assert np.array_equal(batch[:, j],
                              bracket_slice_integral(sol_d, alpha, t))
        one = bracket_slice_integral(phi, sol_d, t)
        assert type(one) is complex and single[j] == one
        for (mu, lam), vals in pmus.items():
            one = slice_integral(Pmu(mu, lam), sol_d, t)
            assert type(one) is float and vals[j] == one
        assert energy[j] == energy_integral(sol_d, t, 0.4)
        for i, vals in enumerate(momenta, start=1):
            assert vals[j] == momentum_integral(sol_d, i, t, 0.4)


def test_linear_slice_integrals_equal_the_direct_integrand(lat, sol):
    """On a real solution the slice integral of every linear form equals,
    bit for bit, a direct quadrature cell_volume * sum(p^0 val - phi d_t val)
    over its generator's fields."""
    rng = np.random.default_rng(8)
    f, g = _random_pair(lat, rng)
    phi = random_solution(lat, rng, real_flag=False)
    for gen in (phi, generator_alpha_f(lat, f), generator_alpha_star_g(lat, g),
                generator_alpha_k(lat, 3)):
        for t in (0.0, 1.3):
            assert slice_integral(gen, sol, t) == _alpha_integral_one_k(
                gen, sol, t)


@pytest.mark.parametrize("budget", [None, 32])
def test_batched_bracket_equals_one_call_per_member(lat, sol, budget,
                                                    monkeypatch):
    """A batched second argument gives, bit for bit, one bracket per member
    (also when chunked), and each member's bracket is exactly antisymmetric."""
    import covkg.observables as obs
    if budget is not None:
        monkeypatch.setattr(obs, "_BLOCK_CELLS", budget)
    rng = np.random.default_rng(9)
    members = [random_solution(lat, rng, real_flag=False) for _ in range(3)]
    batch = Solution(lat, np.stack([m.u for m in members]),
                     np.stack([m.ustar for m in members]), False)
    for phi in (sol, random_solution(lat, rng, real_flag=False)):
        got = bracket_slice_integral(phi, batch, 0.7)
        assert got.shape == (3,)
        for value, psi in zip(got, members):
            one = bracket_slice_integral(phi, psi, 0.7)
            assert value == one
            assert one == -bracket_slice_integral(psi, phi, 0.7)
    with pytest.raises(ValueError, match="batch axis"):
        bracket_slice_integral(batch, sol, 0.7)


def test_fphi_slice_integral_closed_form(lat, sol, rng):
    """Quadrature of p^0 Phi - phi d_t Phi matches the weighted mode sum."""
    probe = random_solution(lat, rng, real_flag=False)
    got = slice_integral(probe, sol, 0.0)
    want = 1j * np.sum(lat.w * (sol.ustar * probe.u - sol.u * probe.ustar))
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 7.0])
def test_fphi_slice_integral_time_independent(lat, sol, t):
    probe = random_solution(lat, np.random.default_rng(77))
    base = slice_integral(probe, sol, 0.0)
    assert slice_integral(probe, sol, t) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------

def test_single_mode_bracket_pinned(lat):
    """f = g = delta_0 gives {a_f, a*_g} = i w_0 = i/2 at these parameters."""
    i0 = lat.mode_index((0,))
    f = np.zeros(lat.n_modes)
    f[i0] = 1.0
    assert bracket_regularized(lat, f, f) == 0.5j
    phi = generator_alpha_f(lat, f)
    psi = generator_alpha_star_g(lat, f)
    assert bracket_slice_integral(phi, psi, 0.0) == pytest.approx(0.5j,
                                                                  abs=1e-15)


def test_bracket_regularized_closed_form(lat, rng):
    f, g = _random_pair(lat, rng)
    assert bracket_regularized(lat, f, g) == pytest.approx(
        1j * np.sum(lat.w * f * g), abs=1e-12)


def test_bracket_regularized_is_only_the_closed_form(lat, monkeypatch):
    """The value is 1j * sum(w f g) exactly, with no slice bracket run: a
    broken slice quadrature cannot make it raise."""
    import covkg.observables as obs

    def broken(*args, **kwargs):
        raise AssertionError("bracket_regularized ran a slice bracket")

    monkeypatch.setattr(obs, "bracket_slice_integral", broken)
    f, g = _random_pair(lat, np.random.default_rng(12))
    got = bracket_regularized(lat, f, g)
    assert type(got) is complex and got == 1j * np.sum(lat.w * f * g)


@pytest.mark.parametrize("seed", range(6))
def test_bracket_two_path_agreement(lat, seed):
    """Slice quadrature of the generators equals the weighted mode sum."""
    f, g = _random_pair(lat, np.random.default_rng(seed))
    phi = generator_alpha_f(lat, f)
    psi = generator_alpha_star_g(lat, g)
    got = bracket_slice_integral(phi, psi, 0.0)
    assert abs(got - bracket_regularized(lat, f, g)) < 1e-10


def test_bracket_antisymmetry_exact(lat, rng):
    """B(Phi, Psi) + B(Psi, Phi) is the floating-point zero, not just small."""
    for _ in range(10):
        phi = random_solution(lat, rng, real_flag=False)
        psi = random_solution(lat, rng, real_flag=False)
        fwd = bracket_slice_integral(phi, psi, 0.3)
        rev = bracket_slice_integral(psi, phi, 0.3)
        assert fwd == -rev


@pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 7.0])
def test_bracket_time_independent(lat, t):
    rng = np.random.default_rng(13)
    phi = random_solution(lat, rng, real_flag=False)
    psi = random_solution(lat, rng, real_flag=False)
    base = bracket_slice_integral(phi, psi, 0.0)
    assert bracket_slice_integral(phi, psi, t) == pytest.approx(base,
                                                                abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_annihilator_bracket_vanishes(lat, seed):
    """{a_f, a_f'} = 0: both generators live on the same branch."""
    rng = np.random.default_rng(seed)
    f, fp = _random_pair(lat, rng)
    got = classical_bracket_integral(generator_alpha_f(lat, f),
                                     generator_alpha_f(lat, fp),
                                     random_solution(lat, rng), 0.0)
    assert abs(got) < 1e-12
    g, gp = _random_pair(lat, rng)
    got = classical_bracket_integral(generator_alpha_star_g(lat, g),
                                     generator_alpha_star_g(lat, gp),
                                     random_solution(lat, rng), 0.0)
    assert abs(got) < 1e-12


# ---------------------------------------------------------------------------
# Translations and the momentum observables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0, 1])
def test_pmu_bracket_identity(lat, sol, mu):
    """The closed and pointwise Omega routes and the direct derivative route
    give the same number for each translation of a mu array, here both of
    them starting at ``mu``."""
    probe = random_solution(lat, np.random.default_rng(5), real_flag=False)
    closed, pointwise, direct = pmu_bracket_identity(np.array([mu, 1 - mu]),
                                                     probe, sol)
    assert closed.shape == pointwise.shape == direct.shape == (2,)
    for got, want in zip(closed, direct):
        assert got == pytest.approx(want, abs=1e-10)
    for got, want in zip(pointwise, direct):
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("d,N,n_max", [(1, 32, 7), (3, 8, 2)])
def test_pmu_families_equal_one_call_per_member(d, N, n_max):
    """The mu array of ``pmu_bracket_identity`` gives, bit for bit, one
    closed and one pointwise Omega pairing and one slice integral per
    translation, and a lambda array in ``Pmu`` one P_mu integral per lambda
    (also across times); the pointwise pairing agrees with the closed one."""
    lat_d = build_lattice(d=d, L=2 * np.pi, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(31)
    sol_d = random_solution(lat_d, rng)
    phi = random_solution(lat_d, rng, real_flag=False)
    mus = np.arange(d, -1, -1)
    closed, pointwise, direct = pmu_bracket_identity(mus, phi, sol_d, 0.3)
    lams, ts = np.array([0.0, 0.4, 1.0]), np.array([0.0, 2.5])
    for i, mu in enumerate(mus.tolist()):
        xi = translation_deformation(sol_d, mu)
        assert closed[i] == omega_sigma(sol_d, xi, phi, 0.3)
        assert pointwise[i] == omega_sigma_pointwise(sol_d, xi, phi, 0.3)
        assert pointwise[i] == pytest.approx(closed[i], abs=1e-10)
        assert direct[i] == slice_integral(derivative_solution(phi, mu),
                                           sol_d, 0.3)
        at_t = slice_integral(Pmu(mu, lams), sol_d, 0.4)
        over_t = slice_integral(Pmu(mu, lams), sol_d, ts)
        assert at_t.shape == (3,) and over_t.shape == (3, 2)
        for j, lam in enumerate(lams.tolist()):
            assert at_t[j] == slice_integral(Pmu(mu, lam), sol_d, 0.4)
            for k, t in enumerate(ts.tolist()):
                assert over_t[j, k] == slice_integral(Pmu(mu, lam), sol_d, t)
    with pytest.raises(ValueError, match="1-D"):
        pmu_bracket_identity(0, phi, sol_d)


def test_pmu_compares_by_identity():
    """A Pmu with a lambda array compares and hashes as an object, as a
    Solution does, instead of raising on its ndarray field."""
    lams = np.array([0.0, 1.0])
    form = Pmu(0, lams)
    other = Pmu(0, lams.copy())
    assert form == form and form != other
    assert len({form, other, form}) == 2


def test_translation_deformation_shifts_fields(lat, sol):
    """Xi_{P_mu} is minus d_mu of the solution (flow toward -x^mu)."""
    for mu in (0, 1):
        xi = hamiltonian_deformation(Pmu(mu), sol)
        np.testing.assert_allclose(synthesize(xi, 0.8),
                                   -synthesize(sol, 0.8, (mu,)), atol=1e-12)


def test_translations_commute(lat, sol):
    assert classical_bracket_integral(Pmu(0), Pmu(1), sol) == 0.0
    got = omega_bracket_integral(Pmu(0), Pmu(1), sol)
    assert abs(got) < 1e-12


def test_bracket_paths_agree_on_all_pairs(lat, sol, rng):
    """Omega(Xi_F, Xi_G), closed and pointwise, equals the closed bracket
    for every observable pair."""
    f, g = _random_pair(lat, rng)
    probe = random_solution(lat, rng, real_flag=False)
    forms = [probe, generator_alpha_f(lat, f),
             generator_alpha_star_g(lat, g), Pmu(0), Pmu(1)]
    for F in forms:
        for G in forms:
            a = omega_bracket_integral(F, G, sol, 0.0)
            b = classical_bracket_integral(F, G, sol, 0.0)
            c = omega_sigma_pointwise(sol, hamiltonian_deformation(F, sol),
                                      hamiltonian_deformation(G, sol), 0.0)
            assert abs(complex(a) - complex(b)) < 1e-10, (F, G)
            assert abs(complex(c) - complex(b)) < 1e-10, (F, G)


@pytest.mark.parametrize("mu", [0, 1])
def test_pmu_lambda_independent(lat, sol, mu):
    a = slice_integral(Pmu(mu, lam=0.0), sol, 0.4)
    b = slice_integral(Pmu(mu, lam=1.0), sol, 0.4)
    assert a == pytest.approx(b, abs=1e-11)


# ---------------------------------------------------------------------------
# Energy and momentum
# ---------------------------------------------------------------------------

def test_energy_matches_direct_quadrature(lat, sol):
    """-integral of the pulled-back P_0 density is the canonical energy."""
    sd = evaluate_fields(sol, 0.0)
    want = field_energy(lat, sd.phi, sd.p[0])
    assert energy_integral(sol, 0.0) == pytest.approx(want, abs=1e-12)


def test_rest_mode_energy_pinned(lat):
    """The k = 0 mode with u = 1 carries energy w = 1/2 at m = 1, L = 2 pi."""
    u = np.zeros(lat.n_modes, dtype=complex)
    u[lat.mode_index((0,))] = 1.0
    sol = from_modes(lat, u)
    assert energy_integral(sol, 0.0) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_energy_nonnegative(lat, seed):
    s = random_solution(lat, np.random.default_rng(seed))
    assert energy_integral(s, 0.0) >= 0.0


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_energy_lambda_independent_and_conserved(lat, sol, lam):
    e0 = energy_integral(sol, 0.0, lam=lam)
    assert e0 == pytest.approx(energy_integral(sol, 0.0, lam=1.0), abs=1e-11)
    assert energy_integral(sol, 2.3, lam=lam) == pytest.approx(e0, abs=1e-10)


def test_momentum_matches_direct_quadrature(lat, sol):
    sd = evaluate_fields(sol, 0.0)
    want = lat.cell_volume * np.sum(sd.p[0] * sd.dphi[1])
    assert momentum_integral(sol, 1, 0.0, lam=1.0) == pytest.approx(
        want, abs=1e-12)


def test_momentum_conserved(lat, sol):
    p0 = momentum_integral(sol, 1, 0.0)
    assert momentum_integral(sol, 1, 3.1) == pytest.approx(p0, abs=1e-10)


def test_standing_mode_has_zero_momentum(lat):
    u = np.zeros(lat.n_modes, dtype=complex)
    u[lat.mode_index((0,))] = 1.0
    sol = from_modes(lat, u)
    assert abs(momentum_integral(sol, 1, 0.0)) < 1e-14


# ---------------------------------------------------------------------------
# Noether currents
# ---------------------------------------------------------------------------

def test_noether_divergence_second_order(lat, sol):
    """div J residual shrinks at second order in the time step."""
    probe = random_solution(lat, np.random.default_rng(3), real_flag=False)
    res = {}
    for dt in (0.1, 0.05, 0.025):
        n = int(round(0.4 / dt))
        res[dt] = noether_divergence(probe, sol,
                                     0.5 + dt * np.arange(n + 1))
    p1 = np.log2(res[0.1] / res[0.05])
    p2 = np.log2(res[0.05] / res[0.025])
    assert (p1 + p2) / 2.0 == pytest.approx(2.0, abs=0.15)


def test_noether_divergence_nonsolution_probe(lat, sol):
    """Phi = t solves nothing, so its current has a visible divergence."""
    probe = PolynomialTimeHistory(lat, [0.0, 1.0])
    dt = 0.05
    got = noether_divergence(probe, sol, 0.5 + dt * np.arange(21))
    assert got > 1e-3


def test_noether_divergence_solution_probe_small(lat, sol):
    probe = random_solution(lat, np.random.default_rng(3), real_flag=False)
    dt = 0.01
    got = noether_divergence(probe, sol, 0.5 + dt * np.arange(5))
    assert got < 1e-3
