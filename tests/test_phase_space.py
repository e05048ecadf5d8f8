"""Solution-space symplectic structure: Omega, Theta, and their identities.

The rest-mode pair pins the overall sign: deformations du = 1 and du = i of
the k = 0 mode give Omega = -1 at L = 2 pi, m = 1 (weight 1/2).
"""

import numpy as np
import pytest

from covkg import (
    build_lattice,
    fd_delta_theta,
    gram_matrix,
    omega_sigma,
    random_solution,
    theta_difference_vs_action,
    theta_sigma,
)
from covkg.multisymplectic import (
    coords,
    graph_frame,
    omega_eval,
    theta_eval,
    theta_pullback_density,
)
from covkg.phase_space import (
    deformation_fields,
    omega_mode_form,
    omega_sigma_pointwise,
    theta_sigma_pointwise,
    translation_deformation,
)
from covkg.lattice import grid_integral
from covkg.multisymplectic import action_between_slices
from covkg.solution import (
    Solution,
    evaluate_fields,
    from_modes,
    stack_solutions,
    synthesize,
)


def _omega_pw(sol, d1, d2, t, shift1=None, shift2=None):
    """``omega_sigma_pointwise`` on the graph frame of ``sol`` at t."""
    frame = graph_frame(sol, t)
    return omega_sigma_pointwise(sol.lat, frame,
                                 deformation_fields(frame[0], d1),
                                 deformation_fields(frame[0], d2),
                                 shift1, shift2)


def _theta_pw(sol, delta, lam, t, shift=None):
    """``theta_sigma_pointwise`` on the graph frame of ``sol`` at t."""
    frame = graph_frame(sol, t)
    return theta_sigma_pointwise(sol.lat, frame,
                                 deformation_fields(frame[0], delta), lam,
                                 shift)


@pytest.fixture()
def defs(lat):
    rng = np.random.default_rng(17)
    return random_solution(lat, rng), random_solution(lat, rng)


def _mode_def(lat, value):
    u = np.zeros(lat.n_modes, dtype=complex)
    u[lat.mode_index((0,))] = value
    return from_modes(lat, u)


def test_rest_mode_pair_pinned(lat, sol):
    """Omega(du = 1, du = i) on the k = 0 mode equals -1 exactly here."""
    d1 = _mode_def(lat, 1.0)
    d2 = _mode_def(lat, 1.0j)
    got = omega_sigma(sol, d1, d2, 0.0)
    assert got == pytest.approx(-1.0, abs=1e-13)
    assert omega_mode_form(lat, d1, d2) == pytest.approx(-1.0, abs=1e-15)


def test_omega_two_paths_agree(lat, sol, defs):
    """The closed slice reduction and the pointwise multisymplectic form
    give the same Omega, and the mode sum, on real deformations and with a
    complex one on either side."""
    d1, d2 = defs
    dc = random_solution(lat, np.random.default_rng(23), real_flag=False)
    for a, b in ((d1, d2), (dc, d2), (d1, dc)):
        closed = complex(omega_sigma(sol, a, b, 0.0))
        assert complex(_omega_pw(sol, a, b, 0.0)) == \
            pytest.approx(closed, abs=1e-12)
        assert closed == pytest.approx(complex(omega_mode_form(lat, a, b)),
                                       abs=1e-12)


def test_omega_antisymmetry_and_bilinearity(lat, sol, defs):
    d1, d2 = defs
    a = omega_sigma(sol, d1, d2, 0.0)
    assert omega_sigma(sol, d2, d1, 0.0) == pytest.approx(-a, abs=1e-13)
    assert omega_sigma(sol, d1, d1, 0.0) == pytest.approx(0.0, abs=1e-14)
    combo = 0.3 * d1 - 1.2 * d2
    want = 0.3 * a - 1.2 * omega_sigma(sol, d2, d2, 0.0)
    assert omega_sigma(sol, combo, d2, 0.0) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("t", [1.3, 2.6])
def test_omega_time_independent(lat, sol, defs, t):
    d1, d2 = defs
    base = omega_sigma(sol, d1, d2, 0.0)
    assert omega_sigma(sol, d1, d2, t) == pytest.approx(base, abs=1e-12)


def test_omega_pointwise_matches_quadrature(lat, sol, defs):
    d1, d2 = defs
    got = _omega_pw(sol, d1, d2, 0.7)
    want = omega_sigma(sol, d1, d2, 0.7)
    assert got == pytest.approx(complex(want), abs=1e-12)


def test_deformation_fields_consistent(lat, sol, defs):
    """delta e matches the finite difference of the constraint energy."""
    d1, _ = defs
    val, dp, de = deformation_fields(evaluate_fields(sol, 0.4), d1)
    eps = 1e-6
    e_plus = evaluate_fields(sol + eps * d1, 0.4).e
    e_minus = evaluate_fields(sol - eps * d1, 0.4).e
    np.testing.assert_allclose(de, (e_plus - e_minus) / (2 * eps), atol=1e-7)
    np.testing.assert_allclose(val, synthesize(d1, 0.4), atol=1e-13)
    np.testing.assert_allclose(dp[0], synthesize(d1, 0.4, (0,)), atol=1e-13)
    np.testing.assert_allclose(dp[1], -synthesize(d1, 0.4, (1,)), atol=1e-13)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_fd_delta_theta_equals_omega(lat, sol, defs, lam):
    """The antisymmetrized first variation of Theta reproduces Omega."""
    d1, d2 = defs
    got = fd_delta_theta(sol, d1, d2, lam, 0.0)
    want = omega_sigma(sol, d1, d2, 0.0)
    assert got == pytest.approx(complex(want), abs=1e-10)


def test_fd_delta_theta_eps_independent(lat, sol, defs):
    d1, d2 = defs
    a = fd_delta_theta(sol, d1, d2, 0.5, 0.0, eps=1e-4)
    b = fd_delta_theta(sol, d1, d2, 0.5, 0.0, eps=5e-5)
    assert a == pytest.approx(b, abs=1e-11)


def test_gram_matrix_nondegenerate(lat):
    """min |eig| / max |eig| = m / sqrt(m^2 + 2 k_max^2) for the pair basis."""
    g, ratio = gram_matrix(lat)
    assert g.shape == (30, 30)
    np.testing.assert_allclose(g, -g.T, atol=1e-15)
    assert ratio == pytest.approx(1.0 / np.sqrt(50.0), rel=1e-12)
    assert ratio > 1e-8


def test_gram_matrix_is_omega_mode_form_on_basis():
    """G is Omega's mode form evaluated pair by pair on the real and
    imaginary direction of every mode, entry for entry."""
    lat = build_lattice(d=2, L=2 * np.pi, N=8, n_max=1, m=1.0)
    basis = []
    for k in range(lat.n_modes):
        ek = np.zeros(lat.n_modes, dtype=complex)
        ek[k] = 1.0
        basis += [Solution(lat, ek, ek.copy(), False),
                  Solution(lat, 1j * ek, -1j * ek, False)]
    ref = np.array([[omega_mode_form(lat, a, b).real for b in basis]
                    for a in basis])
    g, _ = gram_matrix(lat)
    assert np.array_equal(g, ref)


def test_pointwise_slice_forms_match_a_loop_over_cells(lat, sol, defs):
    """The whole-slice pointwise Omega and Theta equal, bitwise, the
    grid_integral of omega_eval and theta_eval evaluated cell by cell."""
    d1, d2 = defs
    t, c = 0.4, 0.7 + 0.2j
    frame = graph_frame(sol, t)
    sd, (x0, x1) = frame
    fields = [deformation_fields(sd, d) for d in (d1, d2)]
    (v1, p1, e1), (v2, p2, e2) = fields
    omega_cells, theta_cells = [], []
    for (j,) in np.ndindex(lat.grid_shape):
        xi1 = coords(np.zeros(2), v1[j], e1[j], p1[:, j])
        xi2 = coords(np.zeros(2), v2[j], e2[j], p2[:, j])
        # one scalar product per coordinate, as a single cell computes it
        shifted = xi1 + [c * v for v in x0[:, j]]
        point = coords(np.zeros(2), sd.phi[j], sd.e[j], sd.p[:, j])
        omega_cells.append(omega_eval([xi1, xi2, x1[:, j]]))
        theta_cells.append(theta_eval(0.3, point, [shifted, x1[:, j]]))
    assert omega_sigma_pointwise(lat, frame, *fields) == grid_integral(
        lat, np.array(omega_cells))
    assert theta_sigma_pointwise(lat, frame, fields[0], 0.3, (c, 0)) == \
        grid_integral(lat, np.array(theta_cells))


def test_theta_closed_form_matches_pointwise(lat, sol, defs):
    d1, _ = defs
    for lam in (0.0, 0.5, 1.0):
        closed = theta_sigma(sol, d1, lam, 0.9)
        pointwise = _theta_pw(sol, d1, lam, 0.9)
        assert complex(closed) == pytest.approx(pointwise, abs=1e-12)


def test_theta_linear_in_deformation(lat, sol, defs):
    d1, d2 = defs
    combo = 0.3 * d1 - 1.2 * d2
    want = (0.3 * theta_sigma(sol, d1, 0.7, 0.2)
            - 1.2 * theta_sigma(sol, d2, 0.7, 0.2))
    assert theta_sigma(sol, combo, 0.7, 0.2) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_theta_spatial_representative_shift_exact(lat, sol, defs, lam):
    """Adding c X_spatial to the representative cannot change Theta.

    The shifted argument repeats a frame vector inside the alternating
    form, so the change is a determinant with a duplicated column; the
    residue is pure roundoff, far below any quadrature tolerance.
    """
    d1, _ = defs
    plain = _theta_pw(sol, d1, lam, 0.5)
    shifted = _theta_pw(sol, d1, lam, 0.5, shift=(0.8, 1))
    assert shifted == pytest.approx(plain, abs=1e-14)


def test_omega_representative_shift_invariant(lat, sol, defs):
    """Omega ignores tangential shifts along any frame direction."""
    d1, d2 = defs
    plain = _omega_pw(sol, d1, d2, 0.5)
    for mu in (0, 1):
        shifted = _omega_pw(sol, d1, d2, 0.5,
                                        shift1=(0.8, mu), shift2=(-0.6, mu))
        assert shifted == pytest.approx(plain, abs=1e-10)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_theta_time_shift_identity(lat, sol, defs, lam):
    """A time-tangential shift adds c times the slice action density.

    The addition vanishes at lam = 1/2 and changes sign between the two
    endpoint gauges, which pins the lam dependence of Theta.
    """
    d1, _ = defs
    c = 0.7
    plain = theta_sigma(sol, d1, lam, 0.5)
    shifted = _theta_pw(sol, d1, lam, 0.5, shift=(c, 0))
    phi = synthesize(sol, 0.5)
    dtphi = synthesize(sol, 0.5, (0,))
    dttphi = synthesize(sol, 0.5, (0, 0))
    dens = theta_pullback_density(lat, phi, dtphi, dttphi, lam)
    extra = c * lat.cell_volume * np.sum(dens)
    assert shifted == pytest.approx(complex(plain + extra), abs=1e-10)
    if lam == 0.5:
        assert abs(extra) < 1e-13


def _three_solutions(d, real):
    lat_d = (build_lattice(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0) if d == 1
             else build_lattice(d=2, L=5.0, N=12, n_max=3, m=0.8))
    rng = np.random.default_rng(60 + d)
    return [random_solution(lat_d, rng, real_flag=real) for _ in range(3)]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_batched_fd_delta_theta_equals_four_theta_sigma_calls(d, real):
    """The two-batch fd_delta_theta gives, bit for bit, the formula from
    four separate theta_sigma calls."""
    sol_d, d1, d2 = _three_solutions(d, real)
    for lam, eps in ((0.0, 1e-4), (1.0, 1e-4), (0.37, 5e-5)):
        def d_along(da, db):
            plus = theta_sigma(sol_d + eps * da, db, lam, 0.4)
            minus = theta_sigma(sol_d - eps * da, db, lam, 0.4)
            return (plus - minus) / (2.0 * eps)
        want = d_along(d1, d2) - d_along(d2, d1)
        got = fd_delta_theta(sol_d, d1, d2, lam, 0.4, eps=eps)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_batched_theta_sigma_and_action_equal_member_calls(d, real):
    sol_d, d1, d2 = _three_solutions(d, real)
    batch = stack_solutions([sol_d, d1, d2])
    vals = theta_sigma(batch, stack_solutions([d1, d2, sol_d]), 0.3, 0.7)
    assert vals.tolist() == [theta_sigma(sol_d, d1, 0.3, 0.7),
                             theta_sigma(d1, d2, 0.3, 0.7),
                             theta_sigma(d2, sol_d, 0.3, 0.7)]
    acts = action_between_slices(batch, 0.3, 0.0, 1.0, 129)
    assert acts == [action_between_slices(s, 0.3, 0.0, 1.0, 129)
                    for s in (sol_d, d1, d2)]
    eps = 1e-3
    _, rhs = theta_difference_vs_action(sol_d, d1, 0.3, 0.0, 1.0, eps, 129)
    plus = action_between_slices(sol_d + eps * d1, 0.3, 0.0, 1.0, 129)
    minus = action_between_slices(sol_d - eps * d1, 0.3, 0.0, 1.0, 129)
    assert rhs == (plus - minus) / (2.0 * eps)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_time_and_lambda_axes_equal_one_call_each(d, real):
    """omega_sigma over times, theta_sigma over lambdas, a
    deformation batch and times, and fd_delta_theta over lambdas give, bit
    for bit, the scalar call for each entry."""
    sol_d, d1, d2 = _three_solutions(d, real)
    ts = np.array([0.0, 1.3, 2.6])
    lams = np.array([0.0, 0.37, 1.0])
    omegas = omega_sigma(sol_d, d1, d2, ts)
    thetas = theta_sigma(sol_d, stack_solutions([d1, d2]), lams, ts)
    fds = fd_delta_theta(sol_d, d1, d2, lams, 0.4)
    assert omegas.shape == (3,) and thetas.shape == (3, 2, 3)
    assert fds.shape == (3,)
    for j, t in enumerate(ts.tolist()):
        assert omegas[j] == omega_sigma(sol_d, d1, d2, t)
    for a, lam in enumerate(lams.tolist()):
        for b, delta in enumerate((d1, d2)):
            for j, t in enumerate(ts.tolist()):
                assert thetas[a, b, j] == theta_sigma(sol_d, delta, lam, t)
        one = fd_delta_theta(sol_d, d1, d2, lam, 0.4)
        assert type(one) is (float if real else complex) and fds[a] == one


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_pointwise_families_equal_one_call_each(d, real):
    """Shift families of the pointwise Theta and Omega, a deformation batch
    through them and through omega_sigma, and a batch crossed with a shift
    family give, bit for bit, the scalar call for each entry; the batch's
    pointwise Omega agrees with the closed one."""
    sol_d, d1, d2 = _three_solutions(d, real)
    mus = np.arange(d, -1, -1)
    cs = 0.8 - 0.3j * mus
    shifts = list(zip(cs.tolist(), mus.tolist()))
    thetas = _theta_pw(sol_d, d1, 0.37, 0.4, shift=(cs, mus))
    omegas = _omega_pw(sol_d, d1, d2, 0.4, shift1=(cs, mus),
                                   shift2=(-0.6, mus))
    assert thetas.shape == omegas.shape == (d + 1,)
    for i, (c, mu) in enumerate(shifts):
        assert thetas[i] == _theta_pw(sol_d, d1, 0.37, 0.4,
                                                  shift=(c, mu))
        assert omegas[i] == _omega_pw(
            sol_d, d1, d2, 0.4, shift1=(c, mu), shift2=(-0.6, mu))
    members = (d1, d2, d1 + d2)
    batch = stack_solutions(members)
    closed = omega_sigma(sol_d, batch, d2, 0.4)
    pointwise = _omega_pw(sol_d, d2, batch, 0.4)
    crossed = _theta_pw(sol_d, batch, 0.37, 0.4, shift=(cs, mus))
    assert closed.shape == pointwise.shape == (3,)
    assert crossed.shape == (d + 1, 3)
    for b, delta in enumerate(members):
        assert closed[b] == omega_sigma(sol_d, delta, d2, 0.4)
        assert pointwise[b] == _omega_pw(sol_d, d2, delta, 0.4)
        assert pointwise[b] == pytest.approx(
            omega_sigma(sol_d, d2, delta, 0.4), abs=1e-10)
        for i, (c, mu) in enumerate(shifts):
            assert crossed[i, b] == _theta_pw(
                sol_d, delta, 0.37, 0.4, shift=(c, mu))


@pytest.mark.parametrize("mu", [-1, 2, [0, 2]])
def test_representative_shift_rejects_mu_outside_the_frame(lat, sol, defs,
                                                           mu):
    d1, d2 = defs
    with pytest.raises(ValueError, match=r"mu must lie in 0\.\.1"):
        _theta_pw(sol, d1, 0.5, 0.4, shift=(0.8, mu))
    with pytest.raises(ValueError, match=r"mu must lie in 0\.\.1"):
        _omega_pw(sol, d1, d2, 0.4, shift2=(0.8, mu))


def test_stack_solutions_needs_one_lattice(sol):
    other = random_solution(build_lattice(d=1, L=3.0, N=16, n_max=5, m=1.0),
                            np.random.default_rng(2))
    with pytest.raises(ValueError, match="different lattices"):
        stack_solutions([sol, other])


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_theta_difference_is_action_variation(lat, sol, defs, lam):
    d1, _ = defs
    lhs, rhs = theta_difference_vs_action(sol, d1, lam, 0.2, 1.1)
    assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-8)


def test_translation_deformation_mode_factors(lat, sol):
    """delta u_k = i k_mu u_k with the lowered spatial component."""
    for mu, kappa in ((0, lat.k0), (1, -lat.k[:, 0])):
        xi = translation_deformation(sol, mu)
        np.testing.assert_allclose(xi.u, 1j * kappa * sol.u, atol=1e-15)
        np.testing.assert_allclose(xi.ustar, -1j * kappa * sol.ustar,
                                   atol=1e-15)
