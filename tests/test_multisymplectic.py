"""Pointwise multiphase-space geometry and the action principle.

The canonical forms have polynomial coefficients, so small hand-evaluable
cases pin every sign; convergence tests then cover the discretized field
equations and the action functional.
"""

import numpy as np
import pytest

from covkg import (
    action_between_slices,
    action_criticality,
    build_lattice,
    coords,
    dtheta_fd,
    hamilton_residual,
    hamiltonian,
    omega_eval,
    random_solution,
    theta_eval,
)
from covkg.multisymplectic import (
    action_of_history,
    hamilton_residual_fields,
    graph_frame,
    hamilton_pointwise_residual,
    lagrangian_and_actions,
    simpson,
    theta_pullback_density,
)
from covkg.phase_space import fd_delta_theta, theta_difference_vs_action
from covkg.solution import (
    _BLOCK_CELLS,
    DetunedHistory,
    SolutionHistory,
    WindowedPerturbation,
    evaluate_fields,
    evolve_exact,
    stack_solutions,
)


@pytest.fixture(scope="module")
def sol(lat):
    return random_solution(lat, np.random.default_rng(1))


def _point(n=2, phi=2.0, e=3.0, p=(1.0, 2.0), x=None):
    return coords(np.zeros(n) if x is None else x, phi, e, p)


def basis_tangents(d):
    """Coordinate directions of M, ordered (x^mu, phi, e, p^mu)."""
    return list(np.eye(2 * d + 4))


def _basis_dict(d):
    """Basis tangents keyed by coordinate name for d = 1."""
    vs = basis_tangents(d)
    names = [f"x{mu}" for mu in range(d + 1)] + ["phi", "e"] + \
            [f"p{mu}" for mu in range(d + 1)]
    return dict(zip(names, vs))


def test_basis_tangents_span(lat):
    """coords stacks the parts in coordinate order (x^mu, phi, e, p^mu) and
    broadcasts them against each other."""
    vs = basis_tangents(1)
    assert len(vs) == 6
    stack = np.array([coords(v[:2], v[2], v[3], v[4:]) for v in vs])
    np.testing.assert_array_equal(stack, np.eye(6))
    cells = coords([0.0, 1.0], np.arange(3.0), 2.0, np.ones((2, 3)))
    assert cells.shape == (6, 3)
    np.testing.assert_array_equal(cells[1], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(cells[2], np.arange(3.0))


@pytest.mark.parametrize("triple,want", [
    (("e", "x0", "x1"), 1.0),
    (("p0", "phi", "x1"), 1.0),
    (("p1", "phi", "x0"), -1.0),
    (("phi", "e", "p0"), 0.0),
    (("x0", "x1", "phi"), 0.0),
])
def test_omega_hand_values(triple, want):
    b = _basis_dict(1)
    assert omega_eval([b[n] for n in triple]) == pytest.approx(want, abs=1e-15)


def test_omega_antisymmetry():
    b = _basis_dict(1)
    rng = np.random.default_rng(3)
    vs = list(rng.standard_normal((3, 6)))
    base = omega_eval(vs)
    assert omega_eval([vs[1], vs[0], vs[2]]) == pytest.approx(-base, abs=1e-12)
    assert omega_eval([vs[0], vs[2], vs[1]]) == pytest.approx(-base, abs=1e-12)
    assert omega_eval([vs[0], vs[0], vs[1]]) == pytest.approx(0.0, abs=1e-15)


def test_omega_multilinearity():
    b = _basis_dict(1)
    rng = np.random.default_rng(8)
    v = list(rng.standard_normal((4, 6)))
    combo = 2.0 * v[0] - v[3]
    lhs = omega_eval([combo, v[1], v[2]])
    rhs = 2.0 * omega_eval([v[0], v[1], v[2]]) - omega_eval([v[3], v[1], v[2]])
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_theta_hand_values(lam):
    b = _basis_dict(1)
    pt = _point()
    assert theta_eval(lam, pt, [b["x0"], b["x1"]]) == pytest.approx(3.0)
    # p^0 dphi wedge beta_0 picks up lam p^0
    assert theta_eval(lam, pt, [b["phi"], b["x1"]]) == pytest.approx(lam * 1.0)
    # p^1 dphi wedge beta_1 carries the opposite orientation
    assert theta_eval(lam, pt, [b["phi"], b["x0"]]) == pytest.approx(-lam * 2.0)
    assert theta_eval(lam, pt, [b["p0"], b["x1"]]) == pytest.approx(-(1 - lam) * 2.0)
    assert theta_eval(lam, pt, [b["p0"], b["p1"]]) == pytest.approx(0.0)


def test_theta_antisymmetry():
    pt = _point()
    rng = np.random.default_rng(5)
    v = list(rng.standard_normal((2, 6)))
    assert theta_eval(0.7, pt, [v[0], v[1]]) == pytest.approx(
        -theta_eval(0.7, pt, [v[1], v[0]]), abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_dtheta_equals_omega(lam):
    """d theta_lambda = omega for every gauge lam, on random constant fields."""
    rng = np.random.default_rng(11)
    pt = _point(phi=0.3, e=-1.1, p=(0.4, -0.9), x=rng.standard_normal(2))
    vs = list(rng.standard_normal((3, 6)))
    got = dtheta_fd(lam, pt, vs)
    want = omega_eval(vs)
    assert got == pytest.approx(want, abs=1e-9)


def _dtheta_draws(rng, d, lams=(0.0, 0.37, 1.0), per_lam=4):
    """Random points and coordinate-vector picks, one per (lambda, draw)."""
    n_dim = 2 * d + 4
    draws = []
    for lam in lams:
        for _ in range(per_lam):
            point = coords(rng.standard_normal(d + 1), rng.standard_normal(),
                           rng.standard_normal(), rng.standard_normal(d + 1))
            draws.append((lam, point, rng.choice(n_dim, d + 2, replace=False)))
    return draws


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_dtheta_equals_per_draw_calls(d):
    """One dtheta_fd/omega_eval call over all draws as cells, lambda per
    cell, gives bit for bit the per-draw scalar calls."""
    draws = _dtheta_draws(np.random.default_rng(30 + d), d)
    basis = basis_tangents(d)
    eye = np.eye(2 * d + 4)
    lams = np.array([lam for lam, _, _ in draws])
    point = np.stack([pt for _, pt, _ in draws], axis=1)
    picks = np.array([pk for _, _, pk in draws])
    vectors = [eye[:, col] for col in picks.T]
    stacked = dtheta_fd(lams, point, vectors)
    forms = omega_eval(vectors)
    assert stacked.shape == forms.shape == (len(draws),)
    for j, (lam, pt, pk) in enumerate(draws):
        vs = [basis[i] for i in pk]
        assert stacked[j] == dtheta_fd(lam, pt, vs)
        assert forms[j] == omega_eval(vs)
    assert np.max(np.abs(stacked - forms)) < 1e-9


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), np.inf])
def test_central_differences_need_positive_eps(lat, sol, eps):
    """A central difference needs a positive, finite eps: an infinite one
    would give NaN."""
    vs = basis_tangents(1)[:3]
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        dtheta_fd(0.5, _point(), vs, eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        theta_difference_vs_action(sol, sol, 0.5, 0.0, 1.0, eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        fd_delta_theta(sol, sol, sol, 0.5, 0.0, eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        action_criticality([SolutionHistory(sol)], sol, 0.5, eps=eps)


def test_action_criticality_rejects_an_empty_base_list(sol):
    with pytest.raises(ValueError, match="bases must hold"):
        action_criticality([], sol, 0.5)


def test_hamiltonian_hand_value():
    """H = e + (1/2)((p^0)^2 - |p|^2) + (1/2) m^2 phi^2."""
    pt = _point(phi=2.0, e=3.0, p=(1.0, 2.0))
    assert hamiltonian(pt, m=1.0) == pytest.approx(3.0 - 1.5 + 2.0)
    assert hamiltonian(pt, m=2.0) == pytest.approx(3.0 - 1.5 + 8.0)


def test_forms_reject_malformed_tangents_and_points():
    def tangent(n_x, n_p):
        return coords(np.zeros(n_x), 1.0, 0.0, np.ones(n_p))

    for vectors in ([tangent(3, 2)] * 3,                      # dimension 7
                    [tangent(1, 1)] * 2,                      # dimension 4
                    [tangent(2, 2), tangent(3, 3), tangent(2, 2)]):
        with pytest.raises(ValueError, match="dimension"):
            omega_eval(vectors)
        with pytest.raises(ValueError, match="dimension"):
            theta_eval(0.5, _point(), vectors[:-1])
    for p in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError, match="2n \\+ 2 = 6 coordinates"):
            theta_eval(0.5, _point(p=p), [tangent(2, 2)] * 2)


def _cell(obj, j):
    """The point or tangent ``obj`` at cell ``j`` of its trailing axes."""
    return obj[(slice(None),) + j]


@pytest.mark.parametrize("cells", [(5,), (3, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_forms_on_cell_stacks_match_single_cells(d, dtype, cells):
    """omega, theta and H on stacks of cells equal, bitwise, the values of
    the same calls cell by cell."""
    rng = np.random.default_rng(100 * d + len(cells))
    n = d + 1

    def draw(*lead):
        x = rng.standard_normal(lead + cells)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(lead + cells)
        return x

    point = coords(draw(n), draw(), draw(), draw(n))
    vectors = [coords(draw(n), draw(), draw(), draw(n)) for _ in range(n)]
    e_dir = basis_tangents(d)[n + 1]          # no cell axes: broadcast
    omega = omega_eval(vectors + [e_dir])
    theta = theta_eval(0.37, point, vectors)
    ham = hamiltonian(point, 1.3)
    assert omega.shape == theta.shape == ham.shape == cells
    assert np.iscomplexobj(theta) == np.iscomplexobj(ham) == (dtype is complex)
    for j in np.ndindex(cells):
        at_j = [_cell(v, j) for v in vectors]
        assert omega[j] == omega_eval(at_j + [e_dir])
        assert theta[j] == theta_eval(0.37, _cell(point, j), at_j)
        assert ham[j] == hamiltonian(_cell(point, j), 1.3)


def test_hamiltonian_vanishes_on_solution_graph(lat, sol):
    sd, _ = graph_frame(sol, 0.55)
    for j in range(0, 32, 4):
        pt = coords([0.55, lat.axis()[j]], sd.phi[j], sd.e[j], sd.p[:, j])
        assert hamiltonian(pt, lat.m) == pytest.approx(0.0, abs=1e-13)


def test_graph_tangent_holonomic(lat, sol):
    """Graph tangents carry the chain-rule derivatives of the slice fields."""
    _, tangents = graph_frame(sol, 0.2)
    v = tangents[0][:, 5]
    h = 1e-6
    from covkg.solution import synthesize

    fd_phi = (synthesize(sol, 0.2 + h)[5] - synthesize(sol, 0.2 - h)[5]) / (2 * h)
    assert v[0] == 1.0 and v[1] == 0.0
    assert v[2] == pytest.approx(fd_phi, abs=1e-8)
    fd_e = (evaluate_fields(sol, 0.2 + h).e[5]
            - evaluate_fields(sol, 0.2 - h).e[5]) / (2 * h)
    assert v[3] == pytest.approx(fd_e, abs=1e-8)


def test_hamilton_pointwise_residual_onshell(lat, sol):
    assert hamilton_pointwise_residual(sol, 0.9) < 1e-9


def test_hamilton_residual_fields_detects_offshell(lat, sol):
    """Detuned frequencies violate the first-order system at O(1)."""
    from covkg.lattice import spectral_gradient

    hist = DetunedHistory(sol, 0.5)
    dt = 0.05
    t_grid = 0.3 + dt * np.arange(5)
    phis, ps = [], []
    for t in t_grid:
        phi, dphi, _ = hist.at(t)
        phis.append(phi)
        ps.append(np.stack([dphi, -spectral_gradient(lat, phi)[0]]))
    assert hamilton_residual_fields(lat, t_grid, np.stack(phis),
                                    np.stack(ps)) > 1e-2


def test_hamilton_residual_fields_keeps_a_nan(lat, sol):
    """A NaN in a spatial momentum makes the residual NaN, although the
    time-derivative residual before it is finite."""
    t_grid = 0.3 + 0.05 * np.arange(5)
    sd = evaluate_fields(sol, t_grid)
    ps = sd.p.copy()
    ps[2, 1, 4] = np.nan
    assert np.isnan(hamilton_residual_fields(lat, t_grid, sd.phi, ps))


def test_hamilton_residual_second_order(lat, sol):
    """Centered-difference residual of the first-order system is O(dt^2)."""
    t0, span = 0.4, 0.4
    res = {}
    for dt in (0.1, 0.05, 0.025):
        n = int(round(span / dt))
        res[dt] = hamilton_residual(sol, t0 + dt * np.arange(n + 1))
    p1 = np.log2(res[0.1] / res[0.05])
    p2 = np.log2(res[0.05] / res[0.025])
    assert (p1 + p2) / 2.0 == pytest.approx(2.0, abs=0.1)


def test_simpson_exact_on_cubics():
    dt = 0.25
    x = dt * np.arange(5)
    vals = x ** 3 - 2.0 * x
    exact = x[-1] ** 4 / 4.0 - x[-1] ** 2
    assert simpson(vals, dt) == pytest.approx(exact, abs=1e-14)


def test_simpson_requires_odd_count():
    with pytest.raises(ValueError):
        simpson(np.zeros(4), 0.1)


@pytest.mark.parametrize("n_t", [0, 1, 2, 4, 256])
def test_time_quadratures_require_odd_sample_count(lat, sol, n_t):
    """Every action quadrature raises the Simpson error on a bad n_t,
    before any field is evaluated."""
    hist = SolutionHistory(sol)
    calls = (lambda: action_between_slices(sol, 1.0, 0.0, 1.0, n_t),
             lambda: action_of_history(hist, 0.5, 0.0, 1.0, n_t),
             lambda: lagrangian_and_actions(hist, (0.0, 1.0), 0.0, 1.0, n_t),
             lambda: action_criticality([hist], sol, 1.0, n_t=n_t))
    for call in calls:
        with pytest.raises(ValueError, match="odd number >= 3"):
            call()


def test_simpson_fourth_order():
    errs = []
    for n in (33, 65):
        x = np.linspace(0.0, np.pi, n)
        errs.append(abs(simpson(np.sin(x), x[1] - x[0]) - 2.0))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)


def test_action_of_history_spans_several_time_blocks():
    """Blocked evaluation matches a Simpson sum over one time at a time."""
    lat2 = build_lattice(d=2, L=5.0, N=12, n_max=3, m=0.7)
    rng = np.random.default_rng(8)
    base = SolutionHistory(random_solution(lat2, rng))
    hist = WindowedPerturbation([base],
                                SolutionHistory(random_solution(lat2, rng)),
                                0.1, 0.9, 0.3)
    n_t = 2 * (_BLOCK_CELLS // 144) + 9
    assert n_t % (_BLOCK_CELLS // 144) != 0
    ts = np.linspace(0.0, 1.0, n_t)
    vals = [lat2.cell_volume
            * np.sum(theta_pullback_density(lat2, *hist.at(t), 0.37))
            for t in ts]
    want = simpson(np.array(vals), ts[1] - ts[0])
    got, = action_of_history(hist, 0.37, 0.0, 1.0, n_t)
    assert abs(want) > 1e-3
    assert got == pytest.approx(want, rel=1e-13)


def test_simpson_sums_each_leading_row():
    rows = np.random.default_rng(4).standard_normal((3, 2, 9))
    got = simpson(rows, 0.1)
    assert got.shape == (3, 2)
    for lead in np.ndindex(3, 2):
        assert got[lead] == simpson(rows[lead], 0.1)


@pytest.mark.parametrize("lat_args", [(1, 2 * np.pi, 32, 7), (2, 5.0, 12, 3),
                                      (3, 4.0, 8, 3)])
def test_lambda_family_quadrature_is_bitwise(lat_args):
    """lagrangian_and_actions, one quadrature pass, gives bit for bit
    action_between_slices at each lambda, and a Lagrangian action that does
    not depend on the lambdas it rides with.  n_t spans several
    _BLOCK_CELLS blocks and ends in a partial one."""
    d, L, N, n_max = lat_args
    lat_d = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.0)
    sol_d = random_solution(lat_d, np.random.default_rng(3))
    step = _BLOCK_CELLS // N ** d
    n_t = 2 * step + 9
    assert n_t % 2 == 1 and n_t % step != 0
    lams = (0.0, 0.37, 0.5, 1.0)
    hist = SolutionHistory(sol_d)
    lag, acts = lagrangian_and_actions(hist, lams, 0.1, 0.9, n_t)
    assert lag == lagrangian_and_actions(hist, lams[:1], 0.1, 0.9, n_t)[0]
    assert acts == [action_between_slices(sol_d, lam, 0.1, 0.9, n_t)
                    for lam in lams]
    assert action_of_history(hist, np.array(lams), 0.1, 0.9, n_t) == acts


def test_lambda_family_of_a_solution_batch_is_bitwise(lat, sol):
    """A lambda array and a solution batch give one action per (lambda,
    member), lambda first, each equal bit for bit to its own call."""
    members = [sol, 2.0 * evolve_exact(sol, 0.3)]
    lams = np.array([0.0, 0.37, 1.0])
    got = action_between_slices(stack_solutions(members), lams, 0.0, 1.0, 33)
    assert got == [[action_between_slices(s, lam, 0.0, 1.0, 33)
                    for s in members] for lam in lams]


def test_lagrangian_alone_from_an_empty_lambda_list(lat, sol):
    """No lambdas give the Lagrangian action and an empty action list; the
    Lagrangian equals, bit for bit, the one that rides with a lambda."""
    hist = SolutionHistory(sol)
    lag, acts = lagrangian_and_actions(hist, [], 0.2, 1.4, 257)
    assert acts == []
    assert lag == lagrangian_and_actions(hist, [0.5], 0.2, 1.4, 257)[0]


def test_quadrature_blocks_bound_each_synthesis(lat, sol, monkeypatch):
    """On a 2-member batch, every mode sum of both action quadratures holds
    at most _BLOCK_CELLS grid values per derivative order."""
    import covkg.solution as solution

    per_order, real = [], solution.mode_sum_grid

    def spy(*args):
        grids = real(*args)  # (order, batch, time) + grid_shape
        per_order.append(grids[0].size)
        return grids

    monkeypatch.setattr(solution, "mode_sum_grid", spy)
    hist = SolutionHistory(stack_solutions([sol, evolve_exact(sol, 0.3)]))
    action_of_history(hist, 0.5, 0.0, 1.0, 257)
    lagrangian_and_actions(hist, [0.0, 1.0], 0.0, 1.0, 257)
    assert per_order and max(per_order) <= _BLOCK_CELLS


@pytest.mark.parametrize("lam,factor", [(0.0, -1.0), (0.5, 0.0), (1.0, 1.0)])
def test_action_matches_scaled_lagrangian(lat, sol, lam, factor):
    """Slice-to-slice action equals (2 lam - 1) times the Lagrangian action."""
    t1, t2 = 0.2, 1.4
    act = action_between_slices(sol, lam, t1, t2, n_t=257)
    lag, _ = lagrangian_and_actions(SolutionHistory(sol), [lam], t1, t2, 257)
    assert abs(lag) > 1e-3  # the comparison is not vacuous
    assert act == pytest.approx(factor * lag, abs=1e-8)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_action_critical_on_solutions(lat, lam, seed):
    rng = np.random.default_rng(seed)
    base = random_solution(lat, rng)
    variation = random_solution(lat, rng)
    crit, = action_criticality([SolutionHistory(base)], variation, lam)
    assert crit < 1e-8


def test_action_not_critical_off_shell(lat, sol):
    variation = random_solution(lat, np.random.default_rng(21))
    bad = DetunedHistory(sol, 0.5)
    crit, = action_criticality([bad], variation, 1.0)
    assert crit > 1e-3


@pytest.mark.parametrize("detune", [None, 0.5])
@pytest.mark.parametrize("lat_args", [(1, 2 * np.pi, 32, 7), (2, 5.0, 12, 3)])
def test_criticality_equals_two_windowed_actions(lat_args, detune):
    """Shared +-eps fields give, bit for bit, |A(+eps) - A(-eps)| / (2 eps)
    from two action_of_history calls on WindowedPerturbation(+-eps)."""
    d, L, N, n_max = lat_args
    lat_d = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(17)
    base_sol, var = random_solution(lat_d, rng), random_solution(lat_d, rng)
    base = (SolutionHistory(base_sol) if detune is None
            else DetunedHistory(base_sol, detune))
    eps, lam, n_t = 1e-3, 0.37, 257
    (plus,), (minus,) = (action_of_history(
        WindowedPerturbation([base], SolutionHistory(var), 0.0, 1.0, e),
        lam, 0.0, 1.0, n_t) for e in (eps, -eps))
    got = action_criticality([base], var, lam, eps=eps, n_t=n_t)
    assert got == [abs(plus - minus) / (2.0 * eps)]


@pytest.mark.parametrize("lat_args", [(1, 2 * np.pi, 32, 7), (2, 5.0, 12, 3)])
def test_criticality_bases_in_one_pass_equal_one_call_each(lat_args):
    """A list of bases gives a list that equals, bit for bit, one call per
    base, the variation and the window evaluated once per block for all."""
    d, L, N, n_max = lat_args
    lat_d = build_lattice(d=d, L=L, N=N, n_max=n_max, m=1.0)
    rng = np.random.default_rng(23)
    base_sol, var = random_solution(lat_d, rng), random_solution(lat_d, rng)
    bases = [SolutionHistory(base_sol), DetunedHistory(base_sol, 0.5),
             DetunedHistory(base_sol, -0.2)]
    got = action_criticality(bases, var, 0.37, n_t=257)
    want = [action_criticality([b], var, 0.37, n_t=257)[0] for b in bases]
    assert got == want
    assert got[0] < 1e-8 < got[1]


def test_action_additive_over_time_intervals(lat, sol):
    a = action_between_slices(sol, 1.0, 0.0, 0.8, n_t=513)
    b = action_between_slices(sol, 1.0, 0.8, 1.6, n_t=513)
    c = action_between_slices(sol, 1.0, 0.0, 1.6, n_t=1025)
    assert a + b == pytest.approx(c, abs=1e-9)


def test_action_time_translation_invariant(lat, sol):
    """Shifting the solution and the window together leaves the action fixed."""
    shifted = evolve_exact(sol, 0.6)
    a = action_between_slices(sol, 1.0, 0.6, 1.8, n_t=257)
    b = action_between_slices(shifted, 1.0, 0.0, 1.2, n_t=257)
    assert a == pytest.approx(b, abs=1e-10)
