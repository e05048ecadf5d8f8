"""Ladder operators on polarized sections and their commutation algebra.

Hand oracles use the rest mode at L = 2 pi, m = 1: weight 1/2, so applying
the raising operator once gives the coefficient w g = g/2 and the squared
monomial norm hbar / w = 2.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from covkg import (
    DegreeOverflowError,
    PolarizedState,
    build_lattice,
    commutator,
    inner_product,
    monomial,
    op_a,
    op_a_star,
    op_p,
    vacuum,
)
from covkg.observables import bracket_regularized
from covkg.prequant import (
    DEGREE_BOUND,
    _column_keys,
    is_zero_state,
    max_abs,
    minkowski_kz,
    monomial_at,
    monomial_block,
    monomial_rows,
    p_eigenvalue,
    prune,
    row_alphas,
    state_scale,
    state_sub,
    state_sum,
    states_equal,
)
from covkg.reporting import RunConfig
from covkg.suites import suite_prequant


@pytest.fixture(scope="module")
def lat():
    return build_lattice(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0)


@pytest.fixture(scope="module", params=[7, 11], ids=["n_max7", "n_max11"])
def wide_lat(request):
    return build_lattice(d=1, L=2 * np.pi, N=32, n_max=request.param, m=1.0)


@pytest.fixture(scope="module")
def rows_lats(lat):
    """``lat`` (uint8 index rows) and a 289-mode lattice (uint16 rows)."""
    return lat, build_lattice(d=2, L=2 * np.pi, N=18, n_max=8, m=1.0)


@pytest.fixture(scope="module")
def i0(lat):
    return lat.mode_index((0,))


def _rand_fg(lat, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    return f, g


def _dyadic(lat, seed):
    rng = np.random.default_rng(seed)
    re = rng.integers(-8, 9, lat.n_modes).astype(float)
    im = rng.integers(-8, 9, lat.n_modes).astype(float)
    return (re + 1j * im) / 16.0


# ---------------------------------------------------------------------------
# State plumbing
# ---------------------------------------------------------------------------

def test_monomial_row_sorts_and_drops_zeros(lat):
    """The index row lists mode k alpha_k times, in ascending mode order."""
    assert monomial(lat, [(5, 2), (1, 1)]).idx.tolist() == [[1, 5, 5]]
    assert monomial(lat, [(3, 0), (2, 1)]).idx.tolist() == [[2]]
    assert monomial(lat, []).idx.shape == (1, 0)


def test_monomial_rejects_bad_input_collapses_duplicate(lat):
    with pytest.raises(ValueError, match="nonnegative"):
        monomial(lat, [(1, -1)])
    with pytest.raises(ValueError, match="out of range"):
        monomial(lat, [(lat.n_modes, 1)])
    with pytest.raises(DegreeOverflowError):
        monomial(lat, [(1, 4), (4, DEGREE_BOUND - 3)])
    # duplicate slots collapse like dict construction: the last entry wins
    assert monomial(lat, [(1, 1), (1, 2)]).idx.tolist() == [[1, 1]]


def test_vacuum_and_monomial(lat, i0):
    v = vacuum(lat)
    assert v.coeffs == {(): 1.0 + 0j}
    m1 = monomial(lat, [(i0, 2)])
    assert m1.coeffs == {((i0, 2),): 1.0 + 0j}


def test_state_arithmetic(lat, i0):
    a = monomial(lat, [(i0, 1)])
    b = monomial(lat, [(i0, 2)])
    s = state_sum(state_scale(2.0, a), state_scale(-3.0j, b))
    assert s.coeffs[((i0, 1),)] == 2.0 + 0j
    assert s.coeffs[((i0, 2),)] == -3.0j
    z = state_sub(s, s)
    assert is_zero_state(prune(z))


def test_monomial_rows_counts(lat):
    """15 generators: C(15 + D, D) monomials through degree D."""
    assert len(monomial_rows(lat, 2)) == 136
    assert len(monomial_rows(lat, 4)) == 3876


def test_monomials_up_to_degree_order_pinned():
    """By degree, then in colex order of the index row, on 3 modes."""
    lat3 = build_lattice(d=1, L=2 * np.pi, N=4, n_max=1, m=1.0)
    rows = monomial_rows(lat3, 3)
    # sentinel 3 pads the rows; the vacuum is all sentinel
    assert rows.tolist() == [
        [3, 3, 3],
        [0, 3, 3], [1, 3, 3], [2, 3, 3],
        [0, 0, 3], [0, 1, 3], [1, 1, 3], [0, 2, 3], [1, 2, 3], [2, 2, 3],
        [0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, 2], [0, 1, 2],
        [1, 1, 2], [0, 2, 2], [1, 2, 2], [2, 2, 2],
    ]
    assert row_alphas(lat3, rows) == [
        (),
        ((0, 1),), ((1, 1),), ((2, 1),),
        ((0, 2),), ((0, 1), (1, 1)), ((1, 2),), ((0, 1), (2, 1)),
        ((1, 1), (2, 1)), ((2, 2),),
        ((0, 3),), ((0, 2), (1, 1)), ((0, 1), (1, 2)), ((1, 3),),
        ((0, 2), (2, 1)), ((0, 1), (1, 1), (2, 1)), ((1, 2), (2, 1)),
        ((0, 1), (2, 2)), ((1, 1), (2, 2)), ((2, 3),),
    ]


def test_monomial_at_walks_the_listed_order(lat):
    """Rows sorted by (degree, key rank); ``monomial_at`` is row i."""
    for max_degree in (0, 1, 3):
        rows = monomial_rows(lat, max_degree)
        degree = np.sum(rows < lat.n_modes, axis=1)
        rank = _column_keys(lat.n_modes, rows.T,
                            np.zeros(len(rows), dtype=np.intp), rows.shape[1])
        assert len(np.unique(rank)) == len(rows)
        assert np.array_equal(np.lexsort((rank, degree)),
                              np.arange(len(rows)))
        for i, row in enumerate(rows):
            assert np.array_equal(monomial_at(lat, max_degree, i), row)
    for index in (-1, len(rows)):
        with pytest.raises(IndexError):
            monomial_at(lat, 3, index)


# ---------------------------------------------------------------------------
# Ladder action
# ---------------------------------------------------------------------------

def test_lowering_hand_values(lat, i0):
    """a_f maps (u*)^e to hbar f e (u*)^(e-1), slot by slot."""
    f = np.zeros(lat.n_modes)
    f[i0] = 3.0
    assert is_zero_state(op_a(f, vacuum(lat)))
    out = op_a(f, monomial(lat, [(i0, 1)]))
    assert out.coeffs == {(): 3.0 + 0j}
    out = op_a(f, monomial(lat, [(i0, 2)]))
    assert out.coeffs == {((i0, 1),): 6.0 + 0j}


def test_raising_hand_values(lat, i0):
    """a*_g multiplies by w g before raising the slot: rest mode gives g/2."""
    g = np.zeros(lat.n_modes)
    g[i0] = 4.0
    out = op_a_star(g, vacuum(lat))
    assert out.coeffs == {((i0, 1),): 2.0 + 0j}
    out = op_a_star(g, monomial(lat, [(i0, 1)]))
    assert out.coeffs == {((i0, 2),): 2.0 + 0j}


def test_raising_past_bound_raises(lat, i0):
    g = np.ones(lat.n_modes)
    state = monomial(lat, [(i0, DEGREE_BOUND)])
    with pytest.raises(DegreeOverflowError):
        op_a_star(g, state)


@pytest.mark.parametrize("n", [14, 16])
def test_ladder_rejects_wrong_coefficient_shape(lat, i0, n):
    """One coefficient per mode (15 here); short and long arrays fail."""
    state = monomial(lat, [(i0, 1), (14, 1)])
    with pytest.raises(ValueError, match="shape"):
        op_a(np.ones(n), state)
    with pytest.raises(ValueError, match="shape"):
        op_a_star(np.ones(n), state)


def test_ladder_mixes_modes(lat):
    g = np.zeros(lat.n_modes)
    g[2], g[9] = 1.0, 1.0
    out = op_a_star(g, vacuum(lat))
    assert set(out.coeffs) == {((2, 1),), ((9, 1),)}
    np.testing.assert_allclose(out.coeffs[((2, 1),)], lat.w[2])
    np.testing.assert_allclose(out.coeffs[((9, 1),)], lat.w[9])


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------

def test_minkowski_pairing(lat):
    kz = minkowski_kz(lat, np.array([1.0, 0.0]))
    np.testing.assert_allclose(kz, lat.k0)
    kz = minkowski_kz(lat, np.array([0.0, 1.0]))
    np.testing.assert_allclose(kz, -lat.k[:, 0])


def test_p_diagonal_with_additive_eigenvalues(lat, i0):
    """P on a monomial is -hbar sum alpha_k (k.zeta) times the monomial."""
    zeta = np.array([1.0, 0.3])
    alpha = tuple(sorted([(i0, 2), (3, 1)]))
    state = monomial(lat, [(i0, 2), (3, 1)])
    out = op_p(zeta, state)
    eig = p_eigenvalue(lat, alpha, zeta)
    want = -(2.0 * minkowski_kz(lat, zeta)[i0] + minkowski_kz(lat, zeta)[3])
    assert eig == pytest.approx(want, abs=1e-14)
    assert set(out.coeffs) == {alpha}
    assert out.coeffs[alpha] == pytest.approx(eig, abs=1e-13)


def test_vacuum_annihilated_exactly(lat):
    zeta = np.array([0.7, -0.4])
    assert is_zero_state(op_p(zeta, vacuum(lat)))
    f = np.ones(lat.n_modes, dtype=complex)
    assert is_zero_state(op_a(f, vacuum(lat)))


def test_energy_eigenvalues_nonnegative(lat):
    """-eigenvalue of P along e_0 is a sum of frequencies, never negative."""
    zeta = np.array([1.0, 0.0])
    for alpha in row_alphas(lat, monomial_rows(lat, 2)):
        assert -p_eigenvalue(lat, alpha, zeta) >= 0.0
    assert p_eigenvalue(lat, (), zeta) == 0.0


@pytest.mark.parametrize("budget", [None, 40])
def test_p_eigenvalues_match_per_monomial_dot_products(wide_lat, budget,
                                                       monkeypatch):
    """The exponent-count product equals p_eigenvalue on every row of degree
    <= 3 to within the rounding of a sum of at most three terms."""
    import covkg.prequant as pq
    if budget is not None:
        monkeypatch.setattr(pq, "_COUNT_CELLS", budget)
    rows = monomial_rows(wide_lat, 3)
    for zeta in (np.array([1.0, 0.0]), np.array([0.7, -1.3])):
        got = pq.p_eigenvalues(wide_lat, rows, zeta)
        want = np.array([p_eigenvalue(wide_lat, alpha, zeta)
                         for alpha in row_alphas(wide_lat, rows)])
        scale = np.abs(minkowski_kz(wide_lat, zeta)).max() * 3
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * scale
        assert got[0] == 0.0  # the vacuum row


def test_monomial_block_keeps_rows_and_amplitudes(lat):
    """One term of amplitude 1 per row, tagged by its position: the rows
    lose only their sentinel columns.  Built directly with those tags, the
    terms keep every bit of their amplitudes, -0.0 included."""
    rows = np.array([[0, 3, lat.n_modes], [2, 2, lat.n_modes],
                     [0, 3, lat.n_modes]])
    amp = np.array([1.5 - 0.5j, -0.0, 2.0j])
    block = monomial_block(lat, rows)
    assert np.array_equal(block.idx, rows[:, :2])
    assert block.amp.tobytes() == np.ones(3, dtype=complex).tobytes()
    assert np.array_equal(block.tag, [0, 1, 2])
    assert block.coeffs == {((0, 1), (3, 1)): 2.0, ((2, 2),): 1.0}
    tagged = PolarizedState(lat, rows, amp, np.arange(len(rows)))
    assert np.array_equal(tagged.key, block.key)
    assert tagged.amp.tobytes() == amp.tobytes()
    assert tagged.coeffs == {((0, 1), (3, 1)): 1.5 + 1.5j, ((2, 2),): 0.0}


def test_coalesce_matches_unique_grouping(lat):
    """Run-based grouping keeps np.unique's group order, first terms and
    summation order, so the merged state is identical bit for bit."""
    from covkg.lattice import _complex
    from covkg.prequant import _group
    rng = np.random.default_rng(6)
    idx = np.sort(rng.integers(0, lat.n_modes + 1, size=(400, 3)), axis=1)
    tag = rng.integers(0, 5, size=400)
    amp = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    keys = _column_keys(lat.n_modes, idx.T, tag, idx.shape[1])
    want_keys, first, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
    n = len(first)
    assert n < 400  # some terms merge
    want_amp = _complex(np.bincount(inverse, amp.real, n),
                        np.bincount(inverse, amp.imag, n))
    got_first, got_keys, got_amp = _group(keys, amp)
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_keys, want_keys)
    assert np.array_equal(got_amp.view(float), want_amp.view(float))
    assert [len(a) for a in _group(keys[:0], amp[:0])] == [0, 0, 0]


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------

def _ccr_defect(lat, f, g, alpha):
    state = monomial(lat, list(alpha))
    comm = commutator(partial(op_a, f), partial(op_a_star, g), state)
    scalar = lat.hbar * np.sum(lat.w * f * g)
    return state_sub(comm, state_scale(scalar, state))


@pytest.mark.parametrize("seed", range(4))
def test_ccr_on_low_degree_monomials(lat, seed):
    f, g = _rand_fg(lat, seed)
    for alpha in row_alphas(lat, monomial_rows(lat, 2))[:60]:
        defect = _ccr_defect(lat, f, g, alpha)
        worst = max((abs(c) for c in defect.coeffs.values()), default=0.0)
        assert worst < 1e-12


def test_lowering_commutator_exact_zero_dyadic(wide_lat):
    """[a_f, a_f'] on monomials is the empty state for dyadic data.

    Small dyadic rationals keep every partial product exact in binary
    floating point, so the cancellation is literal, not approximate.
    Every monomial of degree <= 3 is checked, as one tagged block.
    """
    f, fp = _dyadic(wide_lat, 0), _dyadic(wide_lat, 1)
    block = monomial_block(wide_lat, monomial_rows(wide_lat, 3))
    assert is_zero_state(commutator(partial(op_a, f), partial(op_a, fp),
                                    block))


def test_raising_commutator_exact_zero_generic(wide_lat):
    """[a*_g, a*_g'] cancels exactly even for arbitrary coefficients.

    Every monomial of degree <= 2 is checked, as one tagged block.
    """
    g, gp = _rand_fg(wide_lat, 7)
    block = monomial_block(wide_lat, monomial_rows(wide_lat, 2))
    assert is_zero_state(commutator(partial(op_a_star, g),
                                    partial(op_a_star, gp), block))


def _tag_terms(state, tag):
    """(rows without sentinel-only columns, amplitudes) of one tag."""
    keep = state.tag == tag
    rows, amp = state.idx[keep], state.amp[keep]
    width = int(np.sum(rows < state.lat.n_modes, axis=1).max(initial=0))
    return rows[:, :width], amp


def test_tagged_block_matches_single_monomials(wide_lat):
    """Each tag of a block equals, bit for bit, its monomial run alone."""
    lat = wide_lat
    f, g = _rand_fg(lat, 3)
    zeta = np.array([0.7, -0.4])
    ops = {
        "a": partial(op_a, f),
        "a_star": partial(op_a_star, g),
        "p": partial(op_p, zeta),
        "ccr": partial(commutator, partial(op_a, f), partial(op_a_star, g)),
        "ccr_merged": lambda s: state_sum(
            op_a(f, op_a_star(g, s)),
            state_scale(-1.0, op_a_star(g, op_a(f, s))),
            state_scale(-0.3j, s)),
    }
    rows = monomial_rows(lat, 3)[::7]
    alphas = row_alphas(lat, rows)
    block = monomial_block(lat, rows)
    for name, op in ops.items():
        out = op(block)
        for tag, alpha in enumerate(alphas):
            single = op(monomial(lat, list(alpha)))
            got_rows, got_amp = _tag_terms(out, tag)
            want_rows, want_amp = _tag_terms(single, 0)
            assert np.array_equal(got_rows, want_rows), (name, tag)
            assert got_amp.tobytes() == want_amp.tobytes(), (name, tag)


def test_translation_raising_commutator(lat):
    """[P_zeta, a*_g] = -hbar a*_{(k.zeta) g} on seeded states."""
    rng = np.random.default_rng(23)
    zeta = np.array([0.9, 0.2])
    g = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)
    kz = minkowski_kz(lat, zeta)
    for alpha in row_alphas(lat, monomial_rows(lat, 2))[:40]:
        state = monomial(lat, list(alpha))
        comm = commutator(partial(op_p, zeta), partial(op_a_star, g), state)
        want = state_scale(-lat.hbar, op_a_star(kz * g, state))
        defect = state_sub(comm, want)
        worst = max((abs(c) for c in defect.coeffs.values()), default=0.0)
        assert worst < 1e-12


def test_quantum_bracket_matches_classical(lat):
    """[a_f, a*_g] acts as (hbar / i) {a_f, a*_g} times the identity."""
    f, g = _rand_fg(lat, 31)
    comm = commutator(partial(op_a, f), partial(op_a_star, g), vacuum(lat))
    scalar = comm.coeffs[()]
    want = lat.hbar / 1j * bracket_regularized(lat, f, g)
    assert scalar == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Inner product and adjointness
# ---------------------------------------------------------------------------

def test_monomial_norms_hand_values(lat, i0):
    """||(u*)^alpha||^2 = prod alpha_k! (hbar / w_k)^alpha_k."""
    def norm_sq(pairs):
        m = monomial(lat, pairs)
        return inner_product(m, m)

    assert norm_sq([]) == 1.0
    assert norm_sq([(i0, 1)]) == pytest.approx(2.0)
    assert norm_sq([(i0, 2)]) == pytest.approx(8.0)
    want = (1.0 / lat.w[2]) * math.factorial(3) * (1.0 / lat.w[9]) ** 3
    assert norm_sq([(2, 1), (9, 3)]) == pytest.approx(want)


def test_inner_product_orthogonal_monomials(lat, i0):
    a = monomial(lat, [(i0, 1)])
    b = monomial(lat, [(i0, 2)])
    assert inner_product(a, b) == 0.0
    assert inner_product(a, a) == pytest.approx(2.0)


def test_inner_product_conjugate_linear_first_slot(lat, i0):
    a = monomial(lat, [(i0, 1)])
    c = 0.3 - 1.7j
    assert inner_product(state_scale(c, a), a) == pytest.approx(
        np.conj(c) * 2.0)
    assert inner_product(a, state_scale(c, a)) == pytest.approx(c * 2.0)


@pytest.mark.parametrize("seed", range(4))
def test_lowering_adjoint_to_raising(lat, seed):
    """<a_f psi1, psi2> = <psi1, a*_{conj f} psi2> on random states."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lat.n_modes) + 1j * rng.standard_normal(lat.n_modes)

    def rand_state():
        pool = row_alphas(lat, monomial_rows(lat, 3))
        s = vacuum(lat)
        for _ in range(5):
            alpha = pool[rng.integers(len(pool))]
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            s = state_sum(s, state_scale(coeff, monomial(lat, list(alpha))))
        return s

    psi1, psi2 = rand_state(), rand_state()
    lhs = inner_product(op_a(f, psi1), psi2)
    rhs = inner_product(psi1, op_a_star(np.conj(f), psi2))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

def test_raising_checks_the_degree_present_not_the_padded_width(lat):
    """A state one below the bound, with one sentinel pad column, raises to
    the bound."""
    g = np.zeros(lat.n_modes)
    g[3] = 1.0
    top = DEGREE_BOUND
    state = PolarizedState(lat, [[0] * (top - 1) + [lat.n_modes]], [1], [0])
    raised = op_a_star(g, state)
    assert raised.idx.shape == (1, top)
    with pytest.raises(DegreeOverflowError,
                       match=f"degree {top + 1} exceeds bound {top}"):
        op_a_star(g, raised)
    with pytest.raises(DegreeOverflowError,
                       match=f"degree {top + 1} exceeds bound {top}"):
        PolarizedState(lat, [[0] * (top + 1)], [1], [0])


def test_repeated_terms_are_rejected(lat):
    """A (tag, row) pair given twice would break the one-term-per-key
    pairing of inner_product and states_equal, so construction refuses it;
    the same row under two tags, or unsorted distinct terms, are fine."""
    pad = lat.n_modes
    for rows, tags in (([[1], [1]], [0, 0]),
                       ([[1, 2], [0, 0], [1, 2]], [3, 1, 3]),
                       ([[4, pad], [0, 0], [4, pad]], [0, 0, 0])):
        with pytest.raises(ValueError, match="repeated"):
            PolarizedState(lat, rows, np.ones(len(tags)), tags)
    two_tags = PolarizedState(lat, [[1], [1]], [1, 1], [0, 1])
    assert inner_product(two_tags, two_tags) == 2 * inner_product(
        monomial(lat, {1: 1}), monomial(lat, {1: 1}))
    unsorted = PolarizedState(lat, [[3], [1]], [1, 2], [0, 0])
    assert len(unsorted.key) == 2


def test_out_of_range_rows_are_rejected(lat):
    """Rows are stored in the narrowest dtype that holds the sentinel, so a
    mode outside 0..n_modes is refused before the cast could wrap it (256
    would read as mode 0 in uint8); a row of sentinels is the vacuum."""
    for row in ([-1], [lat.n_modes + 1], [256]):
        with pytest.raises(ValueError, match="mode index out of range"):
            PolarizedState(lat, [row], [1.0], [0])
    padded = PolarizedState(lat, [[lat.n_modes]], [1.0], [0])
    assert padded.key.tolist() == vacuum(lat).key.tolist()


def test_key_guard_raises_instead_of_wrapping():
    """At 343 modes (config C) a key spans C(349, 6) ranks per tag, so
    3,837,376 tags fill int64 and one more would wrap: the guard raises."""
    n_modes, most = 343, 3_837_376
    column = np.array([n_modes - 1, n_modes - 1], dtype=np.uint16)
    keys = _column_keys(n_modes, [column], np.array([0, most - 1]),
                        DEGREE_BOUND)
    span = math.comb(n_modes + DEGREE_BOUND, DEGREE_BOUND)
    assert 0 <= keys[0] < span
    assert int(keys[1]) == (most - 1) * span + int(keys[0])
    with pytest.raises(ValueError, match="too large for int64"):
        _column_keys(n_modes, [column], np.array([0, most]), DEGREE_BOUND)


def test_states_on_different_lattices_do_not_combine(lat):
    lat7 = build_lattice(d=1, L=2 * np.pi, N=8, n_max=3, m=1.0)
    wide = monomial(lat, [(10, 1)])
    small = vacuum(lat7)
    for combine in (state_sum, state_sub, inner_product):
        with pytest.raises(ValueError, match="different lattices"):
            combine(wide, small)
    twin = build_lattice(d=1, L=2 * np.pi, N=32, n_max=7, m=1.0)
    assert inner_product(monomial(twin, [(10, 1)]), wide) == pytest.approx(
        inner_product(wide, wide))


def test_bad_monomial_arguments_name_the_argument(lat):
    with pytest.raises(ValueError, match="pairs"):
        monomial(lat, {1: 1.5})
    with pytest.raises(ValueError, match="pairs"):
        monomial(lat, {1.5: 1})
    assert monomial(lat, {1: 2.0}).idx.tolist() == [[1, 1]]
    with pytest.raises(ValueError, match="max_degree"):
        monomial_rows(lat, -1)
    with pytest.raises(ValueError, match="max_degree"):
        monomial_at(lat, -1, 0)


# ---------------------------------------------------------------------------
# Sort-free kernels against test-local copies of the sorting kernels
# ---------------------------------------------------------------------------

def _old_keys(n_modes, idx, tag):
    width = idx.shape[1]
    keys = tag * math.comb(n_modes + width, width)
    for i in range(width):
        keys = keys + np.array([math.comb(int(c) + i, i + 1)
                                for c in idx[:, i]], dtype=np.int64)
    return keys


def _old_coalesce(n_modes, idx, amp, tag):
    """The row-ranking coalescer: trim, rank each row, stable argsort."""
    from covkg.lattice import _complex
    width = idx.shape[1]
    while width and not (idx[:, width - 1] < n_modes).any():
        width -= 1
    idx = idx[:, :width]
    keys = _old_keys(n_modes, idx, tag)
    order = np.argsort(keys, kind="stable")
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[order][1:] != keys[order][:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    n = int(starts.sum())
    first = order[starts]
    return (idx[first], _complex(np.bincount(inverse, amp.real, n),
                                 np.bincount(inverse, amp.imag, n)),
            tag[first])


def _old_op_a_star(lat, g, idx, amp, tag):
    """Append the mode, sort each row, coalesce."""
    from covkg.lattice import _cmul
    modes = np.flatnonzero(g != 0)
    n, width = idx.shape
    rows = np.empty((n, len(modes), width + 1), dtype=np.intp)
    rows[:, :, :width] = idx[:, None, :]
    rows[:, :, width] = modes
    rows = rows.reshape(-1, width + 1)
    rows.sort(axis=1)
    out = _cmul((lat.w * g)[modes], amp[:, None]).reshape(-1)
    return _old_coalesce(lat.n_modes, rows, out, np.repeat(tag, len(modes)))


def _old_op_a(lat, f, idx, amp, tag):
    """Drop-table lowering, coalesced by ranking every lowered row."""
    from covkg.lattice import _cmul
    hf = np.append(lat.hbar * f, 0.0)
    width = idx.shape[1]
    run_end = np.ones(idx.shape, dtype=bool)
    run_end[:, :-1] = idx[:, 1:] != idx[:, :-1]
    pos = np.ones(idx.shape)
    for j in range(1, width):
        pos[:, j] = np.where(idx[:, j] == idx[:, j - 1], pos[:, j - 1] + 1, 1)
    coef = hf[idx] * pos
    src, col = np.nonzero(run_end & (coef != 0))
    drop = np.array([[c for c in range(width) if c != j]
                     for j in range(width)], dtype=np.intp)
    drop = drop.reshape(width, max(width - 1, 0))
    rows = idx.ravel()[src[:, None] * width + drop[col]]
    return _old_coalesce(lat.n_modes, rows,
                         _cmul(coef[src, col], amp[src]), tag[src])


def _random_tagged_state(lat, rng, width, n_terms=60, n_tags=5):
    """Distinct (tag, row) terms of degree <= width, some amplitudes zero."""
    n = lat.n_modes
    rows = np.sort(rng.integers(0, n + 1, size=(n_terms, width)), axis=1)
    tag = rng.integers(0, n_tags, size=n_terms)
    amp = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    amp[::7] = 0.0
    idx, amp, tag = _old_coalesce(n, rows, amp, tag)
    perm = rng.permutation(len(amp))
    return idx[perm], amp[perm], tag[perm]


def _assert_same_terms(state, want):
    idx, amp, tag = want
    assert np.array_equal(state.idx, idx)
    assert state.amp.tobytes() == amp.tobytes()
    assert np.array_equal(state.tag, tag)


def _assert_keys_carried(state):
    n = state.lat.n_modes
    width = int(np.sum(state.idx < n, axis=1).max(initial=0))
    assert np.all(state.idx[:, width:] == n)
    want = _column_keys(n, state.idx[:, :width].T, state.tag, DEGREE_BOUND)
    assert np.array_equal(state.key, want)


def _assert_row_dtype(*states):
    for state in states:
        assert state.idx.dtype == np.min_scalar_type(state.lat.n_modes)


@pytest.mark.parametrize("width", range(6))
def test_sort_free_ladders_equal_the_sorting_kernels(rows_lats, width):
    """Insertion raising and key-carrying lowering give the same states as
    append-and-sort plus row ranking, bit for bit, on tagged multi-row
    states; the input may carry a sentinel pad column.  Both row dtypes
    run: uint8 at 15 modes, uint16 at 289."""
    assert [np.min_scalar_type(lat.n_modes) for lat in rows_lats] == [
        np.uint8, np.uint16]
    for lat in rows_lats:
        rng = np.random.default_rng(40 + width)
        f, g = _rand_fg(lat, width)
        f[::3] = 0.0
        g[1::4] = 0.0
        idx, amp, tag = _random_tagged_state(lat, rng, width)
        padded = np.concatenate([idx, np.full((len(idx), 1), lat.n_modes)],
                                axis=1)
        for rows in (idx, padded):
            state = PolarizedState(lat, rows, amp, tag)
            raised, lowered = op_a_star(g, state), op_a(f, state)
            both = op_a(f, raised)
            _assert_row_dtype(state, raised, lowered, both)
            _assert_same_terms(raised, _old_op_a_star(lat, g, idx, amp, tag))
            _assert_same_terms(lowered, _old_op_a(lat, f, idx, amp, tag))
            _assert_same_terms(both, _old_op_a(
                lat, f, *_old_op_a_star(lat, g, idx, amp, tag)))


@pytest.mark.parametrize("width", range(6))
def test_keys_are_carried_through_every_operation(rows_lats, width):
    """After each operator, sum, prune and scale, the carried keys equal
    the keys ranked afresh from (idx, tag) at DEGREE_BOUND, and the rows
    keep the narrowest dtype that holds the sentinel."""
    for lat in rows_lats:
        rng = np.random.default_rng(50 + width)
        f, g = _rand_fg(lat, 10 + width)
        zeta = np.linspace(0.7, -0.4, lat.d + 1)
        state = PolarizedState(lat, *_random_tagged_state(lat, rng, width))
        other = PolarizedState(lat, *_random_tagged_state(lat, rng, width))
        _assert_keys_carried(state)
        results = [op_a_star(g, state), op_a(f, state), op_p(zeta, state),
                   state_scale(0.5j, state), state_sum(state, other),
                   state_sub(state, other), prune(state),
                   state_sum(state, other, op_a(f, other))]
        _assert_row_dtype(state, *results)
        for out in results:
            _assert_keys_carried(out)


def _nested_ccr(lat, f, g, block):
    scalar = lat.hbar * np.sum(lat.w * f * g)
    comm = commutator(partial(op_a, f), partial(op_a_star, g), block)
    return state_sub(comm, state_scale(scalar, block))


def test_one_merge_equals_nested_state_sub(wide_lat):
    """The ccr residual summed in one merge equals, bit for bit, the
    nested ``state_sub`` of the commutator and the scalar term, and
    ``max_abs`` of the three states, merged on keys and amplitudes alone,
    equals that of the merged state."""
    from covkg import suites
    lat = wide_lat
    f, g = _rand_fg(lat, 5)
    scalar = lat.hbar * np.sum(lat.w * f * g)
    rows = monomial_rows(lat, 3)
    worst = 0.0
    for start in range(0, len(rows), 300):
        block = monomial_block(lat, rows[start:start + 300])
        ab = op_a(f, op_a_star(g, block))
        ba = op_a_star(g, op_a(f, block))
        merged = state_sum(ab, state_scale(-1.0, ba),
                           state_scale(-scalar, block))
        nested = _nested_ccr(lat, f, g, block)
        got, want = prune(merged), prune(nested)
        assert np.array_equal(got.idx, want.idx)
        assert np.array_equal(got.key, want.key)
        assert got.amp.tobytes() == want.amp.tobytes()
        assert max_abs(ab, state_scale(-1.0, ba),
                       state_scale(-scalar, block)) == max_abs(nested)
        worst = max(worst, max_abs(nested))
    assert suites.ccr_residual(lat, f, g, rows) == worst


def test_ladder_checks_do_not_depend_on_the_block_size(wide_lat,
                                                       monkeypatch):
    """Tags keep each monomial's terms apart and sum them in the same order
    in any block, so the batched checks read the same at 64 terms per
    block as at the shipped budget: a retune cannot move a record.  Every
    third row keeps the test short; at 64 terms a ccr or [a*, a*] block
    holds one monomial."""
    from covkg import suites
    lat = wide_lat
    f, g = _rand_fg(lat, 6)
    fd1, fd2 = _dyadic(lat, 4), _dyadic(lat, 5)
    unit = dataclasses.replace(lat, hbar=1.0)
    rows, raise_rows = monomial_rows(lat, 3)[::3], monomial_rows(lat, 2)[::3]

    def checks():
        return [suites.ccr_residual(lat, f, g, rows),
                suites.commutator_flag(unit, rows, partial(op_a, fd1),
                                       partial(op_a, fd2), 9),
                suites.commutator_flag(lat, raise_rows, partial(op_a_star, f),
                                       partial(op_a_star, g),
                                       lat.n_modes ** 2)]

    shipped = checks()
    monkeypatch.setattr(suites, "_BLOCK_TERMS", 64)
    assert checks() == shipped
    assert 0.0 < shipped[0] < 1e-12 and shipped[1:] == [0.0, 0.0]


def test_equal_products_flag_equals_zero_commutator(wide_lat):
    """``states_equal(AB x, BA x)`` is ``is_zero_state([A, B] x)``."""
    lat = wide_lat
    f, g = _rand_fg(lat, 8)
    ops = [(partial(op_a, f), partial(op_a_star, g)),          # nonzero
           (partial(op_a_star, f), partial(op_a_star, g)),     # cancels
           (partial(op_a, _dyadic(lat, 2)), partial(op_a, _dyadic(lat, 3))),
           (partial(op_a, f), partial(op_a, g))]
    rows = monomial_rows(lat, 2)
    flags = []
    for op1, op2 in ops:
        for start in (0, 40, 200):
            block = monomial_block(lat, rows[start:start + 40])
            want = is_zero_state(commutator(op1, op2, block))
            assert states_equal(op1(op2(block)), op2(op1(block))) == want
            flags.append(want)
    assert True in flags and False in flags


def test_equal_states_ignore_zero_terms_and_zero_signs(lat):
    rows = monomial_rows(lat, 2)[:4]

    def block(amp):
        return PolarizedState(lat, rows[:len(amp)], amp, np.arange(len(amp)))

    a = block([1.5, complex(0.0, -0.0), 0.0, 2.0 - 1.0j])
    cases = [
        (block([1.5, 0.0, complex(-0.0, 0.0), 2.0 - 1.0j]), True),
        (prune(a), True),
        (block([1.5, 0.0, 0.0, 2.0 - (1.0 - 2.0 ** -40) * 1j]), False),
        (block([1.5, 1e-300, 0.0, 2.0 - 1.0j]), False),
        (block([1.5, 0.0, 0.0]), False),
    ]
    for b, want in cases:
        assert states_equal(a, b) == want
        assert states_equal(b, a) == want
        assert is_zero_state(prune(state_sub(a, b))) == want


@pytest.mark.parametrize("hbar", [0.3, 1.7, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_aa_flag_is_exact_at_every_hbar(hbar, seed):
    """[a_f, a_f'] vanishes bitwise on dyadic f, f' at a non-dyadic hbar as
    well: the flag runs at hbar = 1, where hbar f_k alpha_k stays exact,
    while every other record of the suite keeps the configured hbar."""
    cfg = RunConfig(d=1, N=8, n_max=3, hbar=hbar, seed=seed)
    records = {r.name: r for r in suite_prequant(cfg)}
    assert records["prequant.aa_exact_zero"].lhs == 0.0
    assert all(r.passed for r in records.values())
