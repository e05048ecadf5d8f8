"""Ladder operators on polarized sections and their commutation algebra.

Hand oracles use the rest mode at L = 2 pi, m = 1: weight 1/2, so applying
the raising operator once gives the coefficient w g = g/2 and the squared
monomial norm hbar / w = 2.
"""

import dataclasses
import math
import tracemalloc
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
from covkg.lattice import _complex
from covkg.observables import bracket_regularized
from covkg.prequant import (
    DEGREE_BOUND,
    _column_keys,
    _firsts,
    _group,
    _increasing,
    _trim,
    _widen,
    max_abs_diff,
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
    assert max_abs_diff(prune(z)) == 0.0


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
    assert max_abs_diff(op_a(f, vacuum(lat))) == 0.0
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
    """One coefficient per mode (15 here); short and long arrays and
    families of them fail."""
    state = monomial(lat, [(i0, 1), (14, 1)])
    with pytest.raises(ValueError, match="shape"):
        op_a(np.ones(n), state)
    with pytest.raises(ValueError, match="shape"):
        op_a_star(np.ones(n), state)
    for op in op_a, op_a_star:  # a family, one row per member
        with pytest.raises(ValueError, match="shape"):
            op(np.ones((2, n)), state)


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
    assert max_abs_diff(op_p(zeta, vacuum(lat))) == 0.0
    f = np.ones(lat.n_modes, dtype=complex)
    assert max_abs_diff(op_a(f, vacuum(lat))) == 0.0


def test_energy_eigenvalues_nonnegative(lat):
    """-eigenvalue of P along e_0 is a sum of frequencies, never negative."""
    zeta = np.array([1.0, 0.0])
    for alpha in row_alphas(lat, monomial_rows(lat, 2)):
        assert -p_eigenvalue(lat, alpha, zeta) >= 0.0
    assert p_eigenvalue(lat, (), zeta) == 0.0


def test_energy_record_is_the_least_negated_eigenvalue():
    """The suite's energy lower bound equals Python's min over the negated
    eigenvalues of every degree <= 3 row, +0.0 from the vacuum's -0.0."""
    import covkg.prequant as pq
    cfg = RunConfig()
    lat = cfg.lattice()
    eigs = pq.p_eigenvalues(lat, monomial_rows(lat, 3), np.eye(lat.d + 1)[0])
    assert math.copysign(1.0, eigs[0]) == -1.0
    want = min((-e for e in eigs.tolist()), default=np.inf)
    record, = [r for r in suite_prequant(cfg)
               if r.name == "prequant.energy_nonnegative"]
    assert record.lhs == want == 0.0
    assert math.copysign(1.0, record.lhs) == 1.0


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


def test_coalesce_matches_unique_grouping(lat, monkeypatch):
    """Run-based grouping keeps np.unique's group order, first terms and
    summation order, so the merged state is identical bit for bit; the
    packed-key sort gives a stable argsort's groups on either side of the
    packing bound, and sorts by argsort only past it."""
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
    first, got_keys, got_amp = _group(keys[:0], amp[:0])
    assert first is None and len(got_keys) == len(got_amp) == 0
    # Strictly increasing keys (an operator's first raising of a block) are
    # their own groups, with no index array of their first terms; the sums
    # still start from +0.0, as bincount's do.
    amp = amp[:n].copy()
    amp[::3] = complex(-0.0, -0.0)
    amp[1::3] = complex(1.5, -0.0)
    got_first, got_keys, got_amp = _group(want_keys, amp)
    assert got_first is None
    assert np.array_equal(got_keys, want_keys)
    assert got_amp.tobytes() == _complex(
        np.bincount(np.arange(n), amp.real, n),
        np.bincount(np.arange(n), amp.imag, n)).tobytes()
    assert not np.signbit(got_amp[::3].real).any()
    assert not np.signbit(got_amp[::3].imag).any()
    assert not np.signbit(got_amp[1::3].imag).any()
    # The packed-key sort against a stable argsort, on both sides of the
    # pack/fallback choice: max key < 2^(63 - b), b the term count's bits.
    argsorts = []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorts.append(1)
                        or _np_argsort(*a, **k))
    for keys, amp, packs in _grouping_cases(rng):
        argsorts.clear()
        first, got_keys, got_amp = _group(keys, amp)
        want_first, want_keys, want_amp = _argsort_group(keys, amp)
        assert np.array_equal(_firsts(np.arange(len(keys)), first),
                              want_first)
        assert np.array_equal(got_keys, want_keys)
        assert got_amp.tobytes() == want_amp.tobytes()
        assert len(argsorts) == (0 if packs or _increasing(keys) else 1)


_np_argsort = np.argsort


def _argsort_group(keys, amp):
    """The reference grouping: one stable argsort, bincount sums."""
    order = _np_argsort(keys, kind="stable")
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[order][1:] != keys[order][:-1]
    label = np.empty(len(keys), dtype=np.intp)
    label[order] = np.cumsum(starts) - 1
    n = int(starts.sum())
    return order[starts], keys[order][starts], _complex(
        np.bincount(label, amp.real, n), np.bincount(label, amp.imag, n))


def _grouping_cases(rng):
    """(keys, amp, whether the keys pack) with many ties, signed zeros and
    keys either side of the packing bound, plus 0, 1 and increasing terms."""
    def amp_of(n):
        parts = rng.choice([-0.0, 0.0, 1.5, -2.25, 0.1], size=(n, 2))
        return _complex(parts[:, 0], parts[:, 1])

    n = 500  # 9 bits of term index: keys pack below 2^54
    ties = rng.integers(0, 6, size=n)
    cases = [(ties, amp_of(n), True)]
    for top, packs in ((1 << 54) - 1, True), (1 << 54, False):
        keys = top - ties
        cases.append((keys, amp_of(n), packs))
    # Config C's span of C(349, 6) ranks per tag, with the widest tags.
    n_modes, most = 343, 3_837_376
    column = np.sort(rng.integers(0, 3, size=(2, n)), axis=0)
    for tags, packs in (rng.integers(0, 8, size=n), True), \
            (most - 1 - rng.integers(0, 8, size=n), False):
        keys = _column_keys(n_modes, column.astype(np.uint16), tags,
                            DEGREE_BOUND)
        cases.append((keys, amp_of(n), packs))
    increasing = np.cumsum(rng.integers(1, 4, size=n))
    for keys in ties[:0], ties[:1], increasing, (1 << 62) + increasing:
        cases.append((keys, amp_of(len(keys)), True))
    return cases


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
    assert max_abs_diff(commutator(partial(op_a, f), partial(op_a, fp),
                                   block)) == 0.0


def test_raising_commutator_exact_zero_generic(wide_lat):
    """[a*_g, a*_g'] cancels exactly even for arbitrary coefficients.

    Every monomial of degree <= 2 is checked, as one tagged block.
    """
    g, gp = _rand_fg(wide_lat, 7)
    block = monomial_block(wide_lat, monomial_rows(wide_lat, 2))
    assert max_abs_diff(commutator(partial(op_a_star, g),
                                   partial(op_a_star, gp), block)) == 0.0


def _tag_terms(state, tag):
    """(rows without sentinel-only columns, amplitudes) of one tag."""
    keep = state.tag == tag
    rows, amp = state.idx[keep], state.amp[keep]
    width = int(np.sum(rows < state.lat.n_modes, axis=1).max(initial=0))
    return rows[:, :width], amp


def test_tagged_block_matches_single_monomials(wide_lat):
    """Each tag of a block equals, bit for bit, its monomial run alone.
    Each state's a x and a* x feed its two ccr products, and those feed
    both ccr forms (``commutator``'s pruned difference and the merged
    residual), so every ladder product is formed once per state."""
    lat = wide_lat
    f, g = _rand_fg(lat, 3)
    zeta = np.array([0.7, -0.4])

    def outputs(s):
        low, high = op_a(f, s), op_a_star(g, s)
        ab, ba = op_a(f, high), op_a_star(g, low)
        return {"a": low, "a_star": high, "p": op_p(zeta, s),
                "ccr": prune(state_sub(ab, ba)),
                "ccr_merged": state_sum(ab, state_scale(-1.0, ba),
                                        state_scale(-0.3j, s))}
    rows = monomial_rows(lat, 3)[::7]
    block = outputs(monomial_block(lat, rows))
    for tag, alpha in enumerate(row_alphas(lat, rows)):
        for name, single in outputs(monomial(lat, list(alpha))).items():
            got_rows, got_amp = _tag_terms(block[name], tag)
            want_rows, want_amp = _tag_terms(single, 0)
            assert np.array_equal(got_rows, want_rows), (name, tag)
            assert got_amp.tobytes() == want_amp.tobytes(), (name, tag)
    comm = commutator(partial(op_a, f), partial(op_a_star, g),
                      monomial_block(lat, rows))
    assert np.array_equal(comm.key, block["ccr"].key)
    assert comm.amp.tobytes() == block["ccr"].amp.tobytes()


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
    pairing of inner_product and the merges, so construction refuses it;
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


@pytest.mark.parametrize("rows,tags", [
    ([[1.5, 2.9]], [0]),        # float rows would truncate to [1, 2]
    ([[True, False]], [0]),     # boolean rows would read as modes 1 and 0
    ([[1, 2]], [0.7]),          # a float tag would truncate to 0
    ([[1, 2]], [True]),
    ([[True, 2]], [0]),         # numpy casts a boolean among ints to 1
    ([[1], [2]], [0, np.True_]),
])
def test_non_integer_rows_and_tags_are_rejected(lat, rows, tags):
    with pytest.raises(ValueError, match="must be integers"):
        PolarizedState(lat, rows, np.ones(len(rows)), tags)


@pytest.mark.parametrize("rows", [[[1.5, 2.9]], [[True, False]],
                                  np.array([[1.0, 2.0]]), [[True, 3]]])
def test_monomial_block_rejects_non_integer_rows(lat, rows):
    with pytest.raises(ValueError, match="must be integers"):
        monomial_block(lat, rows)


def test_empty_float_rows_still_build_the_vacuum(lat):
    """``vacuum`` and ``monomial(lat, {})`` pass empty float arrays, which
    hold no value to truncate."""
    want = PolarizedState(lat, np.zeros((1, 0), np.intp), [1.0], [0])
    for state in (vacuum(lat), monomial(lat, {}),
                  monomial_block(lat, np.zeros((1, 0)))):
        assert state.idx.shape == (1, 0)
        assert state.key.tolist() == want.key.tolist()
    assert len(PolarizedState(lat, np.zeros((0, 2), np.intp), [], []).key) == 0


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
    # int(True) == True, so a boolean mode or exponent would read as 1
    for pairs in ({True: 2}, {3: True}, {np.True_: 1}):
        with pytest.raises(ValueError, match="pairs"):
            monomial(lat, pairs)
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


def _concat_merge(*states):
    """The merge ``state_sum`` made before the fold: all
    terms concatenated in argument order and grouped by one ``_group``."""
    n = states[0].lat.n_modes
    first, key, amp = _group(np.concatenate([s.key for s in states]),
                             np.concatenate([s.amp for s in states]))
    width = max(s.idx.shape[1] for s in states)
    idx = np.concatenate([_widen(s.idx, width, n) for s in states])
    tag = np.concatenate([s.tag for s in states])
    return _trim(_firsts(idx, first), n), amp, _firsts(tag, first), key


def _merge_cases(lat):
    """Named operand lists: equal, disjoint and partly overlapping key
    sets, an empty operand, a key-unsorted hand-built state, +-0.0
    amplitudes, one and four operands."""
    f, g = _rand_fg(lat, 9)
    rows = monomial_rows(lat, 2)
    vac_block = monomial_block(lat, rows[:30])  # the vacuum has tag 0
    block = monomial_block(lat, rows[1:31])
    ab = op_a(f, op_a_star(g, block))
    neg_ba = state_scale(-1.0, op_a_star(g, op_a(f, block)))
    assert np.array_equal(ab.key, neg_ba.key)
    vac_ab = op_a(f, op_a_star(g, vac_block))
    vac_ba = state_scale(-1.0, op_a_star(g, op_a(f, vac_block)))
    assert not np.array_equal(vac_ab.key, vac_ba.key)
    hand = PolarizedState(lat, *_random_tagged_state(
        lat, np.random.default_rng(3), 3))
    assert (np.diff(hand.key) < 0).any()
    signed = np.array([complex(-0.0, -0.0), complex(0.0, -0.0),
                       complex(-0.0, 0.0), complex(-0.0, 2.0)] * 10)
    zeros = PolarizedState(lat, rows[5:45], signed, np.arange(40) % 7)
    empty = PolarizedState(lat, np.zeros((0, 2), np.intp), [], [])
    return {
        "equal": [ab, neg_ba],
        "disjoint": [block, monomial_block(lat, rows[31:61])],
        "overlap": [vac_ab, vac_ba, state_scale(-0.7, vac_block)],
        "empty_first": [empty, zeros, ab, neg_ba],
        "empty_later": [block, empty],
        "one_unsorted": [hand],
        "one_signed_zero": [zeros],
        "signed_zeros": [zeros, state_scale(-1.0, zeros), zeros],
        "four": [hand, vac_ab, zeros, state_scale(2.0 - 1.0j, hand)],
    }


def _assert_same_state(got, want):
    """Keys, amplitudes (zero signs included), rows and tags equal bit for
    bit, with their dtypes."""
    assert np.array_equal(got.key, want.key)
    assert got.key.dtype == want.key.dtype
    assert got.amp.tobytes() == want.amp.tobytes()
    assert got.idx.shape == want.idx.shape and got.idx.dtype == want.idx.dtype
    assert np.array_equal(got.idx, want.idx)
    assert np.array_equal(got.tag, want.tag)
    assert got.tag.dtype == want.tag.dtype


@pytest.mark.parametrize("case", ["equal", "disjoint", "overlap",
                                  "empty_first", "empty_later", "one_unsorted",
                                  "one_signed_zero", "signed_zeros", "four"])
def test_fold_merge_equals_the_concatenating_merge(rows_lats, case):
    """``state_sum`` equals the concatenate-and-group merge bit for bit in
    keys, amplitudes (zero signs included), rows, row dtype and tags, and
    ``max_abs_diff`` of the first state and the negated later ones equals
    the largest modulus of that merge, on both row dtypes.  ``state_sub``,
    which subtracts on the first state's keys, equals the sum with the
    negated second state bit for bit."""
    for lat in rows_lats:
        states = _merge_cases(lat)[case]
        idx, amp, tag, key = _concat_merge(*states)
        got = state_sum(*states)
        _assert_same_state(got, PolarizedState(lat, idx, amp, tag, key))
        negated = [state_scale(-1.0, s) for s in states[1:]]
        assert max_abs_diff(states[0], *negated) == float(
            np.max(np.hypot(amp.real, amp.imag), initial=0.0))
        _assert_keys_carried(got)
        if len(states) > 1:
            _assert_same_state(state_sub(*states[:2]),
                               state_sum(states[0], negated[0]))
            _assert_same_state(state_sub(*states[1::-1]),
                               state_sum(states[1], state_scale(-1.0,
                                                                states[0])))


def _ladder_lhs(lat, f, g, rows, raise_rows, seed=0):
    """lhs of the ccr, [a, a], [a*, a*] and vacuum records that
    ``suites.ladder_checks`` makes on ``lat``, drawing [a, a]'s dyadic
    coefficients from ``default_rng(seed)``."""
    from covkg import suites
    cfg = RunConfig(d=lat.d, L=lat.L, N=lat.N, n_max=lat.n_max, m=lat.m,
                    hbar=lat.hbar)
    return [r.lhs for r in suites.ladder_checks(
        cfg, np.random.default_rng(seed), f, g, rows, raise_rows)]


def _ccr_residual(lat, f, g, rows):
    """The ccr residual as ``suites.ladder_checks`` forms it, alone; the
    operators are looked up on ``prequant`` at each call, so a patch there
    reaches them."""
    from covkg import prequant, suites
    scalar = lat.hbar * np.sum(lat.w * f * g)

    def products(part, x):
        return (prequant.op_a(f, prequant.op_a_star(g, x)),
                prequant.op_a_star(g, prequant.op_a(f, x)),
                prequant.state_scale(scalar, x))
    return suites.ladder_residual(lat, rows, lat.n_modes * (rows.shape[1] + 1),
                                  products)


def _orders_residual(lat, rows, op, c1, c2, fan_out):
    """The residual of an exact-zero record of ``suites.ladder_checks``,
    alone: A B x against B A x, the members of op([c1, c2], op([c2, c1], x)),
    in blocks of ``fan_out`` terms per monomial."""
    from covkg import suites

    def products(part, x):
        both = op(np.stack([c1, c2]), op(np.stack([c2, c1]), x))
        return [dataclasses.replace(both, amp=amp) for amp in both.amp]
    return suites.ladder_residual(lat, rows, fan_out, products)


def _nested_ccr(lat, f, g, block):
    scalar = lat.hbar * np.sum(lat.w * f * g)
    comm = commutator(partial(op_a, f), partial(op_a_star, g), block)
    return state_sub(comm, state_scale(scalar, block))


def test_one_merge_equals_nested_state_sub(wide_lat):
    """The ccr residual summed in one merge equals, bit for bit, the
    nested ``state_sub`` of the commutator and the scalar term, and
    ``max_abs_diff`` of the three states, merged on keys and amplitudes
    alone, equals that of the merged state; the suite's ccr record reads
    the largest of them."""
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
        assert max_abs_diff(ab, ba, state_scale(scalar, block)) == \
            max_abs_diff(nested)
        worst = max(worst, max_abs_diff(nested))
    assert _ladder_lhs(lat, f, g, rows, rows[:1])[0] == worst
    assert _ccr_residual(lat, f, g, rows) == worst


@pytest.mark.parametrize("how", ["drop", "move"])
@pytest.mark.parametrize("product", ["ab", "ba"])
def test_ccr_residual_reads_a_term_one_product_lacks(lat, monkeypatch,
                                                     product, how):
    """The subtracting merge keeps its power.  The largest term of A_f A*_g x
    (the first operand) or of A*_g A_f x (a later one) is dropped, so its
    key is missing from that operand, or moved to a key no other operand
    holds, so one key is missing from each side.  The residual then reads
    at least that term's modulus, less the clean residual where the other
    operands still cancel part of it."""
    from covkg import prequant
    f, g = _rand_fg(lat, 7)
    rows = monomial_rows(lat, 3)[:50]  # one block
    clean = _ccr_residual(lat, f, g, rows)
    assert 0.0 < clean < 1e-12
    # A tag past the block's 50: no operand holds this key.
    fresh = len(rows) * math.comb(lat.n_modes + DEGREE_BOUND, DEGREE_BOUND)
    # Per block: op_a_star(g, x), then op_a (A_f A*_g x), op_a(f, x), then
    # op_a_star (A*_g A_f x).
    name, damaged_call = {"ab": ("op_a", 1), "ba": ("op_a_star", 2)}[product]
    real = getattr(prequant, name)
    calls, sizes = [], []

    def damaging(c, state):
        out = real(c, state)
        calls.append(name)
        if len(calls) != damaged_call:
            return out
        modulus = np.hypot(out.amp.real, out.amp.imag)
        i = int(np.argmax(modulus))
        sizes.append(float(modulus[i]))
        if how == "move":
            key = out.key.copy()
            key[i] = fresh
            return dataclasses.replace(out, key=key)
        keep = np.arange(len(out.key)) != i
        return dataclasses.replace(out, idx=out.idx[keep], amp=out.amp[keep],
                                   tag=out.tag[keep], key=out.key[keep])

    monkeypatch.setattr(prequant, name, damaging)
    got = _ccr_residual(lat, f, g, rows)
    assert len(calls) == 2 and len(sizes) == 1
    bound = sizes[0] if how == "move" else sizes[0] - clean
    assert got >= bound > 0.1


def _hand_built(lat, rows):
    """``monomial_block(lat, rows)`` and the same terms built by hand: with
    two trailing sentinel columns, with a Fortran-ordered ``idx``, and in
    shuffled term order, so the keys are out of order."""
    block = monomial_block(lat, rows)
    n = len(rows)
    ones = np.ones(n)
    padded = np.concatenate([block.idx, np.full((n, 2), lat.n_modes)],
                            axis=1)
    perm = np.random.default_rng(1).permutation(n)
    hand = {
        "sentinel_columns": PolarizedState(lat, padded, ones, np.arange(n)),
        "fortran_idx": PolarizedState(lat, np.asfortranarray(block.idx), ones,
                                      np.arange(n)),
        "unsorted_keys": PolarizedState(lat, block.idx[perm], ones, perm),
    }
    assert hand["sentinel_columns"].idx.shape[1] == block.idx.shape[1] + 2
    assert hand["fortran_idx"].idx.flags.f_contiguous
    assert not _increasing(hand["unsorted_keys"].key)
    return block, hand


@pytest.mark.parametrize("op", [op_a, op_a_star], ids=["a", "a_star"])
def test_hand_built_inputs_give_the_block_outputs(rows_lats, op):
    """The operators assume nothing about how their input was built: each
    hand-built input of ``_hand_built`` gives outputs equal bit for bit to
    those of the same terms from ``monomial_block``, for a coefficient
    vector and for families with zero coefficients at some modes (zero in
    one member, or in every member).  Both row dtypes run."""
    for lat in rows_lats:
        f, g = _rand_fg(lat, 11)
        fd1, fd2 = _dyadic(lat, 4), _dyadic(lat, 5)
        fd1[[0, 3, 5]] = 0.0
        fd2[[1, 3]] = 0.0
        f[2::5] = 0.0
        coefficients = [g, f, np.stack([fd1, fd2]), np.stack([f, fd2, g])]
        last = math.comb(lat.n_modes + 3, 3)  # the degree-3 rows end here
        cubic = np.array([monomial_at(lat, 3, i) for i in range(last - 30,
                                                                last)])
        for rows in (monomial_rows(lat, 2)[:40], cubic):
            block, hand = _hand_built(lat, rows)
            for c in coefficients:
                want = op(c, block)
                for name, state in hand.items():
                    _assert_same_state(op(c, state), want)


def test_ladder_checks_do_not_depend_on_the_block_size(wide_lat,
                                                       monkeypatch):
    """Tags keep each monomial's terms apart and sum them in the same order
    in any block, so the batched checks read the same at 64 terms per
    block as at the shipped budget: a retune cannot move a record.  Every
    third row keeps the test short; at 64 terms a ccr or [a*, a*] block
    holds one monomial.  The residuals computed alone by ``_ccr_residual``
    and ``_orders_residual`` equal the records."""
    from covkg import suites
    lat = wide_lat
    f, g = _rand_fg(lat, 6)
    rng = np.random.default_rng(4)  # drawn as ladder_checks draws them
    fd1 = suites._dyadic(rng, lat.n_modes)
    fd2 = suites._dyadic(rng, lat.n_modes)
    unit = dataclasses.replace(lat, hbar=1.0)
    rows, raise_rows = monomial_rows(lat, 3)[::3], monomial_rows(lat, 2)[::3]

    def checks():
        alone = [_ccr_residual(lat, f, g, rows),
                 _orders_residual(unit, rows, op_a, fd1, fd2, 18),
                 _orders_residual(lat, raise_rows, op_a_star, f, g,
                                  2 * lat.n_modes ** 2)]
        records = _ladder_lhs(lat, f, g, rows, raise_rows, seed=4)
        assert records[:3] == alone
        return records

    shipped = checks()
    monkeypatch.setattr(suites, "_BLOCK_TERMS", 64)
    assert checks() == shipped
    assert 0.0 < shipped[0] < 1e-12 and shipped[1:] == [0.0, 0.0, 0.0]


# Bounds on the traced peak bytes per ``suites._BLOCK_TERMS`` term of the
# ccr and [a*, a*] checks at n_max = 11: set at 127.3 and 88.2 at 16384
# terms plus a margin of about 7.5%; they read 129.7 and 56.5 with each
# block's products held until the next block's replace them.  They hold the
# lean ladder kernels that pay for blocks of that size (prequant docstring).
LADDER_PEAK_BYTES_PER_TERM = {"ccr": 137, "astar_astar": 95}


def _traced_peak(fn) -> int:
    """tracemalloc peak of ``fn()``, after one warm-up call fills caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_checks_peak_memory_per_budget_term():
    """The ccr check over the degree <= 3 rows and [a*, a*] over the
    degree <= 2 rows at n_max = 11 peak under their
    ``LADDER_PEAK_BYTES_PER_TERM`` bytes per term of the shipped budget."""
    from covkg import suites
    lat = build_lattice(d=1, L=2 * np.pi, N=32, n_max=11, m=1.0)
    f, g = _rand_fg(lat, 6)
    rows, raise_rows = monomial_rows(lat, 3), monomial_rows(lat, 2)
    peaks = {
        "ccr": _traced_peak(lambda: _ccr_residual(lat, f, g, rows)),
        "astar_astar": _traced_peak(lambda: _orders_residual(
            lat, raise_rows, op_a_star, f, g, 2 * lat.n_modes ** 2)),
    }
    for name, peak in peaks.items():
        bound = LADDER_PEAK_BYTES_PER_TERM[name] * suites._BLOCK_TERMS
        assert peak <= bound, (name, peak)


def test_equal_products_flag_equals_zero_commutator(wide_lat):
    """``max_abs_diff(AB x, BA x)``, the exact-zero records' comparison,
    equals ``max_abs_diff([A, B] x)`` bit for bit, 0.0 where the
    commutator cancels."""
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
            want = max_abs_diff(commutator(op1, op2, block))
            assert max_abs_diff(op1(op2(block)), op2(op1(block))) == want
            flags.append(want == 0.0)
    assert True in flags and False in flags


def test_equal_states_ignore_zero_terms_and_zero_signs(lat):
    """``max_abs_diff`` reads 0.0 across zero signs, pruned zeros and term
    order, and otherwise the size of the difference: 1e-300, a last-bits
    change of 2^-40, a missing term of modulus sqrt(5)."""
    rows = monomial_rows(lat, 2)[:4]

    def block(amp):
        return PolarizedState(lat, rows[:len(amp)], amp, np.arange(len(amp)))

    a = block([1.5, complex(0.0, -0.0), 0.0, 2.0 - 1.0j])
    cases = [
        (block([1.5, 0.0, complex(-0.0, 0.0), 2.0 - 1.0j]), 0.0),
        (prune(a), 0.0),
        (block([1.5, 0.0, 0.0, 2.0 - (1.0 - 2.0 ** -40) * 1j]), 2.0 ** -40),
        (block([1.5, 1e-300, 0.0, 2.0 - 1.0j]), 1e-300),
        (block([1.5, 0.0, 0.0]), float(np.hypot(2.0, 1.0))),
    ]
    for b, want in cases:
        assert max_abs_diff(a, b) == want
        assert max_abs_diff(b, a) == want
        assert max_abs_diff(prune(state_sub(a, b))) == want
    # Terms out of key order against the same terms in key order, where a
    # positional comparison of the key arrays would see a difference.
    small = build_lattice(d=1, L=2 * np.pi, N=8, n_max=2, m=1.0)
    hand = PolarizedState(small, [[2], [1]], [1, 2], [0, 0])
    ordered = PolarizedState(small, [[1], [2]], [2, 1], [0, 0])
    assert not _increasing(hand.key) and _increasing(ordered.key)
    assert max_abs_diff(hand, ordered) == max_abs_diff(ordered, hand) == 0.0


def test_vacuum_record_reads_a_stray_term(lat, monkeypatch):
    """A lowering that leaves one stray term of amplitude 3 - 4j on the
    vacuum fails ``prequant.vacuum_annihilated`` with that term's modulus,
    5.0; the other ladder records do not move."""
    from covkg import prequant
    f, g = _rand_fg(lat, 2)
    rows = monomial_rows(lat, 1)
    clean = _ladder_lhs(lat, f, g, rows, rows)
    assert clean[1:] == [0.0, 0.0, 0.0]
    real = prequant.op_a

    def stray(c, state):
        if len(state.key) == 1 and not state.idx.shape[1]:  # the vacuum
            return PolarizedState(state.lat, [[0]], [3 - 4j], [0])
        return real(c, state)

    monkeypatch.setattr(prequant, "op_a", stray)
    assert _ladder_lhs(lat, f, g, rows, rows) == clean[:3] + [5.0]


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


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

def _families(lat):
    """One member; two dyadic members whose zero modes differ (mode 3 is
    zero in both, so no member raises or lowers it); three members."""
    f, g = _rand_fg(lat, 9)
    fd1, fd2 = _dyadic(lat, 4), _dyadic(lat, 5)
    fd1[[0, 3, 5]] = 0.0
    fd2[[1, 3]] = 0.0
    return {"one": f[None], "zeros_differ": np.stack([fd1, fd2]),
            "three": np.stack([f, g, fd1])}


def _member(state, i):
    return dataclasses.replace(state, amp=state.amp[i])


def _assert_same_nonzero_terms(state, want):
    """Keys, rows, tags and amplitudes equal, bit for bit, on the nonzero
    terms: a member's zero coefficient only adds exact-zero terms."""
    n = state.lat.n_modes
    nz, wz = state.amp != 0, want.amp != 0
    assert np.array_equal(state.key[nz], want.key[wz])
    assert state.amp[nz].tobytes() == want.amp[wz].tobytes()
    assert np.array_equal(_trim(state.idx[nz], n), _trim(want.idx[wz], n))
    assert np.array_equal(state.tag[nz], want.tag[wz])


@pytest.mark.parametrize("family", ["one", "zeros_differ", "three"])
@pytest.mark.parametrize("op", [op_a, op_a_star], ids=["a", "a_star"])
def test_family_members_equal_single_calls(rows_lats, op, family):
    """Each member of a family, and of a family applied to a family member
    by member, equals its single-coefficient calls; ``coeffs`` lists the
    members' amplitudes per monomial.  Both row dtypes run."""
    rng = np.random.default_rng(12)
    for lat in rows_lats:
        coeffs = _families(lat)[family]
        for width in range(DEGREE_BOUND - 1):
            state = PolarizedState(lat, *_random_tagged_state(
                lat, rng, width, n_terms=4))
            fam = op(coeffs, state)
            assert fam.amp.shape == (len(coeffs), len(fam.key))
            _assert_keys_carried(fam)
            singles = [op(c, state) for c in coeffs]
            for i, single in enumerate(singles):
                _assert_same_nonzero_terms(_member(fam, i), single)
            for alpha, amps in fam.coeffs.items():
                assert amps == [s.coeffs.get(alpha, 0.0) for s in singles]
            again = op(coeffs[::-1], fam)
            for i, (c, single) in enumerate(zip(coeffs[::-1], singles)):
                _assert_same_nonzero_terms(_member(again, i), op(c, single))


def test_shared_index_pass_keeps_each_order_its_own_products(monkeypatch):
    """The exact-zero checks share rows, keys and groups between A B x and
    B A x, but each order forms its own amplitudes: a complex product whose
    last bit depends on operand order fails [a*, a*] with the size of that
    difference: the largest |amplitude| of the commutator formed apart."""
    from covkg import prequant, suites
    cfg = RunConfig()
    lat = cfg.lattice()
    rng = suites._rng(cfg, "prequant")  # the suite's f and g
    f, g = (rng.standard_normal(lat.n_modes)
            + 1j * rng.standard_normal(lat.n_modes) for _ in range(2))
    block = monomial_block(lat, monomial_rows(lat, 2))

    def record():
        records = {r.name: r for r in suite_prequant(cfg)}
        return records["prequant.astar_astar_exact_zero"]

    assert record().lhs == 0.0 and record().passed
    cmul = prequant._cmul

    def skewed(a, b):
        out = cmul(a, b)
        bump = np.broadcast_to(np.abs(a) > np.abs(b), out.shape)
        out.real[bump] = np.nextafter(out.real[bump], np.inf)
        return out

    monkeypatch.setattr(prequant, "_cmul", skewed)
    skew = record()
    apart = max_abs_diff(commutator(partial(op_a_star, f),
                                    partial(op_a_star, g), block))
    assert not skew.passed and 0.0 < skew.lhs == apart < 1e-12
