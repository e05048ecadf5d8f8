"""Prequantization on polarized sections over the truncated mode set.

A state is psi = h(u*) |0> with h a polynomial and |0> the implicit
Gaussian exp(-(1/2 hbar) sum_k w_k u_k u*_k).  Only the coefficients of h
are stored.

Storage.  A state holds four arrays with one entry per term:

  * ``idx`` (n_terms, W): the term's monomial as its sorted mode indices,
    mode k written alpha_k times, padded on the right with the sentinel
    ``lat.n_modes``, in the narrowest dtype that holds it (uint8 up to 255
    modes, then uint16); W is at least the largest degree present;
  * ``amp`` (n_terms,): the complex amplitude;
  * ``tag`` (n_terms,): an integer naming the input the term descends from;
  * ``key`` (n_terms,): the int64 group key of (tag, row), below.

``PolarizedState(lat, idx, amp, tag)`` takes the three arrays as they are
(sorted rows), computes the keys, raises ``ValueError`` for a mode outside
0..n_modes or a (tag, row) pair given twice and ``DegreeOverflowError``
when a row's degree exceeds ``DEGREE_BOUND``; ``vacuum``, ``monomial``,
``monomial_block`` and the operators return states in that form, key-sorted.

Tags let one state carry many independent inputs: the operators act
linearly and never mix terms of different tags, so a block of monomials
with tags 0..B-1 is processed as one array pass and each tag's terms equal,
bit for bit, those of that monomial processed alone.  ``suites`` runs its
per-monomial checks this way; a block holds floor(``suites._BLOCK_TERMS``
/ fan-out) monomials, the fan-out being the most terms one monomial
reaches inside the check (n_modes^2 for two raisings), which bounds the
block's peak memory.  A ccr term peaks near 160 bytes; 8192 terms is the
largest power of two at which both benchmark workloads' ``peak_rss_mb``
stays within 2% of that of 4096-term blocks of intp rows.
``coeffs`` is a read-only dict view of a state, {sorted (mode, exponent)
tuple: amplitude}, summed over tags.

Keys.  Each term carries an int64 key, ``tag * S + rank``.  The rank is
that of the row padded with sentinels to width D = ``DEGREE_BOUND`` in the
combinatorial number system (Knuth, TAOCP 4A, section 7.2.1.3): a sorted
row c_0 <= ... <= c_{D-1} over the n_modes + 1 symbols has the rank
sum_i C(c_i + i, i + 1) < S = C(n_modes + D, D).  A row of width W < D has
that rank minus sum_{i >= W} C(n_modes + i, i + 1), the same for every row,
so keys are computed from the columns a row happens to have, in one order
(degree descending, then colex) for every width.  The operators,
``state_sum``, ``prune`` and ``state_scale`` hand the keys on, and
``inner_product`` pairs terms by them; no row is ranked twice.

Coalescing.  Terms with equal keys are merged by one stable argsort: equal
keys form runs in term order, the first term of each run stands for its
group, and a cumulative sum over the run starts, scattered back into term
order, labels each term with its group.  ``np.bincount`` then sums each
group's real and imaginary parts as they lie, in the order the terms were
made, so an operator's output is key-sorted with no key twice, and
``state_sum`` of key-sorted states merges presorted runs.  Only the rows
of the group representatives are gathered, and ``max_abs`` gathers none.

Monomial order.  ``monomial_rows``, ``monomial_at`` and ``covkg prequant
--spectrum-out`` list monomials by degree, then by that rank (the colex
order of the rows), so the vacuum comes first.

Operators.  Raising writes the new mode into an extra last column and moves
it to its place in the sorted row with one compare-exchange pass from the
right, over column-major rows; the output keys are ranked from those
columns.  Lowering drops one column position, the last of each run of mode
k, with the run length alpha_k as its factor, so the term is
(hbar f_k alpha_k) c_alpha as one product.  (Dropping every position of
the run and letting coalescing add the alpha_k copies would leave roundoff
in the off-diagonal terms of [a_f, a*_g] for alpha_k >= 3, which cancel
exactly this way.)  P_zeta multiplies each term by -hbar times the row sum
of k.zeta over its index columns; ``p_eigenvalue`` computes the same number
as a dot product over the distinct modes, and ``p_eigenvalues`` for many
rows at once as a product of the per-mode exponent counts with k.zeta,
separate paths for the checks to compare.

Product rule.  Complex products inside the operators are formed from
float64 real and imaginary parts, each in its own ufunc call
(``_cmul``).  numpy's array complex multiply may fuse a product and a sum
into one FMA, which makes a*b and b*a differ in the last bit; the
exact-zero checks on [a*_f, a*_g] compare exactly such mirrored products.

Why the operators take the reduced form used here.  Write G for the
Gaussian exponent, so d|0>/du*_k = -(w_k/(2 hbar)) u_k |0> and
d|0>/du_k = -(w_k/(2 hbar)) u*_k |0>.  The prequantum operators are

    a_f   = hbar sum_k f_k d/du*_k + (1/2) sum_k w_k f_k u_k
    a*_g  = -hbar sum_k g_k d/du_k + (1/2) sum_k w_k g_k u*_k
    P_zeta = hbar sum_k (k.zeta) (u_k d/du_k - u*_k d/du*_k)

Acting on h(u*)|0>:

  * a_f: the derivative hits h and the Gaussian; the Gaussian term
    -(1/2) w_k f_k u_k h |0> cancels against the multiplication term,
    leaving hbar sum_k f_k (dh/du*_k) |0>.  On monomials: c_alpha feeds
    hbar f_k alpha_k c_alpha into alpha - e_k.
  * a*_g: h has no u dependence, so only the Gaussian responds:
    +(1/2) w_k g_k u*_k h |0>, which ADDS to the multiplication term,
    leaving multiplication by sum_k w_k g_k u*_k.  On monomials: c_alpha
    feeds w_k g_k c_alpha into alpha + e_k.
  * P_zeta: u_k d/du_k only sees the Gaussian, producing
    -(w_k/(2 hbar)) u_k u*_k; u*_k d/du*_k hits both h and the Gaussian,
    and the two Gaussian pieces cancel, leaving the diagonal action
    c_alpha -> -hbar (sum_k alpha_k (k.zeta)) c_alpha
    with k.zeta = k^0 zeta^0 - kvec . zetavec.

With the convention that the energy operator is -P_{e_0}, monomial
energies are +hbar sum_k alpha_k k^0, all nonnegative, and the vacuum
energy is exactly zero (no metaplectic correction is included).

The inner product is an artifact extension, pinned uniquely (among
diagonal pairings with <vacuum, vacuum> = 1) by requiring a*_g to be the
adjoint of a_{conj(g)}:  <(u*)^alpha, (u*)^alpha> =
prod_k alpha_k! (hbar / w_k)^{alpha_k}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import groupby
from math import comb
from types import MappingProxyType

import numpy as np

from .lattice import ModeLattice, _cmul, _complex

_INT64_MAX = np.iinfo(np.int64).max
# The largest degree of any state; keys rank rows padded to this width.
# ``covkg prequant`` takes --max-degree up to DEGREE_BOUND - 2, since its
# [a*, a*] check raises max-degree rows twice.
DEGREE_BOUND = 6
# Entries per block of the exponent-count matrix of ``p_eigenvalues``.
_COUNT_CELLS = 1 << 18


class DegreeOverflowError(Exception):
    """Raised when a state's degree would exceed ``DEGREE_BOUND``."""


def row_alphas(lat: ModeLattice, rows) -> list:
    """The (mode, exponent) tuple of each sentinel-padded sorted index row."""
    return [tuple((k, len(list(run))) for k, run in groupby(row)
                  if k < lat.n_modes)
            for row in np.asarray(rows).tolist()]


@lru_cache(maxsize=None)
def _binomials(n_modes: int, width: int) -> np.ndarray:
    """C(x, r) at [r, x] for r <= width and x < n_modes + width, as int64."""
    return np.array([[comb(x, r) for x in range(n_modes + width)]
                     for r in range(width + 1)], dtype=np.int64)


@lru_cache(maxsize=None)
def _pad_rank(n_modes: int, columns: int, width: int) -> int:
    """Rank of the sentinels that pad a row of ``columns`` to ``width``."""
    return sum(comb(n_modes + i, i + 1) for i in range(columns, width))


def _column_keys(n_modes: int, columns, tag: np.ndarray,
                 width: int) -> np.ndarray:
    """int64 key tag * C(n_modes + D, D) + rank of each row padded to D.

    ``columns`` holds the rows' columns, at most D = ``width`` of them.
    """
    if not len(tag):
        return np.empty(0, dtype=np.int64)
    span = comb(n_modes + width, width)
    if (int(tag.max()) + 1) * span > _INT64_MAX:
        raise ValueError("state too large for int64 coalescing keys")
    keys = tag * span + _pad_rank(n_modes, len(columns), width)
    binom = _binomials(n_modes, width)
    for i, column in enumerate(columns):
        keys += binom[i + 1, i:].take(column)
    return keys


def _trim(idx: np.ndarray, n_modes: int) -> np.ndarray:
    """Drop the right-hand columns that hold only the sentinel."""
    width = idx.shape[1]
    while width and not (idx[:, width - 1] < n_modes).any():
        width -= 1
    return idx[:, :width]


def _group(keys: np.ndarray, amp: np.ndarray):
    """(first, group keys, summed amplitudes) of equal-key runs.

    Groups come out in key order, each kept at its first term, as
    ``np.unique(return_index=True, return_inverse=True)`` would give them;
    each group sums its amplitudes in term order.
    """
    order = np.argsort(keys, kind="stable")
    starts = np.ones(len(keys), dtype=bool)
    sorted_keys = keys.take(order)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = order.compress(starts)
    # Groups counted from 1, in term order: bincount adds in input order,
    # and the stable sort keeps term order within a group.
    label = np.empty_like(order)
    label[order] = np.cumsum(starts)
    n = len(first) + 1
    amp = _complex(np.bincount(label, amp.real, n)[1:],
                   np.bincount(label, amp.imag, n)[1:])
    return first, sorted_keys.compress(starts), amp


def _run_positions(idx: np.ndarray) -> np.ndarray:
    """1-based position of each entry within its run of equal modes."""
    pos = np.ones(idx.shape, dtype=np.uint8)
    for j in range(1, idx.shape[1]):
        pos[:, j] = np.where(idx[:, j] == idx[:, j - 1], pos[:, j - 1] + 1, 1)
    return pos


def _widen(idx: np.ndarray, width: int, n_modes: int) -> np.ndarray:
    """Pad rows with sentinel columns up to ``width``."""
    if idx.shape[1] == width:
        return idx
    pad = np.full((len(idx), width - idx.shape[1]), n_modes, dtype=idx.dtype)
    return np.concatenate([idx, pad], axis=1)


@dataclass(eq=False)
class PolarizedState:
    """Polynomial h(u*) applied to the implicit Gaussian vacuum.

    The term arrays ``idx``, ``amp``, ``tag`` and ``key`` are described in
    the module docstring; ``key`` is computed when not given.
    """

    lat: ModeLattice
    idx: np.ndarray
    amp: np.ndarray
    tag: np.ndarray
    key: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.key is not None:
            return
        n_modes = self.lat.n_modes
        idx = np.asarray(self.idx, dtype=np.intp)
        if not ((idx >= 0) & (idx <= n_modes)).all():
            raise ValueError("mode index out of range")
        self.idx = idx.astype(np.min_scalar_type(n_modes))
        self.amp = np.asarray(self.amp, dtype=complex)
        self.tag = np.asarray(self.tag, dtype=np.intp)
        if self.idx.ndim != 2 or not (len(self.idx) == len(self.amp)
                                      == len(self.tag)):
            raise ValueError("idx must hold one index row per amplitude "
                             "and tag")
        degree = _trim(self.idx, n_modes).shape[1]
        if degree > DEGREE_BOUND:
            raise DegreeOverflowError(
                f"degree {degree} exceeds bound {DEGREE_BOUND}")
        key = _column_keys(n_modes, self.idx[:, :degree].T, self.tag,
                           DEGREE_BOUND)
        # Key-sorted input (every state built here) costs one comparison pass.
        if (key[1:] <= key[:-1]).any():
            ordered = np.sort(key)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("repeated (tag, row) term")
        self.key = key

    @cached_property
    def coeffs(self) -> MappingProxyType:
        """Read-only {sorted (mode, exponent) tuple: complex}, tags summed:
        terms group by the rank part of their keys."""
        span = comb(self.lat.n_modes + DEGREE_BOUND, DEGREE_BOUND)
        first, _, amp = _group(self.key % span, self.amp)
        return MappingProxyType(dict(zip(row_alphas(self.lat, self.idx[first]),
                                         amp.tolist())))


def prune(state: PolarizedState) -> PolarizedState:
    """Drop exactly-zero amplitudes (keeps structural zeros visible as absence)."""
    keep = state.amp != 0
    return replace(state, idx=_trim(state.idx[keep], state.lat.n_modes),
                   amp=state.amp[keep], tag=state.tag[keep],
                   key=state.key[keep])


def monomial_block(lat: ModeLattice, rows) -> PolarizedState:
    """One term of amplitude 1 per index row, tagged 0..len(rows)-1."""
    rows = _trim(np.asarray(rows, dtype=np.intp), lat.n_modes)
    return PolarizedState(lat, rows, np.ones(len(rows), dtype=complex),
                          np.arange(len(rows)))


def vacuum(lat: ModeLattice) -> PolarizedState:
    return monomial_block(lat, np.zeros((1, 0)))


def monomial(lat: ModeLattice, pairs) -> PolarizedState:
    """The state (u*)^alpha |0> for alpha given as {mode: exponent}."""
    alpha = []
    for k, e in dict(pairs).items():
        if int(k) != k or int(e) != e:
            raise ValueError(f"pairs must map integer modes to integer "
                             f"exponents, got {k!r}: {e!r}")
        alpha.append((int(k), int(e)))
    alpha.sort()
    if any(e < 0 for _, e in alpha):
        raise ValueError("exponents must be nonnegative")
    row = [k for k, e in alpha for _ in range(e)]
    for k in row:
        if not 0 <= k < lat.n_modes:
            raise ValueError(f"mode index {k} out of range")
    return monomial_block(lat, [row])


def _same_lattice(states) -> ModeLattice:
    lat = states[0].lat
    if any(s.lat != lat for s in states[1:]):
        raise ValueError("states on different lattices do not combine")
    return lat


def state_sum(*states: PolarizedState) -> PolarizedState:
    """The sum of states on one lattice, merged once.

    Each (tag, row) sums its amplitudes in argument order, so the sum
    equals, bit for bit, adding the states left to right with exact zeros
    pruned between the steps.
    """
    lat = _same_lattice(states)
    n_modes = lat.n_modes
    first, key, amp = _group(np.concatenate([s.key for s in states]),
                             np.concatenate([s.amp for s in states]))
    width = max(s.idx.shape[1] for s in states)
    idx = np.concatenate([_widen(s.idx, width, n_modes) for s in states])
    tag = np.concatenate([s.tag for s in states])
    return PolarizedState(lat, _trim(idx.take(first, axis=0), n_modes), amp,
                          tag.take(first), key)


def state_scale(c, s: PolarizedState) -> PolarizedState:
    return replace(s, amp=_cmul(np.complex128(c), s.amp))


def state_sub(s1: PolarizedState, s2: PolarizedState) -> PolarizedState:
    return state_sum(s1, state_scale(-1.0, s2))


def is_zero_state(s: PolarizedState) -> bool:
    return not np.any(s.amp != 0)


def states_equal(s1: PolarizedState, s2: PolarizedState) -> bool:
    """Whether s1 - s2 is exactly the zero state.

    Both states must be key-sorted with no key twice, as every operator
    output is, and have finite amplitudes.  Then the difference vanishes
    exactly when their nonzero terms have the same keys and equal
    amplitudes, since x - y == 0 for finite floats only when x == y.
    """
    _same_lattice((s1, s2))
    nz1, nz2 = s1.amp != 0, s2.amp != 0
    return (np.array_equal(s1.key[nz1], s2.key[nz2])
            and np.array_equal(s1.amp[nz1], s2.amp[nz2]))


def max_abs(*states: PolarizedState) -> float:
    """Largest |amplitude| of the states' sum, merged on keys and amplitudes
    alone, 0.0 when it has no terms.  np.hypot rounds like Python's
    abs(complex); np.abs on a complex array may differ in the last bit."""
    _same_lattice(states)
    _, _, amp = _group(np.concatenate([s.key for s in states]),
                       np.concatenate([s.amp for s in states]))
    return float(np.max(np.hypot(amp.real, amp.imag), initial=0.0))


def _mode_coefficients(lat: ModeLattice, f, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (lat.n_modes,):
        raise ValueError(f"{name} must have shape ({lat.n_modes},), "
                         f"got {f.shape}")
    return f


def op_a(f, state: PolarizedState) -> PolarizedState:
    """Annihilation: c_alpha feeds hbar f_k alpha_k into alpha - e_k."""
    lat = state.lat
    n_modes = lat.n_modes
    hf = np.append(lat.hbar * _mode_coefficients(lat, f, "f"), 0.0)
    idx = np.ascontiguousarray(_trim(state.idx, n_modes))
    width = idx.shape[1]
    # Term (i, j) lowers row i at column j, the last of a run of mode k,
    # with the run length alpha_k as factor; the sentinel and zero
    # coefficients make no term.
    lowers = (hf != 0).take(idx)
    lowers[:, :-1] &= idx[:, 1:] != idx[:, :-1]
    term = np.flatnonzero(lowers)
    mode = idx.ravel().take(term)
    pos = _run_positions(idx).ravel().take(term)
    src = np.floor_divide(term, width, out=term)  # the source rows
    amp = _cmul(hf.take(mode) * pos, state.amp.take(src))
    # Lowered column c is source column c + 1 where that exceeds the mode
    # (past the dropped column), else column c; column-major, in place.
    cols = idx.T.take(src, axis=1)
    for c in reversed(range(width - 1)):
        np.copyto(cols[c + 1], cols[c], where=cols[c + 1] <= mode)
    cols = cols[1:]
    tag = state.tag.take(src)
    first, key, amp = _group(_column_keys(n_modes, cols, tag, DEGREE_BOUND),
                             amp)
    return PolarizedState(lat, _trim(cols.take(first, axis=1).T, n_modes),
                          amp, tag.take(first), key)


def op_a_star(g, state: PolarizedState) -> PolarizedState:
    """Creation: c_alpha feeds w_k g_k into alpha + e_k."""
    lat = state.lat
    n_modes = lat.n_modes
    g = _mode_coefficients(lat, g, "g")
    modes = np.flatnonzero(g != 0)
    idx = _trim(state.idx, n_modes)
    (n, width), n_new = idx.shape, len(modes)
    if n and n_new and width + 1 > DEGREE_BOUND:
        raise DegreeOverflowError(
            f"degree {width + 1} exceeds bound {DEGREE_BOUND}")
    # Term (i, k) raises row i by mode modes[k]: the mode enters as a new
    # last column, and one compare-exchange pass from the right moves it
    # to its place in the sorted row.  Rows are held column-major.
    cols = np.empty((width + 1, n, n_new), dtype=idx.dtype)
    cols[:width] = idx.T[:, :, None]
    cols[width] = modes
    cols = cols.reshape(width + 1, n * n_new)
    for j in reversed(range(width)):
        low = np.minimum(cols[j], cols[j + 1])
        np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
        cols[j] = low
    amp = _cmul((lat.w * g)[modes], state.amp[:, None]).reshape(-1)
    tag = np.repeat(state.tag, n_new)
    first, key, amp = _group(_column_keys(n_modes, cols, tag, DEGREE_BOUND),
                             amp)
    return PolarizedState(lat, _trim(cols.take(first, axis=1).T, n_modes),
                          amp, tag.take(first), key)


def minkowski_kz(lat: ModeLattice, zeta) -> np.ndarray:
    """Per-mode pairing k.zeta = k^0 zeta^0 - kvec . zetavec."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (lat.d + 1,):
        raise ValueError(f"zeta must have {lat.d + 1} components")
    return lat.k0 * zeta[0] - lat.k @ zeta[1:]


def p_eigenvalue(lat: ModeLattice, alpha, zeta) -> float:
    """-hbar sum_k alpha_k (k.zeta), the diagonal value of op_p on alpha.

    Accumulated with a dot product over the distinct modes, independently
    of the row sum over index columns inside op_p, so comparing the two is
    a nontrivial consistency check.
    """
    kz = minkowski_kz(lat, zeta)
    if not alpha:
        return 0.0
    ks = np.array([k for k, _ in alpha])
    es = np.array([e for _, e in alpha], dtype=float)
    return float(-lat.hbar * np.dot(es, kz[ks]))


def p_eigenvalues(lat: ModeLattice, rows, zeta) -> np.ndarray:
    """``p_eigenvalue`` of every sentinel-padded sorted index row at once.

    The exponent counts alpha_k of each row, one matrix row per monomial,
    multiply k.zeta in one matrix product; op_p instead sums k.zeta over
    the index columns.  The count matrix is built in blocks of at most
    ``_COUNT_CELLS`` entries.
    """
    kz = minkowski_kz(lat, zeta)
    rows = np.asarray(rows, dtype=np.intp)
    width = lat.n_modes + 1  # the last column counts the sentinel
    step = max(1, _COUNT_CELLS // width)
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        cells = part + width * np.arange(len(part))[:, None]
        counts = np.bincount(cells.ravel(), minlength=len(part) * width)
        out[start:start + step] = counts.reshape(len(part), width)[:, :-1] @ kz
    return -lat.hbar * out


def op_p(zeta, state: PolarizedState) -> PolarizedState:
    """Translation generator: diagonal with eigenvalue -hbar sum alpha_k (k.zeta)."""
    lat = state.lat
    kz = np.append(minkowski_kz(lat, zeta), 0.0)
    total = np.zeros(len(state.idx))
    for column in state.idx.T:
        total = total + kz[column]
    scale = -lat.hbar * total
    return replace(state, amp=_complex(scale * state.amp.real,
                                       scale * state.amp.imag))


def commutator(op_left, op_right, state: PolarizedState) -> PolarizedState:
    """(A B - B A) state, with exact zeros pruned away."""
    return prune(state_sub(op_left(op_right(state)),
                           op_right(op_left(state))))


def _norm_sq(lat: ModeLattice, idx: np.ndarray) -> np.ndarray:
    """prod_k alpha_k! (hbar / w_k)^alpha_k of each row.

    Each column contributes (hbar / w_k) times its position in the run of
    mode k, so a run of length e contributes e! (hbar / w_k)^e.
    """
    ratio = np.append(lat.hbar / lat.w, 1.0)
    return np.prod(np.where(idx < lat.n_modes,
                            _run_positions(idx) * ratio[idx], 1.0), axis=1)


def inner_product(s1: PolarizedState, s2: PolarizedState) -> complex:
    """Diagonal pairing, conjugate-linear in the first argument.

    Terms pair up when tag and monomial agree.
    """
    lat = _same_lattice((s1, s2))
    _, i1, i2 = np.intersect1d(s1.key, s2.key, assume_unique=True,
                               return_indices=True)
    terms = _cmul(np.conj(s1.amp[i1]), s2.amp[i2]) * _norm_sq(lat, s1.idx[i1])
    return complex(np.sum(terms))


def _unrank(n_modes: int, degree: int, ranks) -> np.ndarray:
    """Sorted rows of one degree with these ranks; inverts ``_column_keys``.

    From the last column, c_i + i is the largest b with C(b, i + 1) <= rank.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    binom = _binomials(n_modes, degree)
    rows = np.empty((len(ranks), degree), dtype=np.intp)
    for i in reversed(range(degree)):
        b = np.searchsorted(binom[i + 1], ranks, side="right") - 1
        ranks = ranks - binom[i + 1][b]
        rows[:, i] = b - i
    return rows


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")


def monomial_rows(lat: ModeLattice, max_degree: int) -> np.ndarray:
    """Every monomial of degree <= max_degree as a sentinel-padded index row.

    Ordered by degree, then by rank, so the vacuum row comes first.
    """
    _check_max_degree(max_degree)
    n = lat.n_modes
    return np.concatenate([
        _widen(_unrank(n, d, np.arange(comb(n + d - 1, d))), max_degree, n)
        for d in range(max_degree + 1)])


def monomial_at(lat: ModeLattice, max_degree: int, index: int) -> np.ndarray:
    """``monomial_rows(lat, max_degree)[index]``, without the other rows."""
    _check_max_degree(max_degree)
    n = lat.n_modes
    if not 0 <= index < comb(n + max_degree, max_degree):
        raise IndexError(f"monomial index {index} out of range")
    degree = 0
    while index >= comb(n + degree - 1, degree):
        index -= comb(n + degree - 1, degree)
        degree += 1
    return _widen(_unrank(n, degree, [index]), max_degree, n)[0]
