"""Prequantization on polarized sections over the truncated mode set.

A state is psi = h(u*) |0> with h a polynomial and |0> the implicit
Gaussian exp(-(1/2 hbar) sum_k w_k u_k u*_k).  Only the coefficients of h
are stored.

Storage.  A state holds four arrays with one entry per term: ``idx``
(n_terms, W), the term's monomial as its sorted mode indices, mode k
written alpha_k times, padded on the right with the sentinel
``lat.n_modes``, in the narrowest dtype that holds it (uint8 up to 255
modes, then uint16), W at least the largest degree present; ``amp``
(n_terms,), the complex amplitude, or (members, n_terms) for a family
(below); ``tag``, an integer naming the input the term descends from;
and ``key``, the int64 group key of (tag, row), below.
``PolarizedState(lat, idx, amp, tag)`` computes the keys and raises
``ValueError`` for a mode outside 0..n_modes, a non-integer or boolean
row or tag, or a (tag, row) pair given twice, ``DegreeOverflowError``
past ``DEGREE_BOUND``; ``vacuum``, ``monomial``, ``monomial_block`` and
the operators return key-sorted states.

Tags let one state carry many independent inputs: the operators never
mix terms of different tags, so each tag's terms in a block of monomials
tagged 0..B-1 equal, bit for bit, those of its monomial alone (``suites``
checks blocks of ``suites._BLOCK_TERMS`` terms).  ``coeffs`` is a
read-only dict view, {sorted (mode, exponent) tuple: amplitude}, summed
over tags.

Keys.  Each term carries an int64 key, ``tag * S + rank``.  The rank is
that of the row padded with sentinels to width D = ``DEGREE_BOUND`` in the
combinatorial number system (Knuth, TAOCP 4A, section 7.2.1.3): a sorted
row c_0 <= ... <= c_{D-1} over the n_modes + 1 symbols has the rank
sum_i C(c_i + i, i + 1) < S = C(n_modes + D, D).  A row of width W < D has
that rank minus sum_{i >= W} C(n_modes + i, i + 1), the same for every row,
so keys are computed from the columns a row happens to have, in one order
(degree descending, then colex) for every width.  The operators, the
merges, ``prune`` and ``state_scale`` hand the keys on, and
``inner_product`` pairs terms by them; no row is ranked twice.

Coalescing.  An operator merges its terms with equal keys by one stable
sort (``_group``): each group keeps its first term and sums its terms from
+0.0 in the order they were made, by ``np.add.at`` over group labels
scattered back into term order.  The sort is one ``np.sort`` of
(key << b) | term, b the bit length of the term count: the packed values
are distinct and break ties by term, so they sort into the stable order,
for keys under 2^(63 - b); wider keys take a stable argsort, as config C's
[a, a] blocks do (910 tags, 64 bits), and strictly increasing keys (a
block's first raising) skip the sort.  An operator ranks its keys in place
over a copy of the source tags; the output tags are the group keys'
quotients by S (``_tags``).

Families.  ``op_a`` and ``op_a_star`` also take coefficients of shape
(members, n_modes) and return amplitudes of shape (members, n_terms),
acting member by member on such a state.  Rows, keys, sort and group
labels are built once, over the union of the members' nonzero modes; each
member forms and sums its own amplitudes in a single call's term order,
its zero coefficients adding only exact zeros, so its nonzero amplitudes
and their keys are its single call's, bit for bit.  A family's ``coeffs``
lists the members' amplitudes per monomial.

Merging.  ``state_sum``, ``state_sub`` and ``max_abs_diff`` fold the later
key-sorted states into the first by ``np.searchsorted`` (``_merge``),
adding, or subtracting, amplitudes where a key is present (in one step
for equal key arrays) and inserting the keys it lacks, with their rows
and tags except in ``max_abs_diff``; a state out of key order is
argsorted alone first.  From amp + 0.0, every amplitude, zero
signs included, is that of grouping the concatenated terms, subtracted
states negated.  ``max_abs_diff`` reads 0.0 exactly when the amplitudes are
equal on every key, a key a state lacks reading 0, as x - y == 0 only when
x == y for finite amplitudes; else it reads the largest |amplitude| left.

Monomial order.  ``monomial_rows``, ``monomial_at`` and ``covkg prequant
--spectrum-out`` list monomials by degree, then by that rank (the colex
order of the rows), so the vacuum comes first.

Operators.  Raising writes the new mode into an extra last column and moves
it into place with one compare-exchange pass over column-major rows.
Lowering drops the last column of each run of mode k (``_runs``), with the
run length alpha_k as its factor, so the term is (hbar f_k alpha_k)
c_alpha as one product: adding alpha_k dropped copies instead would leave
roundoff in the off-diagonal terms of [a_f, a*_g] for alpha_k >= 3.
P_zeta multiplies each term by -hbar times the row sum of k.zeta over its
index columns; ``p_eigenvalue`` (a dot product over the distinct modes)
and ``p_eigenvalues`` (each run of mode k adds alpha_k (k.zeta), the runs
read by ``_runs``) are separate paths for the checks to compare.

Product rule.  Complex products inside the operators are formed from
float64 parts, one ufunc call each (``_cmul``): numpy's complex multiply
may fuse a product and a sum (FMA), so a*b and b*a may differ in the last
bit, and the [a*_f, a*_g] check compares exactly such mirrored products.

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

from .lattice import ModeLattice, _cmul, _complex, _integers

_INT64_MAX = np.iinfo(np.int64).max
# The largest degree of any state; keys rank rows padded to this width.
# ``covkg prequant`` takes --max-degree up to DEGREE_BOUND - 2, since its
# [a*, a*] check raises max-degree rows twice.
DEGREE_BOUND = 6


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


def _column_keys(n_modes: int, columns, tag: np.ndarray, width: int,
                 out=None, tags=None) -> np.ndarray:
    """int64 key tag * C(n_modes + D, D) + rank of each row padded to D =
    ``width``, from its (at most D) ``columns``, in ``out`` when given (an
    int64 array, maybe ``tag``); the int64 guard reads ``tags`` if given."""
    if not len(tag):
        return np.empty(0, dtype=np.int64)
    span = comb(n_modes + width, width)
    if (int((tag if tags is None else tags).max()) + 1) * span > _INT64_MAX:
        raise ValueError("state too large for int64 coalescing keys")
    keys = np.multiply(tag, span, out=out, dtype=np.int64)
    keys += _pad_rank(n_modes, len(columns), width)
    binom = _binomials(n_modes, width)
    for i, column in enumerate(columns):
        keys += binom[i + 1, i:].take(column)
    return keys


def _tags(n_modes: int, keys: np.ndarray) -> np.ndarray:
    """The tags of int64 keys: key // C(n_modes + D, D), D = DEGREE_BOUND."""
    return keys // comb(n_modes + DEGREE_BOUND, DEGREE_BOUND)


def _trim(idx: np.ndarray, n_modes: int) -> np.ndarray:
    """Drop the right-hand columns that hold only the sentinel."""
    width = idx.shape[1]
    while width and not (idx[:, width - 1] < n_modes).any():
        width -= 1
    return idx[:, :width]


def _increasing(keys: np.ndarray) -> bool:
    return bool((keys[1:] > keys[:-1]).all())


def _stable_order(keys: np.ndarray):
    """(order, keys.take(order)) of a stable sort of nonnegative int64 keys,
    packed with the term index when they fit (module docstring)."""
    bits = len(keys).bit_length()
    if int(keys.max()) >> (63 - bits):  # too wide to pack
        order = np.argsort(keys, kind="stable")
        return order, keys.take(order)
    order = np.left_shift(keys, bits)
    order |= np.arange(len(keys))
    order.sort()
    sorted_keys = order >> bits
    order &= (1 << bits) - 1
    return order, sorted_keys


def _group(keys: np.ndarray, amp: np.ndarray):
    """(first, group keys, summed amplitudes) of equal-key runs, in key
    order and each kept at its first term, as ``np.unique(return_index=True,
    return_inverse=True)`` would give them; each group sums its amplitudes
    in term order, per member of a family (``amp`` of shape (members,
    n_terms)).  Strictly increasing keys are their own groups: ``first`` is
    then None (``_firsts`` reads both), and + 0.0 turns -0.0 into +0.0."""
    if _increasing(keys):
        return None, keys, amp + 0.0
    order, sorted_keys = _stable_order(keys)
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    group_keys = sorted_keys[starts]
    del sorted_keys
    first = order[starts]
    # Labels count groups from 0, in term order: np.add.at sums in index
    # order from +0.0, and the stable sort keeps term order in a group.
    starts[0] = False
    label = np.empty_like(order)
    label[order] = starts.cumsum()
    del order, starts
    sums = np.zeros(amp.shape[:-1] + (len(first),), dtype=complex)
    for total, a in zip(sums.reshape(-1, len(first)),
                        amp.reshape(-1, len(keys))):
        np.add.at(total, label, a)
    return first, group_keys, sums


def _firsts(a: np.ndarray, first, axis: int = 0) -> np.ndarray:
    """``a``'s entries at the group representatives ``first`` of ``_group``,
    all of ``a`` when ``first`` is None."""
    return a if first is None else a.take(first, axis=axis)


def _runs(idx: np.ndarray):
    """(flat, end, length): the rows end to end, copied by columns (faster)
    unless C-ordered, and each equal-mode run's last flat index and length."""
    flat = (idx if idx.flags.c_contiguous else np.stack(idx.T, axis=1)).ravel()
    ends = np.ones(len(flat), dtype=bool)  # the next entry differs or row ends
    np.not_equal(flat[:-1], flat[1:], out=ends[:-1])
    ends[idx.shape[1] - 1::idx.shape[1] or 1] = True  # no step 0 at width 0
    end = ends.nonzero()[0]
    return flat, end, end - np.concatenate(([-1], end[:-1]))


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
        idx = _integers("index rows", self.idx)
        if not ((idx >= 0) & (idx <= n_modes)).all():
            raise ValueError("mode index out of range")
        self.idx = idx.astype(np.min_scalar_type(n_modes))
        self.amp = np.asarray(self.amp, dtype=complex)
        self.tag = _integers("tags", self.tag)
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
        if not _increasing(key):
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
        return MappingProxyType(dict(zip(row_alphas(self.lat,
                                                    _firsts(self.idx, first)),
                                         amp.T.tolist())))


def prune(state: PolarizedState) -> PolarizedState:
    """Drop exactly-zero amplitudes (keeps structural zeros visible as absence)."""
    keep = state.amp != 0
    return replace(state, idx=_trim(state.idx[keep], state.lat.n_modes),
                   amp=state.amp[keep], tag=state.tag[keep],
                   key=state.key[keep])


def monomial_block(lat: ModeLattice, rows) -> PolarizedState:
    """One term of amplitude 1 per index row, tagged 0..len(rows)-1."""
    rows = _trim(_integers("index rows", rows), lat.n_modes)
    return PolarizedState(lat, rows, np.ones(len(rows), dtype=complex),
                          np.arange(len(rows)))


def vacuum(lat: ModeLattice) -> PolarizedState:
    return monomial_block(lat, np.zeros((1, 0)))


def monomial(lat: ModeLattice, pairs) -> PolarizedState:
    """The state (u*)^alpha |0> for alpha given as {mode: exponent}."""
    alpha = []
    for k, e in dict(pairs).items():
        if any(isinstance(v, (bool, np.bool_)) or int(v) != v for v in (k, e)):
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


def _key_sorted(part):
    """``part``'s arrays, reordered so that its first, the keys, increase."""
    if _increasing(part[0]):
        return part
    order = np.argsort(part[0])
    return [x.take(order, axis=0) for x in part]


def _merge(parts, subtract: bool = False) -> list:
    """The first of ``parts``, each (keys, amplitudes, *rows), plus (or
    minus) each later one, folded into its keys ("Merging" above), as
    [keys, amplitudes, *rows]; a key keeps its first part's rows."""
    combine = np.subtract if subtract else np.add
    key, amp, *rest = _key_sorted(parts[0])
    amp = amp + 0.0  # group sums start from +0.0, so -0.0 becomes +0.0
    for part in parts[1:]:
        k, a, *more = _key_sorted(part)
        if np.array_equal(key, k):
            combine(amp, a, out=amp)
            continue
        pos = np.searchsorted(key, k)
        hit = (key.take(pos, mode="clip") == k if len(key)
               else np.zeros(len(k), dtype=bool))
        at = pos[hit]
        amp[at] = combine(amp[at], a[hit])
        new = ~hit
        if new.any():
            at = pos[new]
            key = np.insert(key, at, k[new])
            amp = np.insert(amp, at, combine(0.0, a[new]))  # +0.0 as above
            rest = [np.insert(x, at, y[new], axis=0)
                    for x, y in zip(rest, more)]
    return [key, amp, *rest]


def _merge_states(states, subtract: bool = False) -> PolarizedState:
    """``_merge`` of the states' terms, their rows widened to one width."""
    lat = _same_lattice(states)
    n_modes = lat.n_modes
    width = max(s.idx.shape[1] for s in states)
    key, amp, idx, tag = _merge(
        [(s.key, s.amp, _widen(s.idx, width, n_modes), s.tag)
         for s in states], subtract)
    return PolarizedState(lat, _trim(idx, n_modes), amp, tag, key)


def state_sum(*states: PolarizedState) -> PolarizedState:
    """The sum of states on one lattice, merged once (``_merge``): bit for
    bit, adding them left to right with exact zeros pruned between steps."""
    return _merge_states(states)


def state_scale(c, s: PolarizedState) -> PolarizedState:
    return replace(s, amp=_cmul(np.complex128(c), s.amp))


def state_sub(s1: PolarizedState, s2: PolarizedState) -> PolarizedState:
    return _merge_states((s1, s2), subtract=True)


def max_abs_diff(first: PolarizedState, *rest: PolarizedState) -> float:
    """Largest |amplitude| of first - rest[0] - ... over every operand's
    keys (``_merge`` of keys and amplitudes alone), 0.0 for no terms;
    np.hypot rounds like Python's abs(complex), np.abs on a complex array
    may differ in the last bit."""
    states = (first, *rest)
    _same_lattice(states)
    _, amp = _merge([(s.key, s.amp) for s in states], subtract=True)
    return float(np.max(np.hypot(amp.real, amp.imag), initial=0.0))


def _mode_coefficients(lat: ModeLattice, f, name: str):
    """``f`` as complex, padded with a zero sentinel coefficient to shape
    (..., n_modes + 1), and the symbols where any member's is nonzero."""
    f = np.asarray(f)
    if f.ndim not in (1, 2) or f.shape[-1] != lat.n_modes:
        raise ValueError(f"{name} must have shape ({lat.n_modes},) or "
                         f"(members, {lat.n_modes}), got {f.shape}")
    padded = np.zeros(f.shape[:-1] + (lat.n_modes + 1,), dtype=complex)
    padded[..., :-1] = f
    return padded, (padded != 0).reshape(-1, lat.n_modes + 1).any(axis=0)


def op_a(f, state: PolarizedState) -> PolarizedState:
    """Annihilation: c_alpha feeds hbar f_k alpha_k into alpha - e_k;
    ``f`` of shape (members, n_modes) makes a family."""
    lat = state.lat
    n_modes = lat.n_modes
    hf, live = _mode_coefficients(lat, f, "f")
    hf *= lat.hbar
    idx = _trim(state.idx, n_modes)
    width = idx.shape[1]
    # Term (i, j) lowers row i at column j, the last of a run of mode k,
    # with the run length alpha_k as factor; the sentinel and modes whose
    # coefficient is zero in every member make no term.
    flat, term, alpha = _runs(idx)
    mode = flat.take(term)
    lowers = live.take(mode)
    term, alpha, mode = term[lowers], alpha[lowers], mode[lowers]
    src = np.floor_divide(term, width, out=term)  # the source rows
    amp = _cmul(hf.take(mode, axis=-1) * alpha, state.amp.take(src, axis=-1))
    # Lowered column c is source column c + 1 where that exceeds the mode
    # (past the dropped column), else column c: in sorted rows, the larger of
    # column c and column c + 1 zeroed where not past; column-major.
    cols = np.empty((width, len(src)), dtype=idx.dtype)
    for c, column in enumerate(idx.T):
        column.take(src, out=cols[c])
    for c in reversed(range(width - 1)):
        np.multiply(cols[c + 1], cols[c + 1] > mode, out=cols[c + 1])
        np.maximum(cols[c], cols[c + 1], out=cols[c + 1])
    cols = cols[1:]
    keys = state.tag.take(src)  # the terms' tags, ranked into keys in place
    del flat, lowers, term, alpha, mode, src  # not held while coalescing
    first, key, amp = _group(_column_keys(n_modes, cols, keys, DEGREE_BOUND,
                                          out=keys, tags=state.tag), amp)
    return PolarizedState(lat, _trim(_firsts(cols, first, axis=1).T, n_modes),
                          amp, _tags(n_modes, key), key)


def op_a_star(g, state: PolarizedState) -> PolarizedState:
    """Creation: c_alpha feeds w_k g_k into alpha + e_k; ``g`` of shape
    (members, n_modes) makes a family."""
    lat = state.lat
    n_modes = lat.n_modes
    g, live = _mode_coefficients(lat, g, "g")
    modes = live.nonzero()[0]  # the sentinel's coefficient is zero
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
    amp = _cmul((lat.w * g[..., :-1])[..., None, modes], state.amp[..., None])
    amp = amp.reshape(amp.shape[:-2] + (-1,))
    keys = state.tag.repeat(n_new)  # ranked into keys in place
    first, key, amp = _group(_column_keys(n_modes, cols, keys, DEGREE_BOUND,
                                          out=keys, tags=state.tag), amp)
    return PolarizedState(lat, _trim(_firsts(cols, first, axis=1).T, n_modes),
                          amp, _tags(n_modes, key), key)


def minkowski_kz(lat: ModeLattice, zeta) -> np.ndarray:
    """Per-mode pairing k.zeta = k^0 zeta^0 - kvec . zetavec."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (lat.d + 1,):
        raise ValueError(f"zeta must have {lat.d + 1} components")
    return lat.k0 * zeta[0] - lat.k @ zeta[1:]


def p_eigenvalue(lat: ModeLattice, alpha, zeta) -> float:
    """-hbar sum_k alpha_k (k.zeta), the diagonal value of op_p on alpha,
    as a dot product over the distinct modes: op_p's row sum over index
    columns is a separate path, so comparing the two is a real check."""
    kz = minkowski_kz(lat, zeta)
    if not alpha:
        return 0.0
    ks = np.array([k for k, _ in alpha])
    es = np.array([e for _, e in alpha], dtype=float)
    return float(-lat.hbar * np.dot(es, kz[ks]))


def p_eigenvalues(lat: ModeLattice, rows, zeta) -> np.ndarray:
    """``p_eigenvalue`` of every sentinel-padded sorted index row at once:
    each run of mode k (``_runs``) adds alpha_k (k.zeta), the sentinel's
    k.zeta being 0, and ``np.bincount`` sums a row's runs in order."""
    kz = np.append(minkowski_kz(lat, zeta), 0.0)
    rows = np.asarray(rows)
    flat, end, alpha = _runs(rows)
    return -lat.hbar * np.bincount(end // rows.shape[1],
                                   alpha * kz.take(flat.take(end)),
                                   minlength=len(rows))


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
    """prod_k alpha_k! (hbar / w_k)^alpha_k of each row: each entry gives
    hbar / w_k times its position in its run of mode k (``_runs``)."""
    ratio = np.append(lat.hbar / lat.w, 1.0)
    flat, end, length = _runs(idx)
    pos = np.arange(len(flat)) - np.repeat(end - length, length)
    return np.prod(np.where(idx < lat.n_modes,
                            pos.reshape(idx.shape) * ratio[idx], 1.0), axis=1)


def inner_product(s1: PolarizedState, s2: PolarizedState) -> complex:
    """Diagonal pairing, conjugate-linear in the first argument; terms pair
    up when tag and monomial agree."""
    lat = _same_lattice((s1, s2))
    _, i1, i2 = np.intersect1d(s1.key, s2.key, assume_unique=True,
                               return_indices=True)
    terms = _cmul(np.conj(s1.amp[i1]), s2.amp[i2]) * _norm_sq(lat, s1.idx[i1])
    return complex(np.sum(terms))


def _unrank(n_modes: int, degree: int, ranks) -> np.ndarray:
    """Sorted rows of one degree with these ranks, inverting ``_column_keys``:
    from the last column, c_i + i is the largest b with C(b, i + 1) <= rank."""
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
    """Every monomial of degree <= max_degree as a sentinel-padded index
    row, by degree, then by rank, so the vacuum row comes first."""
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
