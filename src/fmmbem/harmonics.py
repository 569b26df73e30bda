"""Solid spherical harmonics and the translation machinery built on them.

Two families are used throughout, indexed by ``n*n + n + m`` for
0 <= n <= p, -n <= m <= n:

* regular   R_n^m(r) = rho^n P_n^m(cos a) e^{i m b} / (n+m)!
* irregular I_n^m(r) = (n-m)! P_n^m(cos a) e^{i m b} / rho^(n+1)

With this normalization the key identities are free of binomial factors:

* 1/|x - y|      = sum_nm R_n^m(y) conj(I_n^m(x))           (|y| < |x|)
* R_n^m(a + b)   = sum_jk R_j^k(a) R_{n-j}^{m-k}(b)
* I_n^m(a + b)   = sum_jk (-1)^j conj(R_j^k(b)) I_{n+j}^{m+k}(a)   (|b| < |a|)

and the gradient shift rules

* dz R_n^m = R_{n-1}^m,  (dx + i dy) R_n^m = R_{n-1}^{m+1},
  (dx - i dy) R_n^m = -R_{n-1}^{m-1}
* dz I_n^m = -I_{n+1}^m, (dx + i dy) I_n^m = I_{n+1}^{m+1},
  (dx - i dy) I_n^m = -I_{n+1}^{m-1}

These complex harmonics are the definitions; the tests keep them as the
reference (``tests/harmonics_reference.py``).  Everything the solver runs
works on the packed real form instead.  Sources are real, so every
coefficient set obeys c_n^{-m} = (-1)^m conj(c_n^m) and half of it is
redundant: a packed array has the same ``(p+1)^2`` length and index, with
slot ``(n, m >= 0)`` holding Re c_n^m and slot ``(n, -m)`` holding Im c_n^m.
A real sum over the full index then becomes a weighted dot product of
packed arrays:

* sum_nm L_n^m R_n^m       = sum_s w_s L_s R_s,  w = 1 (m = 0), 2 (m > 0),
  -2 (m < 0 slots)
* sum_nm M_n^m conj(I_n^m) = sum_s w_s M_s I_s,  w = 1, 2, 2

Every translation is a real ``(p+1)^2 x (p+1)^2`` matrix whose entries are
signed entries of one packed harmonic grid, summed in pairs, and reflecting
the offset in an axis only flips signs of its rows and columns.  A
gradient or a dipole source is a translation by an infinitesimal offset,
so its operator is the L2L or M2M operator of the offset's n = 1
harmonics; it acts on coefficients through index and weight tables, each
output slot a weighted sum of at most two input slots per axis.

Functions are batched over the leading axis.  ``translation_maps`` and
``shift_terms`` cache their tables per order; nothing else keeps state.
"""

from functools import lru_cache

import numpy as np


def num_coeffs(p):
    return (p + 1) ** 2


def flat_index(n, m):
    return n * n + n + m


# -- packed real form -----------------------------------------------------------


def _packed(vecs, p, irreg):
    """Packed R (or I) as a slot-major (S, N) array.

    Along each m the recurrence in n has real coefficients, so c_n^m is a real
    factor times the complex diagonal entry c_m^m; only that entry is carried
    as a (real, imaginary) pair.
    """
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    x, y, z = (np.ascontiguousarray(v[:, i]) for i in range(3))
    rho2 = x * x + y * y + z * z
    inv = 1.0 / rho2 if irreg else None
    out = np.empty((num_coeffs(p), len(v)))
    re = 1.0 / np.sqrt(rho2) if irreg else np.ones(len(v))
    im = np.zeros(len(v))
    for m in range(p + 1):
        if m:
            c = -(2 * m - 1) * inv if irreg else -1.0 / (2 * m)
            re, im = c * (x * re - y * im), c * (x * im + y * re)
        a2, a1 = None, np.ones(len(v))
        for n in range(m, p + 1):
            if n == m + 1:
                a2, a1 = a1, ((2 * m + 1) * z * inv) if irreg else z
            elif n > m + 1:
                if irreg:
                    a = ((2 * n - 1) * z * a1 - ((n - 1) ** 2 - m * m) * a2) * inv
                else:
                    a = ((2 * n - 1) * z * a1 - rho2 * a2) * (1.0 / ((n + m) * (n - m)))
                a2, a1 = a1, a
            np.multiply(a1, re, out=out[flat_index(n, m)])
            if m:
                np.multiply(a1, im, out=out[flat_index(n, -m)])
    return out


def packed_regular(vecs, p):
    """Packed real R_n^m for a batch of vectors, shape (N, (p+1)^2)."""
    return _packed(vecs, p, irreg=False).T


def packed_irregular(vecs, p):
    """Packed real I_n^m for a batch of nonzero vectors, shape (N, (p+1)^2)."""
    return _packed(vecs, p, irreg=True).T


def signed_grid(grid):
    """[G, -G, 0] along the last axis: the table the translation maps index."""
    g = np.asarray(grid, dtype=float)
    size = g.shape[-1]
    out = np.empty(g.shape[:-1] + (2 * size + 1,))
    out[..., :size] = g
    np.negative(g, out=out[..., size:2 * size])
    out[..., -1] = 0.0
    return out


def _slots(p):
    """(n, m) of every packed slot of order p."""
    n = np.repeat(np.arange(p + 1), 2 * np.arange(p + 1) + 1)
    return n, np.arange(num_coeffs(p)) - n * n - n


def _odd(m):
    """(-1)^m of integer arrays, as integers."""
    return 1 - 2 * (np.abs(m) & 1)


# (grid order as a function of p, conjugate, grid index (nu, mu) of the
# complex entry T[(no, mo), (ni, mi)])
_TRANSLATIONS = {
    # M_n^m = sum_jk R_{n-j}^{m-k}(d) M_j^k, d = child - parent
    "m2m": (lambda p: p, False, lambda no, mo, ni, mi: (no - ni, mo - mi)),
    # L_n^m = sum_jk R_{j-n}^{k-m}(d) L_j^k, d = child - parent
    "l2l": (lambda p: p, False, lambda no, mo, ni, mi: (ni - no, mi - mo)),
    # L_j^k = (-1)^j sum_nm conj(I_{n+j}^{m+k}(d)) M_n^m, d = target - source;
    # the row sign (-1)^j is left to the caller (see row_sign)
    "m2l": (lambda p: 2 * p, True, lambda no, mo, ni, mi: (ni + no, mi + mo)),
}

# kind -> (p, maps) of the highest order built so far: every lower order is
# a slice of it
_HIGHEST_MAPS = {}


@lru_cache(maxsize=8)
def translation_maps(kind, p):
    """Index maps of a packed translation operator into a signed grid.

    With ``grid`` the packed harmonics of the offset (regular of order p for
    'm2m' and 'l2l', irregular of order 2p for 'm2l') and G = signed_grid(grid),
    the operator is ``G[map1] + G[map2]`` (:func:`assemble`), applied as
    ``coeffs_new = coeffs_old @ T.T``.  For 'm2l' the rows still lack
    :func:`row_sign`.

    An entry depends on its (output, input) slot pair alone, so the maps of
    order p are the leading block of those of any higher order, with the
    offsets of -G and of the zero moved to the smaller grid.
    """
    top, maps = _HIGHEST_MAPS.get(kind, (-1, None))
    if top < p:
        top, maps = _HIGHEST_MAPS[kind] = (p, _build_maps(kind, p))
    if top == p:
        return maps
    q_of = _TRANSLATIONS[kind][0]
    size, size_top, S = num_coeffs(q_of(p)), num_coeffs(q_of(top)), num_coeffs(p)
    out = []
    for m in maps:
        block = m[:S, :S]
        out.append(np.where(block < size_top, block,
                            np.where(block < 2 * size_top, block - size_top + size, 2 * size)))
    return tuple(out)


def _build_maps(kind, p):
    """The maps of :func:`translation_maps`, in integer arithmetic.

    Complex units are (real, imaginary) pairs of integers.  Output slot
    (n, m) is Re(o_w c_(n, |m|)) with o_w = 1, or -i for m < 0; input column
    (n, m) reads the full inputs (n, +-|m|) with unit weights w_i; the grid
    entry of the term is g1 G[re_idx] + i g_im G[im_idx].
    """
    q_of, conj, grid_nm = _TRANSLATIONS[kind]
    size_q = num_coeffs(q_of(p))
    n, m = _slots(p)
    n_o, o_mu = n[:, None], np.abs(m)[:, None]
    o_neg = m[:, None] < 0
    n_i = n[None, :]
    maps = []
    for sgn in (1, -1):
        # w_i of the full input (n, sgn |m|) read by packed column (n, m)
        if sgn > 0:
            w_re, w_im = np.where(m < 0, 0, 1), np.where(m < 0, 1, 0)
        else:
            w_re, w_im = np.where(m > 0, _odd(m), 0), np.where(m < 0, -_odd(m), 0)
        # u = o_w w_i, where -i (c + i d) = d - i c
        u_re = np.where(o_neg, w_im[None, :], w_re[None, :])
        u_im = np.where(o_neg, -w_re[None, :], w_im[None, :])
        nu, mu = grid_nm(n_o, o_mu, n_i, sgn * np.abs(m)[None, :])
        # an invalid term gets sign 0, whatever its index
        valid = (nu >= 0) & (np.abs(mu) <= nu) & ((sgn > 0) | (m != 0))[None, :]
        g1 = np.where(mu < 0, _odd(mu), 1)
        g_im = np.where(mu > 0, 1, np.where(mu < 0, -_odd(mu), 0))
        if conj:
            g_im = -g_im
        real_u = u_re != 0
        # Re(u g) is u g1 G[re_idx] for real u, -Im(u) g_im G[im_idx] otherwise
        sign = np.where(real_u, u_re * g1, -u_im * g_im) * valid
        index = flat_index(nu, np.where(real_u, 1, -1) * np.abs(mu))
        maps.append(np.where(sign > 0, index,
                             np.where(sign < 0, index + size_q, 2 * size_q)).astype(np.intp))
    return tuple(maps)


def assemble(grid_row, maps):
    """Translation operator from one signed grid row and its two index maps."""
    T = grid_row[maps[0]]
    T += grid_row[maps[1]]
    return T


def row_sign(p):
    """(-1)^n per packed slot: the row sign M2L leaves out of its maps."""
    n, _ = _slots(p)
    return (-1.0) ** n


def reflection_signs(p):
    """Packed sign vectors of the axis reflections, shape (8, (p+1)^2).

    Row f flips x if bit 0 of f is set, y for bit 1 and z for bit 2.  R and I
    of the reflected vector are the row times the originals, slot by slot,
    so every translation obeys T(reflected d) = diag(s) T(d) diag(s).
    """
    n, m = _slots(p)
    sy = np.where(m < 0, -1.0, 1.0)                 # y -> -y conjugates
    axes = [(-1.0) ** np.abs(m) * sy, sy, (-1.0) ** (n + np.abs(m))]
    out = np.ones((8, len(n)))
    for f in range(8):
        for a in range(3):
            if f >> a & 1:
                out[f] *= axes[a]
    return out


# -- gradients and dipoles on coefficients ---------------------------------------

@lru_cache(maxsize=8)
def shift_terms(kind, p):
    """Index and weight tables of the packed gradient or dipole shifts.

    'local': order p -> three order-p sets stacked (the n = p slots are
    zero), so that sum_s w_s X_s R_s with X a shifted set is d/dx_a of the
    local field.  'dipole': three order-p moment sets flattened to
    3 (p+1)^2 -> one order-p multipole set.

    Both are translations by an infinitesimal offset d: d/dx_a of a local
    expansion is d/dd_a of its L2L translation at d = 0, and a dipole's
    multipole d . grad R(y) is d/dd_a of the M2M translation of R(y).  Only
    the n = 1 harmonics of d are linear in d, so the operator of axis a is
    the translation assembled from the n = 1 part of R(e_a).

    Returns (index, weight), both (K, S_out): output slot r is
    sum_k weight[k, r] * input[index[k, r]].  K is at most 2 for 'local' and
    5 for 'dipole'; unused terms have weight 0.
    """
    n, _ = _slots(p)
    grids = np.where(n == 1, packed_regular(np.eye(3), p), 0.0)
    maps = translation_maps("m2m" if kind == "dipole" else "l2l", p)
    # 'local' stacks the three axes as row blocks (3S x S), 'dipole' as
    # column blocks (S x 3S)
    op = np.concatenate([assemble(g, maps) for g in signed_grid(grids)],
                        axis=1 if kind == "dipole" else 0)
    # the nonzeros, row-major: one table term each
    rows, cols = np.nonzero(op)
    counts = np.bincount(rows, minlength=len(op))
    term = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((counts.max(initial=0), len(op)), dtype=np.intp)
    weight = np.zeros(index.shape)
    index[term, rows] = cols
    weight[term, rows] = op[rows, cols]
    return index, weight


def _apply_shift(X, terms, size):
    """(..., k, size) shifted sets of the coefficients X (..., S_in).

    terms is an (index, weight) pair of tables like those of shift_terms.
    """
    index, weight = terms
    flat = X.reshape(-1, X.shape[-1])
    out = np.einsum("bks,ks->bs",
                    np.take(flat, index.ravel(), axis=1).reshape((len(flat),) + index.shape),
                    weight)
    return out.reshape(X.shape[:-1] + (-1, size))


def dipole_shift(moments, p):
    """Multipole coefficients of dipole sources from their moment sets.

    moments: (..., 3, S) packed sums (d_x, d_y, d_z) @ R over the sources, R
    the packed regular harmonics of order p.  Returns (..., S).
    """
    flat = moments.reshape(moments.shape[:-2] + (-1,))
    return _apply_shift(flat, shift_terms("dipole", p), num_coeffs(p))[..., 0, :]


def local_field_coeffs(coeffs, p, want_gradient=False):
    """Rows that turn packed regular harmonics into a local expansion's field.

    coeffs: (..., S) packed local coefficients.  Returns (..., k, S), k = 1
    (potential) or 4 (potential, d/dx, d/dy, d/dz), slot weights included, so
    that ``rows @ packed_regular(rel, p).T`` is the field at ``rel``.
    """
    _, m = _slots(p)
    w = np.where(m == 0, 1.0, np.where(m > 0, 2.0, -2.0))
    pot = (coeffs * w)[..., None, :]
    if not want_gradient:
        return pot
    grad = _apply_shift(coeffs, shift_terms("local", p), num_coeffs(p))
    return np.concatenate([pot, grad * w], axis=-2)
