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
the offset in an axis only flips signs of its rows and columns.  A map
entry k + 1 reads +G_k, -(k + 1) reads -G_k and 0 is no term (M2L's row
sign included) at every order, so a lower order's operator is the leading
block of the maps against the same grid.  A gradient or a dipole source is
a translation by an infinitesimal offset, so its operator is the L2L or
M2M operator of the offset's n = 1 harmonics; it acts on coefficients
through index and weight tables, each output slot a weighted sum of at
most two input slots per axis.

Functions are batched over the leading axis.  ``translation_maps`` keeps
one table per kind, at the highest order asked for so far and in the
smallest signed integer type that holds its entries (int16 up to p = 90),
and serves every order as a read-only view of its leading block;
``shift_terms`` and the local slot weights are cached per order; nothing
else keeps state.  These caches are the only state of the package that
depends on the expansion order: an FMM plan holds geometry alone.
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
    as a (real, imaginary) pair.  Each step in n advances the factors of
    every m at once.
    """
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    x, y, z = (np.ascontiguousarray(v[:, i]) for i in range(3))
    rho2 = x * x + y * y + z * z
    inv = 1.0 / rho2 if irreg else None
    # row m: the diagonal entry c_m^m
    re, im = np.empty((p + 1, len(v))), np.empty((p + 1, len(v)))
    re[0] = 1.0 / np.sqrt(rho2) if irreg else 1.0
    im[0] = 0.0
    for m in range(1, p + 1):
        c = -(2 * m - 1) * inv if irreg else -1.0 / (2 * m)
        re[m] = c * (x * re[m - 1] - y * im[m - 1])
        im[m] = c * (x * im[m - 1] + y * re[m - 1])
    out = np.empty((num_coeffs(p), len(v)))
    a1 = a2 = None        # row m: the factors of orders n - 1 and n - 2
    for n in range(p + 1):
        a = np.empty((n + 1, len(v)))
        a[n] = 1.0
        if n:
            a[n - 1] = ((2 * n - 1) * z * inv) if irreg else z
        if n > 1:
            # m < n - 1: ((2n - 1) z a1 - c a2) d, with c = (n - 1)^2 - m^2 and
            # d = 1 / rho^2 for I, c = rho^2 and d = 1 / ((n + m)(n - m)) for R
            m = np.arange(n - 1)[:, None]
            rest = np.multiply((2 * n - 1) * z, a1[:-1], out=a[:-2])
            if irreg:
                rest -= ((n - 1) ** 2 - m * m) * a2
                rest *= inv
            else:
                rest -= rho2 * a2
                rest *= 1.0 / ((n + m) * (n - m))
        # slots (n, 0..n) hold a re, slots (n, -n..-1) hold a im
        np.multiply(a, re[:n + 1], out=out[n * n + n:(n + 1) ** 2])
        np.multiply(a[:0:-1], im[n:0:-1], out=out[n * n:n * n + n])
        a2, a1 = a1, a
    return out


def packed_regular(vecs, p):
    """Packed real R_n^m for a batch of vectors, shape (N, (p+1)^2)."""
    return _packed(vecs, p, irreg=False).T


def packed_irregular(vecs, p):
    """Packed real I_n^m for a batch of nonzero vectors, shape (N, (p+1)^2)."""
    return _packed(vecs, p, irreg=True).T


def signed_grid(grid):
    """[0, G, -G reversed] along the last axis: entry k + 1 is G_k and entry
    -(k + 1) is -G_k at any grid order, as the translation maps read them."""
    g = np.asarray(grid, dtype=float)
    out = np.zeros(g.shape[:-1] + (2 * g.shape[-1] + 1,))
    out[..., 1:g.shape[-1] + 1] = g
    np.negative(g[..., ::-1], out=out[..., g.shape[-1] + 1:])
    return out


def _slots(p):
    """(n, m) of every packed slot of order p."""
    n = np.repeat(np.arange(p + 1), 2 * np.arange(p + 1) + 1)
    return n, np.arange(num_coeffs(p)) - n * n - n


def _odd(m):
    """(-1)^m of integer arrays, as integers."""
    return 1 - 2 * (np.abs(m) & 1)


# (conjugate, complex entry T[(no, mo), (ni, mi)] as (sign, grid n, grid m))
_TRANSLATIONS = {
    # M_n^m = sum_jk R_{n-j}^{m-k}(d) M_j^k, d = child - parent
    "m2m": (False, lambda no, mo, ni, mi: (1, no - ni, mo - mi)),
    # L_n^m = sum_jk R_{j-n}^{k-m}(d) L_j^k, d = child - parent
    "l2l": (False, lambda no, mo, ni, mi: (1, ni - no, mi - mo)),
    # L_j^k = (-1)^j sum_nm conj(I_{n+j}^{m+k}(d)) M_n^m, d = target - source
    "m2l": (True, lambda no, mo, ni, mi: (_odd(no), ni + no, mi + mo)),
}

# (output, input) slot pairs per row block of _build_maps: its integer
# temporaries stay at 128 KiB each
MAP_BLOCK = 16384

# kind -> (p, maps): the read-only maps of the highest order built so far;
# every lower order is a view of their leading block
_TABLES = {}


def translation_maps(kind, p):
    """Index maps of a packed translation operator into a signed grid.

    With G = signed_grid(grid), grid the packed harmonics of the offset
    (regular of order p or more for 'm2m' and 'l2l', irregular of order 2p
    or more for 'm2l'), the operator is ``G[map1] + G[map2]``
    (:func:`assemble`), applied as ``coeffs_new = coeffs_old @ T.T``.  An
    entry depends on its (output, input) slot pair alone, so one table per
    kind is kept, at the highest order asked for so far and in the smallest
    signed integer type that holds its entries, and the maps of order p are
    read-only views of its leading block.
    """
    if _TABLES.get(kind, (-1,))[0] < p:
        _TABLES.pop(kind, None)     # free the old table before building
        _TABLES[kind] = (p, _build_maps(kind, p))
    S = num_coeffs(p)
    return tuple(m[:S, :S] for m in _TABLES[kind][1])


def _build_maps(kind, p):
    """The maps of :func:`translation_maps`, in integer arithmetic.

    Complex units are (real, imaginary) pairs of integers.  Output slot
    (n, m) is Re(o_w c_(n, |m|)) with o_w = 1, or -i for m < 0; input column
    (n, m) reads the full inputs (n, +-|m|) with unit weights w_i; the grid
    entry of the term is g1 G[re_idx] + i g_im G[im_idx].  Output rows go in
    blocks of MAP_BLOCK entries, so that no temporary is S x S.  The maps are
    returned read-only, in the smallest signed integer type that holds
    +-(grid length + 1), a bound on every entry: int16 up to p = 90.
    """
    conj, entry = _TRANSLATIONS[kind]
    n, m = _slots(p)
    grid_length = num_coeffs(2 * p if kind == "m2l" else p)
    maps = np.empty((2, len(n), len(n)), dtype=np.min_scalar_type(-(grid_length + 1)))
    step = max(1, MAP_BLOCK // len(n))
    for k, sgn in enumerate((1, -1)):
        # w_i of the full input (n, sgn |m|) read by packed column (n, m)
        if sgn > 0:
            w_re, w_im = np.where(m < 0, 0, 1), np.where(m < 0, 1, 0)
        else:
            w_re, w_im = np.where(m > 0, _odd(m), 0), np.where(m < 0, -_odd(m), 0)
        present = (sgn > 0) | (m != 0)
        for lo in range(0, len(n), step):
            rows = slice(lo, lo + step)
            n_o, o_mu = n[rows, None], np.abs(m)[rows, None]
            o_neg = m[rows, None] < 0
            # u = o_w w_i, where -i (c + i d) = d - i c
            u_re = np.where(o_neg, w_im, w_re)
            u_im = np.where(o_neg, -w_re, w_im)
            row_sign, nu, mu = entry(n_o, o_mu, n, sgn * np.abs(m))
            # an invalid term gets sign 0, whatever its index
            valid = (nu >= 0) & (np.abs(mu) <= nu) & present
            g1 = np.where(mu < 0, _odd(mu), 1)
            g_im = np.where(mu > 0, 1, np.where(mu < 0, -_odd(mu), 0))
            if conj:
                g_im = -g_im
            real_u = u_re != 0
            # Re(u g) is u g1 G[re_idx] for real u, -Im(u) g_im G[im_idx] otherwise
            sign = np.where(real_u, u_re * g1, -u_im * g_im) * valid * row_sign
            index = flat_index(nu, np.where(real_u, 1, -1) * np.abs(mu))
            maps[k, rows] = sign * (index + 1)
    maps.flags.writeable = False
    return tuple(maps)


def assemble(grid_row, maps):
    """Translation operator from one signed grid row and its two index maps."""
    T = grid_row[maps[0]]
    T += grid_row[maps[1]]
    return T


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
    size = len(n)
    ones = np.flatnonzero(n == 1)
    grids = signed_grid(np.where(n == 1, packed_regular(np.eye(3), p), 0.0))
    maps = translation_maps("m2m" if kind == "dipole" else "l2l", p)
    # only the n = 1 slots of the grids are nonzero, so only the entries
    # whose maps point at one of them can be
    hit = np.zeros(2 * size + 1, dtype=bool)
    hit[ones + 1] = hit[-(ones + 1)] = True
    rows, cols = np.nonzero(hit[maps[0]] | hit[maps[1]])
    # the entries of axis a, as assemble sums them; 'local' stacks the axes
    # as row blocks (3S x S), 'dipole' as column blocks (S x 3S)
    values = (grids[:, maps[0][rows, cols]] + grids[:, maps[1][rows, cols]]).ravel()
    block = np.repeat(np.arange(3) * size, len(rows))
    rows, cols = np.tile(rows, 3), np.tile(cols, 3)
    if kind == "dipole":
        cols += block
    else:
        rows += block
    # the nonzeros, row-major: one table term each
    keep = np.flatnonzero(values)
    order = keep[np.lexsort((cols[keep], rows[keep]))]
    rows, cols, values = rows[order], cols[order], values[order]
    counts = np.bincount(rows, minlength=size if kind == "dipole" else 3 * size)
    term = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((counts.max(initial=0), len(counts)), dtype=np.intp)
    weight = np.zeros(index.shape)
    index[term, rows] = cols
    weight[term, rows] = values
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


@lru_cache(maxsize=8)
def _local_weights(p):
    """Slot weights of a local expansion against regular harmonics: 1, 2 and
    -2 for the m = 0, m > 0 and m < 0 slots.  Read-only."""
    _, m = _slots(p)
    w = np.where(m == 0, 1.0, np.where(m > 0, 2.0, -2.0))
    w.flags.writeable = False
    return w


def local_field_coeffs(coeffs, p, want_gradient=False):
    """Rows that turn packed regular harmonics into a local expansion's field.

    coeffs: (..., S) packed local coefficients.  Returns (..., k, S), k = 1
    (potential) or 4 (potential, d/dx, d/dy, d/dz), slot weights included, so
    that ``rows @ packed_regular(rel, p).T`` is the field at ``rel``.
    """
    w = _local_weights(p)
    pot = (coeffs * w)[..., None, :]
    if not want_gradient:
        return pot
    grad = _apply_shift(coeffs, shift_terms("local", p), num_coeffs(p))
    return np.concatenate([pot, grad * w], axis=-2)
