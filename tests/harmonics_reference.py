"""Reference definitions of the solid harmonics and of point expansions.

The package runs only the packed real forms of :mod:`fmmbem.harmonics`.
These are what the tests check them against: the complex harmonics
R_n^m and I_n^m as defined in that module's docstring, the packed ones
computed slot by slot, the translation
maps derived in complex arithmetic, the gradient and dipole shift tables
derived from the complex shift rules and read off dense n = 1 translation
operators, a dense translation operator per
offset, the gradient shift of a multipole expansion, point-to-expansion
and expansion-to-point evaluation built from the packed pieces, and the
truncation bound of a multipole expansion.
"""

import numpy as np

from fmmbem import harmonics as H
from fmmbem.harmonics import flat_index, num_coeffs


def regular(vecs, p):
    """R_n^m for a batch of vectors, shape (N, (p+1)^2)."""
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    rho2 = x * x + y * y + z * z
    xi = x + 1j * y
    out = np.zeros((v.shape[0], num_coeffs(p)), dtype=complex)
    out[:, 0] = 1.0
    for m in range(1, p + 1):
        out[:, flat_index(m, m)] = -xi / (2 * m) * out[:, flat_index(m - 1, m - 1)]
    for m in range(0, p):
        out[:, flat_index(m + 1, m)] = z * out[:, flat_index(m, m)]
    for m in range(0, p + 1):
        for n in range(m + 2, p + 1):
            out[:, flat_index(n, m)] = (
                (2 * n - 1) * z * out[:, flat_index(n - 1, m)]
                - rho2 * out[:, flat_index(n - 2, m)]
            ) / ((n + m) * (n - m))
    for n in range(1, p + 1):
        for m in range(1, n + 1):
            out[:, flat_index(n, -m)] = (-1) ** m * np.conj(out[:, flat_index(n, m)])
    return out


def irregular(vecs, p):
    """I_n^m for a batch of vectors, shape (N, (p+1)^2).  Vectors must be nonzero."""
    v = np.atleast_2d(np.asarray(vecs, dtype=float))
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    rho2 = x * x + y * y + z * z
    xi = x + 1j * y
    out = np.zeros((v.shape[0], num_coeffs(p)), dtype=complex)
    out[:, 0] = 1.0 / np.sqrt(rho2)
    for m in range(1, p + 1):
        out[:, flat_index(m, m)] = (
            -(2 * m - 1) * xi / rho2 * out[:, flat_index(m - 1, m - 1)]
        )
    for m in range(0, p):
        out[:, flat_index(m + 1, m)] = (2 * m + 1) * z / rho2 * out[:, flat_index(m, m)]
    for m in range(0, p + 1):
        for n in range(m + 2, p + 1):
            out[:, flat_index(n, m)] = (
                (2 * n - 1) * z * out[:, flat_index(n - 1, m)]
                - ((n - 1) ** 2 - m * m) * out[:, flat_index(n - 2, m)]
            ) / rho2
    for n in range(1, p + 1):
        for m in range(1, n + 1):
            out[:, flat_index(n, -m)] = (-1) ** m * np.conj(out[:, flat_index(n, m)])
    return out


def packed_by_m(vecs, p, irreg):
    """The slot-major (S, N) array of :func:`fmmbem.harmonics._packed`, one
    recurrence in n per m, each slot its own operations."""
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


def full_terms(n, m):
    """Packed slots and weights of full indices: c_n^m = w1 P[s1] + w2 P[s2]."""
    mu = np.abs(m)
    odd = (-1.0) ** mu
    w1 = np.where(m < 0, odd, 1.0)
    w2 = np.where(m > 0, 1j, np.where(m < 0, -1j * odd, 0.0))
    return (flat_index(n, mu), flat_index(n, -mu)), (w1, w2)


# (conjugate, the complex entry T[(no, mo), (ni, mi)] as (sign, grid n,
# grid m)), from the identities of fmmbem.harmonics' docstring
TRANSLATIONS = {
    "m2m": (False, lambda no, mo, ni, mi: (1, no - ni, mo - mi)),
    "l2l": (False, lambda no, mo, ni, mi: (1, ni - no, mi - mo)),
    "m2l": (True, lambda no, mo, ni, mi: ((-1) ** no, ni + no, mi + mo)),
}


def translation_maps(kind, p):
    """The index maps of :func:`fmmbem.harmonics.translation_maps`, derived
    from the complex weights of the full coefficients: k + 1 for +G_k,
    -(k + 1) for -G_k and 0 for no term."""
    conj, entry = TRANSLATIONS[kind]
    n_o, m_o = H._slots(p)
    o_mu = np.abs(m_o)[:, None]
    o_w = np.where(m_o < 0, -1j, 1.0)[:, None]   # P_r = Re(o_w c_(n, |m|))
    # column s = (n, m) of the packed input reads the full inputs (n, +-|m|)
    n_i, m_i = H._slots(p)
    maps = []
    for sgn in (1, -1):
        full_m = sgn * np.abs(m_i)
        _, (w1, w2) = full_terms(n_i, full_m)
        w_i = np.where(m_i < 0, w2, w1)
        present = (sgn > 0) | (m_i != 0)
        row_sign, nu, mu = entry(n_o[:, None], o_mu, n_i[None, :], full_m[None, :])
        valid = (nu >= 0) & (np.abs(mu) <= nu) & present[None, :]
        # grid entry g = g1 G[re_idx] + i g_im G[im_idx]
        (re_idx, im_idx), (g1, g2) = full_terms(np.where(valid, nu, 0),
                                                   np.where(valid, mu, 0))
        g_im = -g2.imag if conj else g2.imag
        u = o_w * w_i[None, :]                   # a unit: +-1 or +-i
        real_u = u.real != 0.0
        # Re(u g) is u g1 G[re_idx] for real u, -Im(u) g_im G[im_idx] otherwise
        sign = np.where(real_u, u.real * g1, -u.imag * g_im) * valid * row_sign
        index = np.where(real_u, re_idx, im_idx)
        maps.append((sign * (index + 1)).astype(np.intp))
    return tuple(maps)


# Complex shift rules as (dn, [(dm, factor), ...]) per axis: the output slot
# (n, m) takes factor * c_{n+dn}^{m+dm} of the input set.  These are the
# gradient rules of fmmbem.harmonics' docstring.
SHIFTS = {
    # d/dx_a of sum L_n^m R_n^m(x) is a local expansion with coefficients
    # L_{n+1} shifted in m
    "local": (1, [[(-1, 0.5), (1, -0.5)], [(-1, -0.5j), (1, -0.5j)], [(0, 1.0)]]),
    # a dipole d at y adds d . grad_y R_n^m(y): the adjoint of the local rule
    "dipole": (-1, [[(1, 0.5), (-1, -0.5)], [(1, -0.5j), (-1, -0.5j)], [(0, 1.0)]]),
    # d/dx_a of sum M_n^m conj(I_n^m(x)) is a multipole expansion one order up
    "multipole": (-1, [[(-1, 0.5), (1, -0.5)], [(-1, 0.5j), (1, 0.5j)], [(0, -1.0)]]),
}


def shift_entries(kind, q):
    """(rows, cols, values) of a packed shift operator of order q, duplicates unsummed.

    Axis a of the SHIFTS rule writes output block a of three stacked order-q
    sets, or, for 'dipole' (the adjoint), reads input block a.
    """
    dn, axes = SHIFTS[kind]
    adjoint = kind == "dipole"
    size = num_coeffs(q)
    n, m = H._slots(q)
    mu = np.abs(m)
    out_w = np.where(m < 0, -1j, 1.0)            # P_r = Re(out_w c_(n, |m|))
    rows, cols, vals = [], [], []
    for a, terms in enumerate(axes):
        for dm, factor in terms:
            src_n, src_m = n + dn, mu + dm
            ok = (src_n >= 0) & (src_n <= q) & (np.abs(src_m) <= src_n)
            slots, ws = full_terms(src_n[ok], src_m[ok])
            for slot, w in zip(slots, ws):
                if adjoint:
                    rows.append(np.flatnonzero(ok))
                    cols.append(slot + a * size)
                else:
                    rows.append(np.flatnonzero(ok) + a * size)
                    cols.append(slot)
                vals.append(np.real(out_w[ok] * factor * w))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def shift_tables(rows, cols, vals, n_in, n_out):
    """Index and weight tables, both (K, n_out), of an (n_out, n_in) operator's entries."""
    # sum repeated (row, col) entries and drop the zeros, in row-major order
    codes, inverse = np.unique(rows * n_in + cols, return_inverse=True)
    vals = np.bincount(inverse.ravel(), weights=vals, minlength=len(codes))
    keep = vals != 0.0
    codes, vals = codes[keep], vals[keep]
    rows, cols = np.divmod(codes, n_in)
    counts = np.bincount(rows, minlength=n_out)
    term = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((counts.max(initial=0), n_out), dtype=np.intp)
    weight = np.zeros(index.shape)
    index[term, rows] = cols
    weight[term, rows] = vals
    return index, weight


def shift_terms(kind, p):
    """The tables of :func:`fmmbem.harmonics.shift_terms` ('local' or
    'dipole'), derived from the complex shift rules."""
    size = num_coeffs(p)
    n_in, n_out = (3 * size, size) if kind == "dipole" else (size, 3 * size)
    return shift_tables(*shift_entries(kind, p), n_in, n_out)


def dense_shift_terms(kind, p):
    """The tables of :func:`fmmbem.harmonics.shift_terms` read off the three
    n = 1 translation operators, each assembled as a dense S x S matrix."""
    n, _ = H._slots(p)
    grids = np.where(n == 1, H.packed_regular(np.eye(3), p), 0.0)
    maps = H.translation_maps("m2m" if kind == "dipole" else "l2l", p)
    # 'local' stacks the three axes as row blocks (3S x S), 'dipole' as
    # column blocks (S x 3S)
    op = np.concatenate([H.assemble(g, maps) for g in H.signed_grid(grids)],
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


def multipole_shift_entries(p):
    """(rows, cols, values) of the multipole gradient shift: order p + 1 (input
    zero-padded from p) -> three order-(p+1) sets, duplicates unsummed."""
    return shift_entries("multipole", p + 1)


def multipole_shift_terms(p):
    """Index and weight tables of the multipole gradient shift, at most 2 terms."""
    size = num_coeffs(p + 1)
    return shift_tables(*multipole_shift_entries(p), size, 3 * size)


def translation_matrix(kind, d, p):
    """Dense packed ((p+1)^2, (p+1)^2) translation operator for offset d.

    kind: 'm2m' or 'l2l' (d = child_center - parent_center, applied as
    coeffs_new = coeffs_old @ T.T) or 'm2l' (d = target_center - source_center).
    """
    if kind not in ("m2m", "l2l", "m2l"):
        raise ValueError(f"unknown translation kind {kind!r}")
    d = np.asarray(d, dtype=float)[None, :]
    if kind == "m2l":
        grid = H.signed_grid(H.packed_irregular(d, 2 * p)[0])
    else:
        grid = H.signed_grid(H.packed_regular(d, p)[0])
    return H.assemble(grid, H.translation_maps(kind, p))


def particle_to_multipole(rel_pos, charges, p, dipoles=None):
    """Packed multipole coefficients of point charges (and optional dipoles).

    rel_pos: (N, 3) positions relative to the expansion center.
    charges: (..., N) weights, leading axes are broadcast channels.
    dipoles: optional (..., N, 3) dipole moments (normal-derivative sources).
    Returns coefficients shaped (..., (p+1)^2).
    """
    reg = H.packed_regular(rel_pos, p)
    coeffs = np.asarray(charges, dtype=float) @ reg
    if dipoles is not None:
        moments = np.swapaxes(np.asarray(dipoles, dtype=float), -1, -2) @ reg
        coeffs = coeffs + H.dipole_shift(moments, p)
    return coeffs


def multipole_to_point(coeffs, rel_pos, p, want_gradient=False):
    """Evaluate a packed multipole expansion at points relative to its center.

    coeffs: ((p+1)^2,) or (C, (p+1)^2); rel_pos: (N, 3).  Returns (N,) or
    (C, N) potentials and, if requested, gradients with a trailing 3-axis.
    """
    c = np.asarray(coeffs, dtype=float)
    q = p + 1 if want_gradient else p
    # sum_nm M_n^m conj(I_n^m) = sum_s w_s M_s I_s with w = 1 (m = 0), else 2
    _, m = H._slots(q)
    w = np.where(m == 0, 1.0, 2.0)
    padded = np.zeros(c.shape[:-1] + (num_coeffs(q),))
    padded[..., :num_coeffs(p)] = c
    rows = (padded * w)[..., None, :]
    if want_gradient:
        grad = H._apply_shift(padded, multipole_shift_terms(p), num_coeffs(q))
        rows = np.concatenate([rows, grad * w], axis=-2)
    return _field(rows @ H.packed_irregular(rel_pos, q).T, want_gradient)


def local_to_point(coeffs, rel_pos, p, want_gradient=False):
    """Evaluate a packed local expansion at points relative to its center."""
    rows = H.local_field_coeffs(np.asarray(coeffs, dtype=float), p, want_gradient)
    return _field(rows @ H.packed_regular(rel_pos, p).T, want_gradient)


def _field(values, want_gradient):
    """(..., k, N) field rows -> potential (..., N) and gradient (..., N, 3)."""
    if not want_gradient:
        return values[..., 0, :]
    return values[..., 0, :], np.moveaxis(values[..., 1:, :], -2, -1)


def multipole_error_bound(total_abs_charge, cluster_radius, distance, p):
    """Greengard-style truncation bound: sum|q| / (r - a) * (a/r)^(p+1)."""
    a, r = cluster_radius, distance
    if r <= a:
        raise ValueError("target must lie outside the cluster radius")
    return total_abs_charge / (r - a) * (a / r) ** (p + 1)
