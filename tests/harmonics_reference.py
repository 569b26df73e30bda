"""Reference definitions of the solid harmonics and of point expansions.

The package runs only the packed real forms of :mod:`fmmbem.harmonics`.
These are what the tests check them against: the complex harmonics
R_n^m and I_n^m as defined in that module's docstring, the translation
maps derived in complex arithmetic, a dense translation operator per
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


def translation_maps(kind, p):
    """The index maps of :func:`fmmbem.harmonics.translation_maps`, derived
    from the complex weights of the full coefficients."""
    q_of, conj, grid_nm = H._TRANSLATIONS[kind]
    size_q = num_coeffs(q_of(p))
    n_o, m_o = H._slots(p)
    o_mu = np.abs(m_o)[:, None]
    o_w = np.where(m_o < 0, -1j, 1.0)[:, None]   # P_r = Re(o_w c_(n, |m|))
    # column s = (n, m) of the packed input reads the full inputs (n, +-|m|)
    n_i, m_i = H._slots(p)
    maps = []
    for sgn in (1, -1):
        full_m = sgn * np.abs(m_i)
        _, (w1, w2) = H._full_terms(n_i, full_m)
        w_i = np.where(m_i < 0, w2, w1)
        present = (sgn > 0) | (m_i != 0)
        nu, mu = grid_nm(n_o[:, None], o_mu, n_i[None, :], full_m[None, :])
        valid = (nu >= 0) & (np.abs(mu) <= nu) & present[None, :]
        # grid entry g = g1 G[re_idx] + i g_im G[im_idx]
        (re_idx, im_idx), (g1, g2) = H._full_terms(np.where(valid, nu, 0),
                                                   np.where(valid, mu, 0))
        g_im = -g2.imag if conj else g2.imag
        u = o_w * w_i[None, :]                   # a unit: +-1 or +-i
        real_u = u.real != 0.0
        # Re(u g) is u g1 G[re_idx] for real u, -Im(u) g_im G[im_idx] otherwise
        sign = np.where(real_u, u.real * g1, -u.imag * g_im) * valid
        index = np.where(real_u, re_idx, im_idx)
        maps.append(np.where(sign > 0, index,
                             np.where(sign < 0, index + size_q, 2 * size_q)).astype(np.intp))
    return tuple(maps)


# d/dx_a of sum M_n^m conj(I_n^m(x)) is a multipole expansion one order up,
# as a rule of fmmbem.harmonics._SHIFTS
MULTIPOLE_SHIFT = (-1, [[(-1, 0.5), (1, -0.5)], [(-1, 0.5j), (1, 0.5j)], [(0, -1.0)]])


def multipole_shift_entries(p):
    """(rows, cols, values) of the multipole gradient shift: order p + 1 (input
    zero-padded from p) -> three order-(p+1) sets, duplicates unsummed."""
    return H._shift_entries(MULTIPOLE_SHIFT, p + 1, adjoint=False)


def multipole_shift_terms(p):
    """Index and weight tables of the multipole gradient shift, at most 2 terms."""
    size = num_coeffs(p + 1)
    return H._shift_tables(*multipole_shift_entries(p), size, 3 * size)


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
    T = H.assemble(grid, H.translation_maps(kind, p))
    return H.row_sign(p)[:, None] * T if kind == "m2l" else T


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
