"""Point-to-point Green's function kernels and the sums built on them.

Laplace kernels carry the 1/(4 pi) factor of G = 1/(4 pi r).  The Stokes
kernels are prefactor-free (the -1/(8 pi mu) and 1/(8 pi) factors of the
boundary-integral formulation are applied by the operator layer).

:func:`direct_sum` contracts the pointwise kernels and is the independent
reference.  :func:`kernel_sum` is the only place where a kernel is split
into Laplace-type channels of the bare 1/r sum, which :func:`laplace_sum`,
the FMM or the dense operator path evaluate, and recombined.
"""

import enum
from typing import NamedTuple

import numpy as np

FOUR_PI = 4.0 * np.pi


class KernelKind(enum.Enum):
    LAPLACE_SINGLE = "laplace_single"
    LAPLACE_DOUBLE = "laplace_double"
    STOKESLET = "stokeslet"
    STRESSLET = "stresslet"

    @property
    def scalar(self):
        """True for the Laplace kernels: scalar weights and potentials."""
        return self in (KernelKind.LAPLACE_SINGLE, KernelKind.LAPLACE_DOUBLE)

    @property
    def needs_normals(self):
        """True for the double-layer kernels, which take source normals."""
        return self in (KernelKind.LAPLACE_DOUBLE, KernelKind.STRESSLET)


def _separation(x_t, x_s):
    r = np.asarray(x_t, dtype=float) - np.asarray(x_s, dtype=float)
    dist = np.linalg.norm(r, axis=-1)
    if np.any(dist == 0.0):
        raise ValueError("coincident source and target")
    return r, dist


def laplace_single(x_t, x_s):
    """1 / (4 pi |x_t - x_s|)."""
    _, dist = _separation(x_t, x_s)
    return 1.0 / (FOUR_PI * dist)


def laplace_double(x_t, x_s, normal_s):
    """(x_t - x_s) . n_s / (4 pi r^3), the normal derivative of G at the source."""
    r, dist = _separation(x_t, x_s)
    return np.sum(r * np.asarray(normal_s, dtype=float), axis=-1) / (FOUR_PI * dist ** 3)


def stokeslet(x_t, x_s):
    """3x3 stokeslet block delta_ij / r + r_i r_j / r^3."""
    r, dist = _separation(x_t, x_s)
    eye = np.eye(3)
    outer = np.einsum("...i,...j->...ij", r, r)
    shape = np.shape(dist)
    return eye / dist.reshape(shape + (1, 1)) + outer / (dist ** 3).reshape(shape + (1, 1))


def stresslet_contracted(x_t, x_s, normal_s):
    """3x3 block of the stresslet contracted with the source normal:
    6 r_i r_j (r . n) / r^5."""
    r, dist = _separation(x_t, x_s)
    rn = np.sum(r * np.asarray(normal_s, dtype=float), axis=-1)
    outer = np.einsum("...i,...j->...ij", r, r)
    shape = np.shape(dist)
    return 6.0 * outer * rn.reshape(shape + (1, 1)) / (dist ** 5).reshape(shape + (1, 1))


class PairGeometry(NamedTuple):
    """The part of a :func:`laplace_sum` that does not depend on the densities.

    All coordinates are relative to ``origin``, the mean of the targets:
    centring keeps the sum translation invariant and the cancellation in the
    expanded form of d^2 small.  ``xa`` holds the augmented centred targets
    [x, 1, |x|^2], so that d^2 = xa @ [-2y, |y|^2, 1].T.  The expanded form
    loses relative accuracy for tiny separations, so the pairs within a
    cutoff, at flat indices ``close`` of the (Nt, Ns) pair matrix, carry
    their d^2 from differences in ``close_d2``, infinite where target and
    source coincide.
    """

    origin: np.ndarray     # (3,)
    xa: np.ndarray         # (Nt, 5)
    close: np.ndarray      # (K,) flat pair indices
    close_d2: np.ndarray   # (K,)


def _augmented(z, scale, ones_first):
    """Rows [scale * z, 1, |z|^2] (ones_first) or [scale * z, |z|^2, 1]."""
    out = np.empty((len(z), 5))
    np.multiply(z, scale, out=out[:, :3])
    out[:, 4 if ones_first else 3] = np.einsum("ni,ni->n", z, z)
    out[:, 3 if ones_first else 4] = 1.0
    return out


def _find_geometry(targets, sources):
    """PairGeometry of targets against sources, the centred sources and the
    unpatched d^2 the close pairs were found in."""
    origin = np.mean(targets, axis=0)
    xa = _augmented(np.asarray(targets, dtype=float) - origin, 1.0, ones_first=True)
    y = np.asarray(sources, dtype=float) - origin
    ya = _augmented(y, -2.0, ones_first=False)
    d2 = xa @ ya.T
    # the cutoff uses the largest norms, so it is never tighter than a
    # per-pair one
    cutoff = 1e-10 * (np.max(xa[:, 4], initial=0.0) + np.max(ya[:, 3], initial=0.0))
    close = np.flatnonzero(d2 <= cutoff)
    ti, si = np.divmod(close, len(y))
    diff = xa[ti, :3] - y[si]
    dc = np.einsum("ki,ki->k", diff, diff)
    dc[dc == 0.0] = np.inf
    return PairGeometry(origin, xa, close, dc), y, d2


def pair_geometry(targets, sources):
    """The :class:`PairGeometry` of targets (Nt, 3) against sources (Ns, 3)."""
    return _find_geometry(targets, sources)[0]


def laplace_sum(targets, sources, charges=None, dipoles=None, want_gradient=False):
    """Bare sums of q / r + d . (x - y) / r^3, r = |x - y|, over all pairs.

    targets (Nt, 3), or their :func:`pair_geometry` against these sources,
    which skips the search for close pairs; sources (Ns, 3); charges (C, Ns)
    and dipoles (C, Ns, 3), either may be None, are C channels sharing one
    geometry.  Returns (C, Nt) potentials and (C, Nt, 3) gradients at the
    targets, the latter None unless want_gradient.  Coincident pairs
    contribute exactly zero.
    """
    if isinstance(targets, PairGeometry):
        geo = targets
        y = np.asarray(sources, dtype=float) - geo.origin
        d2 = geo.xa @ _augmented(y, -2.0, ones_first=False).T
    else:
        geo, y, d2 = _find_geometry(targets, sources)
    np.put(d2, geo.close, geo.close_d2)
    x = geo.xa[:, :3]
    inv2 = np.divide(1.0, d2, out=d2)
    inv = np.sqrt(inv2)
    nt, ns = inv.shape

    def gemm(rows, kern):
        """sum_s rows[..., s] kern[t, s], shape (..., Nt)."""
        return (rows.reshape(-1, ns) @ kern.T).reshape(rows.shape[:-1] + (nt,))

    def separation_sum(rows, kern):
        """sum_s rows[..., s] (x_t - y_s) kern[t, s], shape (..., Nt, 3)."""
        f = gemm(np.stack([rows] + [rows * y[:, j] for j in range(3)]), kern)
        return f[0][..., None] * x - np.moveaxis(f[1:], 0, -1)

    C = len(charges if charges is not None else dipoles)
    pot = np.zeros((C, nt))
    grad = np.zeros((C, nt, 3)) if want_gradient else None
    if charges is not None:
        pot += gemm(charges, inv)
    if not want_gradient and dipoles is None:
        return pot, grad
    inv3 = inv * inv2
    if charges is not None and want_gradient:
        grad -= separation_sum(charges, inv3)
    if dipoles is not None:
        # d . (x - y) = xh . m with xh = (x, 1) and m = (d, -d . y)
        m = np.concatenate([np.moveaxis(dipoles, -1, 0),
                            -np.einsum("csi,si->cs", dipoles, y)[None]])
        xh = geo.xa[:, :4]
        b = gemm(m, inv3)
        pot += np.einsum("kct,tk->ct", b, xh)
        if want_gradient:
            # grad of d . r / r^3 is d / r^3 - 3 (d . r) r / r^5
            inv5 = inv3 * inv2
            grad += np.moveaxis(b[:3], 0, -1)
            grad -= 3.0 * np.einsum("kctj,tk->ctj", separation_sum(m, inv5), xh)
    return pot, grad


def _check_normals(kind, normals):
    if kind.needs_normals and normals is None:
        raise ValueError(f"{kind.value} requires source normals")


def kernel_sum(kind, channel_sum, src_pos, weights, targets, normals=None):
    """The sum of :func:`direct_sum`, evaluated as Laplace-type channels.

    Same arguments and result as :func:`direct_sum`, plus channel_sum, the
    bare 1/r evaluator: channel_sum(charges, dipoles, want_gradient) takes
    charges (C, Ns) and dipoles (C, Ns, 3), either may be None, and returns
    (C, Nt) potentials at the targets and (C, Nt, 3) gradients, the latter
    None unless want_gradient, like :func:`laplace_sum`.  A Laplace kernel
    is one channel.  The stokeslet is four charge potentials and the
    stresslet seven dipole potentials, recombined from their values and
    gradients at the targets (Tornberg & Greengard, JCP 2008).
    """
    kind = KernelKind(kind)
    _check_normals(kind, normals)
    f = np.asarray(weights, dtype=float)
    if kind is KernelKind.LAPLACE_SINGLE:
        return channel_sum(f[None], None, False)[0][0] / FOUR_PI
    n = None if normals is None else np.asarray(normals, dtype=float)
    if kind is KernelKind.LAPLACE_DOUBLE:
        return channel_sum(None, (f[:, None] * n)[None], False)[0][0] / FOUR_PI
    x = np.asarray(targets, dtype=float)
    yf = np.einsum("si,si->s", np.asarray(src_pos, dtype=float), f)
    if kind is KernelKind.STOKESLET:
        # phi_c = sum f_c / r and psi = sum (y . f) / r give
        # u_i = phi_i - x_c d_i phi_c + d_i psi
        pot, grad = channel_sum(np.vstack([f.T, yf]), None, True)
        u = pot[:3].T.copy()
        u -= np.einsum("tc,cti->ti", x, grad[:3])
        u += grad[3]
        return u
    # dipole potentials Phi_c (moments f_c n), Lambda_c (n_c f) and
    # Psi ((y . f) n) give u_i = 2 Lambda_i - 2 x_c d_i Phi_c + 2 d_i Psi
    dip = np.empty((7, len(f), 3))
    for c in range(3):
        dip[c] = f[:, c:c + 1] * n
        dip[3 + c] = n[:, c:c + 1] * f
    dip[6] = yf[:, None] * n
    pot, grad = channel_sum(None, dip, True)
    u = 2.0 * pot[3:6].T
    u -= 2.0 * np.einsum("tc,cti->ti", x, grad[:3])
    u += 2.0 * grad[6]
    return u


def direct_sum(kind, src_pos, weights, targets, normals=None, chunk=2048):
    """Direct O(N_t * N_s) kernel sum of the pointwise kernels above.

    weights: (Ns,) scalar charges for Laplace kernels, (Ns, 3) strengths for
    Stokes kernels.  normals: (Ns, 3), required for double-layer/stresslet.
    Returns (Nt,) potentials or (Nt, 3) velocities.  Targets go in blocks of
    chunk; a target that coincides with a source raises ValueError.
    """
    kind = KernelKind(kind)
    _check_normals(kind, normals)
    src = np.atleast_2d(np.asarray(src_pos, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    w = np.asarray(weights, dtype=float)
    kernel = {KernelKind.LAPLACE_SINGLE: laplace_single,
              KernelKind.LAPLACE_DOUBLE: laplace_double,
              KernelKind.STOKESLET: stokeslet,
              KernelKind.STRESSLET: stresslet_contracted}[kind]
    args = (src[None], np.asarray(normals, dtype=float)) if kind.needs_normals else (src[None],)
    out = np.zeros(len(tgt)) if kind.scalar else np.zeros((len(tgt), 3))
    for lo in range(0, len(tgt), chunk):
        t = tgt[lo:lo + chunk, None]
        try:
            k = kernel(t, *args)
        except ValueError:
            hits = np.argwhere(np.linalg.norm(t - src, axis=-1) == 0.0)
            if not len(hits):
                raise
            ti, si = hits[0]
            raise ValueError(f"coincident pair: target {lo + ti}, source {si}") from None
        out[lo:lo + chunk] = k @ w if kind.scalar else np.einsum("tsij,sj->ti", k, w)
    return out
