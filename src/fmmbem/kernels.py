"""Point-to-point Green's function kernels and the sums built on them.

Laplace kernels carry the 1/(4 pi) factor of G = 1/(4 pi r).  The Stokes
kernels are prefactor-free (the -1/(8 pi mu) and 1/(8 pi) factors of the
boundary-integral formulation are applied by the operator layer).

:func:`direct_sum` contracts the pointwise kernels and is the independent
reference.  :func:`kernel_sum` is the only place where a kernel is split
into Laplace-type channels of the bare 1/r sum and recombined; the FMM or
the dense operator path evaluates the channels, four for either Stokes
kernel (the stresslet's of S = (f n^T + n f^T) / 2).  Every direct 1/r sum,
the FMM's P2P and the dense path alike, is one :func:`laplace_sum` over a
:func:`pair_geometry` of its block of targets.
:func:`rule_sums` gives the quadrature sums of several kernels over one
rule per target, the sums behind the operator's near-pair corrections.
"""

import enum
from typing import NamedTuple

import numpy as np

FOUR_PI = 4.0 * np.pi
# Targets per block of direct_sum
DIRECT_SUM_CHUNK = 2048
# Pairs whose expanded d^2 is within this fraction of the largest squared
# norms take theirs from differences.  The rest lie at least 1e-4 / 6e-8,
# some 1700 float32 roundings, above zero, so the single-precision expanded
# form keeps every one of them positive and a few digits accurate.
CLOSE_PAIR_CUTOFF = 1e-4


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


def rule_sums(kinds, targets, points, weights, normals=None):
    """Quadrature sums of the pointwise kernels above, one target and one rule per pair.

    targets (P, 3); points (P, 3, K), coordinate-major so that each
    coordinate of a pair's K points is contiguous; weights (P, K); normals
    (P, 3), the source normal of each pair.  Pair q sums weights[q, k] times
    the kernel between targets[q] and points[q, :, k] over k.  A point that
    coincides with its target contributes zero.  All kinds share one
    evaluation of the separations and inverse distances.  Returns one (P,)
    or (P, 3, 3) array per kind.
    """
    kinds = [KernelKind(k) for k in kinds]
    for kind in kinds:
        _check_normals(kind, normals)
    r = targets[:, :, None] - points
    d2 = np.einsum("qik,qik->qk", r, r)
    inv = np.zeros_like(d2)
    np.divide(1.0, np.sqrt(d2), out=inv, where=d2 > 0.0)
    w_inv = weights * inv
    w_inv3 = w_inv * inv * inv
    if any(kind.needs_normals for kind in kinds):
        rn = np.einsum("qik,qi->qk", r, normals)
    out = []
    for kind in kinds:
        if kind is KernelKind.LAPLACE_SINGLE:
            out.append(w_inv.sum(axis=1) / FOUR_PI)
        elif kind is KernelKind.LAPLACE_DOUBLE:
            out.append(np.einsum("qk,qk->q", w_inv3, rn) / FOUR_PI)
        elif kind is KernelKind.STOKESLET:
            block = _weighted_outer(r, w_inv3)
            block[:, np.arange(3), np.arange(3)] += w_inv.sum(axis=1)[:, None]
            out.append(block)
        else:
            out.append(_weighted_outer(r, 6.0 * w_inv3 * rn * inv * inv))
    return out


def _weighted_outer(r, a):
    """sum_k a[q, k] r[q, i, k] r[q, j, k], shape (P, 3, 3), as one batched matmul."""
    return (r * a[:, None, :]) @ r.transpose(0, 2, 1)


class PairGeometry(NamedTuple):
    """The part of a :func:`laplace_sum` that does not depend on the densities.

    All coordinates are relative to ``origin``, the mean of the targets:
    centring keeps the sum translation invariant and the cancellation in the
    expanded form of d^2 small.  ``xa`` holds the augmented centred targets
    [-2x, 1, |x|^2] as rows, so that d^2 = xa @ ya with ya the augmented
    centred sources [y; |y|^2; 1] as columns.  The expanded form loses
    relative accuracy for tiny separations, so the pairs within
    CLOSE_PAIR_CUTOFF, at flat indices ``close`` of the (Nt, Ns) pair
    matrix, carry their d^2 from differences in ``close_d2``, in float64 and
    infinite where target and source coincide.
    """

    origin: np.ndarray     # (3,)
    xa: np.ndarray         # (Nt, 5)
    close: np.ndarray      # (K,) flat pair indices
    close_d2: np.ndarray   # (K,)


def _target_rows(x):
    """Rows [-2x, 1, |x|^2] of centred targets x (Nt, 3), shape (Nt, 5)."""
    out = np.empty((len(x), 5))
    np.multiply(x, -2.0, out=out[:, :3])
    out[:, 3] = 1.0
    out[:, 4] = np.einsum("ni,ni->n", x, x)
    return out


def _source_columns(sources, origin, dtype=np.float64):
    """Columns [y; |y|^2; 1] of sources (Ns, 3) centred on origin, shape
    (5, Ns): coordinate-major, so that every pass runs along the sources.
    The centred sources, differences taken in float64 and stored as dtype,
    are its first three rows."""
    ya = np.empty((5, len(sources)), dtype)
    y = ya[:3]
    np.subtract(np.asarray(sources, dtype=float).T, origin[:, None], out=y,
                casting="same_kind")
    # (y0^2 + y2^2) + y1^2: the order of einsum's sum over the rows of a
    # (N, 3) array, so that a source's |y|^2 rounds as a target's |x|^2
    norm = np.multiply(y[0], y[0], out=ya[3])
    norm += y[2] * y[2]
    norm += y[1] * y[1]
    ya[4] = 1.0
    return ya


def pair_geometry(targets, sources):
    """The :class:`PairGeometry` of targets (Nt, 3) against sources (Ns, 3)."""
    targets = np.asarray(targets, dtype=float)
    origin = np.mean(targets, axis=0)
    x = targets - origin
    xa = _target_rows(x)
    ya = _source_columns(sources, origin)
    d2 = xa @ ya
    # the cutoff uses the largest norms, so it is never tighter than a
    # per-pair one
    cutoff = CLOSE_PAIR_CUTOFF * (np.max(xa[:, 4], initial=0.0) + np.max(ya[3], initial=0.0))
    close = np.flatnonzero(d2 <= cutoff)
    ti, si = np.divmod(close, ya.shape[1])
    diff = x[ti] - ya[:3, si].T
    dc = np.einsum("ki,ki->k", diff, diff)
    dc[dc == 0.0] = np.inf
    return PairGeometry(origin, xa, close, dc)


def _moment_about(channels, origin):
    """Channels whose last, the first moment sum_c y_c channel_c of the
    three before it, is taken about origin instead of about 0, in the
    channels' dtype."""
    out = np.array(channels)
    flat = out.reshape(len(out), -1)
    flat[3] -= origin @ flat[:3]
    return out


def laplace_sum(geo, sources, charges=None, dipoles=None, want_gradient=False,
                single=False, moment=False):
    """Bare sums of q / r + d . (x - y) / r^3, r = |x - y|, over all pairs.

    geo is the :func:`pair_geometry` of the targets against these sources
    (Ns, 3); charges (C, Ns) and dipoles (C, Ns, 3), either may be None, are
    C channels sharing one geometry.  Returns (C, Nt) potentials and
    (C, Nt, 3) gradients at the targets, the latter None unless
    want_gradient.  Coincident pairs contribute exactly zero.

    Charge potentials alone form 1/r in the squared distances' array.
    Otherwise the 1/r^k kernels take turns in one (Nt, Ns) array beside it:
    1/r^3 and 1/r^5 are formed in place once the lower power is no longer
    needed.  single=True forms the augmented coordinates, the densities and
    every (Nt, Ns) array in float32, the close pairs' d^2 rounded from
    float64; the per-target sums still accumulate into float64 outputs.

    moment=True says that channel 3 is the first moment of channels 0-2, as
    in :func:`kernel_sum`'s Stokes split.  In single precision that channel
    is then summed about geo.origin and moved back in float64, so that its
    cancellation in the recombination sees float32 rounding at the scale of
    the block, not of the distance to the coordinate origin.
    """
    if single and moment:
        o = geo.origin
        pot, grad = laplace_sum(geo, sources,
                                None if charges is None else _moment_about(charges, o),
                                None if dipoles is None else _moment_about(dipoles, o),
                                want_gradient, single=True)
        return (_moment_about(pot, -o),
                None if grad is None else _moment_about(grad, -o))
    dtype = np.float32 if single else np.float64
    ya = _source_columns(sources, geo.origin, dtype)
    y = ya[:3]
    d2 = geo.xa.astype(dtype, copy=False) @ ya
    np.put(d2, geo.close, geo.close_d2)
    nt, ns = d2.shape

    def gemm(rows):
        """sum_s rows[..., s] kern[t, s], shape (..., Nt): kern on the left,
        which runs the float32 GEMMs of a few rows about 1.3x faster."""
        return (kern @ rows.reshape(-1, ns).T).T.reshape(rows.shape[:-1] + (nt,))

    if charges is not None:
        charges = np.asarray(charges, dtype=dtype)
    if not want_gradient and dipoles is None:
        # charge potentials need 1/r alone, formed in d2's array
        kern = np.sqrt(d2, out=d2)
        np.divide(1.0, kern, out=kern)
        return gemm(charges).astype(float, copy=False), None
    inv2 = np.divide(1.0, d2, out=d2)
    kern = np.sqrt(inv2)
    x = -0.5 * geo.xa[:, :3]                     # exact

    def separation_sum(rows):
        """sum_s rows[..., s] (x_t - y_s) kern[t, s], shape (..., Nt, 3)."""
        stacked = np.empty((4,) + rows.shape, dtype)
        stacked[0] = rows
        np.multiply(rows, y.reshape((3,) + (1,) * (rows.ndim - 1) + (ns,)), out=stacked[1:])
        f = gemm(stacked)
        return f[0][..., None] * x - np.moveaxis(f[1:], 0, -1)

    C = len(charges if charges is not None else dipoles)
    pot = np.zeros((C, nt))
    grad = np.zeros((C, nt, 3)) if want_gradient else None
    if charges is not None:
        pot += gemm(charges)
    kern *= inv2                                  # 1/r^3
    if charges is not None and want_gradient:
        grad -= separation_sum(charges)
    if dipoles is not None:
        # d . (x - y) = xh . m with xh = (x, 1) and m = (d, -d . y), d . y
        # summed in the order of the source norms
        m = np.empty((4,) + dipoles.shape[:-1], dtype)
        m[:3] = np.moveaxis(dipoles, -1, 0)
        dy = np.multiply(m[0], y[0], out=m[3])
        dy += m[2] * y[2]
        dy += m[1] * y[1]
        np.negative(dy, out=dy)
        xh = np.column_stack([x, geo.xa[:, 3]])
        b = gemm(m)
        pot += np.einsum("kct,tk->ct", b, xh)
        if want_gradient:
            # grad of d . r / r^3 is d / r^3 - 3 (d . r) r / r^5
            kern *= inv2                          # 1/r^5
            grad += np.moveaxis(b[:3], 0, -1)
            grad -= 3.0 * np.einsum("kctj,tk->ctj", separation_sum(m), xh)
    return pot, grad


def _check_normals(kind, normals):
    if kind.needs_normals and normals is None:
        raise ValueError(f"{kind.value} requires source normals")


def kernel_sum(kind, channel_sum, src_pos, weights, targets, normals=None):
    """The sum of :func:`direct_sum`, evaluated as Laplace-type channels.

    Same arguments and result as :func:`direct_sum`, plus channel_sum, the
    bare 1/r evaluator: channel_sum(charges, dipoles, want_gradient, moment)
    takes charges (C, Ns) and dipoles (C, Ns, 3), either may be None, and
    returns (C, Nt) potentials at the targets and (C, Nt, 3) gradients, the
    latter None unless want_gradient, like :func:`laplace_sum`.  A Laplace
    kernel is one channel.  The stokeslet is four charge potentials, of f and
    y . f, the stresslet four dipole potentials, of 2 S e_c and 2 S y with
    S = (f n^T + n f^T) / 2; both give u_i = phi_i - x_c d_i phi_c + d_i psi
    from their values and gradients (Tornberg & Greengard, JCP 2008).  Their
    last channel, the first moment of the others, goes with moment=True.
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
    y = np.asarray(src_pos, dtype=float)
    yf = np.einsum("si,si->s", y, f)
    if kind is KernelKind.STOKESLET:
        # charge potentials phi_c (charges f_c) and psi (y . f)
        pot, grad = channel_sum(np.vstack([f.T, yf]), None, True, moment=True)
    else:
        # 6 r_i (r . f)(r . n) / r^5 sees f and n only through r^T S r;
        # phi_c of moments 2 S e_c = f n_c + n f_c and psi of 2 S y give
        # x_c phi_c - psi = sum 2 r^T S r / r^3, whose gradient yields u
        yn = np.einsum("si,si->s", y, n)
        dip = np.empty((4, len(f), 3))
        for c in range(3):
            dip[c] = f * n[:, c:c + 1] + n * f[:, c:c + 1]
        dip[3] = yn[:, None] * f + yf[:, None] * n
        pot, grad = channel_sum(None, dip, True, moment=True)
    u = pot[:3].T.copy()
    u -= np.einsum("tc,cti->ti", x, grad[:3])
    u += grad[3]
    return u


def direct_sum(kind, src_pos, weights, targets, normals=None):
    """Direct O(N_t * N_s) kernel sum of the pointwise kernels above.

    weights: (Ns,) scalar charges for Laplace kernels, (Ns, 3) strengths for
    Stokes kernels.  normals: (Ns, 3), required for double-layer/stresslet.
    Returns (Nt,) potentials or (Nt, 3) velocities.  Targets go in blocks of
    DIRECT_SUM_CHUNK; a target that coincides with a source raises ValueError.
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
    for lo in range(0, len(tgt), DIRECT_SUM_CHUNK):
        t = tgt[lo:lo + DIRECT_SUM_CHUNK, None]
        try:
            k = kernel(t, *args)
        except ValueError:
            hits = np.argwhere(np.linalg.norm(t - src, axis=-1) == 0.0)
            if not len(hits):
                raise
            ti, si = hits[0]
            raise ValueError(f"coincident pair: target {lo + ti}, source {si}") from None
        out[lo:lo + len(t)] = k @ w if kind.scalar else np.einsum("tsij,sj->ti", k, w)
    return out
