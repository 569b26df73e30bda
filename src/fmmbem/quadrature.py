"""Triangle quadrature rules and panel integration for collocation BEM.

Panels carry piecewise-constant densities and are collocated at centroids.
The operator layer treats each (target, panel) pair in one of three regimes:

* far: a coarse symmetric rule is enough (and is what the fast summation
  uses, treating Gauss points as independent point sources),
* near: a fine rule controls the nearly-singular error,
* singular: the target is the panel's own centroid; the kernel is integrated
  in polar coordinates about it, radially exact for the 1/r singularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FOUR_PI


@dataclass(frozen=True)
class TriangleRule:
    """Quadrature rule in barycentric coordinates; weights sum to one."""

    bary: np.ndarray     # (K, 3)
    weights: np.ndarray  # (K,)

    @property
    def n_points(self):
        return len(self.weights)


def _sym3(a):
    """The three cyclic permutations of (a, a, 1 - 2a)."""
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


def _sym6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _make_far_rule():
    # symmetric 4-point rule, degree 3, centroid first
    pts = [(1 / 3, 1 / 3, 1 / 3)] + _sym3(0.2)
    wts = [-27 / 48] + [25 / 48] * 3
    return TriangleRule(np.array(pts), np.array(wts))


def _make_near_rule():
    # 19-point symmetric rule, degree 9
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [0.097135796282799]
    for a, w in [
        (0.489682519198738, 0.031334700227139),
        (0.437089591492937, 0.077827541004774),
        (0.188203535619033, 0.079647738927210),
        (0.044729513394453, 0.025577675658698),
    ]:
        pts += _sym3(a)
        wts += [w] * 3
    pts += _sym6(0.741198598784498, 0.036838412054736)
    wts += [0.043283539377289] * 6
    return TriangleRule(np.array(pts), np.array(wts))


FAR_RULE = _make_far_rule()
NEAR_RULE = _make_near_rule()


# Gauss-Legendre nodes and weights of the angular rule on each
# centroid-vertex sub-triangle of a singular panel integral
SINGULAR_GAUSS = 32
_ANGULAR_RULE = np.polynomial.legendre.leggauss(SINGULAR_GAUSS)
# panels per block of the batched singular rules: a (block, 3, SINGULAR_GAUSS)
# temporary stays under 0.5 MB, so set-up leaves no freed gap in the heap
SINGULAR_CHUNK = 256


def panel_geometry(vertices):
    """(centroid, unit normal, area) of triangles, shaped (P, 3), (P, 3), (P,).

    vertices: (P, 3, 3); normal follows the right-hand rule on the vertex
    ordering.
    """
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=1)
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    norm = np.linalg.norm(cross, axis=1)
    if np.any(norm == 0.0):
        raise ValueError("degenerate triangle")
    normal = cross / norm[:, None]
    area = 0.5 * norm
    return centroid, normal, area


def quadrature_points(vertices, rule):
    """Physical quadrature points and weights (including the panel area).

    vertices: (P, 3, 3).  Returns points (P, K, 3) and weights (P, K) such
    that sum(w_k f(x_k)) approximates the surface integral.
    """
    v = np.asarray(vertices, dtype=float)
    _, _, area = panel_geometry(v)
    pts = np.einsum("kc,pcd->pkd", rule.bary, v)
    wts = area[:, None] * rule.weights[None, :]
    return pts, wts


def _local_frame(vertices):
    """Orthonormal frames (e1, e2, n) and in-plane vertex coords about the centroids.

    vertices: (P, 3, 3).  Returns frames (P, 3, 3) with rows e1, e2, n and
    uv (P, 3, 2).
    """
    v = np.asarray(vertices, dtype=float)
    centroid, normal, _ = panel_geometry(v)
    e1 = v[:, 1] - v[:, 0]
    e1 -= np.einsum("pi,pi->p", e1, normal)[:, None] * normal
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(normal, e1)
    rel = v - centroid[:, None]
    uv = np.stack([np.einsum("pki,pi->pk", rel, e1), np.einsum("pki,pi->pk", rel, e2)], axis=2)
    return np.stack([e1, e2, normal], axis=1), uv


def _polar_subtriangles(uv):
    """Angular Gauss nodes, weights and radial extents around the origin.

    uv: (P, 3, 2) in-plane vertices of triangles containing the origin.
    Returns, per panel and centroid-vertex sub-triangle, the angles phi_k,
    quadrature weights, and the distance R(phi_k) to the opposite edge, each
    shaped (P, 3, SINGULAR_GAUSS).
    """
    x, w = _ANGULAR_RULE
    a, b = uv, np.roll(uv, -1, axis=1)
    ta = np.arctan2(a[..., 1], a[..., 0])
    tb = np.arctan2(b[..., 1], b[..., 0])
    tb = np.where(tb <= ta, tb + 2.0 * math.pi, tb)
    half = (0.5 * (tb - ta))[..., None]
    phi = half * x + (0.5 * (tb + ta))[..., None]
    wphi = half * w
    edge = b - a
    n_e = np.stack([edge[..., 1], -edge[..., 0]], axis=-1)
    n_e /= np.linalg.norm(n_e, axis=-1, keepdims=True)
    d_e = np.einsum("psi,psi->ps", n_e, a)
    n_e *= np.where(d_e < 0.0, -1.0, 1.0)[..., None]
    cosfac = np.cos(phi) * n_e[..., 0, None] + np.sin(phi) * n_e[..., 1, None]
    return phi, wphi, np.abs(d_e)[..., None] / cosfac


def _over_blocks(block_fn, vertices):
    """block_fn over (P, 3, 3) vertices, SINGULAR_CHUNK panels at a time."""
    v = np.asarray(vertices, dtype=float)
    return np.concatenate([block_fn(v[lo:lo + SINGULAR_CHUNK])
                           for lo in range(0, len(v), SINGULAR_CHUNK)])


def _laplace_block(v):
    _, uv = _local_frame(v)
    _, wphi, R = _polar_subtriangles(uv)
    return np.einsum("psk,psk->p", wphi, R) / FOUR_PI


def _stokeslet_block(v):
    frame, uv = _local_frame(v)
    phi, wphi, R = _polar_subtriangles(uv)
    wr = wphi * R
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    # flat panel: r has no normal component, so the n-n entry stays I * scalar
    local = wr.sum(axis=(1, 2))[:, None, None] * np.eye(3)
    local[:, :2, :2] += np.einsum("psk,pski,pskj->pij", wr, u, u)
    return np.einsum("pai,pab,pbj->pij", frame, local, frame)


def integrate_singular_laplace(vertices):
    """Integral of 1/(4 pi r) over triangles, singularity at each centroid.

    vertices: (P, 3, 3); returns (P,).  Radial integration is exact; the
    angular factor R(phi) is integrated by Gauss-Legendre on three
    centroid-vertex sub-triangles.
    """
    return _over_blocks(_laplace_block, vertices)


def integrate_singular_stokeslet(vertices):
    """(3, 3) integral of the bare stokeslet over each triangle.

    vertices: (P, 3, 3); returns (P, 3, 3).  In the panel plane
    G = (I + u u^T)/r with u the in-plane unit direction, so the radial
    integral is R(phi) (I + u u^T); the result is rotated back to global axes.
    """
    return _over_blocks(_stokeslet_block, vertices)
