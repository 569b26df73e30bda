"""Triangle quadrature rules and panel integration for collocation BEM.

Panels carry piecewise-constant densities and are collocated at centroids.
The operator layer treats each (target, panel) pair in one of three regimes:

* far: a coarse symmetric rule is enough (and is what the fast summation
  uses, treating Gauss points as independent point sources),
* near: a fine rule controls the nearly-singular error,
* singular: the target is the panel's own centroid; on a flat triangle the
  integrals of 1/r and of the stokeslet have closed forms, a sum of
  asinh and 1/rho terms over the three edges.
"""

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


def _edges(vertices):
    """Each triangle edge as seen from the centroid, in global coordinates.

    vertices: (P, 3, 3).  Edge e runs from vertex e to vertex e + 1.  Returns
    the unit tangent t and in-plane unit normal n, pointing from the centroid
    towards the edge's line, each (P, 3, 3); the distance d to that line and
    the ends s1 < s2 along t from the foot of the perpendicular, each (P, 3).
    """
    v = np.asarray(vertices, dtype=float)
    centroid, _, _ = panel_geometry(v)
    a = v - centroid[:, None]
    edge = np.roll(a, -1, axis=1) - a
    length = np.linalg.norm(edge, axis=2)
    t = edge / length[..., None]
    s1 = np.einsum("pei,pei->pe", a, t)
    foot = a - s1[..., None] * t
    d = np.linalg.norm(foot, axis=2)
    return t, foot / d[..., None], d, s1, s1 + length


def integrate_singular_laplace(vertices):
    """Integral of 1/(4 pi r) over triangles, singularity at each centroid.

    vertices: (P, 3, 3); returns (P,).  In closed form: each centroid-edge
    sub-triangle contributes d (asinh(s2/d) - asinh(s1/d)).
    """
    _, _, d, s1, s2 = _edges(vertices)
    return np.sum(d * (np.arcsinh(s2 / d) - np.arcsinh(s1 / d)), axis=1) / FOUR_PI


def integrate_singular_stokeslet(vertices):
    """(3, 3) integral of the bare stokeslet (I + u u^T)/r over each triangle.

    vertices: (P, 3, 3); returns (P, 3, 3).  In closed form: along an edge,
    u = cos(psi) n + sin(psi) t with tan(psi) = s/d, and each centroid-edge
    sub-triangle contributes d L I + d S n n^T + d (L - S) t t^T
    + d^2 Q (n t^T + t n^T), where L = asinh(s2/d) - asinh(s1/d),
    S = s2/rho2 - s1/rho1, Q = 1/rho1 - 1/rho2 and rho = sqrt(d^2 + s^2).
    """
    t, n, d, s1, s2 = _edges(vertices)
    rho1, rho2 = np.hypot(d, s1), np.hypot(d, s2)
    L = np.arcsinh(s2 / d) - np.arcsinh(s1 / d)
    S = s2 / rho2 - s1 / rho1
    Q = 1.0 / rho1 - 1.0 / rho2
    nt = np.einsum("pe,pei,pej->pij", d * d * Q, n, t)
    return (np.sum(d * L, axis=1)[:, None, None] * np.eye(3)
            + np.einsum("pe,pei,pej->pij", d * S, n, n)
            + np.einsum("pe,pei,pej->pij", d * (L - S), t, t)
            + nt + nt.transpose(0, 2, 1))
