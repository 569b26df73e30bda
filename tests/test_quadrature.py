"""Triangle rules and singular panel integrals."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from fmmbem import quadrature as Q
from fmmbem.kernels import FOUR_PI, KernelKind
from fmmbem.mesh import make_sphere

TRI = np.array([[0.0, 0.0, 0.0], [1.1, 0.1, 0.0], [0.3, 0.9, 0.0]])
# frozen independent value of the self integral of 1/(4 pi r) over TRI
# (Duffy-transform reference, converged to machine precision)
TRI_SELF_LAPLACE = 0.19057608110821253


def _bary_monomial_integral(i, j, k):
    """Exact integral of l1^i l2^j l3^k over the unit-area reference triangle."""
    from math import factorial
    return (2.0 * factorial(i) * factorial(j) * factorial(k)
            / factorial(i + j + k + 2))


@pytest.mark.parametrize("rule,degree", [(Q.FAR_RULE, 3), (Q.NEAR_RULE, 9)])
def test_rule_polynomial_exactness(rule, degree):
    """Each rule integrates barycentric monomials exactly to its degree."""
    assert np.isclose(rule.weights.sum(), 1.0, atol=1e-13)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            k = degree - i - j
            vals = rule.bary[:, 0] ** i * rule.bary[:, 1] ** j * rule.bary[:, 2] ** k
            approx = rule.weights @ vals
            assert np.isclose(approx, _bary_monomial_integral(i, j, k), atol=2e-13)


def test_panel_geometry_right_triangle():
    tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    c, n, a = (x[0] for x in Q.panel_geometry(tri[None]))
    np.testing.assert_allclose(c, [1 / 3, 1 / 3, 0])
    np.testing.assert_allclose(n, [0, 0, 1])
    assert np.isclose(a, 0.5)


def test_quadrature_points_integrate_area():
    pts, wts = (x[0] for x in Q.quadrature_points(TRI[None], Q.NEAR_RULE))
    c, _, area = (x[0] for x in Q.panel_geometry(TRI[None]))
    assert np.isclose(wts.sum(), area)
    # linear function integrated exactly
    f = pts @ np.array([1.0, 2.0, 3.0]) + 4.0
    assert np.isclose(wts @ f, area * (c @ [1.0, 2.0, 3.0] + 4.0))


def _duffy_reference(kind, tri, n=32):
    """Independent singularity-removing reference for the self integrals.

    Each centroid-vertex sub-triangle is mapped from the unit square by
    x = c + u (A - c) + u v (B - A); the Jacobian factor u cancels the 1/r
    singularity exactly.
    """
    c, _, area = (x[0] for x in Q.panel_geometry(tri[None]))
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    total = 0.0 if kind is KernelKind.LAPLACE_SINGLE else np.zeros((3, 3))
    for i in range(3):
        A, B = tri[i], tri[(i + 1) % 3]
        jac2 = np.linalg.norm(np.cross(A - c, B - A))
        for vk, wv in zip(u, wu):
            wdir = (A - c) + vk * (B - A)
            wlen = np.linalg.norm(wdir)
            what = wdir / wlen
            # r = u * wdir, so 1/r * jacobian(u) = u jac2 / (u wlen)
            if kind is KernelKind.LAPLACE_SINGLE:
                total += wv * np.sum(wu) * jac2 / wlen / FOUR_PI
            else:
                block = np.eye(3) + np.outer(what, what)
                total = total + wv * np.sum(wu) * jac2 / wlen * block
    return total


def test_singular_laplace_matches_frozen_oracle():
    val = Q.integrate_singular_laplace(TRI[None])[0]
    assert np.isclose(val, TRI_SELF_LAPLACE, rtol=1e-12)
    assert np.isclose(val, _duffy_reference(KernelKind.LAPLACE_SINGLE, TRI),
                      rtol=1e-12)


def test_singular_stokeslet_matches_duffy():
    val = Q.integrate_singular_stokeslet(TRI[None])[0]
    ref = _duffy_reference(KernelKind.STOKESLET, TRI)
    np.testing.assert_allclose(val, ref, rtol=1e-11, atol=1e-12)


def test_singular_stokeslet_rotation_covariance():
    rot = Rotation.from_rotvec([0.3, -0.7, 0.5])
    base = Q.integrate_singular_stokeslet(TRI[None])[0]
    rotated = Q.integrate_singular_stokeslet(rot.apply(TRI)[None])[0]
    R = rot.as_matrix()
    np.testing.assert_allclose(rotated, R @ base @ R.T, rtol=1e-12, atol=1e-14)


def test_singular_integrals_batch_over_panels():
    """One call over all panels equals one call per panel."""
    pv = make_sphere(3).panel_vertices
    for integrate in (Q.integrate_singular_laplace, Q.integrate_singular_stokeslet):
        batched = integrate(pv)
        single = np.array([integrate(pv[i:i + 1])[0] for i in range(len(pv))])
        assert batched.shape == single.shape == (len(pv),) + np.shape(single[0])
        np.testing.assert_allclose(batched, single, rtol=1e-14, atol=1e-14 * np.abs(single).max())
