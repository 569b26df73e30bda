"""Point kernels and the direct reference sum."""

import functools

import numpy as np
import pytest

from fmmbem import kernels as K

RNG = np.random.default_rng(11)


def test_laplace_single_value():
    assert np.isclose(K.laplace_single([1.0, 0, 0], [0, 0, 0]),
                      1.0 / (4.0 * np.pi))


def test_laplace_double_is_radial_derivative():
    """d/dn_s of G along the separation direction equals 1/(4 pi r^2)."""
    x_t, x_s = np.array([2.0, 0, 0]), np.zeros(3)
    n = np.array([1.0, 0, 0])
    assert np.isclose(K.laplace_double(x_t, x_s, n), 1.0 / (4.0 * np.pi * 4.0))


def test_stokeslet_symmetry_and_scaling():
    r = RNG.normal(size=3)
    G = K.stokeslet(r, np.zeros(3))
    np.testing.assert_allclose(G, G.T)
    G2 = K.stokeslet(2.0 * r, np.zeros(3))
    np.testing.assert_allclose(G2, G / 2.0, rtol=1e-12)


def test_stresslet_contracted_form():
    x_t, x_s = np.array([0.0, 0, 1.5]), np.zeros(3)
    n = np.array([0.0, 0, 1.0])
    T = K.stresslet_contracted(x_t, x_s, n)
    r = x_t - x_s
    d = np.linalg.norm(r)
    expected = 6.0 * np.outer(r, r) * (r @ n) / d ** 5
    np.testing.assert_allclose(T, expected)


def test_coincident_raises():
    with pytest.raises(ValueError):
        K.laplace_single([0.0, 0, 0], [0.0, 0, 0])
    with pytest.raises(ValueError):
        K.direct_sum(K.KernelKind.LAPLACE_SINGLE, [[0.0, 0, 0]], [1.0], [[0.0, 0, 0]])


@pytest.mark.parametrize("kind", [K.KernelKind.LAPLACE_DOUBLE, K.KernelKind.STRESSLET])
def test_double_layer_kernels_require_normals(kind):
    src, tgt = RNG.uniform(-1, 1, size=(4, 3)), RNG.uniform(2, 3, size=(2, 3))
    w = RNG.uniform(-1, 1, size=4 if kind.scalar else (4, 3))
    with pytest.raises(ValueError, match="normals"):
        K.direct_sum(kind, src, w, tgt)
    with pytest.raises(ValueError, match="normals"):
        K.kernel_sum(kind, None, src, w, tgt)


@pytest.mark.parametrize("kind", list(K.KernelKind))
def test_direct_sum_matches_loop(kind):
    ns, nt = 17, 5
    src = RNG.uniform(-1, 1, size=(ns, 3))
    tgt = RNG.uniform(2, 3, size=(nt, 3))
    normals = RNG.normal(size=(ns, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    scalar = kind in (K.KernelKind.LAPLACE_SINGLE, K.KernelKind.LAPLACE_DOUBLE)
    w = RNG.uniform(-1, 1, size=ns if scalar else (ns, 3))
    out = K.direct_sum(kind, src, w, tgt, normals=normals)
    for t in range(nt):
        acc = 0.0 if scalar else np.zeros(3)
        for s in range(ns):
            if kind is K.KernelKind.LAPLACE_SINGLE:
                acc += w[s] * K.laplace_single(tgt[t], src[s])
            elif kind is K.KernelKind.LAPLACE_DOUBLE:
                acc += w[s] * K.laplace_double(tgt[t], src[s], normals[s])
            elif kind is K.KernelKind.STOKESLET:
                acc = acc + K.stokeslet(tgt[t], src[s]) @ w[s]
            else:
                acc = acc + K.stresslet_contracted(tgt[t], src[s], normals[s]) @ w[s]
        np.testing.assert_allclose(out[t], acc, rtol=1e-12, atol=1e-14)


def test_direct_sum_chunking_invariant():
    src = RNG.uniform(-1, 1, size=(40, 3))
    tgt = RNG.uniform(2, 3, size=(33, 3))
    q = RNG.uniform(-1, 1, size=40)
    a = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src, q, tgt, chunk=7)
    b = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src, q, tgt, chunk=1000)
    np.testing.assert_allclose(a, b, rtol=1e-15)


@pytest.mark.parametrize("kind", list(K.KernelKind))
def test_laplace_sum_matches_direct_sum(kind):
    # separated clouds: with close pairs the expanded forms of laplace_sum
    # and the differences of direct_sum round differently by ~(extent/r)^2
    ns, nt = 300, 40
    src = RNG.uniform(-1, 1, size=(ns, 3))
    tgt = RNG.uniform(2, 3, size=(nt, 3))
    normals = RNG.normal(size=(ns, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    scalar = kind in (K.KernelKind.LAPLACE_SINGLE, K.KernelKind.LAPLACE_DOUBLE)
    w = RNG.uniform(-1, 1, size=ns if scalar else (ns, 3))
    ref = K.direct_sum(kind, src, w, tgt, normals=normals)
    # the program's channel split, over laplace_sum of all pairs
    val = K.kernel_sum(kind, functools.partial(K.laplace_sum, tgt, src), src, w, tgt, normals)
    np.testing.assert_allclose(val, ref, rtol=1e-12, atol=1e-14)


def test_laplace_sum_coincident_pair_is_zero():
    x = np.array([[0.3, -1.2, 2.5]])
    pot, grad = K.laplace_sum(x, x, charges=np.array([[2.0]]),
                              dipoles=np.array([[[0.5, -1.0, 0.25]]]), want_gradient=True)
    assert np.all(pot == 0.0) and np.all(grad == 0.0)
    # among other sources, the coincident one drops out of the sum
    src = np.vstack([RNG.uniform(-1, 1, size=(20, 3)), x])
    q = RNG.uniform(-1, 1, size=21)
    val = K.laplace_sum(x, src, charges=q[None])[0][0]
    ref = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src[:20], q[:20], x) * K.FOUR_PI
    np.testing.assert_allclose(val, ref, rtol=1e-12)


def test_laplace_sum_translation_invariant():
    src = RNG.uniform(-1, 1, size=(200, 3))
    tgt = RNG.uniform(-1, 1, size=(30, 3))
    q = RNG.uniform(-1, 1, size=(2, 200))
    dip = RNG.uniform(-1, 1, size=(2, 200, 3))
    shift = np.array([1e3, -1e3, 1e3])
    pot, grad = K.laplace_sum(tgt, src, q, dip, want_gradient=True)
    pot_s, grad_s = K.laplace_sum(tgt + shift, src + shift, q, dip, want_gradient=True)
    # shifted coordinates round at 1e3 * eps, so compare on the output scale
    assert np.abs(pot_s - pot).max() <= 1e-10 * np.abs(pot).max()
    assert np.abs(grad_s - grad).max() <= 1e-10 * np.abs(grad).max()
