"""Point kernels and the direct reference sum."""

import functools

import numpy as np
import pytest

import operator_reference as OR
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


def test_direct_sum_chunking_invariant(monkeypatch):
    src = RNG.uniform(-1, 1, size=(40, 3))
    tgt = RNG.uniform(2, 3, size=(33, 3))
    q = RNG.uniform(-1, 1, size=40)
    monkeypatch.setattr(K, "DIRECT_SUM_CHUNK", 7)
    a = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src, q, tgt)
    monkeypatch.setattr(K, "DIRECT_SUM_CHUNK", 1000)
    b = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src, q, tgt)
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
    geo = K.pair_geometry(tgt, src)
    val = K.kernel_sum(kind, functools.partial(K.laplace_sum, geo, src), src, w, tgt, normals)
    np.testing.assert_allclose(val, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind, charges, dipoles", [
    (K.KernelKind.STOKESLET, (4, 9), None),
    (K.KernelKind.STRESSLET, None, (4, 9, 3)),
])
def test_stokes_kernels_take_four_channels_in_one_call(kind, charges, dipoles):
    """The stokeslet is four charge channels and the stresslet four dipole
    channels, of 2 S e_c and 2 S y, each with gradients, in one call that
    marks the last channel as the first moment of the others."""
    src, tgt = RNG.uniform(-1, 1, size=(9, 3)), RNG.uniform(2, 3, size=(5, 3))
    normals = RNG.normal(size=(9, 3))
    geo = K.pair_geometry(tgt, src)
    calls = []

    def spy(q, d, want_gradient, moment=False):
        calls.append((None if q is None else q.shape, None if d is None else d.shape,
                      want_gradient, moment))
        return K.laplace_sum(geo, src, q, d, want_gradient)

    K.kernel_sum(kind, spy, src, RNG.uniform(-1, 1, size=(9, 3)), tgt, normals)
    assert calls == [(charges, dipoles, True, True)]


@pytest.mark.parametrize("kind", [K.KernelKind.STOKESLET, K.KernelKind.STRESSLET])
def test_stokes_kernel_sum_drops_coincident_source(kind):
    """A target that coincides with a source gets the direct sum over the
    other sources: the recombined channels carry nothing of the pair."""
    src = RNG.uniform(-1, 1, size=(60, 3))
    tgt = np.vstack([src[17], RNG.uniform(2, 3, size=(8, 3))])
    normals = RNG.normal(size=(60, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    w = RNG.uniform(-1, 1, size=(60, 3))
    val = K.kernel_sum(kind, functools.partial(K.laplace_sum, K.pair_geometry(tgt, src), src),
                       src, w, tgt, normals)
    others = np.arange(60) != 17
    ref = np.vstack([
        K.direct_sum(kind, src[others], w[others], tgt[:1], normals[others]),
        K.direct_sum(kind, src, w, tgt[1:], normals)])
    assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()


def test_laplace_sum_coincident_pair_is_zero():
    x = np.array([[0.3, -1.2, 2.5]])
    pot, grad = K.laplace_sum(K.pair_geometry(x, x), x, charges=np.array([[2.0]]),
                              dipoles=np.array([[[0.5, -1.0, 0.25]]]), want_gradient=True)
    assert np.all(pot == 0.0) and np.all(grad == 0.0)
    # among other sources, the coincident one drops out of the sum
    src = np.vstack([RNG.uniform(-1, 1, size=(20, 3)), x])
    q = RNG.uniform(-1, 1, size=21)
    val = K.laplace_sum(K.pair_geometry(x, src), src, charges=q[None])[0][0]
    ref = K.direct_sum(K.KernelKind.LAPLACE_SINGLE, src[:20], q[:20], x) * K.FOUR_PI
    np.testing.assert_allclose(val, ref, rtol=1e-12)


def test_laplace_sum_translation_invariant():
    src = RNG.uniform(-1, 1, size=(200, 3))
    tgt = RNG.uniform(-1, 1, size=(30, 3))
    q = RNG.uniform(-1, 1, size=(2, 200))
    dip = RNG.uniform(-1, 1, size=(2, 200, 3))
    shift = np.array([1e3, -1e3, 1e3])
    pot, grad = K.laplace_sum(K.pair_geometry(tgt, src), src, q, dip, want_gradient=True)
    pot_s, grad_s = K.laplace_sum(K.pair_geometry(tgt + shift, src + shift), src + shift, q,
                                  dip, want_gradient=True)
    # shifted coordinates round at 1e3 * eps, so compare on the output scale
    assert np.abs(pot_s - pot).max() <= 1e-10 * np.abs(pot).max()
    assert np.abs(grad_s - grad).max() <= 1e-10 * np.abs(grad).max()


def test_laplace_sum_holds_two_pair_arrays(traced_peak):
    """Dipoles with gradients, the deepest path, hold at most two (Nt, Ns)
    arrays at once: the traced peak is 2.09 of them, against 4.11 with
    1/r, 1/r^3 and 1/r^5 each in its own array."""
    nt, ns = 400, 2000
    src = RNG.uniform(-1, 1, size=(ns, 3))
    tgt = RNG.uniform(2, 3, size=(nt, 3))
    dip = RNG.uniform(-1, 1, size=(1, ns, 3))
    geo = K.pair_geometry(tgt, src)
    peak = traced_peak(lambda: K.laplace_sum(geo, src, dipoles=dip, want_gradient=True))
    assert peak < 2.5 * nt * ns * 8, peak / (nt * ns * 8)


def test_laplace_sum_single_holds_two_float32_pair_arrays(traced_peak):
    """The same deepest path in single precision holds at most two float32
    (Nt, Ns) arrays: no float64 copy of a pair array appears."""
    nt, ns = 400, 2000
    src = RNG.uniform(-1, 1, size=(ns, 3))
    tgt = RNG.uniform(2, 3, size=(nt, 3))
    dip = RNG.uniform(-1, 1, size=(1, ns, 3))
    geo = K.pair_geometry(tgt, src)
    peak = traced_peak(lambda: K.laplace_sum(geo, src, dipoles=dip, want_gradient=True,
                                             single=True))
    assert peak < 2.5 * nt * ns * 4, peak / (nt * ns * 4)


@pytest.mark.parametrize("want_gradient", [False, True])
def test_laplace_sum_single_keeps_coincident_pairs_zero(want_gradient):
    """In single precision a coincident pair still contributes exactly zero,
    and the sums come back in float64 within float32 rounding of the double
    precision ones."""
    x = np.array([[0.3, -1.2, 2.5]])
    q, dip = np.array([[2.0]]), np.array([[[0.5, -1.0, 0.25]]])
    for charges, dipoles in [(q, None), (None, dip), (q, dip)]:
        pot, grad = K.laplace_sum(K.pair_geometry(x, x), x, charges, dipoles,
                                  want_gradient, single=True)
        assert pot.dtype == np.float64 and np.all(pot == 0.0)
        if want_gradient:
            assert grad.dtype == np.float64 and np.all(grad == 0.0)
    src = np.vstack([RNG.uniform(-1, 1, size=(50, 3)), x])
    geo = K.pair_geometry(x, src)
    qs, ds = RNG.uniform(-1, 1, size=(2, 51)), RNG.uniform(-1, 1, size=(2, 51, 3))
    pot, grad = K.laplace_sum(geo, src, qs, ds, want_gradient, single=True)
    ref, ref_grad = K.laplace_sum(geo, src, qs, ds, want_gradient)
    assert pot.dtype == np.float64
    assert np.abs(pot - ref).max() <= 1e-5 * np.abs(ref).max()
    if want_gradient:
        assert grad.dtype == np.float64
        assert np.abs(grad - ref_grad).max() <= 1e-5 * np.abs(ref_grad).max()


@pytest.mark.parametrize("kind", [K.KernelKind.STOKESLET, K.KernelKind.STRESSLET])
def test_single_stokes_channels_cancel_at_the_block_scale(kind):
    """The first-moment channel is summed about the block's own origin in
    single precision: a block far from the coordinate origin keeps the
    float32 error of one at the origin, where without moment it grows with
    the distance.  (Targets stay 0.5 from the sources: the stresslet's
    dipole gradients lose (extent / r)^2 of float32 at close range, which is
    why only the operator's right-hand side, never single, applies it.)"""
    src = RNG.uniform(-0.5, 0.5, size=(400, 3))
    tgt = RNG.uniform(-0.5, 0.5, size=(60, 3)) + [1.5, 0.0, 0.0]
    normals = RNG.normal(size=(400, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    w = RNG.uniform(-1, 1, size=(400, 3))

    def error(shift, centred=True):
        s, t = src + shift, tgt + shift
        geo = K.pair_geometry(t, s)
        ref = K.kernel_sum(kind, functools.partial(K.laplace_sum, geo, s), s, w, t, normals)

        def single(q, d, want_gradient, moment=False):
            return K.laplace_sum(geo, s, q, d, want_gradient, single=True,
                                 moment=moment and centred)

        val = K.kernel_sum(kind, single, s, w, t, normals)
        return np.linalg.norm(val - ref) / np.linalg.norm(ref)

    far_away = np.array([20.0, -30.0, 10.0])
    near, far = error(0.0), error(far_away)
    assert near < 1e-5 and far < 3.0 * near
    assert error(far_away, centred=False) > 10.0 * far


@pytest.mark.parametrize("kinds", [
    (K.KernelKind.LAPLACE_SINGLE, K.KernelKind.LAPLACE_DOUBLE),
    (K.KernelKind.LAPLACE_DOUBLE, K.KernelKind.LAPLACE_SINGLE),
    (K.KernelKind.STOKESLET, K.KernelKind.STRESSLET),
])
def test_rule_sums_match_per_kind_reference(kinds):
    """One shared pass gives each kernel's sums of the one-kernel reference,
    coincident points (zero) included, to 1e-13 of the largest entry."""
    rng = np.random.default_rng(17)
    n_pairs, k = 500, 23
    tgt = rng.uniform(-1.0, 1.0, size=(n_pairs, 3))
    pts = tgt[:, None, :] + rng.normal(scale=0.3, size=(n_pairs, k, 3))
    pts[::7, 0] = tgt[::7]                # a coincident point in every 7th pair
    wts = rng.uniform(-1.0, 1.0, size=(n_pairs, k))
    normals = rng.normal(size=(n_pairs, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    sums = K.rule_sums(kinds, tgt, pts.transpose(0, 2, 1).copy(), wts, normals)
    assert len(sums) == len(kinds)
    for kind, value in zip(kinds, sums):
        ref = OR.pair_rule_sums(kind, tgt, pts, wts, normals)
        assert value.shape == ref.shape and np.all(np.isfinite(value))
        assert np.abs(value - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rule_sums_require_normals_for_double_layers():
    pts = np.zeros((1, 3, 2))
    with pytest.raises(ValueError, match="normals"):
        K.rule_sums([K.KernelKind.STOKESLET, K.KernelKind.STRESSLET], np.ones((1, 3)), pts,
                    np.ones((1, 2)))
