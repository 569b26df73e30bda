"""Solid-harmonic expansions and translations against direct kernel sums."""

import numpy as np
import pytest
import scipy.sparse as sp

import harmonics_reference as HR
from fmmbem import harmonics as H
from fmmbem.kernels import FOUR_PI, direct_sum, KernelKind

RNG = np.random.default_rng(7)


def _cluster(n=40, radius=0.5):
    v = RNG.normal(size=(n, 3))
    v *= radius * RNG.uniform(0.2, 1.0, size=(n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return v


def test_expansion_identity_converges():
    """Multipole evaluation of sum q/(4 pi r) converges geometrically in p."""
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    tgt = np.array([[2.0, 0.3, -0.4], [0.0, -2.5, 1.0]])
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, src, q, tgt)
    errs = []
    for p in (4, 8, 12):
        exp = HR.particle_to_multipole(src, q, p)
        val = HR.multipole_to_point(exp, tgt, p) / FOUR_PI
        errs.append(np.max(np.abs(val - ref) / np.abs(ref)))
    assert errs[0] < 1e-2
    assert errs[1] < errs[0] / 10
    assert errs[2] < 1e-8


def test_dipole_expansion_matches_double_layer():
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    normals = RNG.normal(size=(len(src), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    tgt = np.array([[2.2, -0.1, 0.5]])
    ref = direct_sum(KernelKind.LAPLACE_DOUBLE, src, q, tgt, normals=normals)
    exp = HR.particle_to_multipole(src, np.zeros(len(src)), 14,
                                  dipoles=q[:, None] * normals)
    val = HR.multipole_to_point(exp, tgt, 14) / FOUR_PI
    assert abs(val[0] - ref[0]) < 1e-9 * abs(ref[0]) + 1e-14


def test_m2m_is_exact():
    """Shifting a multipole expansion loses nothing at fixed order."""
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    p = 8
    shifted_center = np.array([0.3, -0.2, 0.1])
    direct = HR.particle_to_multipole(src - shifted_center, q, p)
    T = HR.translation_matrix("m2m", -shifted_center, p)
    via_shift = HR.particle_to_multipole(src, q, p) @ T.T
    np.testing.assert_allclose(via_shift, direct, atol=1e-12)


def test_l2l_is_exact():
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    p = 8
    center, moved_center = np.array([3.0, 0.0, 0.0]), np.array([3.1, 0.05, -0.1])
    local = HR.particle_to_multipole(src, q, p) @ HR.translation_matrix("m2l", center, p).T
    moved = local @ HR.translation_matrix("l2l", moved_center - center, p).T
    tgt = np.array([[3.15, 0.1, -0.05]])
    np.testing.assert_allclose(HR.local_to_point(moved, tgt - moved_center, p),
                               HR.local_to_point(local, tgt - center, p), rtol=1e-12)


def test_m2l_converges():
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    tgt = np.array([[2.9, 0.2, -0.1], [3.1, -0.2, 0.15]])
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, src, q, tgt)
    errs = []
    for p in (4, 10):
        center = np.array([3.0, 0.0, 0.0])
        local = HR.particle_to_multipole(src, q, p) @ HR.translation_matrix("m2l", center, p).T
        val = HR.local_to_point(local, tgt - center, p) / FOUR_PI
        errs.append(np.max(np.abs(val - ref) / np.abs(ref)))
    assert errs[0] < 1e-2
    assert errs[1] < 1e-6


@pytest.mark.parametrize("which", ["multipole", "local"])
def test_gradients_match_finite_differences(which):
    src = _cluster()
    q = RNG.uniform(-1.0, 1.0, size=len(src))
    p = 10
    exp = HR.particle_to_multipole(src, q, p)
    if which == "local":
        center = np.array([2.5, 0.1, 0.0])
        exp = exp @ HR.translation_matrix("m2l", center, p).T
        tgt = np.array([[2.6, 0.2, -0.1]])

        def evaluate(x, want_gradient=False):
            return HR.local_to_point(exp, x - center, p, want_gradient)
    else:
        tgt = np.array([[2.0, 0.4, -0.3]])

        def evaluate(x, want_gradient=False):
            return HR.multipole_to_point(exp, x, p, want_gradient)
    _, grad = evaluate(tgt, want_gradient=True)
    h = 1e-6
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fd = (evaluate(tgt + step)[0] - evaluate(tgt - step)[0]) / (2 * h)
        assert abs(grad[0, axis] - fd) < 1e-6 * max(1.0, abs(fd))


def test_flat_index_layout():
    assert H.flat_index(0, 0) == 0
    assert H.flat_index(1, -1) == 1
    assert H.flat_index(1, 0) == 2
    assert H.flat_index(1, 1) == 3
    assert H.num_coeffs(3) == 16


def test_regular_conjugate_symmetry():
    """R_n^{-m} = (-1)^m conj(R_n^m)."""
    p = 6
    reg = HR.regular(RNG.normal(size=(5, 3)), p)
    for n in range(p + 1):
        for m in range(n + 1):
            a = reg[:, H.flat_index(n, -m)]
            b = (-1.0) ** m * np.conj(reg[:, H.flat_index(n, m)])
            np.testing.assert_allclose(a, b, atol=1e-12)


def _unpack(packed, p):
    """Full complex coefficients from the packed real layout."""
    out = np.zeros(packed.shape[:-1] + (H.num_coeffs(p),), dtype=complex)
    for n in range(p + 1):
        out[..., H.flat_index(n, 0)] = packed[..., H.flat_index(n, 0)]
        for m in range(1, n + 1):
            c = packed[..., H.flat_index(n, m)] + 1j * packed[..., H.flat_index(n, -m)]
            out[..., H.flat_index(n, m)] = c
            out[..., H.flat_index(n, -m)] = (-1) ** m * np.conj(c)
    return out


def _complex_gradient(full, p):
    """(dx, dy, dz) of complex R_n^m arrays by the shift rules."""
    grads = [np.zeros_like(full) for _ in range(3)]
    for n in range(1, p + 1):
        for m in range(-n, n + 1):
            i = H.flat_index(n, m)
            up = full[..., H.flat_index(n - 1, m + 1)] if abs(m + 1) <= n - 1 else 0.0
            down = -full[..., H.flat_index(n - 1, m - 1)] if abs(m - 1) <= n - 1 else 0.0
            grads[0][..., i] = 0.5 * (up + down)
            grads[1][..., i] = (up - down) / 2j
            grads[2][..., i] = full[..., H.flat_index(n - 1, m)] if abs(m) <= n - 1 else 0.0
    return grads


def _assert_close(value, ref):
    ref = np.asarray(ref)
    np.testing.assert_allclose(value, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("p", [1, 2, 5, 16, 18])
def test_packed_forms_match_complex_definition(p):
    """Every packed translation reproduces the complex sums of regular/irregular."""
    rng = np.random.default_rng(p)
    src = _cluster(30, 0.4)
    q = rng.uniform(-1.0, 1.0, size=len(src))
    dip = rng.normal(size=(len(src), 3))

    def complex_p2m(rel):
        R = HR.regular(rel, p)
        gx, gy, gz = _complex_gradient(R, p)
        return q @ R + dip[:, 0] @ gx + dip[:, 1] @ gy + dip[:, 2] @ gz

    M = HR.particle_to_multipole(src, q, p, dipoles=dip)
    Mc = complex_p2m(src)
    _assert_close(_unpack(M, p), Mc)

    parent = np.array([0.2, -0.15, 0.1])
    moved = M @ HR.translation_matrix("m2m", -parent, p).T
    _assert_close(_unpack(moved, p), complex_p2m(src - parent))

    D = np.array([2.4, 0.7, -1.1])
    L = M @ HR.translation_matrix("m2l", D, p).T
    irr = HR.irregular(D, 2 * p)[0]
    Lc = np.zeros(H.num_coeffs(p), dtype=complex)
    for j in range(p + 1):
        for k in range(-j, j + 1):
            Lc[H.flat_index(j, k)] = (-1) ** j * sum(
                Mc[H.flat_index(n, m)] * np.conj(irr[H.flat_index(n + j, m + k)])
                for n in range(p + 1) for m in range(-n, n + 1))
    _assert_close(_unpack(L, p), Lc)

    child = np.array([-0.1, 0.05, 0.2])
    shifted = L @ HR.translation_matrix("l2l", child, p).T
    reg = HR.regular(child, p)[0]
    Lc2 = np.zeros_like(Lc)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            Lc2[H.flat_index(n, m)] = sum(
                reg[H.flat_index(j - n, k - m)] * Lc[H.flat_index(j, k)]
                for j in range(n, p + 1) for k in range(-j, j + 1) if abs(k - m) <= j - n)
    _assert_close(_unpack(shifted, p), Lc2)

    x = 0.3 * rng.normal(size=(6, 3))
    pot, grad = HR.local_to_point(L, x, p, want_gradient=True)
    R = HR.regular(x, p)
    _assert_close(pot, np.real(R @ Lc))
    _assert_close(grad, np.stack([np.real(g @ Lc) for g in _complex_gradient(R, p)], axis=-1))


@pytest.mark.parametrize("kind", ["m2m", "l2l", "m2l"])
def test_reflected_offsets_share_one_operator(kind):
    """T(reflected d) = diag(s) T(d) diag(s) for all eight axis reflections."""
    p = 7
    d = np.array([2.2, 1.0, 3.2]) if kind == "m2l" else np.array([0.3, 0.2, 0.25])
    base = HR.translation_matrix(kind, d, p)
    signs = H.reflection_signs(p)
    for flip in range(8):
        mirror = np.array([-1.0 if flip >> a & 1 else 1.0 for a in range(3)])
        T = HR.translation_matrix(kind, mirror * d, p)
        np.testing.assert_allclose(T, signs[flip][:, None] * base * signs[flip],
                                   rtol=1e-13, atol=1e-13 * np.abs(base).max())


@pytest.mark.parametrize("kind", ["local", "multipole", "dipole"])
@pytest.mark.parametrize("p", [0, 1, 5, 18])
def test_shift_tables_match_csr_product(kind, p):
    """The index/weight tables apply the same operator as its scipy CSR matrix."""
    if kind == "multipole":
        q = p + 1
        rows, cols, vals = HR.multipole_shift_entries(p)
        terms = HR.multipole_shift_terms(p)
    else:
        q = p
        rows, cols, vals = HR.shift_entries(kind, p)
        terms = H.shift_terms(kind, p)
    size = H.num_coeffs(q)
    shape = (size, 3 * size) if kind == "dipole" else (3 * size, size)
    B = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    B.eliminate_zeros()
    index, _ = terms
    assert index.shape[0] == np.diff(B.indptr).max(initial=0) <= (5 if kind == "dipole" else 2)
    X = np.random.default_rng(p).uniform(-1.0, 1.0, size=(7, shape[1]))
    ref = (B @ X.T).T
    out = H._apply_shift(X, terms, size).reshape(ref.shape)
    np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-15 * max(np.abs(ref).max(), 1.0))


@pytest.mark.parametrize("kind", ["local", "dipole"])
def test_shift_tables_equal_complex_derivation(kind):
    """The tables read off the n = 1 translation operators are exactly those
    of the complex shift rules at every order up to 18."""
    for p in range(19):
        index, weight = H.shift_terms(kind, p)
        ref_index, ref_weight = HR.shift_terms(kind, p)
        assert index.dtype == ref_index.dtype and weight.dtype == ref_weight.dtype
        assert np.array_equal(index, ref_index), p
        assert np.array_equal(weight, ref_weight), p


@pytest.mark.parametrize("kind", ["m2m", "l2l", "m2l"])
def test_translation_maps_equal_complex_derivation(kind):
    """The integer maps, built at each order or sliced from a higher one, are
    exactly those of the complex derivation at every order up to 18."""
    H.translation_maps.cache_clear()     # so that every lower order is a slice
    H.translation_maps(kind, 18)
    for p in range(19):
        ref = HR.translation_maps(kind, p)
        for maps in (H._build_maps(kind, p), H.translation_maps(kind, p)):
            assert len(maps) == 2
            for m, r in zip(maps, ref):
                assert m.dtype == r.dtype
                np.testing.assert_array_equal(m, r)
