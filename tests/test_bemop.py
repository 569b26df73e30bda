"""Boundary operators: sphere identities, dense agreement, small solves."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import operator_reference as OR
from fmmbem import bemop
from fmmbem import harmonics as H
from fmmbem import mesh as M
from fmmbem import quadrature as Q
from fmmbem import solver
from fmmbem.bemop import BemOperator, Formulation


@pytest.fixture(scope="module")
def sphere3():
    return M.make_sphere(3)  # 512 panels


def test_single_layer_of_unit_density(sphere3):
    """On the unit sphere S[1](x) = 1 for x on the surface."""
    op = BemOperator(sphere3, Formulation.LAPLACE_FIRST)
    val = op.dense_apply(np.ones(op.n_panels))
    np.testing.assert_allclose(val, 1.0, atol=0.02)


def test_double_layer_of_unit_density(sphere3):
    """D[1](x) = -1/2 on the surface, so the second-kind operator maps 1 -> 1."""
    op = BemOperator(sphere3, Formulation.LAPLACE_SECOND)
    val = op.dense_apply(np.ones(op.n_panels))
    np.testing.assert_allclose(val, 1.0, atol=0.02)


def test_apply_matches_dense_apply(sphere3):
    op = BemOperator(sphere3, Formulation.LAPLACE_FIRST)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=op.n_panels)
    a = op.apply(x, p=15)
    d = op.dense_apply(x)
    assert np.linalg.norm(a - d) / np.linalg.norm(d) < 1e-6


def test_stokes_apply_matches_dense(sphere3):
    op = BemOperator(sphere3, Formulation.STOKES)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=3 * op.n_panels)
    a = op.apply(x, p=15)
    d = op.dense_apply(x)
    # the gradient channels of the stokeslet cost roughly one extra digit
    assert np.linalg.norm(a - d) / np.linalg.norm(d) < 5e-6


def test_first_kind_solve_recovers_unit_charge(sphere3):
    """Dirichlet data phi = 1 on the unit sphere gives charge density q = 1."""
    op = BemOperator(sphere3, Formulation.LAPLACE_FIRST)
    b = op.assemble_rhs(np.ones(op.n_panels))
    res = solver.solve(op, b, eta=1e-8, p_initial=15)
    assert res.converged
    np.testing.assert_allclose(res.x, 1.0, atol=0.05)


def test_second_kind_solve_recovers_unit_potential(sphere3):
    op = BemOperator(sphere3, Formulation.LAPLACE_SECOND)
    b = op.assemble_rhs(np.ones(op.n_panels))
    res = solver.solve(op, b, eta=1e-8, p_initial=15)
    assert res.converged
    np.testing.assert_allclose(res.x, 1.0, atol=0.05)


def test_stokes_drag_sign_and_magnitude(sphere3):
    """A sphere held in a uniform ambient stream feels positive drag ~ 6 pi mu."""
    op = BemOperator(sphere3, Formulation.STOKES)
    data = np.tile([1.0, 0.0, 0.0], (op.n_panels, 1))
    b = op.assemble_rhs(data)
    res = solver.solve(op, b, eta=1e-6, p_initial=14)
    assert res.converged
    drag = op.drag_force(res.x)
    exact = 6.0 * np.pi * op.mu
    assert drag[0] > 0.0
    assert abs(drag[0] - exact) / exact < 0.05
    assert abs(drag[1]) < 0.05 * exact and abs(drag[2]) < 0.05 * exact


def test_shapes_and_rhs_sizes(sphere3):
    lap = BemOperator(sphere3, Formulation.LAPLACE_FIRST)
    sto = BemOperator(sphere3, Formulation.STOKES)
    n = sphere3.n_panels
    assert lap.shape == (n, n)
    assert sto.shape == (3 * n, 3 * n)
    assert lap.assemble_rhs(np.ones(n)).shape == (n,)
    assert sto.assemble_rhs(np.zeros((n, 3))).shape == (3 * n,)


def test_near_corrections_translation_invariant():
    """Shifting the whole mesh leaves the operator action unchanged."""
    m = M.make_sphere(2)
    op0 = BemOperator(m, Formulation.LAPLACE_FIRST)
    op1 = BemOperator(m.translated([10.0, -3.0, 2.0]), Formulation.LAPLACE_FIRST)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, size=op0.n_panels)
    np.testing.assert_allclose(op0.dense_apply(x), op1.dense_apply(x),
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("formulation, limit", [
    (Formulation.LAPLACE_FIRST, 1e-7),
    (Formulation.LAPLACE_SECOND, 1e-7),
    # the stresslet runs through four dipole channels with gradients
    (Formulation.STOKES, 1e-6),
])
def test_fmm_rhs_matches_dense_rhs(sphere3, formulation, limit):
    """The default p = 18 FMM right-hand side against the exact direct sums
    (measured: 1.8e-8, 9.3e-9 and 3.0e-7)."""
    op = BemOperator(sphere3, formulation)
    rng = np.random.default_rng(3)
    shape = (op.n_panels, 3) if formulation is Formulation.STOKES else op.n_panels
    data = rng.uniform(-1.0, 1.0, size=shape)
    fmm = op.assemble_rhs(data)
    dense = op.assemble_rhs(data, dense=True)
    assert np.linalg.norm(fmm - dense) / np.linalg.norm(dense) < limit


def test_near_pairs_match_brute_force():
    """Target i is near source panel j when their centroids lie within j's cutoff."""
    op = BemOperator(M.make_sphere(2), Formulation.LAPLACE_FIRST)
    cutoff = bemop.NEAR_FACTOR * np.sqrt(2.0 * op.areas)
    # rows (i, j) in ascending order, the order the search returns
    ref = np.argwhere(cdist(op.centroids, op.centroids) <= cutoff)
    pairs = op._find_near_pairs()
    assert pairs.dtype == np.intp
    np.testing.assert_array_equal(pairs, ref)


@pytest.mark.parametrize("make_mesh", [
    lambda: M.make_sphere(3), lambda: M.make_sphere(5), lambda: M.make_scene(6, 3, seed=3),
])
def test_near_pairs_match_kd_tree_ball_query(make_mesh):
    """The grid search returns the k-d tree's pairs, sorted by target, then by source."""
    mesh = make_mesh()
    pts, _ = Q.quadrature_points(mesh.panel_vertices, Q.FAR_RULE)
    centroids = pts[:, 0]
    cutoff = bemop.NEAR_FACTOR * np.sqrt(2.0 * mesh.geometry()[2])
    hits = cKDTree(centroids).query_ball_point(centroids, cutoff, return_sorted=True)
    ref = np.column_stack([np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp),
                           np.repeat(np.arange(len(hits)), [len(h) for h in hits])])
    ref = ref[np.lexsort(ref.T[::-1])]
    np.testing.assert_array_equal(bemop._radius_pairs(centroids, cutoff), ref)


def _scipy_blocks(rows, cols, blocks, n):
    """The same block triplets as one scalar scipy CSR matrix."""
    if blocks.ndim == 1:
        return sp.csr_matrix((blocks, (rows, cols)), shape=(n, n))
    a, b = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    return sp.csr_matrix((blocks.ravel(), ((3 * rows[:, None, None] + a).ravel(),
                                           (3 * cols[:, None, None] + b).ravel())),
                         shape=(3 * n, 3 * n))


def _full_blocks(entries):
    """(nb,) scalar blocks from (1, nb) stored entries, or (nb, 3, 3)
    symmetric blocks from the (6, nb) entries xx, yy, zz, xy, xz, yz."""
    if len(entries) == 1:
        return entries[0]
    blocks = np.empty((entries.shape[1], 3, 3))
    rows, cols = bemop.STORED_ENTRIES[3]
    blocks[:, rows, cols] = blocks[:, cols, rows] = entries.T
    return blocks


def _recorded_correction(mesh, formulation):
    """The operator, its near pairs in storage order and each matrix's
    blocks in that order, read from the operator's BlockCsr."""
    op = BemOperator(mesh, formulation)
    mat = op._corrections
    rows = np.repeat(np.arange(op.n_panels), np.diff(mat.indptr))
    return op, np.column_stack([rows, mat.indices]), [_full_blocks(e) for e in mat.data]


@pytest.mark.parametrize("formulation", [Formulation.LAPLACE_FIRST, Formulation.STOKES])
def test_correction_matches_scipy_csr(sphere3, formulation):
    """For all four kernels, both matrices on the shared pattern apply as
    scipy's CSR of the same triplets."""
    op, pairs, blocks = _recorded_correction(sphere3, formulation)
    mat = op._corrections
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=op.shape[0])
    # two matrices of 1 or 6 stored entries per block
    assert mat.data.shape == (2, 1 if formulation is Formulation.LAPLACE_FIRST else 6,
                              len(pairs))
    for k, values in zip((bemop.SYSTEM, bemop.RHS), blocks):
        ref = _scipy_blocks(pairs[:, 0], pairs[:, 1], values, op.n_panels)
        assert mat.nnz == 2 * ref.nnz
        np.testing.assert_allclose(mat.matvec(x, k), ref @ x, rtol=1e-14,
                                   atol=1e-14 * np.abs(ref @ x).max())


@pytest.mark.parametrize("formulation", list(Formulation))
def test_corrections_match_per_kind_reference(sphere3, formulation):
    """The shared 23-point pass gives each kernel's fine-minus-coarse blocks
    of the per-kind build, to 1e-13 of the largest entry; a Stokes block's
    six stored entries give all nine, as the blocks are symmetric."""
    op, pairs, blocks = _recorded_correction(sphere3, formulation)
    near = op._find_near_pairs()
    np.testing.assert_array_equal(pairs, near[np.lexsort((near[:, 1], near[:, 0]))])
    for (kind, _, _), values in zip(op._sides, blocks):
        ref = OR.correction_blocks(op, kind, pairs)
        assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_applies_below_rhs_order_hold_no_maps(sphere3, traced_peak):
    """After a p = 18 right-hand side, applies at p = 16, then at 10 and 5,
    read views of one int16 translation table per kind.  What the first
    apply keeps is its per-order shift tables (about 30 KiB); the lower two
    keep no more.  An int64 copy of the maps per order would keep 4.0 MiB
    at p = 16 and 0.7 MiB at p = 10."""
    op = BemOperator(sphere3, Formulation.STOKES)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=op.shape[0])
    op.assemble_rhs(np.tile([1.0, 0.0, 0.0], (op.n_panels, 1)))
    # the per-order caches start empty, whatever ran before
    H.shift_terms.cache_clear()
    H._local_weights.cache_clear()
    _, first = traced_peak(lambda: op.apply(x, 16), held=True)
    _, lower = traced_peak(lambda: (op.apply(x, 10), op.apply(x, 5)), held=True)
    assert lower <= first < 2 ** 17, (first, lower)
    assert set(H._TABLES) == {"m2m", "m2l", "l2l"}
    for kind, (top, table) in H._TABLES.items():
        assert top >= 18 and all(m.dtype == np.int16 for m in table)
        for p in (16, 10, 5):
            assert all(np.shares_memory(m, t) for m, t in zip(H.translation_maps(kind, p), table))


@pytest.mark.parametrize("block", [1, 3])
def test_block_csr_uneven_and_empty_rows(block):
    """Rows of every length, empty rows first or last, against scipy's CSR,
    for two matrices on one pattern; a 3x3 block is the symmetric block of
    its six stored entries."""
    rng = np.random.default_rng(block)
    n = 40
    # the last rows empty: no reduceat start may equal the number of blocks
    for density in (np.linspace(0.0, 0.5, n),
                    np.where(np.arange(n) < n - 6, np.linspace(0.5, 0.1, n), 0.0)):
        dense = rng.random((n, n)) < density[:, None]
        rows, cols = np.nonzero(dense)
        data = rng.uniform(-1.0, 1.0, size=(2, 1 if block == 1 else 6, len(rows)))
        mat = bemop.BlockCsr(rows, cols, n, data)
        x = rng.uniform(-1.0, 1.0, size=block * n)
        for k in range(2):
            ref = _scipy_blocks(rows, cols, _full_blocks(data[k]), n)
            assert mat.nnz == 2 * ref.nnz
            np.testing.assert_allclose(mat.matvec(x, k), ref @ x, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("kwargs, match", [
    (dict(theta=0.0), "theta"), (dict(theta=1.0), "theta"), (dict(theta=-0.5), "theta"),
    (dict(n_crit=0), "n_crit"),
    (dict(mu=-1e-3), "mu"), (dict(mu=0.0), "mu"), (dict(mu=float("nan")), "mu"),
    (dict(mu=float("inf")), "mu"),
])
def test_operator_rejects_bad_tree_parameters(sphere3, monkeypatch, kwargs, match):
    def no_tree(*args, **kw):
        raise AssertionError("a tree was built before the parameters were checked")

    monkeypatch.setattr(bemop, "FmmPlan", no_tree)
    with pytest.raises(ValueError, match=match):
        BemOperator(sphere3, Formulation.LAPLACE_FIRST, **kwargs)


def _one_reversed(m):
    tris = m.triangles.copy()
    tris[7] = tris[7, ::-1]
    return M.Mesh(m.vertices, tris)


@pytest.mark.parametrize("damage, match", [
    (lambda m: M.Mesh(m.vertices, m.triangles[:-1]), "check_closed"),
    (lambda m: M.Mesh(m.vertices, m.triangles[:, ::-1]), "check_outward"),
    (_one_reversed, "check_closed"),
])
def test_operator_rejects_open_or_inward_mesh(sphere3, monkeypatch, damage, match):
    def no_tree(*args, **kw):
        raise AssertionError("a tree was built before the mesh was checked")

    monkeypatch.setattr(bemop, "FmmPlan", no_tree)
    with pytest.raises(ValueError, match=match):
        BemOperator(damage(sphere3), Formulation.STOKES)
