"""Boundary operators: sphere identities, dense agreement, small solves."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fmmbem import bemop
from fmmbem import mesh as M
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
    # the stresslet runs through seven gradient channels
    (Formulation.STOKES, 1e-6),
])
def test_fmm_rhs_matches_dense_rhs(sphere3, formulation, limit):
    """The default p = 18 FMM right-hand side against the exact direct sums
    (measured: 1.5e-8, 1.0e-8 and 2.4e-7)."""
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
    # rows (j, i) in ascending order, the order the search returns
    ref = np.argwhere(cdist(op.centroids, op.centroids).T <= cutoff[:, None])[:, ::-1]
    pairs = op._near_pairs
    assert pairs.dtype == np.intp
    np.testing.assert_array_equal(pairs, ref)


@pytest.mark.parametrize("kwargs, match", [
    (dict(theta=0.0), "theta"), (dict(theta=1.0), "theta"), (dict(theta=-0.5), "theta"),
    (dict(n_crit=0), "n_crit"),
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
