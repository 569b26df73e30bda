"""Tree-accelerated evaluation against direct sums, and structural checks."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmonics_reference as HR
import operator_reference as OR
from fmmbem import fmm
from fmmbem import harmonics as H
from fmmbem import mesh as M
from fmmbem import quadrature as Q
from fmmbem.fmm import FmmPlan, dual_traversal, evaluate
from fmmbem.kernels import FOUR_PI, KernelKind, direct_sum, laplace_sum, pair_geometry
from fmmbem.octree import bounding_cube, build_tree

RNG = np.random.default_rng(21)


def _rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _random_sources(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, 3))
    q = rng.uniform(-1.0, 1.0, size=n)
    return pos, q


def test_traversal_accounts_every_pair():
    """M2L + P2P lists cover each (target, source) pair exactly once."""
    pos, q = _random_sources(700, 1)
    tgt = np.random.default_rng(2).uniform(0.0, 1.0, size=(300, 3))
    plan = FmmPlan(pos, tgt, n_crit=30, theta=0.5)
    counts = plan.interaction_counts()
    np.testing.assert_array_equal(counts, np.full(len(tgt), len(pos)))


def _sphere_plan():
    pts, _ = Q.quadrature_points(M.make_sphere(3).panel_vertices, Q.FAR_RULE)
    return FmmPlan(pts.reshape(-1, 3), pts[:, 0], n_crit=32)


def _cloud_plan():
    rng = np.random.default_rng(3)
    return FmmPlan(rng.uniform(0.0, 1.0, size=(700, 3)), rng.uniform(0.0, 1.0, size=(300, 3)),
                   n_crit=30)


def _child_parent(tree):
    kids = np.flatnonzero(tree.parent >= 0)
    return kids, tree.parent[kids]


@pytest.mark.parametrize("make_plan", [_sphere_plan, _cloud_plan])
def test_offset_groups_partition_every_translation(make_plan, monkeypatch):
    """The groups each sweep runs hold every cell pair of its translation
    once, no destination cell twice within a rank, the pairs of one
    destination in rising flip from rank to rank, and each pair's offset is
    its group's offset reflected by the pair's flip.  M2M runs deepest
    level first and L2L shallowest first."""
    plan = make_plan()
    runs, sweep = {}, fmm._sweep

    def record(kind, groups, *args):
        runs[kind] = groups
        return sweep(kind, groups, *args)

    monkeypatch.setattr(fmm, "_sweep", record)
    plan.far_field(charges=np.ones((1, len(plan.src_tree.points))), p=2)
    src, tgt = plan.src_tree, plan.tgt_tree
    kids, parents = _child_parent(src)
    tgt_kids, tgt_parents = _child_parent(tgt)
    expected = {"m2m": (kids, parents), "l2l": (tgt_parents, tgt_kids),
                "m2l": tuple(plan.m2l_pairs.T)}
    for kind, (a, b) in expected.items():
        found = [pair for a_g, b_g, _, _ in runs[kind]
                 for pair in zip(a_g.tolist(), b_g.tolist())]
        assert len(found) == len(a) and set(found) == set(zip(a.tolist(), b.tolist()))
        for _, b_g, flip, bounds in runs[kind]:
            assert bounds[0] == 0 and bounds[-1] == len(b_g)
            assert all(len(np.unique(b_g[lo:hi])) == hi - lo
                       for lo, hi in zip(bounds, bounds[1:]))
            seen = {}
            for cell, f in zip(b_g.tolist(), flip.tolist()):
                assert f > seen.get(cell, -1)
                seen[cell] = f
    m2m_levels = [np.unique(src.level[a_g]) for a_g, _, _, _ in runs["m2m"]]
    l2l_levels = [np.unique(tgt.level[b_g]) for _, b_g, _, _ in runs["l2l"]]
    assert all(len(lv) == 1 for lv in m2m_levels + l2l_levels)
    assert np.all(np.diff(np.concatenate(m2m_levels)) < 0)
    assert np.all(np.diff(np.concatenate(l2l_levels)) > 0)
    # each translation's offset: target minus source, child minus parent
    stored = [(plan._m2l_offsets, plan._m2l_groups, lambda a, b: tgt.center[b] - src.center[a]),
              (plan._m2m_offsets, plan._m2m_groups, lambda a, b: src.center[a] - src.center[b]),
              (plan._l2l_offsets, plan._l2l_groups, lambda a, b: tgt.center[b] - tgt.center[a])]
    for offsets, groups, offset_of in stored:
        for offset, (a_g, b_g, flip, _) in zip(offsets, groups):
            sign = np.where(flip[:, None] >> np.arange(3) & 1, -1.0, 1.0)
            np.testing.assert_allclose(offset_of(a_g, b_g), sign * offset, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [0, 1, 5, 16, 18])
def test_stacked_sweep_equals_per_member_sweep(p, monkeypatch):
    """M2M, M2L and L2L with each group's reflections stacked, in GEMMs of
    at most 5 cells so that groups split into several and blocks cut
    ranks, give the coefficients of one GEMM per reflection to 1e-15
    relative (2-norm).  The BLAS rounds a GEMM row differently with the
    number of rows, so the two differ in the last bits at p = 16 and 18; in
    the largest entry by up to 1.2e-15 of the largest (L2L, p = 18)."""
    plan = _sphere_plan()
    C, size = 2, H.num_coeffs(p)
    monkeypatch.setattr(fmm, "STACK_BYTES", 5 * 8 * C * size)
    rng = np.random.default_rng(p)
    n_src, n_tgt = plan.src_tree.n_cells, plan.tgt_tree.n_cells
    sweeps = [("m2m", plan._m2m_groups, plan._m2m_offsets, n_src, None),
              ("m2l", plan._m2l_groups, plan._m2l_offsets, n_src, n_tgt),
              ("l2l", plan._l2l_groups[::-1], plan._l2l_offsets[::-1], n_tgt, None)]
    for kind, groups, offsets, n_in, n_out in sweeps:
        assert max(len(a) for a, _, _, _ in groups) > 5, kind
        src = rng.normal(size=(n_in, C, size))
        # M2L adds to existing locals; M2M and L2L sweep one array in place
        dst = src if n_out is None else rng.normal(size=(n_out, C, size))
        ref_dst = dst.copy()
        ref_src = ref_dst if n_out is None else src.copy()
        fmm._sweep(kind, groups, offsets, p, src, dst)
        grids = H.signed_grid(H.packed_irregular(offsets, 2 * p) if kind == "m2l"
                              else H.packed_regular(offsets, p))
        OR.sweep_per_member(kind, groups, grids, p, ref_src, ref_dst)
        assert _rel_l2(dst, ref_dst) <= 1e-15, kind


@pytest.mark.parametrize("make_plan", [_sphere_plan, _cloud_plan])
def test_interaction_counts_match_per_pair_loop(make_plan):
    """The per-cell counts pushed down the target tree equal the per-pair
    loop, also for an M2L list with a pair dropped and one doubled."""
    plan = make_plan()
    np.testing.assert_array_equal(plan.interaction_counts(), OR.interaction_counts(plan))
    plan.m2l_pairs = np.vstack([plan.m2l_pairs[1:], plan.m2l_pairs[-1:]])
    np.testing.assert_array_equal(plan.interaction_counts(), OR.interaction_counts(plan))


def _pair_set(pairs):
    assert pairs.dtype == np.intp and pairs.ndim == 2 and pairs.shape[1] == 2
    found = set(map(tuple, pairs.tolist()))
    assert len(found) == len(pairs)        # no pair twice
    return found


def _assert_same_traversal(src_tree, tgt_tree, theta):
    m2l, p2p = dual_traversal(src_tree, tgt_tree, theta)
    ref_m2l, ref_p2p = OR.dual_traversal(src_tree, tgt_tree, theta)
    assert _pair_set(m2l) == _pair_set(ref_m2l)
    assert _pair_set(p2p) == _pair_set(ref_p2p)


@given(seed=st.integers(0, 2 ** 16), n_src=st.integers(1, 400), n_tgt=st.integers(1, 200),
       n_crit=st.integers(1, 40), theta=st.sampled_from([0.3, 0.5, 0.7]),
       shared=st.booleans(), same=st.booleans())
@settings(max_examples=40, deadline=None)
def test_traversal_matches_pairwise_loop(seed, n_src, n_tgt, n_crit, theta, shared, same):
    """The level-synchronous descent finds the M2L and P2P pairs of the loop
    that pops one pair at a time: one tree, or distinct source and target
    trees on a shared root cube or on their own."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 1.0, size=(n_src, 3)) * rng.uniform(0.1, 2.0, size=3)
    tgt = src if same else rng.uniform(0.0, 1.0, size=(n_tgt, 3))
    root = bounding_cube(np.vstack([src, tgt])) if shared else (None, None)
    src_tree = build_tree(src, n_crit, *root)
    tgt_tree = src_tree if same else build_tree(tgt, n_crit, *root)
    _assert_same_traversal(src_tree, tgt_tree, theta)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("make_mesh", [lambda: M.make_sphere(3),
                                       lambda: M.make_scene(6, 2, seed=3)])
def test_traversal_matches_pairwise_loop_on_meshes(make_mesh, theta):
    """Same pairs on the Gauss-point and centroid trees of BEM meshes, whose
    cells sit on one lattice, so that many pairs lie at the threshold."""
    pts, _ = Q.quadrature_points(make_mesh().panel_vertices, Q.FAR_RULE)
    plan = FmmPlan(pts.reshape(-1, 3), pts[:, 0], n_crit=32, theta=theta)
    _assert_same_traversal(plan.src_tree, plan.tgt_tree, theta)


def test_traversal_rejects_bad_theta():
    pos, _ = _random_sources(50, 0)
    tree = build_tree(pos, 10)
    with pytest.raises(ValueError):
        dual_traversal(tree, tree, theta=1.5)


def test_error_decreases_with_p():
    pos, q = _random_sources(2000, 3)
    tgt = np.random.default_rng(30).uniform(0.0, 1.0, size=(200, 3))
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, q, tgt)
    errs = []
    for p in (3, 6, 12):
        val = evaluate(KernelKind.LAPLACE_SINGLE, FmmPlan(pos, tgt), q, p)
        errs.append(_rel_l2(val, ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5


def test_error_tracks_two_to_minus_p():
    """The p = ceil(-log2 eps) rule assumes that the error stays below 2^-p
    at theta = 0.5."""
    pos, q = _random_sources(4000, 4)
    tgt = np.random.default_rng(31).uniform(0.0, 1.0, size=(300, 3))
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, q, tgt)
    for p in (5, 10):
        val = evaluate(KernelKind.LAPLACE_SINGLE, FmmPlan(pos, tgt), q, p)
        assert _rel_l2(val, ref) <= 2.0 ** -p


def test_single_cluster_error_bound():
    """Measured truncation error obeys the analytic bound at r/a = 2."""
    rng = np.random.default_rng(5)
    a = 0.5
    src = rng.normal(size=(200, 3))
    src *= a * rng.uniform(0.1, 1.0, size=(200, 1)) / np.linalg.norm(src, axis=1, keepdims=True)
    q = rng.uniform(0.0, 1.0, size=200)
    tgt = np.array([[2 * a, 0.0, 0.0]])
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, src, q, tgt)[0]
    for p in (2, 5, 8):
        exp = HR.particle_to_multipole(src, q, p)
        val = HR.multipole_to_point(exp, tgt, p)[0] / FOUR_PI
        bound = HR.multipole_error_bound(np.abs(q).sum(), a, 2 * a, p) / FOUR_PI
        assert abs(val - ref) <= bound


@pytest.mark.parametrize("kind", [KernelKind.LAPLACE_DOUBLE, KernelKind.STOKESLET,
                                  KernelKind.STRESSLET])
def test_all_kernels_match_direct(kind):
    rng = np.random.default_rng(7)
    pos = rng.uniform(0.0, 1.0, size=(1200, 3))
    tgt = rng.uniform(0.0, 1.0, size=(150, 3))
    normals = rng.normal(size=(1200, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    scalar = kind is KernelKind.LAPLACE_DOUBLE
    w = rng.uniform(-1.0, 1.0, size=1200 if scalar else (1200, 3))
    ref = direct_sum(kind, pos, w, tgt, normals=normals)
    val = evaluate(kind, FmmPlan(pos, tgt), w, 15, normals=normals)
    # Stokes kernels run through gradient channels, which cost ~one digit
    tol = 1e-6 if kind is KernelKind.LAPLACE_DOUBLE else 1e-5
    assert _rel_l2(val, ref) < tol


def test_gradient_consistency():
    pos, q = _random_sources(800, 8)
    plan = FmmPlan(pos, pos[:50], n_crit=64)
    _, grad = plan.far_field(charges=q[None], p=12, want_gradient=True)
    grad = grad[0]
    h = 1e-5
    for axis in range(2):
        step = np.zeros(3)
        step[axis] = h
        plus = FmmPlan(pos, pos[:50] + step, n_crit=64).far_field(charges=q[None], p=12)[0][0]
        minus = FmmPlan(pos, pos[:50] - step, n_crit=64).far_field(charges=q[None], p=12)[0][0]
        fd = (plus - minus) / (2 * h)
        # finite differences across separately built trees are noisy; loose band
        assert np.median(np.abs(grad[:, axis] - fd) / (np.abs(fd) + 1.0)) < 1e-3


def test_far_field_holds_expansions_and_one_block(traced_peak):
    """One p = 18 far field of 7 dipole channels with gradients, more than
    the stresslet's 4, holds, beyond its multipoles and locals (4.8 MiB
    here), one block of temporaries.

    The traced peak is 11.7 MiB, in the M2L sweep.  Its temporaries include
    the signed grid of the sweep's 65 offsets at order 36 (1.4 MiB) and the
    maps widened to intp (2 MiB).  Keeping the multipoles through L2L and
    L2P, the field rows of every leaf at once and 2048-body harmonics blocks
    took it to 17.9 MiB; the bound lies between the two.
    """
    plan = _sphere_plan()
    dip = np.random.default_rng(0).normal(size=(7, len(plan.src_tree.points), 3))
    plan.far_field(dipoles=dip, p=18, want_gradient=True)   # the maps of p = 18
    peak = traced_peak(lambda: plan.far_field(dipoles=dip, p=18, want_gradient=True))
    assert peak < 12 * 2 ** 20, peak / 2 ** 20


def test_plan_reuse_across_orders():
    pos, q = _random_sources(900, 9)
    tgt = np.random.default_rng(32).uniform(0.0, 1.0, size=(900, 3))
    plan = FmmPlan(pos, tgt, n_crit=64)
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, q, tgt)
    e_lo = _rel_l2(evaluate(KernelKind.LAPLACE_SINGLE, plan, q, 3), ref)
    e_hi = _rel_l2(evaluate(KernelKind.LAPLACE_SINGLE, plan, q, 12), ref)
    assert e_hi < e_lo


def test_plan_reapplied_at_any_order_equals_fresh_plan():
    """One plan applied at p = 12, 3, 12, 18, 5 in turn gives at each order
    bitwise the far field of a fresh plan: no apply leaves anything behind
    that a later one at another order reads."""
    plan = _sphere_plan()
    rng = np.random.default_rng(14)
    q = rng.uniform(-1.0, 1.0, size=(2, len(plan.src_tree.points)))
    dip = rng.normal(size=(2, len(plan.src_tree.points), 3))
    for p in (12, 3, 12, 18, 5):
        pot, grad = plan.far_field(charges=q, dipoles=dip, p=p, want_gradient=True)
        ref_pot, ref_grad = _sphere_plan().far_field(charges=q, dipoles=dip, p=p,
                                                     want_gradient=True)
        assert np.array_equal(pot, ref_pot) and np.array_equal(grad, ref_grad), p


def test_plan_is_not_changed_by_an_apply():
    """Far fields with gradients at p = 18, 5 and 18 create, drop and change
    no attribute of the plan, nor any array it holds: a plan holds geometry
    only, and each apply builds what its order needs."""
    plan = _sphere_plan()
    before = {k: pickle.dumps(v) for k, v in vars(plan).items()}
    rng = np.random.default_rng(15)
    q = rng.uniform(-1.0, 1.0, size=(2, len(plan.src_tree.points)))
    dip = rng.normal(size=(2, len(plan.src_tree.points), 3))
    for p in (18, 5, 18):
        plan.far_field(charges=q, dipoles=dip, p=p, want_gradient=True)
    assert vars(plan).keys() == before.keys()
    changed = [k for k, v in vars(plan).items() if pickle.dumps(v) != before[k]]
    assert not changed, changed


def test_error_bound_requires_separation():
    with pytest.raises(ValueError):
        HR.multipole_error_bound(1.0, 1.0, 0.5, 4)


def _near_field_by_leaf(plan, q, dip):
    """P2P through laplace_sum with a close-pair search per call, leaf by leaf."""
    pot = np.zeros((len(q), len(plan.tgt_tree.points)))
    grad = np.zeros(pot.shape + (3,))
    for tidx, sidx in plan.p2p_items():
        t, s = plan.tgt_tree.points[tidx], plan.src_tree.points[sidx]
        v, g = laplace_sum(pair_geometry(t, s), s, q[:, sidx], dip[:, sidx],
                           want_gradient=True)
        pot[:, tidx] += v
        grad[:, tidx] += g
    return pot, grad


@given(seed=st.integers(0, 2 ** 16), n_src=st.integers(1, 300), n_tgt=st.integers(1, 120),
       n_exact=st.integers(0, 20), n_offset=st.integers(0, 20), n_crit=st.integers(4, 40))
@settings(max_examples=30, deadline=None)
def test_near_field_matches_in_call_search(seed, n_src, n_tgt, n_exact, n_offset, n_crit):
    """The plan's cached close pairs give the sums of a fresh search, also
    for sources that copy a target exactly or sit 1e-9 from one."""
    rng = np.random.default_rng(seed)
    tgt = rng.uniform(0.0, 1.0, size=(n_tgt, 3))
    exact = tgt[rng.integers(0, n_tgt, size=n_exact)]
    offset = tgt[rng.integers(0, n_tgt, size=n_offset)] + 1e-9 * rng.normal(size=(n_offset, 3))
    src = np.vstack([rng.uniform(0.0, 1.0, size=(n_src, 3)), exact, offset])
    q = rng.uniform(-1.0, 1.0, size=(2, len(src)))
    dip = rng.uniform(-1.0, 1.0, size=(2, len(src), 3))
    plan = FmmPlan(src, tgt, n_crit=n_crit)
    pot, grad = plan.near_field(charges=q, dipoles=dip, want_gradient=True)
    ref_pot, ref_grad = _near_field_by_leaf(plan, q, dip)
    assert np.all(np.isfinite(pot)) and np.all(np.isfinite(grad))
    assert np.abs(pot - ref_pot).max() <= 1e-13 * np.abs(ref_pot).max()
    assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()


def test_near_field_coincident_pair_is_zero():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.0, size=(60, 3))
    plan = FmmPlan(pts, pts, n_crit=8)
    q = np.zeros(60)
    q[17] = 2.0
    dip = np.zeros((60, 3))
    dip[17] = [0.5, -1.0, 0.25]
    pot, grad = plan.near_field(charges=q[None], dipoles=dip[None], want_gradient=True)
    pot, grad = pot[0], grad[0]
    assert pot[17] == 0.0 and np.all(grad[17] == 0.0)
    assert np.count_nonzero(pot) > 0     # the source is seen by its neighbours


def test_target_leaf_without_p2p_pair_gets_zeros():
    """Targets far from every source, shuffled among near ones, sit in
    leaves with no P2P pair: their near field is exactly zero, and evaluate
    still matches direct_sum there."""
    rng = np.random.default_rng(15)
    src = rng.uniform(0.0, 1.0, size=(600, 3))
    far = np.arange(250) % 2 == 1
    tgt = rng.uniform(0.0, 1.0, size=(250, 3))
    tgt[far] = 8.0 + 0.1 * tgt[far]
    plan = FmmPlan(src, tgt, n_crit=20)
    in_p2p = np.zeros(len(tgt), dtype=bool)
    for tidx, _ in plan.p2p_items():
        in_p2p[tidx] = True
    assert np.array_equal(in_p2p, ~far)
    q = rng.uniform(-1.0, 1.0, size=(2, 600))
    dip = rng.uniform(-1.0, 1.0, size=(2, 600, 3))
    pot, grad = plan.near_field(charges=q, dipoles=dip, want_gradient=True)
    assert np.all(pot[:, far] == 0.0) and np.all(grad[:, far] == 0.0)
    assert np.all(pot[:, ~far] != 0.0)
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, src, q[0], tgt)
    val = evaluate(KernelKind.LAPLACE_SINGLE, plan, q[0], 12)
    # the order rule's 2^-p
    assert _rel_l2(val[far], ref[far]) <= 2.0 ** -12
    assert _rel_l2(val, ref) <= 2.0 ** -12


def test_near_field_translation_invariant():
    rng = np.random.default_rng(13)
    src = rng.uniform(0.0, 1.0, size=(600, 3))
    tgt = rng.uniform(0.0, 1.0, size=(200, 3))
    q = rng.uniform(-1.0, 1.0, size=(2, 600))
    dip = rng.uniform(-1.0, 1.0, size=(2, 600, 3))
    shift = np.array([1e3, -1e3, 1e3])
    plan = FmmPlan(src, tgt, n_crit=32)
    moved = FmmPlan(src + shift, tgt + shift, n_crit=32)
    np.testing.assert_array_equal(plan.p2p_pairs, moved.p2p_pairs)
    pot, grad = plan.near_field(charges=q, dipoles=dip, want_gradient=True)
    pot_s, grad_s = moved.near_field(charges=q, dipoles=dip, want_gradient=True)
    # shifted coordinates round at 1e3 * eps, so compare on the output scale
    assert np.abs(pot_s - pot).max() <= 1e-10 * np.abs(pot).max()
    assert np.abs(grad_s - grad).max() <= 1e-10 * np.abs(grad).max()
