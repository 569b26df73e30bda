"""Tree-accelerated evaluation against direct sums, and structural checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmbem import harmonics as H
from fmmbem.fmm import FmmPlan, dual_traversal, evaluate, multipole_error_bound, required_p
from fmmbem.kernels import FOUR_PI, KernelKind, direct_sum, laplace_sum
from fmmbem.octree import build_tree

RNG = np.random.default_rng(21)


def _rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _random_sources(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, 3))
    q = rng.uniform(-1.0, 1.0, size=n)
    return pos, q


def test_required_p():
    assert required_p(1.0) == 0
    assert required_p(1e-3) == 10
    assert required_p(0.5 ** 12) == 12
    with pytest.raises(ValueError):
        required_p(0.0)


def test_traversal_accounts_every_pair():
    """M2L + P2P lists cover each (target, source) pair exactly once."""
    pos, q = _random_sources(700, 1)
    tgt = np.random.default_rng(2).uniform(0.0, 1.0, size=(300, 3))
    plan = FmmPlan(pos, tgt, n_crit=30, theta=0.5)
    counts = plan.interaction_counts()
    np.testing.assert_array_equal(counts, np.full(len(tgt), len(pos)))


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
        val = evaluate(KernelKind.LAPLACE_SINGLE, pos, q, tgt, p=p)
        errs.append(_rel_l2(val, ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5


def test_error_tracks_two_to_minus_p():
    """The p = ceil(-log2 eps) rule assumes error ~ 2^-p at theta = 0.5."""
    pos, q = _random_sources(4000, 4)
    tgt = np.random.default_rng(31).uniform(0.0, 1.0, size=(300, 3))
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, q, tgt)
    for p in (5, 10):
        val = evaluate(KernelKind.LAPLACE_SINGLE, pos, q, tgt, p=p)
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
        exp = H.particle_to_multipole(src, q, p)
        val = H.multipole_to_point(exp, tgt, p)[0] / FOUR_PI
        bound = multipole_error_bound(np.abs(q).sum(), a, 2 * a, p) / FOUR_PI
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
    val = evaluate(kind, pos, w, tgt, p=15, normals=normals)
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


def test_plan_reuse_across_orders():
    pos, q = _random_sources(900, 9)
    tgt = np.random.default_rng(32).uniform(0.0, 1.0, size=(900, 3))
    plan = FmmPlan(pos, tgt, n_crit=64)
    ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, q, tgt)
    e_lo = _rel_l2(evaluate(KernelKind.LAPLACE_SINGLE, pos, q, tgt, p=3, plan=plan), ref)
    e_hi = _rel_l2(evaluate(KernelKind.LAPLACE_SINGLE, pos, q, tgt, p=12, plan=plan), ref)
    assert e_hi < e_lo


def test_error_bound_requires_separation():
    with pytest.raises(ValueError):
        multipole_error_bound(1.0, 1.0, 0.5, 4)


def _near_field_by_leaf(plan, q, dip):
    """P2P through laplace_sum with its in-call close-pair search, leaf by leaf."""
    pot = np.zeros((len(q), len(plan.tgt_tree.points)))
    grad = np.zeros(pot.shape + (3,))
    for tidx, sidx in plan.p2p_items():
        v, g = laplace_sum(plan.tgt_tree.points[tidx], plan.src_tree.points[sidx],
                           q[:, sidx], dip[:, sidx], want_gradient=True)
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
