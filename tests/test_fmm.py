"""Tree-accelerated evaluation against direct sums, and structural checks."""

import numpy as np
import pytest

from fmmbem import harmonics as H
from fmmbem.fmm import FmmPlan, dual_traversal, evaluate, multipole_error_bound, required_p
from fmmbem.kernels import FOUR_PI, KernelKind, direct_sum
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
    pot, grad = plan.far_field(charges=q, p=12, want_gradient=True)
    h = 1e-5
    for axis in range(2):
        step = np.zeros(3)
        step[axis] = h
        plus = FmmPlan(pos, pos[:50] + step, n_crit=64).far_field(charges=q, p=12)
        minus = FmmPlan(pos, pos[:50] - step, n_crit=64).far_field(charges=q, p=12)
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
