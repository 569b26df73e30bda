"""Per-pair and per-kind forms of the operator build, kept as references.

The package builds the tree traversal, the near-pair corrections and the
interaction counts in whole-array passes: the traversal one tree level at
a time, the corrections of both kernels of a formulation in one pass over
one 23-point rule per pair, the counts as per-cell sums pushed down the
target tree, the translations of one offset group for all its reflections
at once.  These are the forms the tests check them against: the traversal
one cell pair at a time, the rule sums one kernel at a time, each
kernel's correction as fine-rule sums minus coarse-rule sums, the counts
one pair at a time, and the translations one reflection at a time.
"""

import math

import numpy as np

from fmmbem import harmonics as H
from fmmbem import quadrature as Q
from fmmbem.fmm import BLOCK_BYTES, CELL_RADIUS_FACTOR
from fmmbem.kernels import FOUR_PI, KernelKind


def dual_traversal(src_tree, tgt_tree, theta):
    """M2L and P2P cell pairs, popping one pair at a time off a stack."""
    rs = CELL_RADIUS_FACTOR * src_tree.half_width
    rt = CELL_RADIUS_FACTOR * tgt_tree.half_width
    sc, tc = src_tree.center, tgt_tree.center
    s_leaf, t_leaf = src_tree.is_leaf, tgt_tree.is_leaf
    s_kids, t_kids = src_tree.children, tgt_tree.children
    m2l_pairs, p2p_pairs = [], []
    stack = [(0, 0)]
    while stack:
        s, t = stack.pop()
        d = math.dist(sc[s], tc[t])
        if d > 0.0 and (rs[s] + rt[t]) < theta * d:
            m2l_pairs.append((s, t))
            continue
        if s_leaf[s] and t_leaf[t]:
            p2p_pairs.append((s, t))
            continue
        split_src = not s_leaf[s] and (t_leaf[t] or src_tree.half_width[s] >= tgt_tree.half_width[t])
        if split_src:
            stack.extend((k, t) for k in s_kids[s] if k >= 0)
        else:
            stack.extend((s, k) for k in t_kids[t] if k >= 0)
    as_array = lambda lst: np.asarray(lst, dtype=np.intp).reshape(-1, 2)
    return as_array(m2l_pairs), as_array(p2p_pairs)


def pair_rule_sums(kind, tgt, pts, wts, normals):
    """Batched quadrature sums of one kernel: one target and one point set per pair.

    tgt (Np, 3), pts (Np, K, 3), wts (Np, K), normals (Np, 3).  Pairs with
    a coincident point contribute zero from that point.  Returns (Np,) or
    (Np, 3, 3).
    """
    r = tgt[:, None, :] - pts
    d2 = np.einsum("pki,pki->pk", r, r)
    inv = np.zeros_like(d2)
    np.divide(1.0, np.sqrt(d2), out=inv, where=d2 > 0.0)
    if kind is KernelKind.LAPLACE_SINGLE:
        return np.einsum("pk,pk->p", wts, inv) / FOUR_PI
    if kind is KernelKind.LAPLACE_DOUBLE:
        rn = np.einsum("pki,pi->pk", r, normals)
        return np.einsum("pk,pk,pk->p", wts, rn, inv ** 3) / FOUR_PI
    if kind is KernelKind.STOKESLET:
        diag = np.einsum("pk,pk->p", wts, inv)
        outer = np.einsum("pk,pki,pkj->pij", wts * inv ** 3, r, r)
        return np.eye(3)[None] * diag[:, None, None] + outer
    rn = np.einsum("pki,pi->pk", r, normals)
    return 6.0 * np.einsum("pk,pki,pkj->pij", wts * rn * inv ** 5, r, r)


def correction_blocks(op, kind, pairs):
    """One kernel's correction blocks of a BemOperator, in the order of pairs:
    the 19-point sum (the singular integral for the self pair) minus the
    4-point sum that the direct pass adds."""
    pv = op.mesh.panel_vertices
    k = Q.FAR_RULE.n_points
    ti, sj = pairs[:, 0], pairs[:, 1]
    x, nj = op.centroids[ti], op.normals[sj]
    coarse = pair_rule_sums(kind, x, op.src_pos.reshape(-1, k, 3)[sj],
                            op.src_weight.reshape(-1, k)[sj], nj)
    fine_pts, fine_wts = Q.quadrature_points(pv, Q.NEAR_RULE)
    fine = pair_rule_sums(kind, x, fine_pts[sj], fine_wts[sj], nj)
    own = ti == sj
    fine[own] = 0.0
    deltas = fine - coarse
    if kind is KernelKind.LAPLACE_SINGLE:
        deltas[own] += Q.integrate_singular_laplace(pv[sj[own]])
    elif kind is KernelKind.STOKESLET:
        deltas[own] += Q.integrate_singular_stokeslet(pv[sj[own]])
    return deltas


def interaction_counts(plan):
    """Sources accounted for per target of an FmmPlan, one M2L pair at a time
    and one P2P target leaf at a time."""
    tgt = plan.tgt_tree
    counts = np.zeros(len(tgt.points))
    for s, t in plan.m2l_pairs:
        start = tgt.body_start[t]
        counts[tgt.perm[start:start + tgt.body_count[t]]] += plan.src_tree.body_count[s]
    for tidx, sidx in plan.p2p_items():
        counts[tidx] += len(sidx)
    return counts


def sweep_per_member(kind, groups, grids, p, src, dst):
    """fmm._sweep one member at a time: per group, the pairs of each flip
    (whose destination cells differ) in blocks of at most BLOCK_BYTES of
    coefficients, one gather, GEMM and scatter each."""
    maps = H.translation_maps(kind, p)
    signs = H.reflection_signs(p)
    _, C, size = src.shape
    step = max(1, BLOCK_BYTES // (8 * C * size))
    for grid, (a_g, b_g, flip_g, _) in zip(grids, groups):
        T = H.assemble(grid, maps)
        for flip in np.unique(flip_g):
            a, b = a_g[flip_g == flip], b_g[flip_g == flip]
            for lo in range(0, len(a), step):
                x = src[a[lo:lo + step]] * signs[flip]
                n = len(x)
                dst[b[lo:lo + step]] += (
                    (x.reshape(n * C, size) @ T.T).reshape(n, C, size) * signs[flip])
