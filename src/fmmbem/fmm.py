"""Fast multipole evaluation of kernel sums with a per-call truncation order.

The driver is organized around :class:`FmmPlan`: trees and the dual-tree
traversal are built once for a source/target geometry, while the expansion
order ``p`` is an argument of every application, so a relaxed solver can
lower ``p`` each iteration without rebuilding anything.

The harmonic machinery works on the bare 1/r kernel with monopole and dipole
sources, for C channels at once; :func:`fmmbem.kernels.kernel_sum` reduces
every kernel to such channels and recombines their values and gradients.
"""

import functools
import math

import numpy as np

from . import harmonics as H
from .kernels import kernel_sum, laplace_sum, pair_geometry
from .octree import MAX_DEPTH, build_tree, bounding_cube

# Cell size entering the acceptance criterion, in units of the cube half
# width.  With 1.0 the measured far-field error tracks ~2^-p at theta = 0.5,
# which is what the order schedule p = ceil(-log2 eps) assumes.
CELL_RADIUS_FACTOR = 1.0


# Bodies per block of packed harmonics in P2M and L2P: 2048 x (19^2) doubles
# is 5.6 MiB at p = 18, and larger blocks run no faster.
POINT_CHUNK = 2048


def required_p(eps):
    """Expansion order needed for accuracy eps at separation ratio 2."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    return max(0, math.ceil(-math.log2(eps)))


def dual_traversal(src_tree, tgt_tree, theta):
    """M2L and P2P cell pair lists from a simultaneous tree descent.

    A pair is accepted for M2L when (r_src + r_tgt) < theta * distance, with
    r = CELL_RADIUS_FACTOR times the cell half-width.  Otherwise a leaf-leaf
    pair goes to P2P, and any other pair is replaced by the pairs of one
    cell's children: the source cell's when it is no leaf and the target
    cell is a leaf or no larger, else the target cell's.  The descent is
    level-synchronous: each step tests, accepts and splits every pending
    pair at once.  Returns (M2L pairs, P2P pairs), each an (n, 2) array of
    (source cell, target cell).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    rs = CELL_RADIUS_FACTOR * src_tree.half_width
    rt = CELL_RADIUS_FACTOR * tgt_tree.half_width
    sc, tc = src_tree.center, tgt_tree.center
    s_leaf, t_leaf = src_tree.is_leaf, tgt_tree.is_leaf
    m2l_pairs, p2p_pairs = [], []
    s = t = np.zeros(1, dtype=np.intp)
    while len(s):
        diff = sc[s] - tc[t]
        d = np.sqrt(np.einsum("ni,ni->n", diff, diff))
        far = (d > 0.0) & (rs[s] + rt[t] < theta * d)
        both_leaves = ~far & s_leaf[s] & t_leaf[t]
        m2l_pairs.append(np.column_stack([s[far], t[far]]))
        p2p_pairs.append(np.column_stack([s[both_leaves], t[both_leaves]]))
        split = ~(far | both_leaves)
        s, t = s[split], t[split]
        split_src = ~s_leaf[s] & (t_leaf[t] | (src_tree.half_width[s] >= tgt_tree.half_width[t]))
        src_kids = src_tree.children[s[split_src]]
        tgt_kids = tgt_tree.children[t[~split_src]]
        src_real, tgt_real = src_kids >= 0, tgt_kids >= 0
        s = np.concatenate([src_kids[src_real], np.repeat(s[~split_src], tgt_real.sum(axis=1))])
        t = np.concatenate([np.repeat(t[split_src], src_real.sum(axis=1)), tgt_kids[tgt_real]])
    return np.concatenate(m2l_pairs), np.concatenate(p2p_pairs)


def _offset_groups(pairs, offsets, quantum):
    """Group (source cell, destination cell) pairs by their offset.

    Offsets are keyed on a lattice of spacing quantum, exact for the cells
    of one root cube, and mirrored into the positive octant: one operator
    serves all eight axis reflections of an offset.  Returns the mirrored
    offsets, smallest first, and per offset its members (source cells,
    destination cells, flip), flip having bit a set where the offset is
    negative on axis a; pairs keep their order within a member.
    """
    keys = np.round(offsets / quantum).astype(np.int64)
    flips = (keys < 0) @ np.array([1, 2, 4])
    mirrored = np.abs(keys)
    # by mirrored offset (x first), then flip; lexsort is stable
    order = np.lexsort((flips, mirrored[:, 2], mirrored[:, 1], mirrored[:, 0]))
    step = np.diff(np.column_stack([flips, mirrored])[order], axis=0, prepend=-1) != 0
    new_offset = step[:, 1:].any(axis=1)
    starts = np.flatnonzero(step.any(axis=1))
    groups = []
    for lo, hi in zip(starts, np.append(starts[1:], len(order))):
        if new_offset[lo]:
            groups.append([])
        members = pairs[order[lo:hi]]
        groups[-1].append((members[:, 0], members[:, 1], flips[order[lo]]))
    return mirrored[order[new_offset]] * quantum, groups


def _child_parent(tree):
    """(child, parent) pairs of a tree and their child-minus-parent offsets."""
    kids = np.flatnonzero(tree.parent >= 0)
    parents = tree.parent[kids]
    return np.column_stack([kids, parents]), tree.center[kids] - tree.center[parents]


def _sweep(kind, groups, grids, p, src, dst):
    """dst[b] += diag(s) T diag(s) src[a] for every member (a, b, flip) of
    every group, one GEMM per member, in the order of groups.

    T is the kind's operator built from the group's signed grid row, and s
    the reflection signs of flip (see harmonics.reflection_signs).  The
    destination cells of one member must not repeat.
    """
    maps = H.translation_maps(kind, p)
    signs = H.reflection_signs(p)
    for grid, members in zip(grids, groups):
        T = H.assemble(grid, maps)
        for a, b, flip in members:
            x = src[a] * signs[flip]
            n, C, size = x.shape
            dst[b] += (x.reshape(n * C, size) @ T.T).reshape(n, C, size) * signs[flip]


class FmmPlan:
    """Trees, traversal and cached translation data for one geometry."""

    def __init__(self, src_pos, tgt_pos, n_crit=126, theta=0.5):
        src_pos = np.atleast_2d(np.asarray(src_pos, dtype=float))
        tgt_pos = np.atleast_2d(np.asarray(tgt_pos, dtype=float))
        center, half = bounding_cube(np.vstack([src_pos, tgt_pos]))
        src = self.src_tree = build_tree(src_pos, n_crit, center, half)
        tgt = self.tgt_tree = build_tree(tgt_pos, n_crit, center, half)
        self.m2l_pairs, self.p2p_pairs = dual_traversal(src, tgt, theta)
        # every translation is grouped by its offset: target minus source for
        # M2L, child minus parent for M2M and L2L
        quantum = half * 2.0 ** -(MAX_DEPTH + 2)
        s, t = self.m2l_pairs.T
        self._m2l_offsets, self._m2l_groups = _offset_groups(
            self.m2l_pairs, tgt.center[t] - src.center[s], quantum)
        pairs, offsets = _child_parent(src)
        self._m2m_offsets, self._m2m_groups = _offset_groups(pairs, offsets, quantum)
        pairs, offsets = _child_parent(tgt)
        self._l2l_offsets, self._l2l_groups = _offset_groups(pairs[:, ::-1], offsets, quantum)
        # P2P per target leaf: its bodies, the sorted bodies of all its source
        # leaves, and the density-independent part of their direct sum
        s, t = self.p2p_pairs[np.lexsort(self.p2p_pairs.T)].T
        count = src.body_count[s]
        row = np.cumsum(count) - count                 # first source row of each pair
        body = np.repeat(src.body_start[s] - row, count) + np.arange(count.sum())
        leaves, first = np.unique(t, return_index=True)
        self._p2p = []
        for leaf, sources in zip(leaves, np.split(src.perm[body], row[first[1:]])):
            start = tgt.body_start[leaf]
            targets = tgt.perm[start:start + tgt.body_count[leaf]]
            sources = np.sort(sources)
            self._p2p.append((targets, sources,
                              pair_geometry(tgt.points[targets], src.points[sources])))
        self._igrid = (None, None)   # (p, signed M2L grid) of the last order used

    # -- structural bookkeeping -------------------------------------------------

    def interaction_counts(self):
        """Number of sources accounted for per target, via the pair lists only."""
        src, tgt = self.src_tree, self.tgt_tree
        per_cell = np.zeros(tgt.n_cells)
        for s, t in (self.m2l_pairs.T, self.p2p_pairs.T):
            per_cell += np.bincount(t, weights=src.body_count[s], minlength=tgt.n_cells)
        # a target counts the sources of every pair of its leaf and its ancestors
        for cells in tgt.cells_by_level[1:]:
            per_cell[cells] += per_cell[tgt.parent[cells]]
        counts = np.empty(len(tgt.points))
        counts[tgt.perm] = per_cell[tgt.leaf_of_body]
        return counts

    # -- far field --------------------------------------------------------------

    def _igrids(self, p):
        """Signed packed irregular grid of order 2p at every M2L offset.

        Only the last order is kept: a relaxed solve never raises p again.
        """
        if self._igrid[0] != p:
            self._igrid = (None, None)   # free the old grid before building
            grid = H.signed_grid(H.packed_irregular(self._m2l_offsets, 2 * p))
            self._igrid = (p, grid)
        return self._igrid[1]

    def far_field(self, charges=None, dipoles=None, p=8, want_gradient=False):
        """Expansion-mediated part of the 1/r (and dipole) potential.

        charges (C, Ns) and dipoles (C, Ns, 3), either may be None, are C
        channels.  Returns (C, Nt) potentials and (C, Nt, 3) gradients, the
        latter None unless want_gradient.  P2P pairs are NOT included.
        """
        C = len(charges if charges is not None else dipoles)
        nt = len(self.tgt_tree.points)
        size = H.num_coeffs(p)

        M = self._upward(charges, dipoles, p, C, size)
        L = self._m2l_sweep(M, p, C, size)
        self._l2l_sweep(L, p)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        self._l2p(L, p, pot, grad)
        return pot, grad

    def _upward(self, q, dip, p, C, size):
        """P2M at the leaves, then M2M to the root."""
        M = np.zeros((self.src_tree.n_cells, C, size))
        # the P2M temporaries are freed on return, before M2M builds its maps
        self._leaf_multipoles(q, dip, p, C, M)
        # smallest offset, so deepest level, first: a parent's multipole is
        # complete before it moves up
        grids = H.signed_grid(H.packed_regular(self._m2m_offsets, p))
        _sweep("m2m", self._m2m_groups, grids, p, M, M)
        return M

    def _leaf_multipoles(self, q, dip, p, C, M):
        """Add each source leaf's multipole coefficients to its row of M.

        Each leaf block forms [q; d_x; d_y; d_z] @ R with one GEMM; the
        dipole moments become multipole coefficients through the adjoint
        gradient shift, applied per block so that no array of every leaf's
        moments is ever held.
        """
        tree = self.src_tree
        rows = [] if q is None else [q[:, tree.perm]]
        if dip is not None:
            # (C, 3, N): the three moment rows of a channel are adjacent
            rows.append(np.moveaxis(dip[:, tree.perm], 2, 1).reshape(3 * C, -1))
        weights = np.vstack(rows)

        def visit(i, s, e, R):
            raw = weights[:, s:e] @ R
            cell = tree.leaves[i]
            if q is not None:
                M[cell] += raw[:C]
            if dip is not None:
                M[cell] += H.dipole_shift(raw[-3 * C:].reshape(C, 3, -1), p)

        self._leaf_blocks(tree, p, visit)

    @staticmethod
    def _leaf_blocks(tree, p, visit):
        """Call visit(leaf number, start, end, R) for each leaf's slice of each
        point chunk, R the packed regular harmonics of those bodies about
        their leaf center, shape (end - start, (p+1)^2)."""
        rel = tree.sorted_points - tree.center[tree.leaf_of_body]
        starts = tree.body_start[tree.leaves]
        ends = starts + tree.body_count[tree.leaves]
        for lo in range(0, len(rel), POINT_CHUNK):
            hi = min(lo + POINT_CHUNK, len(rel))
            R = H.packed_regular(rel[lo:hi], p)
            for i in np.flatnonzero((ends > lo) & (starts < hi)):
                s, e = max(starts[i], lo), min(ends[i], hi)
                visit(i, s, e, R[s - lo:e - lo])

    def _m2l_sweep(self, M, p, C, size):
        L = np.zeros((self.tgt_tree.n_cells, C, size))
        _sweep("m2l", self._m2l_groups, self._igrids(p), p, M, L)
        L *= H.row_sign(p)
        return L

    def _l2l_sweep(self, L, p):
        # largest offset, so shallowest level, first: a parent's local
        # expansion is complete before it moves down
        grids = H.signed_grid(H.packed_regular(self._l2l_offsets, p))
        _sweep("l2l", self._l2l_groups[::-1], grids[::-1], p, L, L)

    def _l2p(self, L, p, pot, grad):
        """Potential (and gradient) rows of every leaf against its bodies'
        regular harmonics, one GEMM per leaf block."""
        tree = self.tgt_tree
        rows = H.local_field_coeffs(L[tree.leaves], p, grad is not None)
        n_leaf, C, k, size = rows.shape
        rows = rows.reshape(n_leaf, C * k, size)
        field = np.zeros((C, k, len(tree.perm)))     # in sorted body order

        def visit(i, s, e, R):
            field[:, :, s:e] += (rows[i] @ R.T).reshape(C, k, e - s)

        self._leaf_blocks(tree, p, visit)
        pot[:, tree.perm] += field[:, 0]
        if grad is not None:
            grad[:, tree.perm] += np.moveaxis(field[:, 1:], 1, 2)

    # -- near field -------------------------------------------------------------

    def p2p_items(self):
        """(target body indices, source body indices) per P2P target leaf."""
        return ((targets, sources) for targets, sources, _ in self._p2p)

    def near_field(self, charges=None, dipoles=None, want_gradient=False):
        """Direct 1/r (and dipole) sums over the P2P pairs.

        Same arguments and return shapes as :meth:`far_field`.  Coincident
        source/target pairs contribute zero (the BEM layer replaces self
        interactions with singular integrals).
        """
        C = len(charges if charges is not None else dipoles)
        nt = len(self.tgt_tree.points)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        for tidx, sidx, geo in self._p2p:
            v, g = laplace_sum(geo, self.src_tree.points[sidx],
                               None if charges is None else charges[:, sidx],
                               None if dipoles is None else dipoles[:, sidx], want_gradient)
            pot[:, tidx] += v
            if want_gradient:
                grad[:, tidx] += g
        return pot, grad

    def channel_sum(self, charges, dipoles, want_gradient, p):
        """The whole 1/r sum at order p: :meth:`far_field` plus :meth:`near_field`."""
        pot, grad = self.far_field(charges=charges, dipoles=dipoles, p=p,
                                   want_gradient=want_gradient)
        npot, ngrad = self.near_field(charges=charges, dipoles=dipoles,
                                      want_gradient=want_gradient)
        return pot + npot, None if grad is None else grad + ngrad


def evaluate(kernel, src_pos, weights, targets, p, theta=0.5, n_crit=126,
             normals=None, plan=None):
    """FMM approximation of :func:`fmmbem.kernels.direct_sum`.

    weights: (Ns,) charges for Laplace kernels, (Ns, 3) strengths for Stokes.
    A prebuilt :class:`FmmPlan` for the same geometry can be passed to amortize
    tree construction across calls.
    """
    src_pos = np.atleast_2d(np.asarray(src_pos, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if plan is None:
        plan = FmmPlan(src_pos, targets, n_crit=n_crit, theta=theta)
    return kernel_sum(kernel, functools.partial(plan.channel_sum, p=p), src_pos, weights,
                      targets, normals)

