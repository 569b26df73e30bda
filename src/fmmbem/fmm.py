"""Fast multipole evaluation of kernel sums with a per-call truncation order.

The driver is organized around :class:`FmmPlan`: trees and the dual-tree
traversal are built once for a source/target geometry, while the expansion
order ``p`` is an argument of every application, so a relaxed solver can
lower ``p`` each iteration without rebuilding anything.

The harmonic machinery works on the bare 1/r kernel with monopole and dipole
sources, for C channels at once; :func:`fmmbem.kernels.kernel_sum` reduces
every kernel to such channels and recombines their values and gradients.

M2M, M2L and L2L are one sweep over offset groups: every axis reflection
of a group's offset shares one operator, so a group's cell pairs, all
reflections stacked, go through one GEMM per block of rows.  P2P runs per
target leaf on its slice of the target tree's sorted order, so each leaf
writes its sums into place, and one permutation per call puts them back in
the callers' order.

One apply holds its expansions, the multipoles only until M2L has read
them, and beyond them one block of temporaries at a time: in P2M and L2P
the packed harmonics of one block of bodies (at most BLOCK_BYTES) and the
field rows of one leaf, in each translation sweep the signed grid of its
offsets, its maps widened to intp and the coefficients of one block of a
group's cells (at most STACK_BYTES), and in P2P the at most two (Nt, Ns)
work arrays of one :func:`fmmbem.kernels.laplace_sum`, float32 ones when the
near field runs in single precision.
"""

import functools

import numpy as np

from . import harmonics as H
from .kernels import kernel_sum, laplace_sum, pair_geometry
from .octree import MAX_DEPTH, build_tree, bounding_cube

# Cell size entering the acceptance criterion, in units of the cube half
# width.  With 1.0 the measured far-field error stays below 2^-p at
# theta = 0.5, which is what the order rule p = ceil(-log2 eps) of
# solver.schedule_p assumes.
CELL_RADIUS_FACTOR = 1.0


# Bytes of packed harmonics per block of bodies in P2M and L2P: 1 MiB is
# 363 bodies at p = 18 and 3640 at p = 5, and larger blocks run no faster.
BLOCK_BYTES = 2 ** 20

# Bytes of gathered coefficients per GEMM of a translation sweep: 256 KiB
# takes all reflections of most groups at once and keeps peak RSS flat.
STACK_BYTES = 2 ** 18


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
    offsets, smallest first, and per offset its pairs as (source cells,
    destination cells, flips, bounds), flip having bit a set where the
    pair's offset is negative on axis a.  A pair's rank is the number of
    pairs of its group with the same destination and a smaller flip; the
    pairs go by rank, then by destination, and bounds holds the first row
    of each rank and the end, so that each rank's destinations differ.
    """
    keys = np.round(offsets / quantum).astype(np.int64)
    flips = (keys < 0) @ np.array([1, 2, 4])
    mirrored = np.abs(keys)
    # by mirrored offset (x first), then destination, then flip
    order = np.lexsort((flips, pairs[:, 1], mirrored[:, 2], mirrored[:, 1], mirrored[:, 0]))
    new_offset = np.diff(mirrored[order], axis=0, prepend=-1).any(axis=1)
    dest = pairs[order, 1]
    row = np.arange(len(order))
    new_dest = new_offset | (np.diff(dest, prepend=-1) != 0)
    rank = row - np.maximum.accumulate(np.where(new_dest, row, 0))
    by_rank = np.lexsort((dest, rank, np.cumsum(new_offset)))
    order, rank = order[by_rank], rank[by_rank]
    starts = np.flatnonzero(new_offset)
    groups = []
    for rows, ranks in zip(np.split(order, starts[1:]), np.split(rank, starts[1:])):
        bounds = np.flatnonzero(np.diff(ranks, prepend=-1, append=-1)).tolist()
        groups.append((pairs[rows, 0], pairs[rows, 1], flips[rows], bounds))
    return mirrored[order[new_offset]] * quantum, groups


def _child_parent(tree):
    """(child, parent) pairs of a tree and their child-minus-parent offsets."""
    kids = np.flatnonzero(tree.parent >= 0)
    parents = tree.parent[kids]
    return np.column_stack([kids, parents]), tree.center[kids] - tree.center[parents]


def _sweep(kind, groups, offsets, p, src, dst):
    """dst[b] += diag(s) T diag(s) src[a] for every pair (a, b, flip) of every
    group, in the order of groups, offsets[i] being the offset of groups[i].

    T is the kind's operator built from the group's signed grid row, and s
    the reflection signs of flip (see harmonics.reflection_signs).  All
    reflections of a group share T, so its rows go in blocks of at most
    STACK_BYTES of coefficients, one GEMM each, and each rank of a block is
    added to dst with one scatter.  The signed grid of the offsets at order
    p (irregular of order 2p for M2L) and the kind's compact maps widened
    to intp are built once, for all groups, and live as long as the sweep.
    """
    grid = H.signed_grid(H.packed_irregular(offsets, 2 * p) if kind == "m2l"
                         else H.packed_regular(offsets, p))
    maps = tuple(m.astype(np.intp) for m in H.translation_maps(kind, p))
    signs = H.reflection_signs(p)
    _, C, size = src.shape
    step = max(1, STACK_BYTES // (8 * C * size))
    for row, (a, b, flip, bounds) in zip(grid, groups):
        T = H.assemble(row, maps)
        for lo in range(0, len(a), step):
            hi = min(lo + step, len(a))
            s = np.take(signs, flip[lo:hi], axis=0)[:, None]
            x = np.take(src, a[lo:hi], axis=0)
            x *= s
            y = (x.reshape(-1, size) @ T.T).reshape(x.shape)
            y *= s
            for r0, r1 in zip(bounds, bounds[1:]):
                r0, r1 = max(r0, lo), min(r1, hi)
                if r0 < r1:
                    dst[b[r0:r1]] += y[r0 - lo:r1 - lo]


class FmmPlan:
    """Trees, traversal and translation groups for one geometry: nothing
    that depends on the order p, and nothing that an apply changes."""

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
        # P2P per target leaf: its slice (start, end) of the target tree's
        # sorted order, the sorted bodies of all its source leaves, and the
        # density-independent part of their direct sum
        s, t = self.p2p_pairs[np.lexsort(self.p2p_pairs.T)].T
        count = src.body_count[s]
        row = np.cumsum(count) - count                 # first source row of each pair
        body = np.repeat(src.body_start[s] - row, count) + np.arange(count.sum())
        leaves, first = np.unique(t, return_index=True)
        self._p2p = []
        for leaf, sources in zip(leaves, np.split(src.perm[body], row[first[1:]])):
            start = int(tgt.body_start[leaf])
            end = start + int(tgt.body_count[leaf])
            sources = np.sort(sources)
            self._p2p.append((start, end, sources,
                              pair_geometry(tgt.sorted_points[start:end], src.points[sources])))

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

    def far_field(self, charges=None, dipoles=None, *, p, want_gradient=False):
        """Expansion-mediated part of the 1/r (and dipole) potential at order p.

        charges (C, Ns) and dipoles (C, Ns, 3), either may be None, are C
        channels.  Returns (C, Nt) potentials and (C, Nt, 3) gradients, the
        latter None unless want_gradient.  P2P pairs are NOT included.
        """
        M = self._upward(charges, dipoles, p)
        L = self._m2l_sweep(M, p)
        del M       # read by M2L alone: freed before L2L and L2P
        self._l2l_sweep(L, p)
        shape = (L.shape[1], len(self.tgt_tree.points))
        pot = np.zeros(shape)
        grad = np.zeros(shape + (3,)) if want_gradient else None
        self._l2p(L, p, pot, grad)
        return pot, grad

    def _upward(self, q, dip, p):
        """P2M at the leaves, then M2M to the root."""
        C = len(q if q is not None else dip)
        M = np.zeros((self.src_tree.n_cells, C, H.num_coeffs(p)))
        # the P2M temporaries are freed on return, before M2M builds its maps
        self._leaf_multipoles(q, dip, p, M)
        # smallest offset, so deepest level, first: a parent's multipole is
        # complete before it moves up
        _sweep("m2m", self._m2m_groups, self._m2m_offsets, p, M, M)
        return M

    def _leaf_multipoles(self, q, dip, p, M):
        """Add each source leaf's multipole coefficients to its row of M.

        Each leaf's slice of a block forms [q; d_x; d_y; d_z] @ R with one
        GEMM; the dipole moments become multipole coefficients through the
        adjoint gradient shift.  Densities are gathered block by block.
        """
        tree = self.src_tree
        C = M.shape[1]

        def visit(bodies, R, slices):
            rows = [] if q is None else [q[:, bodies]]
            if dip is not None:
                # (C, 3, n): the three moment rows of a channel are adjacent
                rows.append(np.moveaxis(dip[:, bodies], 2, 1).reshape(3 * C, -1))
            weights = np.vstack(rows)
            for i, s, e in slices:
                raw = weights[:, s:e] @ R[s:e]
                cell = tree.leaves[i]
                if q is not None:
                    M[cell] += raw[:C]
                if dip is not None:
                    M[cell] += H.dipole_shift(raw[-3 * C:].reshape(C, 3, -1), p)

        self._leaf_blocks(tree, p, visit)

    @staticmethod
    def _leaf_blocks(tree, p, visit):
        """Call visit(bodies, R, slices) for each block of sorted bodies.

        bodies are the block's body indices, R their packed regular harmonics
        about their leaf centers, shape (len(bodies), (p+1)^2), and slices
        the (leaf number, start, end) of each leaf's part of the block, start
        and end counted within the block.  R takes at most BLOCK_BYTES, and
        one block is alive at a time.
        """
        step = max(1, BLOCK_BYTES // (8 * H.num_coeffs(p)))
        starts = tree.body_start[tree.leaves]
        ends = starts + tree.body_count[tree.leaves]
        for lo in range(0, len(tree.perm), step):
            hi = min(lo + step, len(tree.perm))
            R = H.packed_regular(
                tree.sorted_points[lo:hi] - tree.center[tree.leaf_of_body[lo:hi]], p)
            leaves = np.flatnonzero((ends > lo) & (starts < hi))
            slices = zip(leaves.tolist(), (np.maximum(starts[leaves], lo) - lo).tolist(),
                         (np.minimum(ends[leaves], hi) - lo).tolist())
            visit(tree.perm[lo:hi], R, slices)
            del R

    def _m2l_sweep(self, M, p):
        L = np.zeros((self.tgt_tree.n_cells,) + M.shape[1:])
        _sweep("m2l", self._m2l_groups, self._m2l_offsets, p, M, L)
        return L

    def _l2l_sweep(self, L, p):
        # largest offset, so shallowest level, first: a parent's local
        # expansion is complete before it moves down
        _sweep("l2l", self._l2l_groups[::-1], self._l2l_offsets[::-1], p, L, L)

    def _l2p(self, L, p, pot, grad):
        """Add the potential (and gradient) of every leaf's local expansion at
        its bodies, one GEMM per leaf slice of a block.  A leaf's field rows
        are formed when the first block of its bodies comes."""
        tree = self.tgt_tree
        _, C, size = L.shape
        k = 1 if grad is None else 4
        leaf = rows = None

        def visit(bodies, R, slices):
            nonlocal leaf, rows
            field = np.empty((C, k, len(bodies)))
            for i, s, e in slices:
                if i != leaf:
                    leaf = i
                    rows = H.local_field_coeffs(L[tree.leaves[i]], p, k > 1).reshape(-1, size)
                field[:, :, s:e] = (rows @ R[s:e].T).reshape(C, k, e - s)
            pot[:, bodies] += field[:, 0]
            if grad is not None:
                grad[:, bodies] += np.moveaxis(field[:, 1:], 1, 2)

        self._leaf_blocks(tree, p, visit)

    # -- near field -------------------------------------------------------------

    def p2p_items(self):
        """(target body indices, source body indices) per P2P target leaf."""
        perm = self.tgt_tree.perm
        return ((perm[start:end], sources) for start, end, sources, _ in self._p2p)

    def near_field(self, charges=None, dipoles=None, want_gradient=False, single=False,
                   moment=False):
        """Direct 1/r (and dipole) sums over the P2P pairs.

        Same arguments and return shapes as :meth:`far_field`; single and
        moment go to each :func:`fmmbem.kernels.laplace_sum`.  Coincident
        source/target pairs contribute zero (the BEM layer replaces self
        interactions with singular integrals).  Each target leaf writes its
        slice of the target tree's sorted order, and the sums are put back in
        the callers' order once at the end; targets whose leaf has no P2P
        pair get zeros.
        """
        C = len(charges if charges is not None else dipoles)
        tgt = self.tgt_tree
        nt = len(tgt.points)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        points = self.src_tree.points
        if single:
            # densities rounded once, not per leaf: on the Stokes apply this
            # rounding, at the scale of the coordinates, costs about 3e-7
            charges = None if charges is None else charges.astype(np.float32)
            dipoles = None if dipoles is None else dipoles.astype(np.float32)
        for start, end, sidx, geo in self._p2p:
            v, g = laplace_sum(geo, np.take(points, sidx, axis=0),
                               None if charges is None else np.take(charges, sidx, axis=1),
                               None if dipoles is None else np.take(dipoles, sidx, axis=1),
                               want_gradient, single, moment)
            pot[:, start:end] = v
            if want_gradient:
                grad[:, start:end] = g
        back = np.empty_like(tgt.perm)      # sorted position of each target
        back[tgt.perm] = np.arange(nt)
        return pot[:, back], None if grad is None else grad[:, back]

    def channel_sum(self, charges, dipoles, want_gradient, p, single=False, moment=False):
        """The whole 1/r sum at order p: :meth:`far_field` plus :meth:`near_field`,
        which takes single and moment."""
        pot, grad = self.far_field(charges=charges, dipoles=dipoles, p=p,
                                   want_gradient=want_gradient)
        npot, ngrad = self.near_field(charges=charges, dipoles=dipoles,
                                      want_gradient=want_gradient, single=single,
                                      moment=moment)
        pot += npot
        if grad is not None:
            grad += ngrad
        return pot, grad


def evaluate(kernel, plan, weights, p, normals=None):
    """FMM approximation at order p of :func:`fmmbem.kernels.direct_sum`
    from the sources to the targets of the :class:`FmmPlan` plan.

    weights: (Ns,) charges for Laplace kernels, (Ns, 3) strengths for Stokes.
    """
    return kernel_sum(kernel, functools.partial(plan.channel_sum, p=p), plan.src_tree.points,
                      weights, plan.tgt_tree.points, normals)
