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

    A pair is accepted for M2L when (r_src + r_tgt) / distance < theta with
    r the cell circumradius; otherwise the larger cell is split, and
    leaf-leaf pairs go to P2P.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
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
    as_array = lambda lst: (
        np.asarray(lst, dtype=np.intp).reshape(-1, 2) if lst else np.empty((0, 2), dtype=np.intp)
    )
    return as_array(m2l_pairs), as_array(p2p_pairs)


def _translate(T, s, src, src_cells, dst, dst_cells):
    """dst[dst_cells] += diag(s) T diag(s) src[src_cells], as one GEMM.

    s is the reflection sign vector under which T serves this group's offset
    (see harmonics.reflection_signs); dst_cells must not repeat.
    """
    x = src[src_cells] * s
    n, C, size = x.shape
    dst[dst_cells] += (x.reshape(n * C, size) @ T.T).reshape(n, C, size) * s


def _level_groups(tree):
    """Child/parent pairs of a tree per level, for reflected M2M and L2L.

    Returns, shallowest level first, the positive-octant child-minus-parent
    offset of each level and its members (children, parents, flip), one per
    octant, flip having bit a set where the octant lies below the parent's
    center on axis a.
    """
    groups, offsets = [], []
    for level in range(1, tree.n_levels):
        cells = tree.cells_by_level[level]
        parents = tree.parent[cells]
        flips = (tree.center[cells] < tree.center[parents]) @ np.array([1, 2, 4])
        groups.append([(cells[flips == f], parents[flips == f], f) for f in np.unique(flips)])
        offsets.append(np.full(3, tree.half_width[cells[0]]))
    return groups, np.reshape(offsets, (-1, 3))


class FmmPlan:
    """Trees, traversal and cached translation data for one geometry."""

    def __init__(self, src_pos, tgt_pos, n_crit=126, theta=0.5):
        src_pos = np.atleast_2d(np.asarray(src_pos, dtype=float))
        tgt_pos = np.atleast_2d(np.asarray(tgt_pos, dtype=float))
        center, half = bounding_cube(np.vstack([src_pos, tgt_pos]))
        self.src_tree = build_tree(src_pos, n_crit, center, half)
        self.tgt_tree = build_tree(tgt_pos, n_crit, center, half)
        self.theta = theta
        self.m2l_pairs, self.p2p_pairs = dual_traversal(self.src_tree, self.tgt_tree, theta)
        # group M2L pairs by their center offset (lattice-exact for shared
        # roots), and the offsets by their mirror image in the positive octant:
        # one operator serves all eight reflections of an offset
        self._m2l_groups = []
        if len(self.m2l_pairs):
            D = self.tgt_tree.center[self.m2l_pairs[:, 1]] - self.src_tree.center[self.m2l_pairs[:, 0]]
            quantum = half * 2.0 ** -(MAX_DEPTH + 2)
            keys = np.round(D / quantum).astype(np.int64)
            flips = (keys[:, 0] < 0) + 2 * (keys[:, 1] < 0) + 4 * (keys[:, 2] < 0)
            mirrored, inverse = np.unique(np.abs(keys), axis=0, return_inverse=True)
            self._m2l_offsets = mirrored * quantum
            code = 8 * inverse.ravel() + flips
            order = np.argsort(code, kind="stable")
            starts = np.flatnonzero(np.diff(code[order], prepend=-1))
            self._m2l_groups = [[] for _ in range(len(mirrored))]
            for lo, hi in zip(starts, np.append(starts[1:], len(order))):
                pairs = self.m2l_pairs[order[lo:hi]]
                c = code[order[lo]]
                self._m2l_groups[c // 8].append((pairs[:, 0], pairs[:, 1], c % 8))
        else:
            self._m2l_offsets = np.empty((0, 3))
        self._m2m_groups, self._m2m_offsets = _level_groups(self.src_tree)
        self._l2l_groups, self._l2l_offsets = _level_groups(self.tgt_tree)
        # per-target-leaf concatenated source body indices (original numbering)
        self._p2p_by_leaf = {}
        for s, t in self.p2p_pairs:
            self._p2p_by_leaf.setdefault(t, []).append(s)
        self._p2p_sources = {}
        for t, cells in self._p2p_by_leaf.items():
            idx = np.concatenate([self._src_bodies(s) for s in cells])
            self._p2p_sources[t] = np.sort(idx)
        # the density-independent part of each P2P leaf's direct sum, in
        # p2p_items order: O(targets) memory
        self._p2p_geometry = [pair_geometry(self.tgt_tree.points[t], self.src_tree.points[s])
                              for t, s in self.p2p_items()]
        self._igrid = (None, None)   # (p, signed M2L grid) of the last order used

    def _src_bodies(self, cell):
        tree = self.src_tree
        s = tree.body_start[cell]
        return tree.perm[s:s + tree.body_count[cell]]

    def _tgt_bodies(self, cell):
        tree = self.tgt_tree
        s = tree.body_start[cell]
        return tree.perm[s:s + tree.body_count[cell]]

    # -- structural bookkeeping -------------------------------------------------

    def interaction_counts(self):
        """Number of sources accounted for per target, via the pair lists only."""
        counts = np.zeros(len(self.tgt_tree.points))
        for s, t in self.m2l_pairs:
            counts[self._tgt_bodies(t)] += self.src_tree.body_count[s]
        for t, idx in self._p2p_sources.items():
            counts[self._tgt_bodies(t)] += len(idx)
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
        self._vertical_sweep(self.src_tree, M, p, upward=True)
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

    def _vertical_sweep(self, tree, coeffs, p, upward):
        """M2M (upward) or L2L (downward) between parents and children."""
        groups = self._m2m_groups if upward else self._l2l_groups
        if not groups:
            return
        offsets = self._m2m_offsets if upward else self._l2l_offsets
        grids = H.signed_grid(H.packed_regular(offsets, p))
        maps = H.translation_maps("m2m" if upward else "l2l", p)
        signs = H.reflection_signs(p)
        for g in range(len(groups) - 1, -1, -1) if upward else range(len(groups)):
            T = H.assemble(grids[g], maps)
            for children, parents, flip in groups[g]:
                if upward:
                    # a parent has one child per octant, so parents are unique here
                    _translate(T, signs[flip], coeffs, children, coeffs, parents)
                else:
                    _translate(T, signs[flip], coeffs, parents, coeffs, children)

    def _m2l_sweep(self, M, p, C, size):
        L = np.zeros((self.tgt_tree.n_cells, C, size))
        if not len(self._m2l_offsets):
            return L
        grids = self._igrids(p)
        maps = H.translation_maps("m2l", p)
        signs = H.reflection_signs(p)
        for g, members in enumerate(self._m2l_groups):
            T = H.assemble(grids[g], maps)
            for src, tgt, flip in members:
                # targets are unique within one offset
                _translate(T, signs[flip], M, src, L, tgt)
        L *= H.row_sign(p)
        return L

    def _l2l_sweep(self, L, p):
        self._vertical_sweep(self.tgt_tree, L, p, upward=False)

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
        for t in sorted(self._p2p_sources):
            yield self._tgt_bodies(t), self._p2p_sources[t]

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
        for (tidx, sidx), geo in zip(self.p2p_items(), self._p2p_geometry):
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


def multipole_error_bound(total_abs_charge, cluster_radius, distance, p):
    """Greengard-style truncation bound: sum|q| / (r - a) * (a/r)^(p+1)."""
    a, r = cluster_radius, distance
    if r <= a:
        raise ValueError("target must lie outside the cluster radius")
    return total_abs_charge / (r - a) * (a / r) ** (p + 1)
