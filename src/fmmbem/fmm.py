"""Fast multipole evaluation of kernel sums with a per-call truncation order.

The driver is organized around :class:`FmmPlan`: trees and the dual-tree
traversal are built once for a source/target geometry, while the expansion
order ``p`` is an argument of every application, so a relaxed solver can
lower ``p`` each iteration without rebuilding anything.

The harmonic machinery works on the bare 1/r kernel with monopole and dipole
sources; Stokes kernels are reduced to several Laplace-type channels
(stokeslet: three component potentials plus one moment potential; stresslet:
seven dipole potentials) whose values and gradients recombine at the targets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import harmonics as H
from .kernels import FOUR_PI, KernelKind, as_channels, from_channels, laplace_sum
from .octree import build_tree, bounding_cube

# Cell size entering the acceptance criterion, in units of the cube half
# width.  With 1.0 the measured far-field error tracks ~2^-p at theta = 0.5,
# which is what the order schedule p = ceil(-log2 eps) assumes.
CELL_RADIUS_FACTOR = 1.0


def required_p(eps):
    """Expansion order needed for accuracy eps at separation ratio 2."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    return max(0, math.ceil(-math.log2(eps)))


@dataclass
class Expansion:
    """Truncated multipole or local coefficient set about a center."""

    center: np.ndarray
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[-1] != H.num_coeffs(self.order):
            raise ValueError("coefficient count must be (p+1)^2")


def p2m(src_pos, charges, center, p, dipoles=None):
    rel = np.atleast_2d(np.asarray(src_pos, dtype=float)) - np.asarray(center, dtype=float)
    return Expansion(center, p, H.particle_to_multipole(rel, charges, p, dipoles=dipoles))


def m2m(expansion, new_center):
    d = expansion.center - np.asarray(new_center, dtype=float)
    T = H.translation_matrix("m2m", d, expansion.order)
    return Expansion(new_center, expansion.order, expansion.coeffs @ T.T)


def m2l(expansion, target_center):
    d = np.asarray(target_center, dtype=float) - expansion.center
    T = H.translation_matrix("m2l", d, expansion.order)
    return Expansion(target_center, expansion.order, expansion.coeffs @ T.T)


def l2l(expansion, new_center):
    d = np.asarray(new_center, dtype=float) - expansion.center
    T = H.translation_matrix("l2l", d, expansion.order)
    return Expansion(new_center, expansion.order, expansion.coeffs @ T.T)


def m2p(expansion, targets, want_gradient=False):
    rel = np.atleast_2d(np.asarray(targets, dtype=float)) - expansion.center
    return H.multipole_to_point(expansion.coeffs, rel, expansion.order, want_gradient)


def l2p(expansion, targets, want_gradient=False):
    rel = np.atleast_2d(np.asarray(targets, dtype=float)) - expansion.center
    return H.local_to_point(expansion.coeffs, rel, expansion.order, want_gradient)


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


class FmmPlan:
    """Trees, traversal and cached translation data for one geometry."""

    def __init__(self, src_pos, tgt_pos, n_crit=126, theta=0.5, max_depth=20, chunk=8192):
        src_pos = np.atleast_2d(np.asarray(src_pos, dtype=float))
        tgt_pos = np.atleast_2d(np.asarray(tgt_pos, dtype=float))
        center, half = bounding_cube(np.vstack([src_pos, tgt_pos]))
        self.src_tree = build_tree(src_pos, n_crit, max_depth, center, half)
        self.tgt_tree = build_tree(tgt_pos, n_crit, max_depth, center, half)
        self.theta = theta
        self.chunk = chunk
        self.m2l_pairs, self.p2p_pairs = dual_traversal(self.src_tree, self.tgt_tree, theta)
        # group M2L pairs by their center offset (lattice-exact for shared roots)
        if len(self.m2l_pairs):
            D = self.tgt_tree.center[self.m2l_pairs[:, 1]] - self.src_tree.center[self.m2l_pairs[:, 0]]
            quantum = half * 2.0 ** -(max_depth + 2)
            keys = np.round(D / quantum).astype(np.int64)
            self._m2l_offsets, inverse = np.unique(keys, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            self._m2l_offsets = self._m2l_offsets * quantum
            order = np.argsort(inverse, kind="stable")
            self._m2l_sorted = self.m2l_pairs[order]
            self._m2l_group_id = inverse[order]
            self._m2l_group_starts = np.searchsorted(
                self._m2l_group_id, np.arange(len(self._m2l_offsets))
            )
        else:
            self._m2l_offsets = np.empty((0, 3))
        # per-target-leaf concatenated source body indices (original numbering)
        self._p2p_by_leaf = {}
        for s, t in self.p2p_pairs:
            self._p2p_by_leaf.setdefault(t, []).append(s)
        self._p2p_sources = {}
        for t, cells in self._p2p_by_leaf.items():
            idx = np.concatenate([self._src_bodies(s) for s in cells])
            self._p2p_sources[t] = np.sort(idx)
        self._igrid_cache = {}

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
        if p not in self._igrid_cache:
            if len(self._m2l_offsets):
                self._igrid_cache[p] = H.irregular(self._m2l_offsets, 2 * p)
            else:
                self._igrid_cache[p] = np.empty((0, H.num_coeffs(2 * p)), dtype=complex)
        return self._igrid_cache[p]

    def far_field(self, charges=None, dipoles=None, p=8, want_gradient=False):
        """Expansion-mediated part of the 1/r (and dipole) potential.

        charges: (C, Ns) or (Ns,); dipoles: matching (C, Ns, 3) or (Ns, 3).
        Returns (C, Nt) potentials (and (C, Nt, 3) gradients), or unbatched
        arrays when the input was unbatched.  P2P pairs are NOT included.
        """
        q, dip, C, single = as_channels(charges, dipoles)
        nt = len(self.tgt_tree.points)
        size = H.num_coeffs(p)

        M = self._upward(q, dip, p, C, size)
        L = self._m2l_sweep(M, p, C, size)
        self._l2l_sweep(L, p)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        self._l2p(L, p, pot, grad)
        return from_channels(pot, grad, single)

    def _upward(self, q, dip, p, C, size):
        tree = self.src_tree
        M = np.zeros((tree.n_cells, C, size), dtype=complex)
        qs = None if q is None else q[:, tree.perm]
        ds = None if dip is None else dip[:, tree.perm]
        rel = tree.sorted_points - tree.center[tree.leaf_of_body]
        for lo in range(0, len(rel), self.chunk):
            hi = min(lo + self.chunk, len(rel))
            reg = H.regular(rel[lo:hi], p)
            if ds is not None:
                gx, gy, gz = H.regular_gradient(reg, p)
            for leaf in self._leaves_in_range(tree, lo, hi):
                s = max(tree.body_start[leaf], lo)
                e = min(tree.body_start[leaf] + tree.body_count[leaf], hi)
                block = slice(s - lo, e - lo)
                if qs is not None:
                    M[leaf] += qs[:, s:e] @ reg[block]
                if ds is not None:
                    M[leaf] += (
                        ds[:, s:e, 0] @ gx[block]
                        + ds[:, s:e, 1] @ gy[block]
                        + ds[:, s:e, 2] @ gz[block]
                    )
        self._vertical_sweep(tree, M, p, upward=True)
        return M

    @staticmethod
    def _leaves_in_range(tree, lo, hi):
        starts = tree.body_start[tree.leaves]
        ends = starts + tree.body_count[tree.leaves]
        sel = (ends > lo) & (starts < hi)
        return tree.leaves[sel]

    def _vertical_sweep(self, tree, coeffs, p, upward):
        """M2M (upward) or L2L (downward) between parents and children."""
        kind = "m2m" if upward else "l2l"
        levels = range(tree.n_levels - 1, 0, -1) if upward else range(1, tree.n_levels)
        for level in levels:
            cells = tree.cells_by_level[level]
            if len(cells) == 0:
                continue
            parents = tree.parent[cells]
            offs = tree.center[cells] - tree.center[parents]
            # 8 octant offsets at most per level; group to share the operator
            keys = (offs[:, 0] > 0).astype(int) + 2 * (offs[:, 1] > 0) + 4 * (offs[:, 2] > 0)
            for o in np.unique(keys):
                sel = keys == o
                d = offs[sel][0]
                T = H.translation_matrix(kind, d, p)
                n_sel, C, size = coeffs[cells[sel]].shape
                if upward:
                    flat = coeffs[cells[sel]].reshape(n_sel * C, size)
                    np.add.at(coeffs, parents[sel], (flat @ T.T).reshape(n_sel, C, size))
                else:
                    flat = coeffs[parents[sel]].reshape(n_sel * C, size)
                    coeffs[cells[sel]] += (flat @ T.T).reshape(n_sel, C, size)

    def _m2l_sweep(self, M, p, C, size):
        L = np.zeros((self.tgt_tree.n_cells, C, size), dtype=complex)
        if not len(self._m2l_offsets):
            return L
        igrids = self._igrids(p)
        gmap, sign = H.m2l_map(p)
        bounds = np.append(self._m2l_group_starts, len(self._m2l_sorted))
        for g in range(len(self._m2l_offsets)):
            pairs = self._m2l_sorted[bounds[g]:bounds[g + 1]]
            T = sign[:, None] * np.conj(igrids[g])[gmap]
            flat = M[pairs[:, 0]].reshape(len(pairs) * C, size)
            contrib = (flat @ T.T).reshape(len(pairs), C, size)
            L[pairs[:, 1]] += contrib  # targets are unique within a group
        return L

    def _l2l_sweep(self, L, p):
        self._vertical_sweep(self.tgt_tree, L, p, upward=False)

    def _l2p(self, L, p, pot, grad):
        tree = self.tgt_tree
        rel = tree.sorted_points - tree.center[tree.leaf_of_body]
        for lo in range(0, len(rel), self.chunk):
            hi = min(lo + self.chunk, len(rel))
            reg = H.regular(rel[lo:hi], p)
            if grad is not None:
                gx, gy, gz = H.regular_gradient(reg, p)
            for leaf in self._leaves_in_range(tree, lo, hi):
                s = max(tree.body_start[leaf], lo)
                e = min(tree.body_start[leaf] + tree.body_count[leaf], hi)
                block = slice(s - lo, e - lo)
                idx = tree.perm[s:e]
                pot[:, idx] += np.real(L[leaf] @ reg[block].T)
                if grad is not None:
                    grad[:, idx, 0] += np.real(L[leaf] @ gx[block].T)
                    grad[:, idx, 1] += np.real(L[leaf] @ gy[block].T)
                    grad[:, idx, 2] += np.real(L[leaf] @ gz[block].T)

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
        q, dip, C, single = as_channels(charges, dipoles)
        nt = len(self.tgt_tree.points)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        for tidx, sidx in self.p2p_items():
            v, g = laplace_sum(self.tgt_tree.points[tidx], self.src_tree.points[sidx],
                               None if q is None else q[:, sidx],
                               None if dip is None else dip[:, sidx], want_gradient)
            pot[:, tidx] += v
            if want_gradient:
                grad[:, tidx] += g
        return from_channels(pot, grad, single)


def _stokeslet_channels(src_pos, strengths):
    """Charges for the four-potential stokeslet decomposition."""
    f = np.asarray(strengths, dtype=float)
    return np.vstack([f.T, np.einsum("si,si->s", src_pos, f)])


def _combine_stokeslet(targets, pot, grad):
    """u_i = phi_i - x_c d_i phi_c + d_i psi from the four channel fields."""
    u = pot[:3].T.copy()
    u -= np.einsum("tc,cti->ti", targets, grad[:3])
    u += grad[3]
    return u


def _stresslet_channels(src_pos, strengths, normals):
    """Dipole moments for the seven-potential stresslet decomposition."""
    f = np.asarray(strengths, dtype=float)
    n = np.asarray(normals, dtype=float)
    dip = np.empty((7, len(f), 3))
    for c in range(3):
        dip[c] = f[:, c:c + 1] * n        # Phi_c
        dip[3 + c] = n[:, c:c + 1] * f    # Lambda_c
    dip[6] = np.einsum("si,si->s", src_pos, f)[:, None] * n  # Psi
    return dip


def _combine_stresslet(targets, pot, grad):
    """u_i = 2 Lambda_i - 2 x_c d_i Phi_c + 2 d_i Psi."""
    u = 2.0 * pot[3:6].T.copy()
    u -= 2.0 * np.einsum("tc,cti->ti", targets, grad[:3])
    u += 2.0 * grad[6]
    return u


def evaluate(kernel, src_pos, weights, targets, p, theta=0.5, n_crit=126,
             normals=None, plan=None):
    """FMM approximation of :func:`fmmbem.kernels.direct_sum`.

    weights: (Ns,) charges for Laplace kernels, (Ns, 3) strengths for Stokes.
    A prebuilt :class:`FmmPlan` for the same geometry can be passed to amortize
    tree construction across calls.
    """
    kind = KernelKind(kernel)
    src_pos = np.atleast_2d(np.asarray(src_pos, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if plan is None:
        plan = FmmPlan(src_pos, targets, n_crit=n_crit, theta=theta)
    if kind is KernelKind.LAPLACE_SINGLE:
        q = np.asarray(weights, dtype=float)
        return (plan.far_field(charges=q, p=p) + plan.near_field(charges=q)) / FOUR_PI
    if kind is KernelKind.LAPLACE_DOUBLE:
        dip = np.asarray(weights, dtype=float)[:, None] * np.asarray(normals, dtype=float)
        return (plan.far_field(dipoles=dip, p=p) + plan.near_field(dipoles=dip)) / FOUR_PI
    if kind is KernelKind.STOKESLET:
        q = _stokeslet_channels(src_pos, weights)
        pot, grad = plan.far_field(charges=q, p=p, want_gradient=True)
        npot, ngrad = plan.near_field(charges=q, want_gradient=True)
        return _combine_stokeslet(targets, pot + npot, grad + ngrad)
    if kind is KernelKind.STRESSLET:
        dip = _stresslet_channels(src_pos, weights, normals)
        pot, grad = plan.far_field(dipoles=dip, p=p, want_gradient=True)
        npot, ngrad = plan.near_field(dipoles=dip, want_gradient=True)
        return _combine_stresslet(targets, pot + npot, grad + ngrad)
    raise ValueError(f"unsupported kernel {kernel!r}")


def multipole_error_bound(total_abs_charge, cluster_radius, distance, p):
    """Greengard-style truncation bound: sum|q| / (r - a) * (a/r)^(p+1)."""
    a, r = cluster_radius, distance
    if r <= a:
        raise ValueError("target must lie outside the cluster radius")
    return total_abs_charge / (r - a) * (a / r) ** (p + 1)
