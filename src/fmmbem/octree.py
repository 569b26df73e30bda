"""Adaptive octree used to cluster sources and targets for the fast solver."""

import numpy as np

# Depth cap of every tree: coincident points beyond a leaf's capacity stop
# splitting here.  FmmPlan keys its M2L offsets on a lattice this fine.
MAX_DEPTH = 20
# relative (and absolute) padding of the root cube around the points
CUBE_PAD = 1e-6


class Octree:
    """Hierarchical cube subdivision with contiguous per-cell body ranges.

    Bodies are reordered depth-first so every cell (leaf or internal) owns the
    contiguous slice ``perm[body_start[c] : body_start[c] + body_count[c]]``
    of original point indices.  Children of an internal cell partition its
    cube into octants; leaves hold at most ``n_crit`` bodies unless the depth
    cap forced an oversized leaf.
    """

    def __init__(self, points, perm, center, half_width, level, parent,
                 children, body_start, body_count):
        self.points = points
        self.perm = perm
        self.sorted_points = points[perm]
        self.center = center
        self.half_width = half_width
        self.level = level
        self.parent = parent
        self.children = children           # (ncells, 8) int, -1 for absent
        self.body_start = body_start
        self.body_count = body_count
        self.is_leaf = np.all(children < 0, axis=1)
        self.leaves = np.flatnonzero(self.is_leaf)
        order = np.argsort(body_start[self.leaves], kind="stable")
        self.leaves = self.leaves[order]   # leaves tile [0, N) in body order
        self.n_levels = int(level.max()) + 1
        self.cells_by_level = [np.flatnonzero(level == l) for l in range(self.n_levels)]
        # leaf index of each (sorted) body
        self.leaf_of_body = np.repeat(self.leaves, body_count[self.leaves])

    @property
    def n_cells(self):
        return len(self.center)


def bounding_cube(points):
    """Center and half-width of a cube covering the points, padded by CUBE_PAD."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * float(np.max(hi - lo))
    half = half * (1.0 + CUBE_PAD) + CUBE_PAD
    return center, half


def build_tree(points, n_crit, root_center=None, root_half=None):
    """Build an octree over ``points`` with leaf capacity ``n_crit``.

    Deterministic for a fixed input order: octants are visited in a fixed
    order and bodies keep their relative input order inside each leaf.
    Coincident points beyond capacity end up in an oversized leaf at the
    depth cap, MAX_DEPTH.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("points must be a nonempty (N, 3) array")
    if n_crit < 1:
        raise ValueError("n_crit must be >= 1")
    if root_center is None or root_half is None:
        root_center, root_half = bounding_cube(pts)

    centers, halves, levels, parents, children = [], [], [], [], []
    starts, counts = [], []
    perm = np.empty(len(pts), dtype=np.intp)
    cursor = 0

    def new_cell(center, half, level, parent, nbody):
        centers.append(center)
        halves.append(half)
        levels.append(level)
        parents.append(parent)
        children.append([-1] * 8)
        starts.append(0)
        counts.append(nbody)
        return len(centers) - 1

    root = new_cell(np.asarray(root_center, dtype=float), float(root_half), 0, -1, len(pts))
    # iterative DFS so deep trees cannot hit the recursion limit
    stack = [(root, np.arange(len(pts)))]
    while stack:
        cell, idx = stack.pop()
        # the DFS places this cell's bodies before those of any cell still
        # on the stack, so its first descendant leaf starts here
        starts[cell] = cursor
        if len(idx) <= n_crit or levels[cell] >= MAX_DEPTH:
            perm[cursor:cursor + len(idx)] = idx
            cursor += len(idx)
            continue
        c = centers[cell]
        octant = (
            (pts[idx, 0] > c[0]).astype(np.intp)
            + 2 * (pts[idx, 1] > c[1]).astype(np.intp)
            + 4 * (pts[idx, 2] > c[2]).astype(np.intp)
        )
        h = halves[cell] * 0.5
        kids = []
        for o in range(8):
            sub = idx[octant == o]
            if len(sub) == 0:
                continue
            off = np.array([h if o & 1 else -h, h if o & 2 else -h, h if o & 4 else -h])
            k = new_cell(c + off, h, levels[cell] + 1, cell, len(sub))
            children[cell][o] = k
            kids.append((k, sub))
        # push in reverse so octant 0 is processed (and numbered) first
        stack.extend(reversed(kids))

    return Octree(
        pts, perm,
        np.asarray(centers), np.asarray(halves),
        np.asarray(levels, dtype=np.intp), np.asarray(parents, dtype=np.intp),
        np.asarray(children, dtype=np.intp), np.asarray(starts), np.asarray(counts),
    )
