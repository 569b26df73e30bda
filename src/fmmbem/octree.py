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
    of original point indices.  Cells are numbered level by level, and in
    body order within a level.  Children of an internal cell partition its
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

    The tree grows one level per pass: every cell of the deepest level with
    more than ``n_crit`` bodies splits at once, its slice of ``perm`` stably
    sorted by octant, so bodies keep their relative input order inside each
    leaf and the body order is depth first.  Cells are numbered level by
    level, and within a level by parent and octant.  Coincident points
    beyond capacity end up in an oversized leaf at the depth cap, MAX_DEPTH.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("points must be a nonempty (N, 3) array")
    if n_crit < 1:
        raise ValueError("n_crit must be >= 1")
    if root_center is None or root_half is None:
        root_center, root_half = bounding_cube(pts)

    perm = np.arange(len(pts))
    signs = np.array([[1.0 if o & bit else -1.0 for bit in (1, 2, 4)] for o in range(8)])
    # per level: center, half width, body start, body count, parent, octant
    levels = [(np.asarray(root_center, dtype=float).reshape(1, 3), np.array([float(root_half)]),
               np.zeros(1, dtype=np.intp), np.array([len(pts)]), np.array([-1]), np.array([0]))]
    first = 0                           # number of the deepest level's first cell
    while len(levels) <= MAX_DEPTH:
        center, half, start, count = levels[-1][:4]
        split = np.flatnonzero(count > n_crit)
        if len(split) == 0:
            break
        # the positions in perm of the splitting cells' bodies, cell by cell
        n = count[split]
        owner = np.repeat(split, n)
        pos = np.repeat(start[split] + n - np.cumsum(n), n) + np.arange(n.sum())
        body = perm[pos]
        key = 8 * owner + (pts[body] > center[owner]) @ np.array([1, 2, 4])
        order = np.argsort(key, kind="stable")
        perm[pos] = body[order]
        keys, head, size = np.unique(key[order], return_index=True, return_counts=True)
        cell, octant = np.divmod(keys, 8)
        h = half[cell] * 0.5
        levels.append((center[cell] + h[:, None] * signs[octant], h, pos[head], size,
                       first + cell, octant))
        first += len(half)

    center, half, start, count, parent, octant = map(np.concatenate, zip(*levels))
    level = np.repeat(np.arange(len(levels)), [len(lv[1]) for lv in levels])
    children = np.full((len(half), 8), -1, dtype=np.intp)
    children[parent[1:], octant[1:]] = np.arange(1, len(half))
    return Octree(pts, perm, center, half, level, parent, children, start, count)
