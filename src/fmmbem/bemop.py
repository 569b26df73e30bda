"""Matrix-free boundary-integral operators over triangulated surfaces.

Collocation with piecewise-constant densities: each panel carries one unknown
(a scalar charge/potential for Laplace, a traction vector for Stokes) and the
equations are enforced at panel centroids.

The operator action is evaluated as

    far Gauss points  -> multipole expansions (order p, chosen per call)
    near Gauss points -> direct kernel sums (the tree's P2P pairs)
    + a sparse correction matrix that replaces the coarse-rule contribution
      of geometrically close panels by fine-rule or singular integrals.

Each formulation is one row of an equation table: a SYSTEM side, which
``apply`` applies, and an RHS side, which ``assemble_rhs`` applies to the
boundary data.  A side is a kernel, an identity coefficient c and a divisor
d, and evaluates c * data + layer(data) / d.  The two kernels each have their
correction matrix; both come from one pass over the near panel pairs, sorted
by target, and share one :class:`BlockCsr` pattern: plain block CSR of 1x1
(Laplace) or 3x3 (Stokes) blocks in that pair order.  Every Stokes block,
stokeslet and stresslet alike, is symmetric and is stored as its six
entries.

Every layer potential is one :func:`fmmbem.kernels.kernel_sum` and takes its
bare 1/r channel evaluator as one argument: the FMM at some order p, or
chunked direct sums over all Gauss points.  Only the expansion part depends
on p, so lowering the order mid-solve leaves all near-field arithmetic
untouched.  The right-hand side goes through the FMM at the fixed order
RHS_ORDER; the direct sums (``dense_apply``, ``assemble_rhs(dense=True)``)
are the exact reference for both.

The mesh must be closed and outward oriented; the operator checks both
before it builds anything.
"""

import enum
import functools

import numpy as np

from . import kernels
from . import quadrature as Q
from .fmm import FmmPlan
from .kernels import KernelKind
from .mesh import check_closed, check_outward

EIGHT_PI = 8.0 * np.pi
# near-singular cutoff distance of a source panel, in units of
# sqrt(2 * panel area): closer centroids get the fine or singular rule
NEAR_FACTOR = 2.0
# near pairs per block of the correction matrices' batched rule sums
CORRECTION_CHUNK = 2048
# the two sides of an equation, and the two correction matrices of an
# operator: apply's and assemble_rhs's
SYSTEM, RHS = 0, 1
# expansion order of the FMM right-hand side: its error against the direct
# sums is 40-60x below the solve tolerance on the benchmark workloads (2.6e-8
# at tol 1e-6 on an 8192-panel Laplace sphere, 1.6e-7 at tol 1e-5 on six
# Stokes cells, seed 7)
RHS_ORDER = 18
# candidate pairs per block of the near-pair search: its temporaries stay in
# cache, and larger blocks run slower
NEAR_SEARCH_CHUNK = 32768
# (rows, columns) of the entries that BlockCsr stores of a 1x1 block and of
# a symmetric 3x3 block: xx, yy, zz, xy, xz, yz
STORED_ENTRIES = {1: ((0,), (0,)), 3: ((0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2))}
# the 27 cells around a cell, as (dx, dy, dz)
_NEIGHBOUR_CELLS = np.array([(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
                             for c in (-1, 0, 1)])
# targets per block of the dense direct sums: each (block, Gauss points)
# temporary is 32 MB at N = 8192, and larger blocks run no faster
DENSE_CHUNK = 128


class Formulation(enum.Enum):
    LAPLACE_FIRST = "laplace_first"
    LAPLACE_SECOND = "laplace_second"
    STOKES = "stokes"


def check_parameters(theta, n_crit, mu):
    """Raise ValueError naming the bad value unless :class:`BemOperator`
    accepts these tree and fluid parameters."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if n_crit < 1:
        raise ValueError(f"n_crit must be >= 1, got {n_crit}")
    if not 0.0 < mu < np.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")


class BemOperator:
    """System operator and right-hand-side assembly for one mesh.

    theta, n_crit control the tree evaluation; mu is the Stokes viscosity.
    They must pass check_parameters, and the mesh check_closed and
    check_outward.
    """

    def __init__(self, mesh, formulation, theta=0.5, n_crit=126, mu=1e-3):
        check_parameters(theta, n_crit, mu)
        if not check_closed(mesh):
            raise ValueError("mesh fails check_closed: some edge is not shared by exactly "
                             "two triangles, once in each direction")
        if not check_outward(mesh):
            raise ValueError("mesh fails check_outward: its enclosed volume is not positive, "
                             "so the triangles are ordered inward")
        self.mesh = mesh
        self.formulation = Formulation(formulation)
        self.mu = mu

        _, self.normals, self.areas = mesh.geometry()
        pv = mesh.panel_vertices
        pts, wts = Q.quadrature_points(pv, Q.FAR_RULE)
        n_panels = mesh.n_panels
        k = Q.FAR_RULE.n_points
        # collocate at the rule's centroid point so the self source is bitwise
        # identical to the target and drops out of every direct sum
        self.centroids = pts[:, 0].copy()
        self.src_pos = pts.reshape(n_panels * k, 3)
        self.src_weight = wts.reshape(n_panels * k)
        self.src_normal = np.repeat(self.normals, k, axis=0)

        self.plan = FmmPlan(self.src_pos, self.centroids, n_crit=n_crit, theta=theta)
        # the (SYSTEM, RHS) sides, each (kernel, c, d); dividing by -1 or
        # -8 pi is an exact negation
        single = (KernelKind.LAPLACE_SINGLE, 0.0, 1.0)
        double = (KernelKind.LAPLACE_DOUBLE, 0.5, -1.0)
        self._sides = {
            # single-layer first-kind equation: S q = (1/2) phi - D phi
            Formulation.LAPLACE_FIRST: (single, double),
            # second-kind equation: ((1/2) I - D) phi = S q
            Formulation.LAPLACE_SECOND: (double, single),
            # resistance problem: 1/(8 pi mu) G t = (1/2) u - 1/(8 pi) T u (sign
            # fixed so a sphere held in ambient flow u carries positive drag)
            Formulation.STOKES: ((KernelKind.STOKESLET, 0.0, EIGHT_PI * mu),
                                 (KernelKind.STRESSLET, 0.5, -EIGHT_PI)),
        }[self.formulation]
        self._corrections = self._correction_matrix(self._find_near_pairs())

    @property
    def n_panels(self):
        return self.mesh.n_panels

    @property
    def shape(self):
        n = self.n_panels if self._sides[SYSTEM][0].scalar else 3 * self.n_panels
        return (n, n)

    # -- assembly ---------------------------------------------------------------

    def _find_near_pairs(self):
        """(target panel, source panel) pairs needing fine or singular rules."""
        return _radius_pairs(self.centroids, NEAR_FACTOR * np.sqrt(2.0 * self.areas))

    def _correction_matrix(self, pairs):
        """Sparse fix-ups of both kernels: fine/singular integral minus the coarse
        contribution, for each (target, source) near pair.

        Returns one :class:`BlockCsr` of two matrices, SYSTEM and RHS.  Each
        pair sums one rule of 23 points: the source panel's 4 coarse points
        with negated weights and its 19 fine points.  The coarse contribution
        of the self panel excludes its centroid Gauss point (the direct pass
        produces a zero for that coincident pair).
        """
        pv = self.mesh.panel_vertices
        k = Q.FAR_RULE.n_points
        kinds = [kind for kind, _, _ in self._sides]
        fine_pts, fine_wts = Q.quadrature_points(pv, Q.NEAR_RULE)
        # each panel's coarse points, then its fine ones, coordinate-major as
        # rule_sums takes them
        pts = np.empty((self.n_panels, 3, k + Q.NEAR_RULE.n_points))
        pts[:, :, :k] = self.src_pos.reshape(-1, k, 3).transpose(0, 2, 1)
        pts[:, :, k:] = fine_pts.transpose(0, 2, 1)
        wts = np.concatenate([-self.src_weight.reshape(-1, k), fine_wts], axis=1)
        del fine_pts, fine_wts
        singular = {KernelKind.LAPLACE_SINGLE: Q.integrate_singular_laplace,
                    KernelKind.STOKESLET: Q.integrate_singular_stokeslet}
        self_integrals = [singular[kind](pv) if kind in singular else None for kind in kinds]
        # contiguous copies: BlockCsr.indices is gathered by every matvec
        ti, sj = pairs[:, 0].copy(), pairs[:, 1].copy()
        b = 1 if kinds[0].scalar else 3
        rows, cols = STORED_ENTRIES[b]
        data = np.empty((len(kinds), len(rows), len(ti)))
        for lo in range(0, len(ti), CORRECTION_CHUNK):
            t, s = ti[lo:lo + CORRECTION_CHUNK], sj[lo:lo + CORRECTION_CHUNK]
            own = t == s
            w = wts[s]
            # the true self integral is the singular one below, not the
            # 19-point rule; for the odd kernels it is exactly zero on a
            # flat panel
            w[own, k:] = 0.0
            sums = kernels.rule_sums(kinds, self.centroids[t], pts[s], w, self.normals[s])
            for value, integral, out in zip(sums, self_integrals, data):
                if integral is not None:
                    value[own] += integral[s[own]]
                # every block is symmetric: keep its i <= j entries
                out[:, lo:lo + len(t)] = value.reshape(-1, b, b)[:, rows, cols].T
        return BlockCsr(ti, sj, self.n_panels, data)

    # -- kernel-layer applications ---------------------------------------------

    def _layer_apply(self, kind, x, channel_sum, correction):
        """Quadrature-discretized layer potential at the centroids.

        channel_sum is the bare 1/r evaluator of
        :func:`fmmbem.kernels.kernel_sum`; correction is SYSTEM or RHS, the
        correction matrix of the kernel.
        """
        if kind.scalar:
            density = self.src_weight * np.repeat(x, Q.FAR_RULE.n_points)
        else:
            density = self.src_weight[:, None] * np.repeat(x.reshape(self.n_panels, 3),
                                                           Q.FAR_RULE.n_points, axis=0)
        u = kernels.kernel_sum(kind, channel_sum, self.src_pos, density, self.centroids,
                               self.src_normal)
        return u.reshape(-1) + self._corrections.matvec(x, correction)

    def _dense_potential(self, charges, dipoles, want_gradient):
        """Direct 1/r (and dipole) sums over all Gauss points, self pair zeroed.

        Same arguments and return shapes as :meth:`FmmPlan.far_field`.
        """
        C = len(charges if charges is not None else dipoles)
        nt = len(self.centroids)
        pot = np.zeros((C, nt))
        grad = np.zeros((C, nt, 3)) if want_gradient else None
        for lo in range(0, nt, DENSE_CHUNK):
            sl = slice(lo, lo + DENSE_CHUNK)
            geo = kernels.pair_geometry(self.centroids[sl], self.src_pos)
            pot[:, sl], g = kernels.laplace_sum(geo, self.src_pos, charges, dipoles,
                                                want_gradient)
            if want_gradient:
                grad[:, sl] = g
        return pot, grad

    # -- public operator interface ---------------------------------------------

    def _side(self, side, data, channel_sum):
        """c * data + layer(data) / d for one side of the equation table."""
        kind, c, d = self._sides[side]
        data = np.asarray(data, dtype=float).reshape(-1)
        return c * data + self._layer_apply(kind, data, channel_sum, side) / d

    def apply(self, x, p):
        """System mat-vec A x with expansions truncated at order p."""
        return self._side(SYSTEM, x, functools.partial(self.plan.channel_sum, p=p))

    def dense_apply(self, x):
        """Reference mat-vec with direct sums in place of expansions."""
        return self._side(SYSTEM, x, self._dense_potential)

    def assemble_rhs(self, boundary_data, dense=False):
        """Right-hand side from the known boundary data.

        Laplace first kind: data is the surface potential phi per panel.
        Laplace second kind: data is the normal derivative q per panel.
        Stokes: data is the (P, 3) surface velocity.
        The layer potential goes through the FMM at order RHS_ORDER;
        dense=True replaces it by direct sums, the exact reference.
        """
        channel_sum = (self._dense_potential if dense
                       else functools.partial(self.plan.channel_sum, p=RHS_ORDER))
        return self._side(RHS, boundary_data, channel_sum)

    def drag_force(self, traction):
        """Net surface force sum_j area_j t_j for a traction field (P, 3)."""
        t = np.asarray(traction, dtype=float).reshape(self.n_panels, 3)
        return np.einsum("p,pi->i", self.areas, t)


def _radius_pairs(points, radius):
    """(target, source) index pairs with |points[t] - points[s]| <= radius[s].

    Sorted by target, then by source: the block CSR order.  A uniform grid
    of cells of the largest radius bins the points, so every source near a
    target lies in the 27 cells around the target's own; the squared
    distance is summed x, y, z in that order, as a k-d tree ball query sums
    it.
    """
    n = len(points)
    cell = ((points - points.min(axis=0)) // radius.max()).astype(np.int64) + 1
    dims = cell.max(axis=0) + 2          # an empty margin cell on every side
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key)
    sorted_points = points[order].T.copy()
    sorted_radius2 = radius[order] ** 2
    cells, cell_of, size = np.unique(key, return_inverse=True, return_counts=True)
    # first sorted point and size of the 27 cells around each occupied cell
    around = cells[:, None] + _NEIGHBOUR_CELLS @ [dims[1] * dims[2], dims[2], 1]
    j = np.minimum(np.searchsorted(cells, around), len(cells) - 1)
    first = (np.cumsum(size) - size)[j]
    size = np.where(cells[j] == around, size[j], 0)
    cell_of = cell_of.ravel()
    candidates = size[cell_of].sum(axis=1)
    starts = np.cumsum(candidates) - candidates
    bounds = np.unique(np.searchsorted(starts, np.arange(0, starts[-1] + 1, NEAR_SEARCH_CHUNK)))
    codes = []
    for lo, hi in zip(bounds, np.append(bounds[1:], n)):
        count = size[cell_of[lo:hi]].ravel()
        per_target = candidates[lo:hi]
        pos = (np.repeat(first[cell_of[lo:hi]].ravel() - (np.cumsum(count) - count), count)
               + np.arange(count.sum()))
        d2 = np.zeros(len(pos))
        for axis in range(3):
            d = np.take(sorted_points[axis], pos)
            d -= np.repeat(points[lo:hi, axis], per_target)
            d *= d
            d2 += d
        code = np.repeat(np.arange(lo, hi) * n, per_target) + np.take(order, pos)
        code = code[d2 <= np.take(sorted_radius2, pos)]
        code.sort()
        codes.append(code)
    return np.column_stack(np.divmod(np.concatenate(codes), n))


class BlockCsr:
    """Sparse matrices of b x b blocks on one pattern, in block CSR.

    ``count`` matrices share the block positions: the blocks of block row r
    are ``indptr[r]:indptr[r + 1]``, in block columns ``indices``.  A block
    is 1x1 or a symmetric 3x3 stored as its six entries xx, yy, zz, xy, xz,
    yz (``STORED_ENTRIES``): ``data[k, e, q]`` is entry e of block q of
    matrix k.  ``matvec(x, k)`` applies matrix k with one gather, the
    stored entries times the gathered components, and one sum per row.
    ``nnz`` counts the scalar entries of all the matrices, b * b per block.
    """

    def __init__(self, rows, cols, n, data):
        """rows, cols (nb,) block indices, rows ascending; n block rows;
        data (count, 1 or 6, nb), the stored entries of the blocks in that
        order."""
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        self.indices = cols
        self.data = data
        self.block = 1 if data.shape[1] == 1 else 3
        # entry[a, c]: the stored entry that holds block entries (a, c) and (c, a)
        r, c = STORED_ENTRIES[self.block]
        self._entry = np.empty((self.block, self.block), dtype=np.intp)
        self._entry[r, c] = self._entry[c, r] = np.arange(len(r))
        # reduceat would give an empty row the next row's first block, and
        # raises on a start at the end: it sums the non-empty rows only
        self._filled = np.flatnonzero(np.diff(self.indptr))

    @property
    def nnz(self):
        count, _, nb = self.data.shape
        return count * self.block ** 2 * nb

    def matvec(self, x, k):
        """Matrix k times the vector x."""
        b = self.block
        data = self.data[k]
        xs = np.take(x.reshape(-1, b).T, self.indices, axis=1)
        products = np.empty_like(xs)
        term = np.empty(xs.shape[1])
        for a, entries in enumerate(self._entry.tolist()):
            np.multiply(data[entries[0]], xs[0], out=products[a])
            for c in range(1, b):
                products[a] += np.multiply(data[entries[c]], xs[c], out=term)
        y = np.zeros((len(self.indptr) - 1, b))
        y[self._filled] = np.add.reduceat(products, self.indptr[self._filled], axis=1).T
        return y.reshape(-1)
