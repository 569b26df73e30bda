"""Matrix-free boundary-integral operators over triangulated surfaces.

Collocation with piecewise-constant densities: each panel carries one unknown
(a scalar charge/potential for Laplace, a traction vector for Stokes) and the
equations are enforced at panel centroids.

The operator action is evaluated as

    far Gauss points  -> multipole expansions (order p, chosen per call)
    near Gauss points -> direct kernel sums (the tree's P2P pairs)
    + a sparse correction matrix that replaces the coarse-rule contribution
      of geometrically close panels by fine-rule or singular integrals.

Only the expansion part depends on p, so lowering the order mid-solve leaves
all near-field arithmetic untouched.  The right-hand side goes through the
same pipeline at a fixed high order (p = 18); chunked direct sums over all
Gauss points (``dense_apply``, ``assemble_rhs(dense=True)``) are the exact
reference for both.  Either way a layer potential is one
:func:`fmmbem.kernels.kernel_sum`: the FMM and the dense path differ only in
the bare 1/r channel evaluator handed to it.

The mesh must be closed and outward oriented; the operator checks both
before it builds anything.
"""

import enum
import functools
import itertools

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import kernels
from . import quadrature as Q
from .fmm import FmmPlan
from .kernels import FOUR_PI, KernelKind
from .mesh import check_closed, check_outward

EIGHT_PI = 8.0 * np.pi
# near-singular cutoff distance of a source panel, in units of
# sqrt(2 * panel area): closer centroids get the fine or singular rule
NEAR_FACTOR = 2.0
# near pairs per block of the correction matrix's batched rule sums
CORRECTION_CHUNK = 16384
# targets per block of the dense direct sums: each (block, Gauss points)
# temporary is 32 MB at N = 8192, and larger blocks run no faster
DENSE_CHUNK = 128


class Formulation(enum.Enum):
    # single-layer first-kind equation: S q = (1/2) phi - D phi
    LAPLACE_FIRST = "laplace_first"
    # second-kind equation: ((1/2) I - D) phi = S q
    LAPLACE_SECOND = "laplace_second"
    # resistance problem: 1/(8 pi mu) G t = (1/2) u - 1/(8 pi) T u
    # (sign fixed so a sphere held in ambient flow u carries positive drag)
    STOKES = "stokes"


class BemOperator:
    """System operator and right-hand-side assembly for one mesh.

    theta, n_crit control the tree evaluation.  The mesh must pass
    check_closed and check_outward.
    """

    def __init__(self, mesh, formulation, theta=0.5, n_crit=126, mu=1e-3):
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        if n_crit < 1:
            raise ValueError(f"n_crit must be >= 1, got {n_crit}")
        if not check_closed(mesh):
            raise ValueError("mesh fails check_closed: some edge is not shared by exactly "
                             "two triangles, once in each direction")
        if not check_outward(mesh):
            raise ValueError("mesh fails check_outward: its enclosed volume is not positive, "
                             "so the triangles are ordered inward")
        self.mesh = mesh
        self.formulation = Formulation(formulation)
        self.mu = mu
        self.theta = theta
        self.n_crit = n_crit

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
        self.src_panel = np.repeat(np.arange(n_panels), k)
        self.src_normal = np.repeat(self.normals, k, axis=0)

        self.plan = FmmPlan(self.src_pos, self.centroids, n_crit=n_crit, theta=theta)
        self._near_pairs = self._find_near_pairs()
        stokes = self.formulation is Formulation.STOKES
        sys_kind = KernelKind.STOKESLET if stokes else KernelKind.LAPLACE_SINGLE
        rhs_kind = KernelKind.STRESSLET if stokes else KernelKind.LAPLACE_DOUBLE
        if self.formulation is Formulation.LAPLACE_SECOND:
            sys_kind, rhs_kind = rhs_kind, sys_kind
        self._sys_kind = sys_kind
        self._rhs_kind = rhs_kind
        self._c_sys = self._correction_matrix(sys_kind)
        self._c_rhs = self._correction_matrix(rhs_kind)

    @property
    def n_panels(self):
        return self.mesh.n_panels

    @property
    def shape(self):
        n = 3 * self.n_panels if self.formulation is Formulation.STOKES else self.n_panels
        return (n, n)

    # -- assembly ---------------------------------------------------------------

    def _find_near_pairs(self):
        """(target panel, source panel) pairs needing fine or singular rules."""
        cutoff = NEAR_FACTOR * np.sqrt(2.0 * self.areas)
        tree = cKDTree(self.centroids)
        hits = tree.query_ball_point(self.centroids, cutoff, return_sorted=True)
        lengths = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
        targets = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                              count=lengths.sum())
        return np.column_stack([targets, np.repeat(np.arange(len(hits)), lengths)])

    @staticmethod
    def _pair_rule_sums(kind, tgt, pts, wts, normals):
        """Batched quadrature sums: one target and one point set per pair.

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

    def _correction_matrix(self, kind):
        """Sparse fix-up: fine/singular integral minus the coarse contribution.

        The coarse contribution of the self panel excludes its centroid Gauss
        point (the direct pass produces a zero for that coincident pair).
        """
        pv = self.mesh.panel_vertices
        k = Q.FAR_RULE.n_points
        n_pairs = len(self._near_pairs)
        deltas = np.zeros(n_pairs) if kind.scalar else np.zeros((n_pairs, 3, 3))
        fine_pts, fine_wts = Q.quadrature_points(pv, Q.NEAR_RULE)
        for lo in range(0, n_pairs, CORRECTION_CHUNK):
            pr = self._near_pairs[lo:lo + CORRECTION_CHUNK]
            ti, sj = pr[:, 0], pr[:, 1]
            x = self.centroids[ti]
            nj = self.normals[sj]
            coarse = self._pair_rule_sums(
                kind, x,
                self.src_pos.reshape(-1, k, 3)[sj],
                self.src_weight.reshape(-1, k)[sj], nj,
            )
            fine = self._pair_rule_sums(kind, x, fine_pts[sj], fine_wts[sj], nj)
            # the true self integral is the singular one below, not the
            # 19-point rule; for the odd kernels it is exactly zero on a
            # flat panel
            fine[ti == sj] = 0.0
            deltas[lo:lo + CORRECTION_CHUNK] = fine - coarse
        self_sel = np.flatnonzero(self._near_pairs[:, 0] == self._near_pairs[:, 1])
        j = self._near_pairs[self_sel, 1]
        if kind is KernelKind.LAPLACE_SINGLE:
            deltas[self_sel] += Q.integrate_singular_laplace(pv[j])
        elif kind is KernelKind.STOKESLET:
            deltas[self_sel] += Q.integrate_singular_stokeslet(pv[j])
        ti, sj = self._near_pairs[:, 0], self._near_pairs[:, 1]
        if kind.scalar:
            rows, cols, vals = ti, sj, deltas
        else:
            a, b = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
            rows = (3 * ti[:, None, None] + a[None]).ravel()
            cols = (3 * sj[:, None, None] + b[None]).ravel()
            vals = deltas.ravel()
        n = 3 * self.n_panels if self.formulation is Formulation.STOKES else self.n_panels
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    # -- kernel-layer applications ---------------------------------------------

    def _layer_apply(self, kind, x, p, correction, dense):
        """Quadrature-discretized layer potential at the centroids.

        dense=True replaces the tree evaluation by chunked direct sums
        (identical arithmetic for the near corrections).
        """
        if kind.scalar:
            density = self.src_weight * x[self.src_panel]
        else:
            density = self.src_weight[:, None] * x.reshape(self.n_panels, 3)[self.src_panel]
        channel_sum = (self._dense_potential if dense
                       else functools.partial(self.plan.channel_sum, p=p))
        u = kernels.kernel_sum(kind, channel_sum, self.src_pos, density, self.centroids,
                               self.src_normal)
        return u.reshape(-1) + correction @ x

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
            pot[:, sl], g = kernels.laplace_sum(self.centroids[sl], self.src_pos, charges,
                                                dipoles, want_gradient)
            if want_gradient:
                grad[:, sl] = g
        return pot, grad

    # -- public operator interface ---------------------------------------------

    def apply(self, x, p=12):
        """System mat-vec A x with expansions truncated at order p."""
        return self._apply(np.asarray(x, dtype=float), p, dense=False)

    def dense_apply(self, x):
        """Reference mat-vec with direct sums in place of expansions."""
        return self._apply(np.asarray(x, dtype=float), p=0, dense=True)

    def _apply(self, x, p, dense):
        f = self.formulation
        if f is Formulation.LAPLACE_FIRST:
            return self._layer_apply(KernelKind.LAPLACE_SINGLE, x, p, self._c_sys, dense)
        if f is Formulation.LAPLACE_SECOND:
            d = self._layer_apply(KernelKind.LAPLACE_DOUBLE, x, p, self._c_sys, dense)
            return 0.5 * x - d
        g = self._layer_apply(KernelKind.STOKESLET, x, p, self._c_sys, dense)
        return g / (EIGHT_PI * self.mu)

    def assemble_rhs(self, boundary_data, p=18, dense=False):
        """Right-hand side from the known boundary data.

        Laplace first kind: data is the surface potential phi per panel.
        Laplace second kind: data is the normal derivative q per panel.
        Stokes: data is the (P, 3) surface velocity.
        The layer potential goes through the FMM at order p; dense=True
        replaces it by direct sums, the exact reference.
        """
        f = self.formulation
        if f is Formulation.LAPLACE_FIRST:
            phi = np.asarray(boundary_data, dtype=float)
            d = self._layer_apply(KernelKind.LAPLACE_DOUBLE, phi, p, self._c_rhs, dense)
            return 0.5 * phi - d
        if f is Formulation.LAPLACE_SECOND:
            q = np.asarray(boundary_data, dtype=float)
            return self._layer_apply(KernelKind.LAPLACE_SINGLE, q, p, self._c_rhs, dense)
        u = np.asarray(boundary_data, dtype=float).reshape(-1)
        t_u = self._layer_apply(KernelKind.STRESSLET, u, p, self._c_rhs, dense)
        return 0.5 * u - t_u / EIGHT_PI

    def drag_force(self, traction):
        """Net surface force sum_j area_j t_j for a traction field (P, 3)."""
        t = np.asarray(traction, dtype=float).reshape(self.n_panels, 3)
        return np.einsum("p,pi->i", self.areas, t)
