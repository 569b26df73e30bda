"""Matrix-free boundary element solver with relaxed multipole orders.

Laplace and Stokes boundary-integral equations on triangulated surfaces,
with the dense mat-vec evaluated by a spherical-harmonic fast multipole
method whose truncation order is lowered per GMRES iteration as the
residual falls.
"""

from .bemop import BemOperator, Formulation
from .fmm import FmmPlan
from .kernels import KernelKind, direct_sum
from .mesh import (Mesh, check_closed, check_outward, make_rbc, make_scene,
                   make_sphere, read_mesh, write_mesh)
from .octree import Octree, build_tree
from .solver import SolveResult, gmres, solve
from .study import (StudyReport, observed_order, richardson, run_convergence,
                    run_relaxation_comparison, run_scaling)

__all__ = [
    "BemOperator", "Formulation", "FmmPlan", "KernelKind", "Mesh", "Octree",
    "SolveResult", "StudyReport", "build_tree", "check_closed",
    "check_outward", "direct_sum", "gmres", "make_rbc", "make_scene",
    "make_sphere", "observed_order", "read_mesh", "richardson",
    "run_convergence", "run_relaxation_comparison", "run_scaling", "solve",
    "write_mesh",
]
