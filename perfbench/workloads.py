"""The benchmark's workloads: mesh, boundary data, GMRES settings and checks.

Every workload runs with the program's default tree and fluid parameters
(theta = 0.5, n_crit = 126, mu = 1e-3).  README.md says why each was chosen.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

MU = 1e-3
STREAM = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    formulation: str
    make_mesh: Callable          # (fmmbem, seed) -> Mesh
    tol: float
    p_initial: int
    p_min: int
    relaxed: bool
    rhs_limit: float             # relative limit of the double-layer identity
    answer_checks: Callable      # (op, mesh, x) -> [Check]

    def boundary_data(self, mesh):
        if self.formulation == "laplace_first":
            return np.ones(mesh.n_panels)
        return np.tile(STREAM, (mesh.n_panels, 1))


def _laplace_answer(op, mesh, x):
    return [checks.potential_error(op.areas, x)]


def _sphere_drag(op, mesh, x):
    return checks.stokes_law(op.drag_force(x), MU, radius=1.0, speed=1.0)


def _scene_drag(op, mesh, x):
    v = mesh.vertices
    center = 0.5 * (v.min(axis=0) + v.max(axis=0))
    enclosing = np.linalg.norm(v - center, axis=1).max()
    return [checks.drag_bracket(op.drag_force(x), MU, radius=1.0,
                                enclosing_radius=enclosing, speed=1.0)]


# Scene size: 6 unit spheres of 512 panels give 9216 unknowns, above the
# 8192 at which assemble_rhs leaves its dense path for the FMM.
SCENE_BODIES = 6
SCENE_LEVEL = 3

WORKLOADS = {
    w.name: w for w in [
        Workload("laplace-sphere", "laplace_first",
                 lambda fm, seed: fm.make_sphere(5),
                 tol=1e-6, p_initial=10, p_min=1, relaxed=True,
                 rhs_limit=1e-4, answer_checks=_laplace_answer),
        Workload("stokes-sphere-fixed", "stokes",
                 lambda fm, seed: fm.make_sphere(4),
                 tol=1e-5, p_initial=16, p_min=16, relaxed=False,
                 rhs_limit=2e-3, answer_checks=_sphere_drag),
        Workload("stokes-cells", "stokes",
                 lambda fm, seed: fm.make_scene(SCENE_BODIES, SCENE_LEVEL, seed=seed),
                 tol=1e-5, p_initial=16, p_min=5, relaxed=True,
                 rhs_limit=2e-3, answer_checks=_scene_drag),
        # Not in BENCHMARK.json: the relaxed counterpart of stokes-sphere-fixed,
        # run by hand for the relaxed-vs-fixed solve_s ratio in README.md.
        Workload("stokes-sphere-relaxed", "stokes",
                 lambda fm, seed: fm.make_sphere(4),
                 tol=1e-5, p_initial=16, p_min=5, relaxed=True,
                 rhs_limit=2e-3, answer_checks=_sphere_drag),
    ]
}
