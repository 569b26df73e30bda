"""Correctness checks on a benchmark run's outputs.

Each check takes plain arrays and numbers, so the self-test can hand it a
deliberately wrong output, and returns a :class:`Check` record.  None of the
references comes from the FMM path itself: they are exact solutions, physical
laws, identities of the double layer, a separately applied residual, or
counting properties the tree traversal must have.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Check:
    name: str
    value: float
    limit: float
    passed: bool

    def as_dict(self):
        return {"name": self.name, "value": self.value, "limit": self.limit,
                "passed": bool(self.passed)}


def _upper(name, value, limit):
    value = float(value)
    return Check(name, value, float(limit), bool(np.isfinite(value) and value <= limit))


# First-kind flat-panel collocation converges about linearly in the panel
# size h = sqrt(mean panel area): q = 1 on the unit sphere measured
# err / h = 0.14, 0.11, 0.085, 0.067 at 128, 512, 2048 and 8192 panels.
LAPLACE_ERROR_PER_H = 0.15


def potential_error(areas, q, exact=1.0):
    """Area-weighted L2 error of the charge q against the exact value."""
    limit = LAPLACE_ERROR_PER_H * np.sqrt(np.mean(areas))
    err = np.sqrt(np.sum(areas * (q - exact) ** 2) / np.sum(areas * exact ** 2))
    return _upper("laplace.charge_l2_error", err, limit)


def stokes_law(force, mu, radius, speed, rel_limit=0.01, lateral_limit=1e-4):
    """Drag on a translating sphere against 6 pi mu a U; lateral force ~ 0.

    1 % covers the 2048-panel discretisation (measured 0.23 %); by symmetry
    the lateral force vanishes up to the FMM error, far below 1e-4 of the drag.
    """
    exact = 6.0 * np.pi * mu * radius * speed
    drag = _upper("stokes.drag_vs_stokes_law", abs(force[0] - exact) / exact, rel_limit)
    lateral = _upper("stokes.lateral_force", np.hypot(force[1], force[2]) / abs(force[0]),
                     lateral_limit)
    return [drag, lateral]


def drag_bracket(force, mu, radius, enclosing_radius, speed):
    """Hill-Power comparison: 6 pi mu a U < drag < 6 pi mu R U.

    A translating body's drag is at least that of any body it contains (one
    sphere) and at most that of any body enclosing it (the scene's bounding
    sphere).  Reported as the position of the drag inside the bracket.
    """
    lo = 6.0 * np.pi * mu * radius * speed
    hi = 6.0 * np.pi * mu * enclosing_radius * speed
    pos = (force[0] - lo) / (hi - lo)
    ok = bool(0.0 < pos < 1.0)
    return Check("stokes.drag_in_hill_power_bracket", float(pos), 1.0, ok)


def rhs_identity(b, data, limit):
    """Gauss / rigid-body identity: the double-layer right-hand side equals
    the boundary data itself (b = phi for phi = 1, b = u for a translation)."""
    data = np.asarray(data, dtype=float).reshape(-1)
    return _upper("rhs.double_layer_identity", np.linalg.norm(b - data) / np.linalg.norm(data),
                  limit)


# The true residual uses A at p_initial, itself accurate to about 2^-p, so it
# may sit slightly above the GMRES estimate; measured gaps are below 1 %.
RESIDUAL_FACTOR = 2.0


def true_residual(b, ax, tol):
    """||b - A x|| / ||b|| with A applied apart from the solve."""
    res = np.linalg.norm(b - ax) / np.linalg.norm(b)
    return _upper("solve.true_residual_over_tol", res / tol, RESIDUAL_FACTOR)


def converged(flag):
    return Check("solve.converged", float(bool(flag)), 1.0, bool(flag))


def schedule(orders, p_min, p_initial):
    """The p schedule is non-empty, non-increasing and inside [p_min, p_initial].

    The value is the number of iterations that break a rule.
    """
    orders = np.asarray(orders)
    bad = np.count_nonzero((orders < p_min) | (orders > p_initial))
    bad += np.count_nonzero(np.diff(orders) > 0)
    return Check("solve.p_schedule_violations", float(bad), 0.0,
                 bool(len(orders) > 0 and bad == 0))


def interactions(counts, n_sources):
    """Every target sees every source exactly once, through M2L or P2P.

    The value is the number of targets whose count differs.
    """
    bad = np.count_nonzero(np.asarray(counts) != n_sources)
    return Check("fmm.targets_missing_or_double_sources", float(bad), 0.0, bad == 0)
