"""Experiment harness: convergence, relaxation-speedup and scaling studies.

Each study returns a StudyReport holding per-run records plus derived
quantities (observed order, extrapolated limit, speedup).  Reports write to
a strict JSON file (an undefined value is null) and a CSV of the records.
Every solve, that of ``fmmbem solve`` included, goes through
:func:`solve_record`, whose record holds N, iterations, converged, time,
residuals, orders, budgets and peak_rss_mb; a study adds its own keys to it.
Timings are wall-clock around the solve loop or the tree evaluation only;
the relaxation and scaling studies average them over repeated identical
runs, the convergence study times each solve once.  Each study checks its
parameters, defaults included, before it builds a mesh or a tree.
"""

import csv
import inspect
import json
import resource
import sys
import time

import numpy as np

from . import mesh as meshes
from . import solver
from .bemop import BemOperator, Formulation, check_parameters
from .fmm import FmmPlan, evaluate
from .kernels import KernelKind


def observed_order(f1, f2, f3, c=4.0):
    """Convergence order from three values on meshes refined by factor c.

    order = ln((f2 - f1)/(f3 - f2)) / ln(c); the triple must be monotone.
    """
    if c <= 1.0:
        raise ValueError("refinement ratio c must exceed 1")
    num = f2 - f1
    den = f3 - f2
    if den == 0.0 or num / den <= 0.0:
        raise ValueError("triple is not monotone; order undefined")
    return np.log(num / den) / np.log(c)


def richardson(f1, f2, f3):
    """Extrapolated limit (f1 f3 - f2^2)/(f1 - 2 f2 + f3) of a refinement triple."""
    den = f1 - 2.0 * f2 + f3
    if den == 0.0:
        raise ValueError("degenerate triple; extrapolation undefined")
    return (f1 * f3 - f2 * f2) / den


class StudyReport:
    """Structured study output: records (one dict per run) plus derived values."""

    def __init__(self, kind, params=None, records=None, derived=None):
        self.kind = kind
        self.params = dict(params or {})
        self.records = list(records or [])
        self.derived = dict(derived or {})

    def write(self, path):
        """One JSON object with the kind, params, records and derived values.

        A non-finite value raises ValueError before the file is opened.
        """
        text = json.dumps(dict(kind=self.kind, params=self.params, records=self.records,
                               derived=self.derived), indent=1, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text)

    def write_csv(self, path):
        """One CSV row per record, columns from the union of record keys.

        A string is written as it is, any other value as JSON (a list of
        orders as one quoted cell), a missing one as an empty cell.
        """
        cols = list(dict.fromkeys(k for rec in self.records for k in rec))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, cols, restval="")
            writer.writeheader()
            for rec in self.records:
                writer.writerow({k: v if isinstance(v, str) else json.dumps(v)
                                 for k, v in rec.items()})


_FORMULATIONS = {
    "laplace1": Formulation.LAPLACE_FIRST,
    "laplace2": Formulation.LAPLACE_SECOND,
    "stokes": Formulation.STOKES,
}


def setup_problem(mesh, problem, **options):
    """Operator, boundary data and exact per-panel solution of one problem.

    options go to :class:`BemOperator` (theta, n_crit, mu).

    laplace1: phi = 1 given, exact charge q = 1 on the unit sphere.
    laplace2: q = 1 given, exact phi = 1 on the unit sphere.  stokes:
    ambient velocity (1, 0, 0), exact drag 6 pi mu on the unit sphere, and
    no per-panel solution (None).
    """
    op = BemOperator(mesh, _FORMULATIONS[problem], **options)
    if problem == "stokes":
        data = np.tile([1.0, 0.0, 0.0], (mesh.n_panels, 1))
        exact = None
    else:
        data = np.ones(mesh.n_panels)
        exact = np.ones(mesh.n_panels)
    return op, data, exact


def _solution_error(op, problem, x, exact):
    """Relative error metric of one converged solve."""
    if problem == "stokes":
        drag = op.drag_force(x)[0]
        ref = 6.0 * np.pi * op.mu
        return abs(drag - ref) / ref
    w = op.areas
    return float(np.sqrt(w @ (x - exact) ** 2 / (w @ exact ** 2)))


def _middle_triples(values, counts):
    """Observed orders from interior triples ("middle of each line")."""
    orders = []
    idx = range(1, len(values) - 1) if len(values) >= 5 else [len(values) // 2]
    for i in idx:
        try:
            orders.append(float(observed_order(values[i - 1], values[i], values[i + 1],
                                               c=counts[i] / counts[i - 1])))
        except ValueError:
            pass
    return orders


def _peak_rss_mb():
    """Peak resident set of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)


def solve_record(op, b, **solve_options):
    """(result, record) of one timed :func:`solver.solve` of op x = b.

    The record holds N, iterations, converged, the wall time of the solve,
    each iteration's residual, order and budget (null in a fixed-order
    solve; from bemop.SINGLE_BUDGET up its near field ran in float32), and
    the process's peak RSS after it.
    """
    t0 = time.perf_counter()
    res = solver.solve(op, b, **solve_options)
    elapsed = time.perf_counter() - t0
    return res, dict(N=op.n_panels, iterations=res.n_iterations, converged=res.converged,
                     time=elapsed, residuals=res.residuals, orders=res.orders,
                     budgets=res.budgets, peak_rss_mb=_peak_rss_mb())


def _check_problem(problem, problems):
    if problem not in problems:
        raise ValueError(f"problem must be one of {', '.join(problems)}, got {problem!r}")


def _defaults(fn, *names):
    """{name: default} of the named parameters of fn, for a report's params."""
    parameters = inspect.signature(fn).parameters
    return {name: parameters[name].default for name in names}


def run_convergence(problem, levels, p=12, tol=1e-6, theta=0.5):
    """Solve one problem family over refined meshes and report error orders.

    problem: 'laplace1' | 'laplace2' | 'stokes' | 'rbc'.  The rbc study has
    no analytic solution; its drag values are Richardson-extrapolated instead.
    The operator and the relaxed solve run with their own defaults otherwise.
    The order is None when no interior triple of errors is monotone.
    """
    _check_problem(problem, [*_FORMULATIONS, "rbc"])
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError("need at least 3 mesh levels")
    if min(levels) < 0:
        raise ValueError(f"every level must be >= 0, got {min(levels)}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    params = dict(problem=problem, p=p, tol=tol, theta=theta,
                  **_defaults(BemOperator, "n_crit", "mu"),
                  **_defaults(solver.solve, "p_min", "max_iter"))
    solver.check_inputs(tol, p, params["p_min"], params["max_iter"])
    check_parameters(theta, params["n_crit"], params["mu"])
    report = StudyReport("convergence", params)
    errors, drags, counts = [], [], []
    for level in levels:
        if problem == "rbc":
            op, data, exact = setup_problem(meshes.make_rbc(level), "stokes", theta=theta)
        else:
            op, data, exact = setup_problem(meshes.make_sphere(level), problem, theta=theta)
        res, rec = solve_record(op, op.assemble_rhs(data), eta=tol, p_initial=p)
        counts.append(op.n_panels)
        if problem in ("stokes", "rbc"):
            drag = float(op.drag_force(res.x)[0])
            rec["drag"] = drag
            drags.append(drag)
        if problem == "rbc":
            errors.append(drag)
        else:
            err = _solution_error(op, problem, res.x, exact)
            rec["error"] = err
            errors.append(err)
        report.records.append(rec)
    if problem == "rbc":
        f1, f2, f3 = drags[-3:]
        report.derived["extrapolated_drag"] = float(richardson(f1, f2, f3))
        report.derived["order"] = float(observed_order(f1, f2, f3,
                                                       c=counts[-1] / counts[-2]))
    else:
        orders = _middle_triples(errors, counts)
        report.derived["orders"] = orders
        report.derived["order"] = float(np.mean(orders)) if orders else None
    return report


def run_relaxation_comparison(problem, level, tol=1e-5, p_initial=12, p_min=1,
                              theta=0.5, ncrit_candidates=(126,), repeats=3):
    """Paired relaxed / fixed-order solves with per-variant best n_crit.

    The optimal near/far balance differs between the two variants because
    relaxation cheapens only the far field, so each candidate n_crit is tried
    for both and the fastest kept.  speedup = best fixed time / best relaxed.
    mu and max_iter are the operator's and the solver's defaults.
    """
    params = dict(problem=problem, level=level, tol=tol, p_initial=p_initial,
                  p_min=p_min, theta=theta, repeats=repeats,
                  ncrit_candidates=list(ncrit_candidates),
                  **_defaults(BemOperator, "mu"), **_defaults(solver.solve, "max_iter"))
    _check_problem(problem, list(_FORMULATIONS))
    solver.check_inputs(tol, p_initial, p_min, params["max_iter"])
    if not params["ncrit_candidates"]:
        raise ValueError("ncrit_candidates must not be empty")
    for n_crit in params["ncrit_candidates"]:
        check_parameters(theta, n_crit, params["mu"])
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report = StudyReport("relaxation", params)
    best = {True: None, False: None}
    x_best = {}
    for n_crit in params["ncrit_candidates"]:
        op, data, _ = setup_problem(meshes.make_sphere(level), problem, theta=theta,
                                    n_crit=n_crit)
        b = op.assemble_rhs(data)
        for relaxed in (True, False):
            times = []
            for _ in range(repeats):
                res, rec = solve_record(op, b, eta=tol, p_initial=p_initial, p_min=p_min,
                                        relaxed=relaxed)
                times.append(rec["time"])
            rec.update(n_crit=n_crit, relaxed=relaxed, time=float(np.mean(times)),
                       time_min=min(times), time_max=max(times))
            report.records.append(rec)
            if best[relaxed] is None or rec["time"] < best[relaxed]["time"]:
                best[relaxed] = rec
                x_best[relaxed] = res.x
    report.derived["speedup"] = best[False]["time"] / best[True]["time"]
    report.derived["iterations_relaxed"] = best[True]["iterations"]
    report.derived["iterations_fixed"] = best[False]["iterations"]
    dx = np.linalg.norm(x_best[True] - x_best[False])
    report.derived["solution_difference"] = float(dx / np.linalg.norm(x_best[False]))
    return report


def run_scaling(sizes, p=5, n_crit=126, theta=0.5, repeats=1, seed=0):
    """Wall time of one Laplace tree evaluation across problem sizes.

    Uniform random sources in the unit cube; the fitted log-log slope should
    stay near 1 for a linear-scaling evaluation.
    """
    # the tree parameters as the operator checks them; mu plays no part here
    check_parameters(theta, n_crit, **_defaults(BemOperator, "mu"))
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    sizes = [int(n) for n in sizes]
    if min(sizes) < 1:
        raise ValueError(f"every size must be >= 1, got {min(sizes)}")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    rng = np.random.default_rng(seed)
    params = dict(p=p, n_crit=n_crit, theta=theta, repeats=repeats, seed=seed)
    report = StudyReport("scaling", params)
    times = []
    for n in sizes:
        pos = rng.uniform(0.0, 1.0, size=(n, 3))
        charges = rng.uniform(-1.0, 1.0, size=n)
        plan = FmmPlan(pos, pos, n_crit=n_crit, theta=theta)
        run_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            evaluate(KernelKind.LAPLACE_SINGLE, plan, charges, p)
            run_times.append(time.perf_counter() - t0)
        t_mean = float(np.mean(run_times))
        times.append(t_mean)
        report.records.append(dict(N=n, time=t_mean,
                                   time_min=float(min(run_times)),
                                   time_max=float(max(run_times))))
    if len(sizes) >= 2:
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        report.derived["slope"] = float(slope)
    return report
