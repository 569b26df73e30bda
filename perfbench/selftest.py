"""Self-test of the benchmark: every check rejects a deliberately wrong output.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Each check is first shown to accept the right output of a small solve, then
handed a wrong one (a scaled solution, a permuted or scaled right-hand side,
a dropped or doubled interaction pair, a broken p schedule) and must reject
it.  The tracer is tested for missing hooks and for self-time bookkeeping.
"""

import sys

import numpy as np

import checks
import layertrace
from run import import_program
from workloads import MU, STREAM

fm = import_program()


def _solve(formulation, level, tol, p_initial, p_min):
    mesh = fm.make_sphere(level)
    op = fm.BemOperator(mesh, formulation, mu=MU)
    data = (np.ones(mesh.n_panels) if formulation == "laplace_first"
            else np.tile(STREAM, (mesh.n_panels, 1)))
    b = op.assemble_rhs(data)
    result = fm.solve(op, b, eta=tol, p_initial=p_initial, p_min=p_min)
    return op, data, b, result


LAPLACE = _solve("laplace_first", 3, 1e-6, 10, 1)
STOKES = _solve("stokes", 3, 1e-5, 16, 5)


def test_laplace_checks_accept_and_reject():
    op, data, b, res = LAPLACE
    assert checks.potential_error(op.areas, res.x).passed
    assert not checks.potential_error(op.areas, 1.05 * res.x).passed
    assert checks.rhs_identity(b, data, 1e-4).passed
    assert not checks.rhs_identity(1.01 * b, data, 1e-4).passed


def test_true_residual_rejects_scaled_solution():
    for op, data, b, res in (LAPLACE, STOKES):
        tol = res.residuals[-1] * 1.0001
        assert checks.true_residual(b, op.apply(res.x, res.orders[0]), tol).passed
        assert not checks.true_residual(b, op.apply(1.01 * res.x, res.orders[0]), tol).passed
        assert not checks.true_residual(b, np.full_like(b, np.nan), tol).passed


def test_stokes_checks_accept_and_reject():
    op, data, b, res = STOKES
    force = op.drag_force(res.x)
    assert all(c.passed for c in checks.stokes_law(force, MU, 1.0, 1.0))
    drag, lateral = checks.stokes_law(op.drag_force(1.05 * res.x), MU, 1.0, 1.0)
    assert not drag.passed and lateral.passed
    drag, lateral = checks.stokes_law(force[[0, 2, 0]], MU, 1.0, 1.0)
    assert drag.passed and not lateral.passed
    assert checks.rhs_identity(b, data, 2e-3).passed
    assert not checks.rhs_identity(np.roll(b, 1), data, 2e-3).passed


def test_drag_bracket():
    exact = 6.0 * np.pi * MU
    assert checks.drag_bracket([2.0 * exact, 0, 0], MU, 1.0, 3.0, 1.0).passed
    assert not checks.drag_bracket([0.9 * exact, 0, 0], MU, 1.0, 3.0, 1.0).passed
    assert not checks.drag_bracket([3.1 * exact, 0, 0], MU, 1.0, 3.0, 1.0).passed


def test_schedule_and_convergence():
    assert checks.schedule([16, 14, 14, 5], 5, 16).passed
    assert checks.schedule([16, 16], 16, 16).passed
    assert not checks.schedule([14, 15], 5, 16).passed
    assert not checks.schedule([16, 4], 5, 16).passed
    assert not checks.schedule([17, 16], 5, 16).passed
    assert not checks.schedule([], 5, 16).passed
    assert checks.converged(True).passed and not checks.converged(False).passed


def test_interactions_reject_dropped_and_doubled_pairs():
    plan = STOKES[0].plan
    n_src = len(plan.src_tree.points)
    assert len(plan.m2l_pairs) > 1
    assert checks.interactions(plan.interaction_counts(), n_src).passed
    full = plan.m2l_pairs
    try:
        plan.m2l_pairs = full[1:]
        assert not checks.interactions(plan.interaction_counts(), n_src).passed
        plan.m2l_pairs = np.vstack([full, full[:1]])
        assert not checks.interactions(plan.interaction_counts(), n_src).passed
    finally:
        plan.m2l_pairs = full


def test_tracer_reports_missing_hook_and_keeps_running():
    tracer = layertrace.Tracer()
    tracer.hook("fmmbem.fmm", "FmmPlan._no_such_layer", "fmm.gone")
    tracer.hook("fmmbem.no_such_module", "f", "gone")
    assert tracer.missing == ["fmmbem.fmm.FmmPlan._no_such_layer",
                              "fmmbem.no_such_module.f"]


def test_traced_pipeline_accounts_every_second():
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        assert tracer.missing == []
        mesh = fm.make_sphere(2)
        with tracer.phase_span("setup"):
            op = fm.BemOperator(mesh, "stokes", mu=MU)
        with tracer.phase_span("rhs"):
            b = op.assemble_rhs(np.tile(STREAM, (mesh.n_panels, 1)), dense=False)
        with tracer.phase_span("solve"):
            res = fm.solve(op, b, eta=1e-5, p_initial=8, p_min=3)
    finally:
        tracer.uninstall()
    for phase in ("setup", "rhs", "solve"):
        total = sum(v for (_, ph), v in tracer.self_s.items() if ph == phase)
        assert abs(total - tracer.phase_s[phase]) < 1e-6
    assert tracer.layer_s("fmm.m2l", "rhs") > 0 and tracer.layer_s("fmm.p2p", "solve") > 0
    assert tracer.counts["solver.applies"] == res.n_iterations
    records = layertrace.iteration_records(tracer, res.orders, res.residuals)
    assert [r["p"] for r in records] == res.orders
    per_iter = sum(sum(r["layer_s"].values()) for r in records)
    assert abs(per_iter - (tracer.phase_end["solve"] - tracer.apply_marks[0][0])) < 1e-6
    assert all(v >= 0.0 for r in records for v in r["layer_s"].values())
    assert not hasattr(fm.BemOperator.apply, "__wrapped__")


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
