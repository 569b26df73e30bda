"""The benchmark's tracer finds every layer it hooks and fills every counter.

perfbench/layertrace.py hooks fmmbem by name from outside the package, so a
renamed method or attribute shows up in a traced run only as a "missing
hooks" line or as a counter left at zero.  This runs the traced pipeline on
a small Laplace first-kind solve and a small Stokes solve, so that both
singular-integral hooks run, and allows neither.
"""

import sys
from pathlib import Path

import numpy as np

import fmmbem as fm

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402


def _traced_pipeline(tracer, mesh, formulation, data):
    with tracer.phase_span("setup"):
        op = fm.BemOperator(mesh, formulation)
    with tracer.phase_span("rhs"):
        b = op.assemble_rhs(data)
    with tracer.phase_span("solve"):
        fm.solve(op, b, eta=1e-5, p_initial=8, p_min=3)


def test_traced_pipeline_finds_every_hook_and_counter():
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        mesh = fm.make_sphere(3)
        _traced_pipeline(tracer, mesh, "laplace_first", np.ones(mesh.n_panels))
        laplace_singular = tracer.counts["quadrature.singular_panels"]
        _traced_pipeline(tracer, mesh, "stokes", np.tile([1.0, 0.0, 0.0], (mesh.n_panels, 1)))
    finally:
        tracer.uninstall()
    assert laplace_singular > 0
    assert tracer.missing == []
    assert [name for name in layertrace.COUNTS if not tracer.counts[name] > 0] == []
