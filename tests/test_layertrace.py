"""The benchmark's tracer finds every layer it hooks and fills every counter.

perfbench/layertrace.py hooks fmmbem by name from outside the package, so a
renamed method or attribute shows up in a traced run only as a "missing
hooks" line or as a counter left at zero.  This runs the traced pipeline on
a small Stokes solve and allows neither.
"""

import sys
from pathlib import Path

import numpy as np

import fmmbem as fm

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402


def test_traced_pipeline_finds_every_hook_and_counter():
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        mesh = fm.make_sphere(3)
        with tracer.phase_span("setup"):
            op = fm.BemOperator(mesh, "stokes")
        with tracer.phase_span("rhs"):
            b = op.assemble_rhs(np.tile([1.0, 0.0, 0.0], (mesh.n_panels, 1)))
        with tracer.phase_span("solve"):
            fm.solve(op, b, eta=1e-5, p_initial=8, p_min=3)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [name for name in layertrace.COUNTS if not tracer.counts[name] > 0] == []
