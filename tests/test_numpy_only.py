"""The package runs on numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import fmmbem

fmmbem.make_scene(2, 1)
mesh = fmmbem.make_sphere(2)
for formulation, data in (("laplace_first", np.ones(mesh.n_panels)),
                          ("stokes", np.tile([1.0, 0.0, 0.0], (mesh.n_panels, 1)))):
    op = fmmbem.BemOperator(mesh, formulation)
    fmmbem.solve(op, op.assemble_rhs(data), max_iter=2)
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_import_and_solve_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "", f"scipy modules loaded: {run.stdout.strip()}"
