"""Stokes drag on a translating sphere.

Solving the resistance problem for a rigid sphere in an ambient stream
recovers Stokes' law F = 6 pi mu R u.  The run prints the residual and
expansion-order history so the relaxation of p is visible: the order
starts high and falls with the residual.
"""

import numpy as np

from fmmbem import BemOperator, Formulation, make_sphere, solve

mu = 1e-3
m = make_sphere(4)  # 2048 panels
op = BemOperator(m, Formulation.STOKES, mu=mu)
velocity = np.tile([1.0, 0.0, 0.0], (m.n_panels, 1))
b = op.assemble_rhs(velocity)

res = solve(op, b, eta=1e-5, p_initial=16, p_min=5)

print("iter   residual      p")
for k, (r, p) in enumerate(zip(res.residuals, res.orders), start=1):
    print(f"{k:4d}   {r:9.2e}   {p:3d}")

drag = op.drag_force(res.x)
exact = 6.0 * np.pi * mu
print(f"\ndrag force      {drag[0]:.6e}")
print(f"Stokes law      {exact:.6e}")
print(f"relative error  {abs(drag[0] - exact) / exact:.2e}")
