"""Fast summation versus the direct N-body sum.

Builds a cloud of random charges, evaluates the 1/r potential both ways,
and shows the truncation error staying below 2^-p while the cost stays
nearly linear in N.  The FmmPlan holds the sources and probes; it is built
once, and every order is evaluated over its points.
"""

import time

import numpy as np

from fmmbem import KernelKind, direct_sum
from fmmbem.fmm import FmmPlan, evaluate

rng = np.random.default_rng(0)
n = 20000
pos = rng.uniform(0.0, 1.0, size=(n, 3))
charges = rng.uniform(-1.0, 1.0, size=n)
probe = rng.uniform(0.0, 1.0, size=(500, 3))

t0 = time.perf_counter()
ref = direct_sum(KernelKind.LAPLACE_SINGLE, pos, charges, probe)
t_direct = time.perf_counter() - t0
print(f"direct sum over {n} sources at {len(probe)} probes: {t_direct:.3f} s")

plan = FmmPlan(pos, probe, n_crit=126, theta=0.5)
print("\n  p     rel. L2 error     time (s)     2^-p")
for p in (2, 4, 6, 8, 10, 12, 15):
    t0 = time.perf_counter()
    val = evaluate(KernelKind.LAPLACE_SINGLE, plan, charges, p)
    dt = time.perf_counter() - t0
    err = np.linalg.norm(val - ref) / np.linalg.norm(ref)
    print(f"  {p:2d}    {err:12.3e}    {dt:8.3f}    {2.0 ** -p:8.1e}")

print("\nThe error stays below 2^-p, which is what the relaxation rule")
print("p = ceil(-log2 eps) assumes when it lowers the order mid-solve.")
