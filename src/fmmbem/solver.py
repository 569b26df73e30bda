"""GMRES with residual-driven relaxation of the expansion order.

The mat-vec accuracy a Krylov method actually needs grows as the residual
falls, so each iteration may use a cheaper (lower-order) multipole
approximation than the last.  The whole rule is one function,
:func:`schedule_p`: iteration k spends the accuracy budget

    eps_k = min(eta / min(r_{k-1}, 1), 1)

with r_{k-1} the preceding relative residual and eta the solve tolerance,
and takes the order p_k = ceil(-log2 eps_k), clamped to [p_min, p_initial]
and kept non-increasing.  With p_min = p_initial the clamp leaves no room,
so that is a fixed-order solve.

The bound behind the rule covers any perturbation of the product, rounding
included (Simoncini & Szyld, SISC 2003; Gratton, Simon, Titley-Peloquin &
Toint, 2019).  So a relaxed solve hands each apply eps_k itself, from
:func:`relaxation_budget`, and the operator spends it on the precision of
its near field too (``bemop.SINGLE_BUDGET``); a fixed-order solve hands
none.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def relaxation_budget(residual, eta):
    """The accuracy budget eps_k of the iteration after relative residual
    ``residual``, at solve tolerance eta."""
    return min(eta / min(max(residual, eta), 1.0), 1.0)


def schedule_p(residual, eta, p_initial, p_min):
    """Expansion order for the next iteration under the relaxation rule."""
    eps = relaxation_budget(residual, eta)
    return int(min(p_initial, max(p_min, math.ceil(-math.log2(eps)))))


@dataclass
class SolveResult:
    x: np.ndarray
    residuals: list = field(default_factory=list)   # relative, one per iteration
    orders: list = field(default_factory=list)      # p used in each iteration
    budgets: list = field(default_factory=list)     # eps_k handed to each apply
    converged: bool = False

    @property
    def n_iterations(self):
        return len(self.orders)


def check_inputs(tol, p_initial, p_min, max_iter):
    """Raise ValueError naming the bad value unless gmres accepts these inputs."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 0 <= p_min <= p_initial:
        raise ValueError(f"need 0 <= p_min <= p_initial, got p_min={p_min}, "
                         f"p_initial={p_initial}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def gmres(apply_fn, b, tol=1e-5, p_initial=12, p_min=1, max_iter=100):
    """Unrestarted GMRES on y = apply_fn(x, p) with a per-iteration order p.

    apply_fn: callable (x, p, budget) -> A x.  Iterates until the relative
    residual estimate drops below tol or max_iter is reached; p follows
    :func:`schedule_p` with eta = tol, from p_initial down to p_min, and
    budget is the iteration's :func:`relaxation_budget`.  p_min = p_initial
    is a fixed-order solve, whose every apply gets budget None.  Modified
    Gram-Schmidt Arnoldi with Givens rotations; no restarting, so max_iter
    basis vectors are kept at most.  A non-finite b is rejected before the first mat-vec.
    """
    check_inputs(tol, p_initial, p_min, max_iter)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("the right-hand side b holds non-finite values")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveResult(x=np.zeros_like(b), converged=True)

    n = len(b)
    basis = [b / norm_b]
    H = np.zeros((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = norm_b
    result = SolveResult(x=np.zeros(n))
    residual = 1.0
    p = p_initial
    relaxed = p_min < p_initial

    for k in range(max_iter):
        p = min(p, schedule_p(residual, tol, p_initial, p_min))  # never spend more than before
        budget = relaxation_budget(residual, tol) if relaxed else None
        w = apply_fn(basis[k], p, budget=budget)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError(
                f"GMRES iteration {k + 1} (p={p}): the mat-vec returned non-finite values")
        for j in range(k + 1):
            H[j, k] = basis[j] @ w
            w = w - H[j, k] * basis[j]
        H[k + 1, k] = np.linalg.norm(w)
        if H[k + 1, k] > 0.0:
            basis.append(w / H[k + 1, k])
        else:
            basis.append(np.zeros(n))  # lucky breakdown; residual hits zero below
        for j in range(k):
            h1 = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
            H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
            H[j, k] = h1
        denom = math.hypot(H[k, k], H[k + 1, k])
        if denom == 0.0:
            raise ZeroDivisionError(
                f"GMRES breakdown at iteration {k + 1} (p={p}): the new Krylov direction "
                "is zero after orthogonalisation, so the least-squares problem is singular")
        cs[k] = H[k, k] / denom
        sn[k] = H[k + 1, k] / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        residual = abs(g[k + 1]) / norm_b
        result.residuals.append(residual)
        result.orders.append(p)
        result.budgets.append(budget)
        if residual < tol:
            result.converged = True
            break

    m = len(result.orders)
    y = np.linalg.solve(H[:m, :m], g[:m]) if m else np.zeros(0)
    x = np.zeros(n)
    for j in range(m):
        x += y[j] * basis[j]
    result.x = x
    return result


def solve(operator, b, eta=1e-5, p_initial=12, p_min=1, relaxed=True, max_iter=100):
    """GMRES on a BEM operator with tolerance eta and orders p_initial -> p_min.

    relaxed=False is the fixed-order solve p_min = p_initial.
    """
    return gmres(operator.apply, b, tol=eta, p_initial=p_initial,
                 p_min=p_min if relaxed else p_initial, max_iter=max_iter)
