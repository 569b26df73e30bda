"""GMRES correctness and the relaxation schedule's properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmbem import mesh, solver
from fmmbem.bemop import BemOperator, Formulation


def _dense_apply(A):
    return lambda x, p, budget=None: A @ x


def test_gmres_solves_dense_system():
    rng = np.random.default_rng(0)
    n = 40
    A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    b = rng.normal(size=n)
    res = solver.gmres(_dense_apply(A), b, tol=1e-12, max_iter=n)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-9)


def test_gmres_residual_history_decreases_to_tol():
    rng = np.random.default_rng(1)
    n = 60
    A = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    b = rng.normal(size=n)
    res = solver.gmres(_dense_apply(A), b, tol=1e-8, max_iter=n)
    assert res.residuals[-1] < 1e-8
    assert res.residuals == sorted(res.residuals, reverse=True)


def test_gmres_zero_rhs():
    res = solver.gmres(_dense_apply(np.eye(3)), np.zeros(3))
    assert res.converged and res.n_iterations == 0


def test_gmres_reports_nonconvergence():
    rng = np.random.default_rng(2)
    n = 50
    A = np.eye(n) + 0.5 * rng.normal(size=(n, n))
    res = solver.gmres(_dense_apply(A), rng.normal(size=n), tol=1e-14, max_iter=3)
    assert not res.converged
    assert res.n_iterations == 3


@given(r=st.floats(1e-12, 10.0), eta=st.floats(1e-10, 1e-1))
@settings(max_examples=200, deadline=None)
def test_schedule_p_never_exceeds_tol_budget(r, eta):
    """The budget never drops below the solve tolerance itself."""
    p = solver.schedule_p(r, eta, 64, 0)
    assert 0 <= p <= math.ceil(-math.log2(eta))


def test_schedule_p_at_unit_residual():
    """At r = 1 the budget is eta, so the order is ceil(-log2 eta)."""
    assert solver.schedule_p(1.0, 1.0, 30, 0) == 0
    assert solver.schedule_p(1.0, 1e-3, 30, 0) == 10
    assert solver.schedule_p(1.0, 0.5 ** 12, 30, 0) == 12


@given(r=st.floats(1e-12, 10.0), eta=st.floats(1e-10, 1e-1),
       p_initial=st.integers(2, 20), p_min=st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_schedule_p_clamped(r, eta, p_initial, p_min):
    if p_min > p_initial:
        p_min = p_initial
    p = solver.schedule_p(r, eta, p_initial, p_min)
    assert p_min <= p <= p_initial
    # the rule of the module docstring, with a budget of 1 asking for p_min
    eps = min(eta / min(r, 1.0), 1.0)
    assert p == min(p_initial, max(p_min, math.ceil(-math.log2(eps)) if eps < 1.0 else p_min))


def test_schedule_p_monotone_in_residual():
    eta = 1e-6
    ps = [solver.schedule_p(r, eta, 16, 1) for r in (1.0, 1e-1, 1e-2, 1e-4, 1e-6)]
    assert ps == sorted(ps, reverse=True)
    assert ps[0] == 16    # full order while the residual is O(1)
    assert ps[-1] == 1    # budget saturates at the tolerance


def _recording_apply(A):
    calls = []

    def apply_fn(x, p, budget=None):
        calls.append(p)
        return A @ x
    return apply_fn, calls


def test_schedule_orders_non_increasing_in_solve():
    rng = np.random.default_rng(6)
    n = 40
    A = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    apply_fn, calls = _recording_apply(A)
    res = solver.gmres(apply_fn, rng.normal(size=n), tol=1e-6, p_initial=12,
                       p_min=2, max_iter=n)
    assert res.converged and res.orders == calls
    assert res.orders[0] == 12 and res.orders[-1] < 12
    assert all(a >= b for a, b in zip(res.orders, res.orders[1:]))
    assert min(res.orders) >= 2


def test_fixed_schedule_keeps_order():
    """p_min = p_initial is a fixed-order solve."""
    rng = np.random.default_rng(7)
    A = np.eye(20) + 0.1 * rng.normal(size=(20, 20))
    apply_fn, calls = _recording_apply(A)
    res = solver.gmres(apply_fn, rng.normal(size=20), tol=1e-9, p_initial=9,
                       p_min=9, max_iter=20)
    assert res.converged and calls == res.orders == [9] * res.n_iterations


def _budget_recording_apply(A):
    budgets = []

    def apply_fn(x, p, budget=None):
        budgets.append(budget)
        return A @ x
    return apply_fn, budgets


def test_fixed_order_solve_hands_no_budget():
    """A fixed-order solve asks every apply for full accuracy: budget None."""
    rng = np.random.default_rng(8)
    A = np.eye(30) + 0.2 * rng.normal(size=(30, 30))
    apply_fn, budgets = _budget_recording_apply(A)
    res = solver.gmres(apply_fn, rng.normal(size=30), tol=1e-8, p_initial=9, p_min=9,
                       max_iter=30)
    assert res.converged and res.n_iterations > 1
    assert budgets == res.budgets == [None] * res.n_iterations


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_relaxed_solve_hands_each_apply_its_budget(tol):
    """Iteration k's apply gets tol / min(max(r, tol), 1), r the residual
    before it (1 before the first), and the result records the same list."""
    rng = np.random.default_rng(9)
    n = 40
    A = np.eye(n) + 0.2 * rng.normal(size=(n, n))
    apply_fn, budgets = _budget_recording_apply(A)
    res = solver.gmres(apply_fn, rng.normal(size=n), tol=tol, p_initial=12, p_min=1,
                       max_iter=n)
    assert res.converged and res.n_iterations > 2
    before = [1.0] + res.residuals[:-1]
    assert budgets == res.budgets == [tol / min(max(r, tol), 1.0) for r in before]
    assert budgets == sorted(budgets) and budgets[0] == tol


class _CountingOperator:
    calls = 0

    def apply(self, x, p, budget=None):
        self.calls += 1
        return x


@given(p_initial=st.integers(0, 30), p_min=st.integers(-5, 35))
@settings(max_examples=100, deadline=None)
def test_schedule_rejects_bad_orders(p_initial, p_min):
    """A solve runs exactly when 0 <= p_min <= p_initial."""
    op = _CountingOperator()
    if 0 <= p_min <= p_initial:
        res = solver.gmres(op.apply, np.ones(3), p_initial=p_initial, p_min=p_min)
        assert res.converged and p_min <= res.orders[0] <= p_initial
    else:
        with pytest.raises(ValueError, match="p_min"):
            solver.gmres(op.apply, np.ones(3), p_initial=p_initial, p_min=p_min)
        assert op.calls == 0


def test_solve_rejects_p_min_above_p_initial():
    op = _CountingOperator()
    with pytest.raises(ValueError, match="p_min"):
        solver.solve(op, np.ones(3), p_initial=4, p_min=5)
    assert op.calls == 0


@pytest.mark.parametrize("b", [np.ones(3), np.zeros(3)])
@pytest.mark.parametrize("kwargs, match", [
    (dict(tol=0.0), "tol"), (dict(tol=np.nan), "tol"),
    (dict(p_initial=4, p_min=5), "p_min"), (dict(p_min=-1), "p_min"),
    (dict(max_iter=0), "max_iter"),
])
def test_gmres_rejects_bad_input_before_first_matvec(b, kwargs, match):
    """Checked before anything else, the zero right-hand side included."""
    op = _CountingOperator()
    with pytest.raises(ValueError, match=match):
        solver.gmres(op.apply, b, **kwargs)
    assert op.calls == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gmres_rejects_nonfinite_b_before_first_matvec(bad):
    """A NaN or inf in b is named as b's, not blamed on the mat-vec."""
    op = _CountingOperator()
    b = np.ones(3)
    b[1] = bad
    with pytest.raises(ValueError, match="right-hand side b"):
        solver.gmres(op.apply, b)
    assert op.calls == 0


def test_relaxed_gmres_matches_fixed_on_dense():
    """Relaxed p-schedule with an exact mat-vec changes nothing."""
    rng = np.random.default_rng(3)
    n = 30
    A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    b = rng.normal(size=n)
    res = solver.gmres(_dense_apply(A), b, tol=1e-10, p_initial=10, p_min=1, max_iter=n)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-7)


@pytest.mark.parametrize("eta", [0.0, -1e-6, np.nan, np.inf])
def test_schedule_rejects_bad_eta(eta):
    """A fixed-order solve fails before its first mat-vec, not after max_iter."""
    op = _CountingOperator()
    with pytest.raises(ValueError, match="tol"):
        solver.gmres(op.apply, np.ones(3), tol=eta, p_initial=9, p_min=9)
    with pytest.raises(ValueError, match="tol"):
        solver.solve(op, np.ones(3), eta=eta, relaxed=False)
    assert op.calls == 0


def test_gmres_raises_on_breakdown():
    """A mat-vec that maps b to zero leaves the Hessenberg column empty."""
    with pytest.raises(ZeroDivisionError, match=r"iteration 1 \(p=7\)"):
        solver.gmres(lambda x, p, budget=None: np.zeros_like(x), np.ones(4), p_initial=7,
                     p_min=7)


def test_gmres_raises_on_nonfinite_matvec():
    rng = np.random.default_rng(5)
    A = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    calls = []

    def apply_fn(x, p, budget=None):
        calls.append(p)
        y = A @ x
        if len(calls) == 2:
            y[2] = np.inf
        return y

    with pytest.raises(FloatingPointError, match=r"iteration 2 \(p=9\).*non-finite"):
        solver.gmres(apply_fn, rng.normal(size=6), tol=1e-12, p_initial=9, p_min=9,
                     max_iter=6)


def test_solve_unrelaxed_is_p_min_equal_p_initial():
    """solve's relaxed=False is bitwise the solve with p_min = p_initial."""
    m = mesh.make_sphere(2)
    op = BemOperator(m, Formulation.LAPLACE_FIRST)
    b = op.assemble_rhs(np.ones(m.n_panels))
    off = solver.solve(op, b, eta=1e-6, p_initial=8, p_min=1, relaxed=False)
    fixed = solver.solve(op, b, eta=1e-6, p_initial=8, p_min=8)
    assert off.orders == fixed.orders == [8] * fixed.n_iterations
    assert off.residuals == fixed.residuals
    assert np.array_equal(off.x, fixed.x)
