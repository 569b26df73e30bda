"""Richardson extrapolation, report round-trips and small study runs."""

import csv
import json

import numpy as np
import pytest

from fmmbem import study


def test_observed_order_exact_power_law():
    f = [1.0 + 4.0 ** -k for k in range(1, 4)]
    assert np.isclose(study.observed_order(*f, c=4.0), 1.0, atol=1e-12)


def test_observed_order_equal_differences_is_zero():
    assert study.observed_order(1.0, 2.0, 3.0, c=4.0) == 0.0


def test_observed_order_rejects_non_monotone():
    with pytest.raises(ValueError):
        study.observed_order(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        study.observed_order(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        study.observed_order(1.0, 2.0, 3.0, c=1.0)


def test_richardson_recovers_geometric_limit():
    limit, amp, ratio = 3.7, 0.9, 0.25
    f = [limit + amp * ratio ** k for k in range(3)]
    assert np.isclose(study.richardson(*f), limit, atol=1e-12)


def test_richardson_rejects_constant_sequence():
    with pytest.raises(ValueError):
        study.richardson(2.0, 2.0, 2.0)


def test_measured_drag_triple():
    """Three-level drag readings extrapolate near -0.085 at order ~0.45."""
    f = (-0.057, -0.070, -0.077)
    assert np.isclose(study.richardson(*f), -0.08517, atol=5e-4)
    order = study.observed_order(*f, c=4.0)
    assert 0.40 <= order <= 0.60


def test_report_roundtrip(tmp_path):
    rep = study.StudyReport(
        "convergence",
        params=dict(problem="laplace1", tol=1e-6),
        records=[dict(N=128, error=0.04, iterations=5),
                 dict(N=512, error=0.017, iterations=7)],
        derived=dict(order=0.66),
    )
    path = tmp_path / "report.json"
    rep.write(path)
    with open(path) as fh:
        back = json.load(fh)
    assert back["kind"] == rep.kind
    assert back["params"] == rep.params
    assert back["records"] == rep.records
    assert back["derived"] == rep.derived


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_undefined_order_is_strict_json_null(tmp_path, monkeypatch):
    """With no monotone interior triple the order is None, written as null."""
    def not_monotone(*args, **kwargs):
        raise ValueError("triple is not monotone; order undefined")

    monkeypatch.setattr(study, "observed_order", not_monotone)
    rep = study.run_convergence("laplace2", [1, 2, 3], p=8)
    assert rep.derived["orders"] == [] and rep.derived["order"] is None
    path = tmp_path / "report.json"
    rep.write(path)
    with open(path) as fh:
        back = json.load(fh, parse_constant=_reject_constant)
    assert back["derived"]["order"] is None
    rep.derived["order"] = float("nan")
    with pytest.raises(ValueError):
        rep.write(tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()      # no truncated report


def test_report_csv(tmp_path):
    rep = study.StudyReport("scaling", records=[dict(N=10, time=0.1),
                                                dict(N=20, time=0.2, extra=1),
                                                dict(N=40, orders=[10, 9, 8], mesh="a, b")])
    path = tmp_path / "r.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,time,extra,orders,mesh"
    assert len(lines) == 4
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [len(row) for row in rows] == [5, 5, 5]
    assert all(None not in row for row in rows)      # no row has surplus fields
    assert rows[1] == dict(N="20", time="0.2", extra="1", orders="", mesh="")
    assert json.loads(rows[2]["orders"]) == [10, 9, 8]
    assert rows[2]["mesh"] == "a, b" and rows[2]["time"] == ""


def test_run_scaling_trivial_and_small():
    rep = study.run_scaling([1], p=3)
    assert rep.records[0]["time"] > 0.0
    rep = study.run_scaling([200, 800, 3200], p=3, seed=1)
    assert "slope" in rep.derived
    assert all(r["time"] > 0.0 for r in rep.records)


# the keys of study.solve_record, which every solving study's record extends
_SOLVE_KEYS = {"N", "iterations", "converged", "time", "residuals", "orders", "budgets",
               "peak_rss_mb"}


def test_run_convergence_small():
    rep = study.run_convergence("laplace2", [2, 3, 4], p=10, tol=1e-6)
    assert all(set(r) == _SOLVE_KEYS | {"error"} for r in rep.records)
    errs = [r["error"] for r in rep.records]
    assert errs[0] > errs[1] > errs[2]
    assert all(r["converged"] for r in rep.records)
    assert np.isfinite(rep.derived["order"])


def test_run_convergence_rbc_extrapolates_drag():
    """The Richardson branch: monotone drags extrapolate to a limit beyond
    the finest one, at a positive observed order."""
    rep = study.run_convergence("rbc", [1, 2, 3])
    drags = [r["drag"] for r in rep.records]
    assert len(drags) == 3 and all(isinstance(d, float) for d in drags)
    assert all(set(r) == _SOLVE_KEYS | {"drag"} for r in rep.records)
    steps = np.diff(drags)
    assert np.all(steps > 0.0) or np.all(steps < 0.0)
    assert (rep.derived["extrapolated_drag"] - drags[-1]) * steps[-1] > 0.0
    assert np.isfinite(rep.derived["order"]) and rep.derived["order"] > 0.0


def test_run_convergence_needs_three_levels():
    with pytest.raises(ValueError):
        study.run_convergence("laplace1", [2, 3])


@pytest.mark.parametrize("run, bad", [
    (lambda: study.run_convergence("foo", [1, 2, 3]), "got 'foo'"),
    (lambda: study.run_relaxation_comparison("rbc", 2), "got 'rbc'"),
    (lambda: study.run_relaxation_comparison("laplace1", 2, ncrit_candidates=()),
     "ncrit_candidates must not be empty"),
])
def test_study_rejects_input_the_cli_cannot_send_before_building(monkeypatch, run, bad):
    """An unknown problem or no n_crit candidate raises ValueError naming
    it before any mesh is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a mesh from bad input")

    monkeypatch.setattr(study.meshes, "make_sphere", refuse)
    monkeypatch.setattr(study.meshes, "make_rbc", refuse)
    with pytest.raises(ValueError, match=bad):
        run()


def test_run_relaxation_comparison_small():
    rep = study.run_relaxation_comparison("laplace1", level=2, tol=1e-6,
                                          p_initial=10, repeats=1)
    assert rep.derived["solution_difference"] < 1e-5
    assert rep.derived["iterations_relaxed"] >= 1
    assert len(rep.records) == 2
    extra = {"n_crit", "relaxed", "time_min", "time_max"}
    assert all(set(r) == _SOLVE_KEYS | extra for r in rep.records)
    assert all(r["time_min"] <= r["time"] <= r["time_max"] for r in rep.records)
    # the fixed-order solve hands no budget, the relaxed one one per apply
    for r in rep.records:
        assert len(r["budgets"]) == r["iterations"]
        assert (r["budgets"] == [None] * r["iterations"]) == (not r["relaxed"])
