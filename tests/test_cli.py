"""Command-line interface end-to-end runs on tiny problems."""

import itertools
import json

import numpy as np
import pytest

from fmmbem import mesh as M
from fmmbem import study
from fmmbem.cli import main


def test_mesh_sphere_command(tmp_path):
    out = tmp_path / "sphere.msh"
    assert main(["mesh", "sphere", "--level", "2", "--radius", "2.0",
                 "--output", str(out)]) == 0
    m = M.read_mesh(out)
    assert m.n_panels == 128
    np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=1), 2.0)


def test_mesh_rbc_and_scene_commands(tmp_path):
    rbc = tmp_path / "rbc.msh"
    scene = tmp_path / "scene.msh"
    main(["mesh", "rbc", "--level", "1", "--output", str(rbc)])
    main(["mesh", "scene", "--cells", "3", "--level", "1", "--seed", "5",
          "--output", str(scene)])
    assert M.read_mesh(rbc).n_panels == 32
    assert M.read_mesh(scene).n_panels == 3 * 32


def test_solve_command(tmp_path):
    msh = tmp_path / "s.msh"
    rep_path = tmp_path / "solve.json"
    main(["mesh", "sphere", "--level", "2", "--output", str(msh)])
    assert main(["solve", "--problem", "laplace2", "--mesh", str(msh),
                 "--tol", "1e-6", "--output", str(rep_path)]) == 0
    rec = json.loads(rep_path.read_text())["records"][0]
    assert rec["converged"]
    assert len(rec["residuals"]) == len(rec["orders"]) == rec["iterations"]
    assert all(a >= b for a, b in zip(rec["orders"], rec["orders"][1:]))
    # one budget per apply; the last ones reach the float32 near field's
    assert len(rec["budgets"]) == rec["iterations"]
    assert rec["budgets"] == sorted(rec["budgets"]) and rec["budgets"][-1] >= 1e-3
    assert rec["peak_rss_mb"] > 0.0


def test_solve_command_exits_1_when_not_converged(tmp_path):
    msh = tmp_path / "s.msh"
    rep_path = tmp_path / "solve.json"
    main(["mesh", "sphere", "--level", "2", "--output", str(msh)])
    assert main(["solve", "--problem", "laplace2", "--mesh", str(msh), "--tol", "1e-6",
                 "--max-iters", "1", "--output", str(rep_path)]) == 1
    rec = json.loads(rep_path.read_text())["records"][0]
    assert rec["converged"] is False
    assert rec["iterations"] == 1


@pytest.mark.parametrize("argv, bad", [
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--p", "8", "--p-min", "12"],
     "p_min=12"),
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--tol", "-1"], "got -1.0"),
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--max-iters", "0"], "got 0"),
    (["study", "relaxation", "--problem", "laplace1", "--level", "2", "--p", "8",
      "--p-min", "12"], "p_min=12"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "2", "3", "4",
      "--tol", "nan"], "got nan"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "2", "3", "4",
      "--p", "0"], "p_initial=0"),
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--theta", "1.5"], "got 1.5"),
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--ncrit", "0"], "n_crit must be"),
    (["solve", "--problem", "stokes", "--mesh", "s.msh", "--mu", "0"], "got 0.0"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "2", "3", "4",
      "--theta", "0"], "got 0.0"),
    (["study", "relaxation", "--problem", "laplace1", "--level", "2",
      "--ncrit-candidates", "64", "-3"], "got -3"),
    (["study", "scaling", "--sizes", "200", "--ncrit", "0"], "n_crit must be"),
    (["study", "scaling", "--sizes", "200", "--theta", "-0.5"], "got -0.5"),
    (["study", "scaling", "--sizes", "2000", "--p", "-1"], "p must be >= 0, got -1"),
    (["study", "scaling", "--sizes", "3000", "0"], "size must be >= 1, got 0"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "1", "2", "-1"],
     "level must be >= 0, got -1"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "2", "1", "0"],
     "levels must be strictly increasing, got [2, 1, 0]"),
    (["study", "convergence", "--problem", "laplace1", "--levels", "2", "2", "3"],
     "levels must be strictly increasing, got [2, 2, 3]"),
    (["study", "scaling", "--sizes", "600", "600"],
     "sizes must be strictly increasing, got [600, 600]"),
    (["study", "scaling", "--sizes", "800", "200"],
     "sizes must be strictly increasing, got [800, 200]"),
])
def test_bad_solver_input_exits_2_before_building(tmp_path, monkeypatch, capsys, argv, bad):
    """Input that gmres rejects, or tree and fluid parameters (theta, each
    n_crit candidate, mu) that the operator rejects, stop a solve or a
    study with exit status 2 and a message naming the bad value, before any
    mesh is read or tree built, and write no report."""
    def refuse(*args, **kwargs):
        raise AssertionError("read or built a problem from bad input")

    monkeypatch.setattr(M, "read_mesh", refuse)
    monkeypatch.setattr(study, "setup_problem", refuse)
    monkeypatch.setattr(study, "FmmPlan", refuse)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--output", str(out)])
    assert stop.value.code == 2
    assert bad in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _mesh_text(vertices, triangles, n_panels=None):
    """A mesh file's text, written without Mesh's checks; n_panels overrides
    the header's panel count."""
    rows = [*np.asarray(vertices).tolist(), *np.asarray(triangles).tolist()]
    header = f"{len(vertices)} {len(triangles) if n_panels is None else n_panels}"
    return "\n".join([header] + [" ".join(map(str, row)) for row in rows]) + "\n"


_SPHERE = M.make_sphere(1)
_NAN_VERTEX = _SPHERE.vertices.copy()
_NAN_VERTEX[3, 0] = np.nan
_SOLVE = ["solve", "--problem", "stokes", "--mesh", "in.msh"]


@pytest.mark.parametrize("argv, mesh_text, bad", [
    (_SOLVE, None, "No such file"),
    (_SOLVE, _mesh_text(_SPHERE.vertices, _SPHERE.triangles, n_panels=33),
     "does not match its header"),
    (_SOLVE, _mesh_text(_SPHERE.vertices, _SPHERE.triangles[:-1]), "check_closed"),
    (_SOLVE, _mesh_text(_SPHERE.vertices, _SPHERE.triangles[:, ::-1]), "check_outward"),
    (_SOLVE, _mesh_text(_NAN_VERTEX, _SPHERE.triangles), "must be finite"),
    (_SOLVE + ["--p", "8", "--p-min", "12"], None, "p_min=12, p_initial=8"),
    (["mesh", "sphere", "--level", "-1"], None, "level must be >= 0"),
    (["mesh", "sphere", "--level", "1", "--radius", "-1"], None,
     "radius must be finite and > 0, got -1.0"),
    (["mesh", "sphere", "--level", "1", "--radius", "0"], None,
     "radius must be finite and > 0, got 0.0"),
    (["study", "relaxation", "--problem", "laplace1", "--level", "1", "--repeats", "0"],
     None, "repeats must be >= 1, got 0"),
    (["study", "scaling", "--sizes", "200", "--repeats", "0"], None,
     "repeats must be >= 1, got 0"),
], ids=["missing", "header", "open", "inward", "nan-vertex", "p-min", "mesh-level",
        "mesh-radius-negative", "mesh-radius-zero", "relaxation-repeats", "scaling-repeats"])
def test_bad_input_exits_2_without_report(tmp_path, monkeypatch, capsys, argv, mesh_text,
                                          bad):
    """A missing or malformed mesh file, an open, inward or non-finite mesh,
    and a bad mesh or study argument exit 2 with the reason on stderr, not a
    traceback, under the usage of the subcommand that ran, and write no
    report."""
    monkeypatch.chdir(tmp_path)
    if mesh_text is not None:
        (tmp_path / "in.msh").write_text(mesh_text)
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--output", "out.json"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert bad in err
    command = " ".join(itertools.takewhile(lambda arg: not arg.startswith("-"), argv))
    assert err.startswith(f"usage: fmmbem {command} [-h]"), err
    assert not (tmp_path / "out.json").exists()


def test_study_command(tmp_path):
    out = tmp_path / "scaling.json"
    assert main(["study", "scaling", "--sizes", "200", "800", "--repeats", "1",
                 "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "scaling"
    assert (tmp_path / "scaling.json.csv").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
