"""Mesh generators, validity checks and file round-trips."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from fmmbem import mesh as M


@pytest.mark.parametrize("level", [0, 1, 3])
def test_sphere_panel_count_and_validity(level):
    m = M.make_sphere(level)
    assert m.n_panels == 8 * 4 ** level
    assert M.check_closed(m)
    assert M.check_outward(m)
    assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0)


def test_sphere_area_volume_converge():
    errs_a, errs_v = [], []
    for level in (2, 3, 4):
        m = M.make_sphere(level)
        errs_a.append(abs(m.area - 4.0 * np.pi) / (4.0 * np.pi))
        errs_v.append(abs(m.volume - 4.0 * np.pi / 3.0) / (4.0 * np.pi / 3.0))
    assert errs_a[0] > errs_a[1] > errs_a[2]
    assert errs_v[2] < 1e-2


def test_sphere_radius_center():
    m = M.make_sphere(2, radius=2.5, center=(1.0, -2.0, 0.5))
    r = np.linalg.norm(m.vertices - [1.0, -2.0, 0.5], axis=1)
    np.testing.assert_allclose(r, 2.5)


def test_rbc_shape():
    m = M.make_rbc(3)
    assert M.check_closed(m)
    assert M.check_outward(m)
    rho = np.linalg.norm(m.vertices[:, :2], axis=1)
    assert np.isclose(rho.max(), M.RBC_SCALE, rtol=1e-6)
    # biconcave: thinner at the axis than at the rim
    axis_thickness = np.abs(m.vertices[rho < 0.5, 2]).max()
    max_thickness = np.abs(m.vertices[:, 2]).max()
    assert axis_thickness < max_thickness


def test_scene_determinism_and_separation(tmp_path):
    a = M.make_scene(4, level=1, seed=3)
    b = M.make_scene(4, level=1, seed=3)
    pa, pb = tmp_path / "a.msh", tmp_path / "b.msh"
    M.write_mesh(pa, a)
    M.write_mesh(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    c = M.make_scene(4, level=1, seed=4)
    assert not np.array_equal(a.vertices, c.vertices)
    # bodies separated: per-body vertex clouds do not overlap
    nv = len(a.vertices) // 4
    centers = a.vertices.reshape(4, nv, 3).mean(axis=1)
    d = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    d[np.diag_indices(4)] = np.inf
    assert d.min() > 2.0


@pytest.mark.parametrize("n_bodies, level, seed", [(6, 3, 1), (6, 3, 3), (5, 2, 11)])
def test_scene_matches_scipy_random_rotations(monkeypatch, n_bodies, level, seed):
    """The quaternion draw gives the scenes scipy's Rotation.random gave."""
    ours = M.make_scene(n_bodies, level, seed=seed)
    monkeypatch.setattr(M, "_random_rotation", lambda rng: Rotation.random(rng=rng).as_matrix())
    ref = M.make_scene(n_bodies, level, seed=seed)
    np.testing.assert_allclose(ours.vertices, ref.vertices, rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(ours.triangles, ref.triangles)


def test_rotated_accepts_only_proper_rotations():
    m = M.make_sphere(1)
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(m.rotated(R).vertices, m.vertices @ R.T, rtol=0.0, atol=0.0)
    for bad in (np.diag([1.0, 1.0, -1.0]),      # a reflection: det -1
                2.0 * np.eye(3),                # orthogonal up to scale
                R + 1e-9,                       # off by more than 1e-12
                np.eye(2)):
        with pytest.raises(ValueError, match="rotation"):
            m.rotated(bad)


def test_mesh_roundtrip(tmp_path):
    m = M.make_rbc(2)
    path = tmp_path / "m.msh"
    M.write_mesh(path, m)
    back = M.read_mesh(path)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    np.testing.assert_allclose(back.vertices, m.vertices, rtol=0, atol=0)


def test_mesh_file_format(tmp_path):
    m = M.make_sphere(0)
    path = tmp_path / "m.msh"
    M.write_mesh(path, m)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["6", "8"]
    assert len(lines) == 1 + 6 + 8
    assert len(lines[1].split()) == 3            # x y z
    assert len(lines[7].split()) == 3            # i j k


def test_tagless_file_still_reads(tmp_path):
    path = tmp_path / "legacy.msh"
    path.write_text("3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 2\n")
    m = M.read_mesh(path)
    assert m.n_panels == 1
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])


def test_four_column_file_reads(tmp_path):
    """Files written with a tag column read, the column ignored."""
    path = tmp_path / "tagged.msh"
    path.write_text("4 2\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 7\n0 1 3 0\n")
    m = M.read_mesh(path)
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2], [0, 1, 3]])


def test_invalid_mesh_rejected(tmp_path):
    with pytest.raises(ValueError):
        M.Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
    with pytest.raises(ValueError):
        M.Mesh(np.zeros((3, 3)), np.array([[0, 1, 2, 0]]))
    path = tmp_path / "bad.msh"
    path.write_text("3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 2 0 0\n")
    with pytest.raises(ValueError):
        M.read_mesh(path)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.inf, np.nan])
def test_sphere_radius_must_be_finite_and_positive(radius):
    """A negative radius would turn the sphere inside out and a zero one
    collapse it to a point; neither is built."""
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        M.make_sphere(1, radius=radius)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_vertex_rejected(tmp_path, bad):
    m = M.make_sphere(1)
    verts = m.vertices.copy()
    verts[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        M.Mesh(verts, m.triangles)
    path = tmp_path / "bad.msh"
    M.write_mesh(path, m)
    lines = path.read_text().splitlines()
    lines[5] = f"0 {bad} 1"     # vertex 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        M.read_mesh(path)


def test_open_surface_detected():
    m = M.make_sphere(1)
    open_mesh = M.Mesh(m.vertices, m.triangles[:-1])
    assert not M.check_closed(open_mesh)
    flipped = M.Mesh(m.vertices, m.triangles[:, ::-1])
    assert not M.check_outward(flipped)


def _closed_by_edge_loop(mesh):
    """The per-triangle loop that check_closed replaces, as its reference."""
    edges = {}
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges[(u, v)] = edges.get((u, v), 0) + 1
    if any(n != 1 for n in edges.values()):
        return False
    return all((v, u) in edges for u, v in edges)


def test_check_closed_matches_edge_loop():
    m = M.make_sphere(2)
    reversed_one = m.triangles.copy()
    reversed_one[3] = reversed_one[3, ::-1]
    meshes = [
        m, M.make_rbc(1), M.make_scene(3, level=1, seed=2),
        M.Mesh(m.vertices, m.triangles[:-1]),                     # open
        M.Mesh(m.vertices, m.triangles[:, ::-1]),                 # flipped, still closed
        M.Mesh(m.vertices, reversed_one),
        M.Mesh(m.vertices, np.vstack([m.triangles, m.triangles[:1]])),  # repeated panel
    ]
    for mesh in meshes:
        assert M.check_closed(mesh) == _closed_by_edge_loop(mesh)
    assert [M.check_closed(x) for x in meshes] == [True, True, True, False, True, False, False]
