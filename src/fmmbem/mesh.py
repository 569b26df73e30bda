"""Triangulated closed surfaces: generators, file I/O and validity checks.

Meshes are flat-panel triangulations with outward vertex ordering
(right-hand rule).  Sphere meshes start from a regular octahedron whose
edge midpoints are repeatedly projected back to the sphere, giving
8 * 4^level congruent-quality panels.  A biconcave-disc (red blood cell)
shape is obtained by remapping the sphere points.
"""

import io
from dataclasses import dataclass

import numpy as np

from .quadrature import panel_geometry


@dataclass
class Mesh:
    """Vertices (V, 3) and triangles (P, 3) indexing them, outward oriented."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertices must be finite; some coordinate is NaN or inf")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (P, 3)")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= len(self.vertices):
            raise ValueError("triangle indices out of range")

    @property
    def n_panels(self):
        return len(self.triangles)

    @property
    def panel_vertices(self):
        return self.vertices[self.triangles]

    def geometry(self):
        """(centroids, outward normals, areas) of all panels."""
        return panel_geometry(self.panel_vertices)

    @property
    def area(self):
        return float(self.geometry()[2].sum())

    @property
    def volume(self):
        """Signed enclosed volume; positive for outward orientation."""
        v = self.panel_vertices
        return float(np.einsum("pi,pi->p", v[:, 0], np.cross(v[:, 1], v[:, 2])).sum() / 6.0)

    def translated(self, offset):
        return Mesh(self.vertices + np.asarray(offset, dtype=float), self.triangles)

    def rotated(self, rotation):
        """The mesh turned by a proper rotation matrix (3, 3) about the origin."""
        R = np.asarray(rotation, dtype=float)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be a (3, 3) matrix, got shape {R.shape}")
        if (not np.allclose(R @ R.T, np.eye(3), rtol=0.0, atol=1e-12)
                or abs(np.linalg.det(R) - 1.0) > 1e-12):
            raise ValueError("rotation must be orthogonal with determinant +1")
        return Mesh(self.vertices @ R.T, self.triangles)


_OCTA_VERTS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=float,
)
# outward-ordered faces of the regular octahedron
_OCTA_FACES = np.array(
    [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
     [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
)


def _subdivide(vertices, triangles):
    """Split every triangle in four at its edge midpoints, each midpoint made
    once and numbered in the order its edge first occurs (ab, bc, ca of each
    triangle in turn); the children of (a, b, c) come four in a row."""
    edges = np.sort(triangles[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    _, first, inverse = np.unique(edges @ [len(vertices), 1], return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    mid = np.empty_like(first)
    mid[order] = np.arange(len(first)) + len(vertices)
    ab, bc, ca = mid[inverse].reshape(-1, 3).T
    a, b, c = triangles.T
    i, j = edges[first[order]].T
    verts = np.vstack([vertices, 0.5 * (vertices[i] + vertices[j])])
    return verts, np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)


def make_sphere(level, radius=1.0):
    """Sphere mesh with 8 * 4^level panels by recursive octahedron refinement.

    Midpoints are projected radially after every subdivision so panel quality
    stays uniform.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    verts, tris = _OCTA_VERTS.copy(), _OCTA_FACES.copy()
    for _ in range(level):
        verts, tris = _subdivide(verts, tris)
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return Mesh(verts * radius, tris)


RBC_SCALE = 3.91
RBC_SHAPE = (0.81, 7.83, -4.39)


def rbc_transform(points):
    """Map unit-sphere points to a biconcave disc of diameter 2 * RBC_SCALE.

    With s = rho / RBC_SCALE and (C0, C2, C4) = RBC_SHAPE the height profile
    is z = sign(z0) * 0.5 * sqrt(1 - s^2) * (C0 + C2 s^2 + C4 s^4), applied
    to sphere points scaled so their equatorial radius is RBC_SCALE.
    """
    pts = np.asarray(points, dtype=float) * RBC_SCALE
    c0, c2, c4 = RBC_SHAPE
    s2 = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / RBC_SCALE ** 2
    s2 = np.clip(s2, 0.0, 1.0)
    height = 0.5 * np.sqrt(1.0 - s2) * (c0 + c2 * s2 + c4 * s2 ** 2)
    out = pts.copy()
    out[:, 2] = np.sign(pts[:, 2]) * height
    return out


def make_rbc(level):
    """Biconcave-disc mesh obtained by remapping an octahedral sphere mesh."""
    sphere = make_sphere(level)
    return Mesh(rbc_transform(sphere.vertices), sphere.triangles)


def _random_rotation(rng):
    """Uniformly random rotation matrix from a normalised Gaussian quaternion.

    The four normal draws of ``rng`` are read as (x, y, z, w), w the scalar
    part, as scipy's ``Rotation.random`` reads them.
    """
    q = rng.normal(size=4)
    x, y, z, w = q / np.linalg.norm(q)
    return np.array([
        [x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w],
    ])


# relative clearance between the bounding spheres of make_scene's bodies
SCENE_MARGIN = 0.05


def make_scene(n_bodies, level, seed=0):
    """Several randomly oriented unit spheres packed without overlap.

    Bodies are placed on a jittered cubic grid whose pitch guarantees at
    least SCENE_MARGIN relative clearance between bounding spheres.
    Returns a single merged mesh.
    """
    if n_bodies < 1:
        raise ValueError("n_bodies must be >= 1")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n_bodies ** (1.0 / 3.0)))
    pitch = 2.0 * (1.0 + SCENE_MARGIN) * 1.2
    cells = [(i, j, k) for i in range(side) for j in range(side) for k in range(side)]
    centers = np.asarray(cells[:n_bodies], dtype=float) * pitch
    centers += rng.uniform(-0.08, 0.08, size=centers.shape)
    base = make_sphere(level)
    verts, tris = [], []
    offset = 0
    for c in centers:
        body = base.rotated(_random_rotation(rng)).translated(c)
        verts.append(body.vertices)
        tris.append(body.triangles + offset)
        offset += len(body.vertices)
    return Mesh(np.vstack(verts), np.vstack(tris))


def write_mesh(path, mesh):
    """Plain-text format: 'nv np' header, nv vertex lines, np 'i j k' lines."""
    buf = io.StringIO()
    buf.write(f"{len(mesh.vertices)} {mesh.n_panels}\n")
    for v in mesh.vertices:
        buf.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
    for t in mesh.triangles:
        buf.write(f"{t[0]} {t[1]} {t[2]}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_mesh(path):
    """Read :func:`write_mesh` output.  Triangle lines of files written with
    a fourth (tag) column still read; the column is ignored."""
    with open(path) as fh:
        nv, npan = map(int, fh.readline().split())
        verts = np.loadtxt(fh, max_rows=nv, ndmin=2)
        tris = np.loadtxt(fh, dtype=np.intp, max_rows=npan, ndmin=2)
    if verts.shape != (nv, 3) or tris.shape not in ((npan, 3), (npan, 4)):
        raise ValueError("mesh file does not match its header counts")
    return Mesh(verts, tris[:, :3])


def check_closed(mesh):
    """True when every edge is shared by exactly two triangles, once per direction."""
    tri = mesh.triangles
    n = len(mesh.vertices)
    head, tail = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
    # each directed edge a -> b as the code a * n + b
    codes, counts = np.unique(head * n + tail, return_counts=True)
    # with every directed edge once, the reversed codes must be the same set
    return bool(np.all(counts == 1) and np.array_equal(np.sort(tail * n + head), codes))


def check_outward(mesh):
    """True when the orientation yields positive enclosed volume."""
    return mesh.volume > 0.0
