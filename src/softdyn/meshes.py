"""Tetrahedral meshes: container, plain-text I/O, and simple generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Rest volumes below DEGENERATE_REL * (bbox diagonal)^3 are rejected at load time.
DEGENERATE_REL = 1e-12


class MeshError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TetMesh:
    """Tet mesh with rest positions, connectivity and vertex index sets.

    ``rest_positions`` is (nv, 3) in meters, ``tets`` is (nt, 4) int with
    positive signed rest volume per element. ``fixed_vertices`` are
    zero-displacement Dirichlet vertices; ``surface_vertices`` are the
    candidates for contact.
    """

    rest_positions: np.ndarray
    tets: np.ndarray
    fixed_vertices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    surface_vertices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.rest_positions, dtype=float))
        tets = np.ascontiguousarray(np.asarray(self.tets, dtype=int))
        object.__setattr__(self, "rest_positions", pos)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "fixed_vertices",
                           np.asarray(self.fixed_vertices, dtype=int))
        object.__setattr__(self, "surface_vertices",
                           np.asarray(self.surface_vertices, dtype=int))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise MeshError("rest_positions must be (nv, 3)")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError("tets must be (nt, 4)")
        nv = pos.shape[0]
        if tets.size and (tets.min() < 0 or tets.max() >= nv):
            raise MeshError("tet index out of range")
        for name in ("fixed_vertices", "surface_vertices"):
            idx = getattr(self, name)
            if idx.size and (idx.min() < 0 or idx.max() >= nv):
                raise MeshError(f"{name} index out of range")
        vols = self.rest_volumes()
        bbox = pos.max(axis=0) - pos.min(axis=0) if nv else np.zeros(3)
        tol = DEGENERATE_REL * max(np.linalg.norm(bbox), 1.0) ** 3
        bad = np.nonzero(vols <= tol)[0]
        if bad.size:
            raise MeshError(f"degenerate tet {bad[0]} (volume {vols[bad[0]]:.3e})")

    @property
    def num_vertices(self):
        return self.rest_positions.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    @property
    def num_dofs(self):
        return 3 * self.num_vertices

    def edge_matrices(self):
        """Per-element rest shape matrices Dm (nt, 3, 3), columns are edges."""
        p = self.rest_positions[self.tets]
        return np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                        axis=2)

    def rest_volumes(self):
        return np.linalg.det(self.edge_matrices()) / 6.0

    def free_dof_mask(self):
        """Boolean (3*nv,) mask, False on fixed-vertex dofs."""
        mask = np.ones((self.num_vertices, 3), dtype=bool)
        mask[self.fixed_vertices] = False
        return mask.reshape(-1)


def load_mesh(path) -> TetMesh:
    """Read the plain-text tet format.

    Header ``vertices N tets T``, then N ``x y z`` lines, T ``i j k l``
    lines (0-based), then optional ``fixed i1 i2 ...`` / ``surface ...``.
    """
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "vertices" or head[2] != "tets":
        raise MeshError(f"{path}: bad header {lines[0]!r}")
    nv, nt = int(head[1]), int(head[3])
    if len(lines) < 1 + nv + nt:
        raise MeshError(f"{path}: truncated file")
    verts = np.array([[float(x) for x in lines[1 + i].split()] for i in range(nv)])
    tets = np.array([[int(x) for x in lines[1 + nv + i].split()] for i in range(nt)],
                    dtype=int)
    fixed = np.zeros(0, dtype=int)
    surface = np.zeros(0, dtype=int)
    for ln in lines[1 + nv + nt:]:
        parts = ln.split()
        if parts[0] == "fixed":
            fixed = np.array([int(x) for x in parts[1:]], dtype=int)
        elif parts[0] == "surface":
            surface = np.array([int(x) for x in parts[1:]], dtype=int)
        else:
            raise MeshError(f"{path}: unexpected trailer line {ln!r}")
    return TetMesh(verts, tets, fixed, surface)


def save_mesh(mesh: TetMesh, path):
    with open(path, "w") as f:
        f.write(f"vertices {mesh.num_vertices} tets {mesh.num_tets}\n")
        for p in mesh.rest_positions:
            f.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for t in mesh.tets:
            f.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")
        if mesh.fixed_vertices.size:
            f.write("fixed " + " ".join(str(i) for i in mesh.fixed_vertices) + "\n")
        if mesh.surface_vertices.size:
            f.write("surface " + " ".join(str(i) for i in mesh.surface_vertices) + "\n")


def single_tet(scale=1.0) -> TetMesh:
    """A single regular-ish tet (unit right tet scaled by ``scale``)."""
    verts = scale * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    return TetMesh(verts, np.array([[0, 1, 2, 3]]),
                   surface_vertices=np.arange(4))


# Corner offsets of a unit cell, index = x + 2*y + 4*z.
_CUBE = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                  [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=int)

# 5-tet split of a cube (central tet last); neighbors get the mirrored
# variant so that face diagonals are conforming.
_FIVE = [(0, 1, 2, 4), (1, 3, 2, 7), (1, 4, 5, 7), (2, 4, 7, 6), (1, 2, 4, 7)]


def box_mesh(nx, ny, nz, lx, ly, lz, fix="none") -> TetMesh:
    """Box of nx*ny*nz cells, 5 tets per cell.

    ``fix`` picks the Dirichlet set: "none", "ends" (x = 0 and x = lx
    faces) or "left" (x = 0 face). All boundary vertices are marked as
    surface candidates.
    """
    zs, ys, xs = (np.linspace(0.0, ln, nc + 1)
                  for ln, nc in ((lz, nz), (ly, ny), (lx, nx)))
    z, y, x = np.meshgrid(zs, ys, xs, indexing="ij")
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    # cells in vertex order (x fastest), their 8 corners' vertex ids
    k, j, i = (c.reshape(-1, 1) for c in np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"))
    dx, dy, dz = _CUBE.T
    dx = np.where((i + j + k) % 2 == 1, 1 - dx, dx)  # mirrored cells
    corners = ((k + dz) * (ny + 1) + j + dy) * (nx + 1) + i + dx
    tets = corners[:, _FIVE].reshape(-1, 4)
    p = verts[tets]  # a negatively oriented tet swaps its last two vertices
    neg = np.linalg.det(p[:, 1:] - p[:, :1]) < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]

    low, high = np.isclose(verts, 0.0), np.isclose(verts, [lx, ly, lz])
    fixed = {"none": np.zeros(len(verts), dtype=bool),
             "ends": low[:, 0] | high[:, 0], "left": low[:, 0]}.get(fix)
    if fixed is None:
        raise MeshError(f"unknown fix mode {fix!r}")
    surface = np.nonzero((low | high).any(axis=1))[0]
    return TetMesh(verts, tets, np.nonzero(fixed)[0], surface)


def beam_mesh(nx=8, ny=2, nz=2, lx=1.0, ly=0.25, lz=0.25) -> TetMesh:
    """Beam fixed at both ends, the soft-beam experiment geometry."""
    return box_mesh(nx, ny, nz, lx, ly, lz, fix="ends")
