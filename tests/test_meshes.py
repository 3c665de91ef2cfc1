import numpy as np
import pytest

import softdyn as sd
from softdyn.meshes import MeshError


def test_single_tet_basic():
    m = sd.single_tet()
    assert m.num_vertices == 4
    assert m.num_tets == 1
    assert np.isclose(m.rest_volumes()[0], 1.0 / 6.0)


def test_box_volume_conserved():
    m = sd.box_mesh(3, 2, 2, 0.3, 0.2, 0.2)
    assert np.all(m.rest_volumes() > 0)
    assert np.isclose(m.rest_volumes().sum(), 0.3 * 0.2 * 0.2, rtol=1e-12)


def test_box_conforming_positive():
    # mirrored cells must still give positive volumes everywhere
    m = sd.box_mesh(4, 3, 2, 1.0, 0.5, 0.3)
    assert np.all(m.rest_volumes() > 0)
    assert np.isclose(m.rest_volumes().sum(), 1.0 * 0.5 * 0.3)


def test_box_tets_pinned():
    """The 3x2x1 box's tets, vertex order and orientation swaps included,
    as the per-cell construction numbered them."""
    m = sd.box_mesh(3, 2, 1, 0.3, 0.2, 0.1)
    np.testing.assert_array_equal(m.tets, [
        [0, 1, 4, 12], [1, 5, 4, 17], [1, 12, 13, 17], [4, 12, 17, 16],
        [1, 4, 12, 17], [2, 1, 14, 6], [1, 5, 17, 6], [1, 14, 17, 13],
        [6, 14, 18, 17], [1, 6, 17, 14], [2, 3, 6, 14], [3, 7, 6, 19],
        [3, 14, 15, 19], [6, 14, 19, 18], [3, 6, 14, 19], [5, 4, 17, 9],
        [4, 8, 20, 9], [4, 17, 20, 16], [9, 17, 21, 20], [4, 9, 20, 17],
        [5, 6, 9, 17], [6, 10, 9, 22], [6, 17, 18, 22], [9, 17, 22, 21],
        [6, 9, 17, 22], [7, 6, 19, 11], [6, 10, 22, 11], [6, 19, 22, 18],
        [11, 19, 23, 22], [6, 11, 22, 19]])


def test_fixed_sets():
    m = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1, fix="ends")
    x = m.rest_positions[m.fixed_vertices, 0]
    assert np.all(np.isclose(x, 0.0) | np.isclose(x, 0.2))
    mask = m.free_dof_mask()
    assert mask.size == m.num_dofs
    assert not mask[3 * m.fixed_vertices[0]]


def test_degenerate_tet_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]], float)
    with pytest.raises(MeshError):
        sd.TetMesh(verts, np.array([[0, 1, 2, 3]]))


def test_bad_index_rejected():
    verts = np.eye(4, 3)
    with pytest.raises(MeshError):
        sd.TetMesh(verts, np.array([[0, 1, 2, 9]]))


def test_roundtrip_io(tmp_path):
    m = sd.box_mesh(2, 2, 1, 0.2, 0.2, 0.1, fix="left")
    path = tmp_path / "m.mesh"
    sd.save_mesh(m, path)
    m2 = sd.load_mesh(path)
    np.testing.assert_array_equal(m.rest_positions, m2.rest_positions)
    np.testing.assert_array_equal(m.tets, m2.tets)
    np.testing.assert_array_equal(m.fixed_vertices, m2.fixed_vertices)
    np.testing.assert_array_equal(m.surface_vertices, m2.surface_vertices)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("not a mesh\n")
    with pytest.raises(MeshError):
        sd.load_mesh(p)
