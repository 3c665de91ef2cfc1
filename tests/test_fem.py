"""FEM oracles: finite differences against analytic force/stiffness,
plus invariance and mass-conservation facts."""

import numpy as np
import scipy.sparse as sp
import scipy.spatial.transform
from hypothesis import given, strategies as st

import softdyn as sd
from softdyn import fem

from conftest import perturb


def fd_gradient(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def fd_jacobian(f, x, eps=1e-6):
    f0 = np.asarray(f(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        jac[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * eps)
    return jac


def test_force_is_minus_energy_gradient(small_mesh, material, rng):
    mesh = small_mesh
    for _ in range(20):
        q = perturb(mesh, rng)
        f = sd.elastic_force(mesh, material, q)
        g = fd_gradient(lambda x: sd.elastic_energy(mesh, material, x), q)
        denom = max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(f + g) / denom < 1e-5


def test_stiffness_is_energy_hessian(small_mesh, material, rng):
    mesh = small_mesh
    for _ in range(20):
        q = perturb(mesh, rng)
        k = sd.stiffness_matrix(mesh, material, q).toarray()
        kfd = -fd_jacobian(lambda x: sd.elastic_force(mesh, material, x), q)
        denom = max(1.0, np.abs(kfd).max())
        assert np.abs(k - kfd).max() / denom < 1e-4


def test_stiffness_symmetric(small_mesh, material, rng):
    q = perturb(small_mesh, rng)
    k = sd.stiffness_matrix(small_mesh, material, q).toarray()
    assert np.abs(k - k.T).max() < 1e-10 * max(1.0, np.abs(k).max())


# vec is column-major here: vec(F) = F.T.reshape(9); T9 vec(F) = vec(F^T).
T9 = np.zeros((9, 9))
for _i in range(3):
    for _j in range(3):
        T9[3 * _j + _i, 3 * _i + _j] = 1.0


def _skew(v):
    z = np.zeros(v.shape[0])
    return np.stack([
        np.stack([z, -v[:, 2], v[:, 1]], axis=1),
        np.stack([v[:, 2], z, -v[:, 0]], axis=1),
        np.stack([-v[:, 1], v[:, 0], z], axis=1)], axis=1)


def _cof_derivative(f):
    """d vec(cof F)/d vec(F) (nt, 9, 9), column-major vec."""
    h = np.zeros((f.shape[0], 9, 9))
    s = [_skew(f[:, :, k]) for k in range(3)]
    h[:, 0:3, 3:6], h[:, 0:3, 6:9] = -s[2], s[1]
    h[:, 3:6, 0:3], h[:, 3:6, 6:9] = s[2], -s[0]
    h[:, 6:9, 0:3], h[:, 6:9, 3:6] = -s[1], s[0]
    return h


def reference_stiffness(mesh, mat, q):
    """K as vol G^T A G per element, G = N (x) I3 the map from the 12 vertex
    dofs to vec(F) and A the 9x9 material tangent, by einsum and a COO
    scatter, then symmetrized globally. It uses nothing of fem's kernels."""
    nt, n = mesh.num_tets, mesh.num_dofs
    mu, lam = mat.mu, mat.lam
    dm = mesh.edge_matrices()
    vol, dminv = np.linalg.det(dm) / 6.0, np.linalg.inv(dm)
    nmat = np.concatenate([-dminv.sum(axis=1)[:, None], dminv], axis=1)
    g = np.einsum("eaj,ik->ejiak", nmat, np.eye(3)).reshape(nt, 9, 12)
    if mat.model is sd.Material.LINEAR:
        vec_i = np.eye(3).reshape(9)
        a = mu * (np.eye(9) + T9) + lam * np.outer(vec_i, vec_i)
        a = np.broadcast_to(a, (nt, 9, 9))
    else:
        f = np.einsum("eai,eaj->eij", q.reshape(-1, 3)[mesh.tets], nmat)
        cof = np.stack([np.cross(f[:, :, 1], f[:, :, 2]),
                        np.cross(f[:, :, 2], f[:, :, 0]),
                        np.cross(f[:, :, 0], f[:, :, 1])], axis=2)
        vec_c = cof.transpose(0, 2, 1).reshape(nt, 9)
        j = np.linalg.det(f)
        a = (mu * np.eye(9) + lam * np.einsum("ei,ej->eij", vec_c, vec_c)
             + lam * (j - 1.0 - mu / lam)[:, None, None] * _cof_derivative(f))
    ke = np.einsum("e,eab,eac,ecd->ebd", vol, g, a, g)
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(nt, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return 0.5 * (k + k.T)


def test_stiffness_fixed_pattern(beam, material, rng):
    # every assembly on a mesh has one canonical CSR pattern, is exactly
    # symmetric and equals the einsum + COO reference
    k1 = sd.stiffness_matrix(beam, material, perturb(beam, rng))
    k2 = sd.stiffness_matrix(beam, material, perturb(beam, rng))
    np.testing.assert_array_equal(k1.indptr, k2.indptr)
    np.testing.assert_array_equal(k1.indices, k2.indices)
    assert k1.has_canonical_format and k2.has_canonical_format
    for k in (k1, k2):
        assert (k - k.T).count_nonzero() == 0
    q = perturb(beam, rng)
    k = sd.stiffness_matrix(beam, material, q).toarray()
    ref = reference_stiffness(beam, material, q).toarray()
    assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
       st.sampled_from(list(sd.Material)), st.floats(0.01, 0.3),
       st.integers(0, 2**32 - 1))
def test_stiffness_bitwise_symmetric_on_random_states(nx, ny, nz, model,
                                                      scale, seed):
    """K is exactly symmetric, element blocks and their sums, on states up
    to inverted elements: no symmetrization pass is needed."""
    mesh = sd.box_mesh(nx, ny, nz, 0.1 * nx, 0.1 * ny, 0.1 * nz)
    mat = sd.MaterialParams(model, 1e5, 0.4, 1000.0)
    k = sd.stiffness_matrix(mesh, mat, perturb(mesh, np.random.default_rng(seed),
                                               scale))
    assert (k - k.T).count_nonzero() == 0


def test_stiffness_results_share_no_index_arrays(beam, material):
    q = beam.rest_positions.reshape(-1)
    k1 = sd.stiffness_matrix(beam, material, q)
    k2 = sd.stiffness_matrix(beam, material, q)
    for a, b in ((k1.indptr, k2.indptr), (k1.indices, k2.indices),
                 (k1.data, k2.data)):
        assert not np.shares_memory(a, b)
    k1.indices[:] = 0
    k1.indptr[:] = 0
    k3 = sd.stiffness_matrix(beam, material, q)
    np.testing.assert_array_equal(k3.indptr, k2.indptr)
    np.testing.assert_array_equal(k3.indices, k2.indices)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
       st.sampled_from(list(sd.Material)), st.integers(0, 2**32 - 1))
def test_stiffness_matches_fd_on_random_meshes(nx, ny, nz, model, seed):
    mesh = sd.box_mesh(nx, ny, nz, 0.1 * nx, 0.1 * ny, 0.1 * nz)
    mat = sd.MaterialParams(model, 1e5, 0.4, 1000.0)
    q = perturb(mesh, np.random.default_rng(seed))
    k = sd.stiffness_matrix(mesh, mat, q).toarray()
    kfd = -fd_jacobian(lambda x: sd.elastic_force(mesh, mat, x), q)
    assert np.abs(k - kfd).max() < 1e-4 * max(1.0, np.abs(kfd).max())


def test_rest_state_zero(small_mesh, material):
    q = small_mesh.rest_positions.reshape(-1)
    assert abs(sd.elastic_energy(small_mesh, material, q)) < 1e-12
    assert np.abs(sd.elastic_force(small_mesh, material, q)).max() < 1e-8


def test_translation_invariance(small_mesh, material, rng):
    q = perturb(small_mesh, rng)
    shift = np.tile(rng.standard_normal(3), small_mesh.num_vertices)
    e0 = sd.elastic_energy(small_mesh, material, q)
    e1 = sd.elastic_energy(small_mesh, material, q + shift)
    assert abs(e0 - e1) < 1e-9 * max(1.0, abs(e0))


def test_rotation_invariance_snh(small_mesh, rng):
    # nonlinear material is objective; the linear one is not
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    q = perturb(small_mesh, rng).reshape(-1, 3)
    rot = scipy.spatial.transform.Rotation.random(random_state=7).as_matrix()
    e0 = sd.elastic_energy(small_mesh, mat, q.reshape(-1))
    e1 = sd.elastic_energy(small_mesh, mat, (q @ rot.T).reshape(-1))
    assert abs(e0 - e1) < 1e-8 * max(1.0, abs(e0))


def test_linear_material_quadratic(small_mesh, rng):
    # force must be exactly linear in displacement: K constant
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    q_rest = small_mesh.rest_positions.reshape(-1)
    k0 = sd.stiffness_matrix(small_mesh, mat, q_rest).toarray()
    k1 = sd.stiffness_matrix(small_mesh, mat, perturb(small_mesh, rng)).toarray()
    assert np.abs(k0 - k1).max() < 1e-8 * np.abs(k0).max()
    dq = rng.standard_normal(q_rest.size)
    f = sd.elastic_force(small_mesh, mat, q_rest + dq)
    assert np.linalg.norm(f + k0 @ dq) < 1e-8 * np.linalg.norm(k0 @ dq)


def test_lumped_mass_conserved(small_mesh):
    rho = 1234.0
    m = sd.lumped_masses(small_mesh, rho)
    vol = small_mesh.rest_volumes().sum()
    # each coordinate direction carries the full mass
    assert abs(m.sum() - 3 * rho * vol) < 1e-12 * 3 * rho * vol
    mm = sd.build_mass_matrix(small_mesh, rho)
    assert abs(mm.diagonal().sum() - 3 * rho * vol) < 1e-12 * 3 * rho * vol
    assert mm.nnz == small_mesh.num_dofs  # diagonal (lumped)


def test_snh_rest_stability():
    # rest configuration must be a stable equilibrium (PSD Hessian)
    mesh = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.45, 1000.0)
    k = sd.stiffness_matrix(mesh, mat, mesh.rest_positions.reshape(-1)).toarray()
    w = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert w.min() > -1e-6 * w.max()


def test_element_cache_releases_mesh():
    # the per-mesh element cache must not keep its (weak) key alive
    import gc
    import weakref
    mesh = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    sd.elastic_force(mesh, mat, mesh.rest_positions.reshape(-1))
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None
