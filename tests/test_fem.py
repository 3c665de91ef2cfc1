"""FEM oracles: finite differences against analytic force/stiffness,
plus invariance and mass-conservation facts."""

import numpy as np
import scipy.spatial.transform

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


def test_rayleigh_damping_combination(small_mesh):
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    q = small_mesh.rest_positions.reshape(-1)
    k = sd.stiffness_matrix(small_mesh, mat, q)
    m = sd.build_mass_matrix(small_mesh, mat.density)
    # convention here: alpha multiplies K, beta multiplies M
    d = sd.rayleigh_damping(k, m, sd.RayleighParams(0.01, 0.3))
    ref = 0.01 * k.toarray() + 0.3 * m.toarray()
    assert np.abs(d.toarray() - ref).max() < 1e-12 * np.abs(ref).max()


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
