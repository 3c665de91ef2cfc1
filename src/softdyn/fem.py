"""Tet FEM assembly: lumped mass, elastic energy/force/stiffness, Rayleigh damping.

Linear (P1) elements. Materials: small-strain linear elasticity and a
stable neo-Hookean energy whose rest state is stress free. K sums the
element blocks vol * G^T A G into one canonical CSR pattern per mesh.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshes import TetMesh


class Material(enum.Enum):
    LINEAR = "linear"
    STABLE_NEO_HOOKEAN = "stable_neo_hookean"


@dataclass(frozen=True)
class MaterialParams:
    model: Material
    youngs_modulus: float
    poisson_ratio: float
    density: float

    def __post_init__(self):
        if self.youngs_modulus <= 0:
            raise ValueError("youngs_modulus must be > 0")
        if not 0 < self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must be in (0, 0.5)")
        if self.density <= 0:
            raise ValueError("density must be > 0")

    @property
    def mu(self):
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))

    @property
    def lam(self):
        e, nu = self.youngs_modulus, self.poisson_ratio
        return e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))


@dataclass(frozen=True)
class RayleighParams:
    alpha: float = 0.0  # multiplies K
    beta: float = 0.0   # multiplies M

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("Rayleigh coefficients must be >= 0")


def lumped_masses(mesh: TetMesh, density):
    """Per-dof row-sum lumped masses as a flat (3*nv,) array."""
    if density <= 0:
        raise ValueError("density must be > 0")
    vols = mesh.rest_volumes()
    m = np.zeros(mesh.num_vertices)
    np.add.at(m, mesh.tets, (density * vols / 4.0)[:, None])
    return np.repeat(m, 3)


def build_mass_matrix(mesh: TetMesh, density) -> sp.csr_matrix:
    """Row-sum lumped diagonal mass matrix of size 3*nv."""
    return sp.diags(lumped_masses(mesh, density)).tocsr()


class _ElementData:
    """Precomputed per-element quantities shared by all assembly routines."""

    def __init__(self, mesh: TetMesh):
        dm = mesh.edge_matrices()
        self.vol = np.linalg.det(dm) / 6.0
        self.dminv = np.linalg.inv(dm)
        # N (nt, 4, 3): dF[:, j] = sum_a N[a, j] * du_a, column-major vec.
        self.n = n = np.empty((mesh.num_tets, 4, 3))
        n[:, 1:, :] = self.dminv
        n[:, 0, :] = -self.dminv.sum(axis=1)
        # G (nt, 9, 12) maps the 12 vertex dofs to vec_F (column-major).
        eye3 = np.eye(3)
        self.g = np.einsum("eaj,ik->ejiak", n, eye3).reshape(mesh.num_tets, 9, 12)
        self.dofs = dofs = (3 * mesh.tets[:, :, None]
                            + np.arange(3)).reshape(mesh.num_tets, 12)
        # Canonical CSR pattern of K; slot maps each of the nt*144 element
        # entries (row-major 12x12 blocks) to its index in the CSR data.
        n = mesh.num_dofs
        keys = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
        keys, slot = np.unique(keys, return_inverse=True)
        self.slot = slot.astype(np.int32)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self.indptr[1:])


_CACHE = weakref.WeakKeyDictionary()  # TetMesh -> _ElementData


def _edata(mesh: TetMesh) -> _ElementData:
    if mesh not in _CACHE:
        _CACHE[mesh] = _ElementData(mesh)
    return _CACHE[mesh]


def _def_gradients(mesh, q):
    """Deformation gradients F (nt, 3, 3) for absolute positions q."""
    pos = q.reshape(-1, 3)[mesh.tets]
    dx = np.stack([pos[:, 1] - pos[:, 0], pos[:, 2] - pos[:, 0],
                   pos[:, 3] - pos[:, 0]], axis=2)
    return dx @ _edata(mesh).dminv


def _cof(f):
    """Cofactor matrices of a batch of 3x3 matrices."""
    c = np.empty_like(f)
    c[:, :, 0] = np.cross(f[:, :, 1], f[:, :, 2])
    c[:, :, 1] = np.cross(f[:, :, 2], f[:, :, 0])
    c[:, :, 2] = np.cross(f[:, :, 0], f[:, :, 1])
    return c


def _snh_pk1(f, mu, lam):
    """First Piola-Kirchhoff stress of the stable neo-Hookean energy; J is
    the first column of F dotted with that of its cofactor."""
    alpha = 1.0 + mu / lam
    cof = _cof(f)
    j = np.einsum("ei,ei->e", f[:, :, 0], cof[:, :, 0])
    return mu * f + lam * (j - alpha)[:, None, None] * cof


def elastic_energy(mesh: TetMesh, mat: MaterialParams, q) -> float:
    """Total elastic potential W(q) in Joules; W(rest) = 0."""
    q = np.asarray(q, dtype=float)
    if q.shape != (mesh.num_dofs,):
        raise ValueError("state dimension mismatch")
    ed = _edata(mesh)
    mu, lam = mat.mu, mat.lam
    f = _def_gradients(mesh, q)
    if mat.model is Material.LINEAR:
        g = f - np.eye(3)
        eps = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        tr = np.trace(eps, axis1=1, axis2=2)
        psi = mu * np.einsum("eij,eij->e", eps, eps) + 0.5 * lam * tr ** 2
    else:
        alpha = 1.0 + mu / lam
        j = np.linalg.det(f)
        ic = np.einsum("eij,eij->e", f, f)
        psi = 0.5 * mu * (ic - 3.0) + 0.5 * lam * (j - alpha) ** 2
        psi -= 0.5 * lam * (1.0 - alpha) ** 2  # rest offset
    return float(np.dot(ed.vol, psi))


def elastic_force(mesh: TetMesh, mat: MaterialParams, q):
    """f_els = -dW/dq as a flat (3*nv,) vector (unmasked)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (mesh.num_dofs,):
        raise ValueError("state dimension mismatch")
    ed = _edata(mesh)
    mu, lam = mat.mu, mat.lam
    f = _def_gradients(mesh, q)
    if mat.model is Material.LINEAR:
        g = f - np.eye(3)
        eps = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        tr = np.trace(eps, axis1=1, axis2=2)
        pk1 = 2.0 * mu * eps + lam * tr[:, None, None] * np.eye(3)
    else:
        pk1 = _snh_pk1(f, mu, lam)
    # the element's vertex forces are -vol N P^T, one row per vertex
    fe = -ed.vol[:, None, None] * (ed.n @ pk1.transpose(0, 2, 1))
    return np.bincount(ed.dofs.ravel(), fe.ravel(), minlength=mesh.num_dofs)


# vec here is column-major: vec(F) = F.T.reshape(9).
_T9 = np.zeros((9, 9))
for _i in range(3):
    for _j in range(3):
        _T9[3 * _j + _i, 3 * _i + _j] = 1.0
_VEC_I = np.eye(3).reshape(9)


def _skew(v):
    z = np.zeros(v.shape[0])
    return np.stack([
        np.stack([z, -v[:, 2], v[:, 1]], axis=1),
        np.stack([v[:, 2], z, -v[:, 0]], axis=1),
        np.stack([-v[:, 1], v[:, 0], z], axis=1)], axis=1)


def _cof_derivative(f):
    """d vec(cof F)/d vec(F) (nt, 9, 9), column-major vec."""
    nt = f.shape[0]
    h = np.zeros((nt, 9, 9))
    s = [_skew(f[:, :, k]) for k in range(3)]
    h[:, 0:3, 3:6] = -s[2]
    h[:, 0:3, 6:9] = s[1]
    h[:, 3:6, 0:3] = s[2]
    h[:, 3:6, 6:9] = -s[0]
    h[:, 6:9, 0:3] = -s[1]
    h[:, 6:9, 3:6] = s[0]
    return h


def stiffness_matrix(mesh: TetMesh, mat: MaterialParams, q) -> sp.csr_matrix:
    """Tangent stiffness K = -d f_els/dq (symmetric, unmasked)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (mesh.num_dofs,):
        raise ValueError("state dimension mismatch")
    ed = _edata(mesh)
    mu, lam = mat.mu, mat.lam
    nt = mesh.num_tets
    if mat.model is Material.LINEAR:
        a = mu * (np.eye(9) + _T9) + lam * np.outer(_VEC_I, _VEC_I)
        a = np.broadcast_to(a, (nt, 9, 9))
    else:
        f = _def_gradients(mesh, q)
        alpha = 1.0 + mu / lam
        j = np.linalg.det(f)
        cof = _cof(f)
        vec_c = cof.transpose(0, 2, 1).reshape(nt, 9)
        a = mu * np.broadcast_to(np.eye(9), (nt, 9, 9)).copy()
        a += lam * np.einsum("ei,ej->eij", vec_c, vec_c)
        a += lam * (j - alpha)[:, None, None] * _cof_derivative(f)
    ke = ed.vol[:, None, None] * (ed.g.transpose(0, 2, 1) @ a @ ed.g)
    # Symmetric element blocks sum to an exactly symmetric K.
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))
    data = np.bincount(ed.slot, ke.ravel(), minlength=ed.indices.size)
    return sp.csr_matrix((data, ed.indices.copy(), ed.indptr.copy()),
                         shape=(mesh.num_dofs, mesh.num_dofs))


def rayleigh_damping(k: sp.spmatrix, m: sp.spmatrix, p: RayleighParams):
    """D = alpha*K + beta*M."""
    if k.shape != m.shape:
        raise ValueError("dimension mismatch between K and M")
    return (p.alpha * k + p.beta * m).tocsr()
