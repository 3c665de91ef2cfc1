"""Tet FEM assembly: lumped mass, elastic energy/force/stiffness, Rayleigh parameters.

Linear (P1) elements. Materials: small-strain linear elasticity and a
stable neo-Hookean energy whose rest state is stress free. One symbolic
layer per mesh, built from its vertex graph, fixes K's pattern, the slot
of each element entry, the gather F = D q and the factors' fill-reducing
order; the kernels only write numbers into it.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


_PAIRS = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])  # pairs a < b
_NEXT, _NEXT2 = np.array([1, 2, 0]), np.array([2, 0, 1])  # i + 1, i + 2 mod 3


class _ElementData:
    """The per-mesh symbolic layer shared by the kernels and the factors."""

    def __init__(self, mesh: TetMesh):
        nt, nv = mesh.num_tets, mesh.num_vertices
        dm = mesh.edge_matrices()
        self.vol = np.linalg.det(dm) / 6.0
        dminv = np.linalg.inv(dm)
        # N (nt, 4, 3): F = sum_a x_a n_a^T, n_a the rows of N
        self.n = n = np.concatenate([-dminv.sum(axis=1)[:, None], dminv], 1)
        self.nn = (n[:, :, None] * n[:, None]).sum(-1)  # exactly symmetric
        # n_a x n_b (nt, 3, 6) over the pairs a < b of _PAIRS
        self.nxn = np.cross(n[:, _PAIRS[0]], n[:, _PAIRS[1]]).transpose(0, 2, 1)
        # D (9nt x 3nv): vec(F - I) = D (q - q_rest) component by component,
        # row (3i + j) nt + e holding N[e, a, j] at column 3 tets[e, a] + i
        cols = 3 * mesh.tets + np.arange(3)[:, None, None, None]
        self.grad = sp.csr_matrix(
            (np.broadcast_to(n.transpose(2, 0, 1), (3, 3, nt, 4)).ravel(),
             np.broadcast_to(cols, (3, 3, nt, 4)).ravel(),
             np.arange(0, 36 * nt + 1, 4)), shape=(9 * nt, 3 * nv))
        self.grad_t = self.grad.T
        # Vertex graph: the pairs (vrow, vcol) of vertices sharing a tet, CSR
        # rows at vptr; pair[e, a, b] indexes the pair of tets[e, a], tets[e, b]
        t = mesh.tets
        keys, pair = np.unique((t[:, :, None] * nv + t[:, None, :]).ravel(),
                               return_inverse=True)
        vrow, vcol = (keys // nv).astype(np.int32), (keys % nv).astype(np.int32)
        vptr = np.searchsorted(vrow, np.arange(nv + 1)).astype(np.int32)
        deg = np.diff(vptr)
        # K's canonical CSR pattern: each vertex pair is a 3x3 block, and
        # dof row 3a+i holds the 3 deg(a) columns of vertex a's pairs, so
        # entry (i, j) of pair p in row a sits at pos[p, i, j] in K's data
        self.indptr = np.r_[0, np.cumsum(np.repeat(3 * deg, 3))].astype(np.int32)
        r3 = np.arange(3, dtype=np.int32)
        pos = ((6 * vptr[vrow] + 3 * np.arange(keys.size, dtype=np.int32))
               [:, None, None] + 3 * deg[vrow, None, None] * r3[:, None] + r3)
        self.indices = np.empty(pos.size, dtype=np.int32)
        self.indices[pos] = 3 * vcol[:, None, None] + r3
        # slot of element entry (e, i, a, j, b): row 3 tets[e, a] + i,
        # column 3 tets[e, b] + j
        self.slot = pos[pair.reshape(nt, 1, 4, 1, 4), r3[:, None, None, None],
                        r3[:, None]].ravel()
        # The free block of K's pattern as CSC, ordered for every factor on
        # the mesh (George & Liu, 1981): MMD of the free vertex graph, taken
        # on a diagonally dominant matrix with its pattern, expanded x3.
        free = np.ones(nv, dtype=bool)
        free[mesh.fixed_vertices] = False
        graph = sp.csr_matrix((np.where(vcol == vrow, deg[vrow], -1.0), vcol,
                               vptr), shape=(nv, nv))
        perm = spla.splu(graph[free][:, free].tocsc(),
                         permc_spec="MMD_AT_PLUS_A",
                         options={"SymmetricMode": True}).perm_c
        # take: the free dofs in factor order; kmap: K's data index of each
        # entry of the block; vslot[v, i, j] and diag: the block's data index
        # of (3v+i, 3v+j) (-1 on a fixed vertex) and of its diagonal
        self.take = (3 * np.flatnonzero(free)[np.argsort(perm)][:, None]
                     + r3).ravel()
        ids = sp.csr_matrix((np.arange(1.0, pos.size + 1), self.indices,
                             self.indptr), shape=(3 * nv, 3 * nv))
        block = ids[self.take][:, self.take].tocsc()
        self.ff_indptr, self.ff_indices = block.indptr, block.indices
        self.kmap = block.data.astype(np.intp) - 1
        inv = np.full(pos.size, -1)
        inv[self.kmap] = np.arange(self.kmap.size)
        self.vslot = inv[pos[np.searchsorted(keys, np.arange(nv) * (nv + 1))]]
        self.diag = self.vslot.reshape(nv, 9)[:, ::4].reshape(-1)[self.take]

    def free_csc(self, data):
        """The ordered free block with the given data."""
        return sp.csc_matrix((data, self.ff_indices, self.ff_indptr),
                             shape=(self.take.size,) * 2)

    def vertex_blocks(self, vertices, blocks):
        """3x3 blocks (k, 3, 3) summed at the diagonal of their vertices, as
        data on the ordered free block; blocks of fixed vertices drop out."""
        slot = self.vslot[vertices].reshape(-1)
        keep = slot >= 0
        return np.bincount(slot[keep], blocks.reshape(-1)[keep], self.kmap.size)


_CACHE = weakref.WeakKeyDictionary()  # TetMesh -> _ElementData


def _edata(mesh: TetMesh) -> _ElementData:
    if mesh not in _CACHE:
        _CACHE[mesh] = _ElementData(mesh)
    return _CACHE[mesh]


def _def_gradients(mesh, q):
    """Deformation gradients F (3, 3, nt), component-major, for absolute
    positions q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (mesh.num_dofs,):
        raise ValueError("state dimension mismatch")
    u = q - mesh.rest_positions.reshape(-1)
    f = (_edata(mesh).grad @ u).reshape(3, 3, -1)
    for i in range(3):
        f[i, i] += 1.0
    return f


def _cof(f):
    """Cofactors (3, 3, nt) of component-major 3x3 matrices:
    cof[i, j] = F[i+1, j+1] F[i+2, j+2] - F[i+1, j+2] F[i+2, j+1]."""
    fa, fb = f[_NEXT], f[_NEXT2]
    return fa[:, _NEXT] * fb[:, _NEXT2] - fa[:, _NEXT2] * fb[:, _NEXT]


def _snh(f, mat):
    """(cof F, J - alpha) of the stable neo-Hookean energy; J is the first
    column of F dotted with that of its cofactor."""
    cof = _cof(f)
    j = np.einsum("ie,ie->e", f[:, 0], cof[:, 0])
    return cof, j - (1.0 + mat.mu / mat.lam)


def _strain(f):
    """Small strain eps (3, 3, nt) and its trace."""
    g = f - np.eye(3)[:, :, None]
    eps = 0.5 * (g + g.transpose(1, 0, 2))
    return eps, np.trace(eps)


def elastic_energy(mesh: TetMesh, mat: MaterialParams, q) -> float:
    """Total elastic potential W(q) in Joules; W(rest) = 0."""
    f = _def_gradients(mesh, q)
    mu, lam = mat.mu, mat.lam
    if mat.model is Material.LINEAR:
        eps, tr = _strain(f)
        psi = mu * np.einsum("ije,ije->e", eps, eps) + 0.5 * lam * tr ** 2
    else:
        _, jma = _snh(f, mat)
        ic = np.einsum("ije,ije->e", f, f)
        psi = 0.5 * mu * (ic - 3.0) + 0.5 * lam * jma ** 2
        psi -= 0.5 * lam * (1.0 - (1.0 + mu / lam)) ** 2  # rest offset
    return float(np.dot(_edata(mesh).vol, psi))


def elastic_force(mesh: TetMesh, mat: MaterialParams, q):
    """f_els = -dW/dq = -D^T vec(vol P) as a flat (3*nv,) vector
    (unmasked)."""
    f = _def_gradients(mesh, q)
    if mat.model is Material.LINEAR:
        eps, tr = _strain(f)
        pk1 = 2.0 * mat.mu * eps + mat.lam * tr * np.eye(3)[:, :, None]
    else:
        cof, jma = _snh(f, mat)
        pk1 = mat.mu * f + mat.lam * jma * cof
    ed = _edata(mesh)
    return -(ed.grad_t @ (ed.vol * pk1).ravel())


def stiffness_matrix(mesh: TetMesh, mat: MaterialParams, q) -> sp.csr_matrix:
    """Tangent stiffness K = -d f_els/dq (exactly symmetric, unmasked).

    Stable neo-Hookean element block (a, b) (Smith, de Goes & Kim, 2018):
    vol [mu (n_a . n_b) I + lam g_a g_b^T + lam (J - alpha) H_ab], with
    g_a = cof(F) n_a and H_ab v = v x F (n_a x n_b). Linear elasticity is
    this form at F = I with mu + lam for lam and -mu for lam (J - alpha).
    Every term is formed symmetric, so K needs no symmetrization.
    """
    f = _def_gradients(mesh, q)
    ed = _edata(mesh)
    nt, mu, lam = mesh.num_tets, mat.mu, mat.lam
    if mat.model is Material.LINEAR:
        f = cof = np.broadcast_to(np.eye(3)[:, :, None], f.shape)
        cg, ch = mu + lam, np.full(nt, -mu)
    else:
        cof, jma = _snh(f, mat)
        cg, ch = lam, lam * jma
    # ke[e, 4i + a, 4j + b] = d^2 W_e / d x_ai d x_bj, g[e, 4i + a] = (g_a)_i
    # scaled by sqrt(cg vol), so that the outer product stays symmetric
    g = (cof.transpose(2, 0, 1) @ ed.n.transpose(0, 2, 1)).reshape(nt, 12)
    g *= np.sqrt(cg * ed.vol)[:, None]
    ke = g[:, :, None] * g[:, None, :]
    k5 = ke.reshape(nt, 3, 4, 3, 4)
    nn = (mu * ed.vol)[:, None, None] * ed.nn
    for i in range(3):
        k5[:, i, :, i] += nn
    # w[:, i, a, b] = (F (n_a x n_b))_i, exactly antisymmetric in (a, b)
    w6 = (ch * ed.vol)[:, None, None] * (f.transpose(2, 0, 1) @ ed.nxn)
    w = np.zeros((nt, 3, 4, 4))
    w[:, :, _PAIRS[0], _PAIRS[1]], w[:, :, _PAIRS[1], _PAIRS[0]] = w6, -w6
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        k5[:, j, :, k] += w[:, i]
        k5[:, k, :, j] -= w[:, i]
    data = np.bincount(ed.slot, ke.ravel(), minlength=ed.indices.size)
    return sp.csr_matrix((data, ed.indices.copy(), ed.indptr.copy()),
                         shape=(mesh.num_dofs, mesh.num_dofs))
