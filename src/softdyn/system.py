"""First-order assembly u' = F(u) = J u + (0; c) for the FEM model.

ForceModel stacks elastic, Rayleigh, contact, friction and gravity forces
and exposes F, its block Jacobian and the solve of I - cJ in n-space.
Fixed-vertex rows are masked to zero; mass is applied explicitly (diagonal
lumped M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import contact as ct
from . import fem
from .fem import Material, MaterialParams, RayleighParams
from .meshes import TetMesh


@dataclass(frozen=True)
class SimState:
    """Positions q (absolute), velocities v, time t, optional previous state."""

    q: np.ndarray
    v: np.ndarray
    t: float = 0.0
    history: "SimState | None" = None

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.q.shape != self.v.shape:
            raise ValueError("q and v dimensions differ")

    @property
    def u(self):
        return np.concatenate([self.q, self.v])

    @staticmethod
    def from_u(u, t=0.0, history=None):
        n = len(u) // 2
        return SimState(u[:n], u[n:], t, history)


def _splu(a):
    """SuperLU factor of a CSC matrix already in fill-reducing order:
    NATURAL column order and diagonal pivots first (symmetric mode). It
    serves the n-space stages and the eigen refresh."""
    return spla.splu(a, permc_spec="NATURAL", options={"SymmetricMode": True})


class ForceModel:
    """Aggregate force model over a mesh; the system every stepper integrates."""

    def __init__(self, mesh: TetMesh, mat: MaterialParams,
                 rayleigh: RayleighParams = RayleighParams(),
                 gravity=(0.0, 0.0, 0.0), contact: ct.ContactConfig | None = None):
        self.mesh = mesh
        self.mat = mat
        self.rayleigh = rayleigh
        self.gravity = np.asarray(gravity, dtype=float)
        self.contact = contact
        self.ndof = mesh.num_dofs
        self.mass = fem.lumped_masses(mesh, mat.density)
        self.minv = 1.0 / self.mass
        self.gravity_force = self.mass * np.tile(self.gravity,
                                                 mesh.num_vertices)
        self.gravity_force.flags.writeable = False
        self.free = mesh.free_dof_mask()
        self.q_rest = mesh.rest_positions.reshape(-1)
        self._ed = fem._edata(mesh)  # element data and factor pattern
        self._k_linear = None
        self._memo = {}
        self.gap_clamps = 0  # clamped contacts of every contact set computed
        if mat.model is Material.LINEAR:
            self._k_linear = fem.stiffness_matrix(mesh, mat, self.q_rest)

    def _cached(self, name, kernel, params, q):
        """kernel(mesh, params, q), kept for the last q seen under name:
        steppers evaluate one configuration several times."""
        key = np.asarray(q).tobytes()
        if self._memo.get(name, (None,))[0] != key:
            self._memo[name] = (key, kernel(self.mesh, params, q))
        return self._memo[name][1]

    # -- scalar/vector force pieces -------------------------------------

    def elastic_energy(self, q):
        return fem.elastic_energy(self.mesh, self.mat, q)

    def elastic_force(self, q):
        if self._k_linear is not None:
            return -(self._k_linear @ (q - self.q_rest))
        f = self._cached("force", fem.elastic_force, self.mat, q)
        f.flags.writeable = False
        return f

    def stiffness(self, q) -> sp.csr_matrix:
        """Elastic tangent stiffness (no contact terms), unmasked."""
        if self._k_linear is not None:
            return self._k_linear
        return self._cached("stiffness", fem.stiffness_matrix, self.mat, q)

    def gravity_energy(self, q):
        """Gravitational potential, referenced to the rest configuration."""
        return -float(np.dot(self.gravity_force, q - self.q_rest))

    def _contact_set(self, q):
        if self.contact is None:
            return None
        return self._cached("contact", self._active_set, self.contact, q)

    def _active_set(self, mesh, cfg, q):
        """contact.active_set, counting its clamped contacts in gap_clamps."""
        cs = ct.active_set(mesh, cfg, q)
        self.gap_clamps += int(cs.penetrating.sum())
        return cs

    def total_force(self, q, v):
        """f_tot = f_els + f_dmp + f_con + f_ext (unmasked)."""
        f = self.elastic_force(q) + self.gravity_force
        if self.rayleigh.beta:
            f -= self.rayleigh.beta * self.mass * v
        if self.rayleigh.alpha:
            f -= self.rayleigh.alpha * (self.stiffness(q) @ v)
        if self.contact is not None:
            cs = self._contact_set(q)
            f += ct.contact_force(self.mesh, cs, self.contact, q)
            f += ct.friction_force(self.mesh, cs, self.contact, q, v)
        return f

    # -- first-order system ---------------------------------------------

    def eval_F(self, u):
        """F(u) = (v; M^-1 f_tot), masked at fixed vertices."""
        n = self.ndof
        q, v = u[:n], u[n:]
        out = np.zeros(2 * n)
        out[:n] = np.where(self.free, v, 0.0)
        acc = self.minv * self.total_force(q, v)
        out[n:] = np.where(self.free, acc, 0.0)
        return out

    def _free_tangents(self, u):
        """(K_eff, D_eff) with contact and friction terms, as data on the
        mesh's factor pattern; D_eff is None without damping and friction."""
        ed = self._ed
        q, v = np.split(u, 2)
        k = self.stiffness(q).data[ed.kmap]
        d = None
        if self.rayleigh.alpha or self.rayleigh.beta:
            d = self.rayleigh.alpha * k
            d[ed.diag] += self.rayleigh.beta * self.mass[ed.take]
        if self.contact is not None:
            cs, cfg = self._contact_set(q), self.contact
            k = k - ed.vertex_blocks(cs.vertices, ct.contact_stiffness(cs, cfg, q))
            if cfg.mu:
                df = cfg.mu * ed.vertex_blocks(
                    cs.vertices, ct.friction_velocity_jacobian(cs, cfg, v))
                d = df if d is None else d + df
        return k, d

    def eval_J(self, u) -> sp.csr_matrix:
        """Block Jacobian [[0, I], [-M^-1 K_eff, -M^-1 D_eff]], masked."""
        ed, n, nf = self._ed, self.ndof, self._ed.take.size
        e = sp.csr_matrix((np.ones(nf), (ed.take, np.arange(nf))), shape=(n, nf))
        jk, jd = (None if x is None else
                  sp.diags(-self.minv) @ e @ ed.free_csc(x) @ e.T
                  for x in self._free_tangents(u))
        return sp.bmat([[None, sp.diags(self.free.astype(float))], [jk, jd]],
                       format="csr")

    def shifted(self, u, c):
        """r -> (I - c J(u))^-1 r in n-space (Baraff & Witkin, "Large Steps
        in Cloth Simulation", 1998): factors (M + c D_eff + c^2 K_eff)_ff =
        a_ff once, on the mesh's pre-ordered pattern, and solves r = (a; b)
        of shape (2n,) or (2n, k) by y_fixed = b_fixed,
        a_ff y_f = M_f b_f - c K_ff a_f, x = (a + cPy; y)."""
        ed = self._ed
        n, take, p = self.ndof, ed.take, self.free[:, None]
        k, d = self._free_tangents(u)
        a_ff = (c * c) * k
        if d is not None:
            a_ff += c * d
        a_ff[ed.diag] += self.mass[take]
        lu = _splu(ed.free_csc(a_ff))
        kff, m = ed.free_csc(k), self.mass[take, None]

        def solve(r):
            a, b = np.split(np.reshape(r, (2 * n, -1)), 2)
            y = b.copy()
            y[take] = lu.solve(m * b[take] - c * (kff @ a[take]))
            return np.concatenate([a + c * (p * y), y]).reshape(np.shape(r))

        return solve


def state_energy(model: ForceModel, state: SimState):
    """(kinetic, elastic, gravity) energy triple for one state."""
    ke = 0.5 * float(np.dot(state.v, model.mass * state.v))
    pe = model.elastic_energy(state.q)
    pg = model.gravity_energy(state.q)
    return ke, pe, pg
