"""Barrier contact against analytic implicit surfaces, plus smoothed friction.

Contacts are vertex-vs-surface only. The barrier has compact support
[0, delta]; friction follows the maximum dissipation principle with a C1
pre-sliding ramp below speed epsilon.

Every kernel works on whole arrays of contacts, with no per-contact loop:
a ContactSet holds n_c contacts as (n_c,) and (n_c, 3) arrays, and the
sparse matrices are assembled from (n_c, 3, 3) per-vertex blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# active_set flags nonpositive gaps; the barrier functions clamp their
# argument to GAP_CLAMP_REL * delta.
GAP_CLAMP_REL = 1e-6


def _norm(x):
    """Euclidean norm over the last axis; each row equals np.linalg.norm(row)."""
    return np.sqrt(np.vecdot(x, x))


class HalfSpace:
    """Half-space {x : (x - point) . normal >= 0}. Its methods take a point
    (3,) or points (k, 3) and return (), (3,), (3, 3) or (k,), (k, 3), (k, 3, 3)."""

    def __init__(self, point, normal):
        self.point = np.asarray(point, dtype=float)
        n = np.asarray(normal, dtype=float)
        nn = np.linalg.norm(n)
        if not np.isclose(nn, 1.0, atol=1e-9):
            raise ValueError("normal must be unit length")
        self.normal = n / nn

    def distance(self, x):
        return np.vecdot(x - self.point, self.normal)

    def gradient(self, x):
        return np.broadcast_to(self.normal, np.shape(x))

    def hessian(self, x):
        return np.zeros(np.shape(x) + (3,))


class Sphere:
    """Outside of a sphere: d(x) = |x - center| - radius; shapes as HalfSpace."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("radius must be > 0")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def distance(self, x):
        return _norm(x - self.center) - self.radius

    def gradient(self, x):
        """Unit outward direction; (0, 0, 1) at the center."""
        r = x - self.center
        nr = _norm(r)[..., None]
        return np.where(nr == 0, (0.0, 0.0, 1.0), r / np.where(nr == 0, 1.0, nr))

    def hessian(self, x):
        r = x - self.center
        nr = _norm(r)[..., None]
        n = r / nr
        return (np.eye(3) - n[..., :, None] * n[..., None, :]) / nr[..., None]


@dataclass(frozen=True)
class ContactConfig:
    surfaces: tuple
    delta: float = 1e-3
    kappa: float = 1.0
    mu: float = 0.0
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.delta <= 0 or self.kappa <= 0 or self.epsilon <= 0:
            raise ValueError("delta, kappa, epsilon must be > 0")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        object.__setattr__(self, "surfaces", tuple(self.surfaces))


@dataclass
class ContactSet:
    """Active contacts: pairs (vertex, surface) with gap < delta."""

    vertices: np.ndarray          # (n_c,) vertex indices
    surfaces: np.ndarray          # (n_c,) surface indices
    gaps: np.ndarray              # (n_c,) signed gaps as detected
    normals: np.ndarray           # (n_c, 3) distance gradients at the vertex
    penetrating: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))

    @property
    def count(self):
        return len(self.vertices)


def active_set(mesh, cfg: ContactConfig, q) -> ContactSet:
    """Contacts inside the barrier support (d < delta), with their signed
    gaps; a nonpositive gap is flagged in ``penetrating`` and warned of.

    Each surface is measured once on all surface vertices; contacts come
    surface by surface, in ``mesh.surface_vertices`` order.
    """
    pts = np.asarray(q, dtype=float).reshape(-1, 3)[mesh.surface_vertices]
    gaps = np.reshape([s.distance(pts) for s in cfg.surfaces], -1)
    normals = np.reshape([s.gradient(pts) for s in cfg.surfaces], (-1, 3))
    keep = gaps < cfg.delta
    gaps = gaps[keep]
    pen = gaps <= 0
    if pen.any():
        warnings.warn(f"{int(pen.sum())} penetrating contact(s), gap clamped",
                      stacklevel=2)
    ns = len(cfg.surfaces)
    return ContactSet(np.tile(mesh.surface_vertices, ns)[keep],
                      np.repeat(np.arange(ns), len(pts))[keep], gaps,
                      normals[keep], pen)


def barrier_value(x, delta):
    """Compactly supported log barrier; 0 outside [0, delta]."""
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, GAP_CLAMP_REL * delta)
    inside = x < delta
    out = np.where(inside, -(xs - delta) ** 2 * np.log(xs / delta), 0.0)
    return out if out.ndim else float(out)


def barrier_grad(x, delta):
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, GAP_CLAMP_REL * delta)
    inside = x < delta
    out = np.where(inside,
                   -2.0 * (xs - delta) * np.log(xs / delta) - (xs - delta) ** 2 / xs,
                   0.0)
    return out if out.ndim else float(out)


def barrier_hess(x, delta):
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, GAP_CLAMP_REL * delta)
    inside = x < delta
    out = np.where(inside,
                   -2.0 * np.log(xs / delta) - 4.0 * (xs - delta) / xs
                   + ((xs - delta) / xs) ** 2,
                   0.0)
    return out if out.ndim else float(out)


def contact_lambda(cs: ContactSet, cfg: ContactConfig):
    """Per-contact normal force magnitudes lambda = -kappa * b'(d), (n_c,)."""
    return -cfg.kappa * barrier_grad(cs.gaps, cfg.delta)


def _vertex_blocks(mesh, vertices, blocks) -> sp.csr_matrix:
    """(3*nv, 3*nv) CSR summing (n_c, 3, 3) blocks at their vertices' dofs;
    triplets run block by block, row-major within a block."""
    n = mesh.num_dofs
    idx = 3 * np.asarray(vertices)[:, None] + np.arange(3)
    rows, cols = np.repeat(idx, 3, axis=1), np.tile(idx, 3)
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def contact_force(mesh, cs: ContactSet, cfg: ContactConfig, q):
    """f_c = -grad_q [kappa * sum b(d)] as a flat (3*nv,) vector."""
    f = np.zeros(mesh.num_dofs)
    np.add.at(f.reshape(-1, 3), cs.vertices,
              contact_lambda(cs, cfg)[:, None] * cs.normals)
    return f


def contact_stiffness(mesh, cs: ContactSet, cfg: ContactConfig, q) -> sp.csr_matrix:
    """d f_c / d q (symmetric, <= 0 definite blocks per contact)."""
    pos = np.asarray(q, dtype=float).reshape(-1, 3)
    lam = contact_lambda(cs, cfg)
    blocks = ((-cfg.kappa * barrier_hess(cs.gaps, cfg.delta))[:, None, None]
              * (cs.normals[:, :, None] * cs.normals[:, None, :]))
    for si, surf in enumerate(cfg.surfaces):
        on = cs.surfaces == si
        blocks[on] += lam[on, None, None] * surf.hessian(pos[cs.vertices[on]])
    return _vertex_blocks(mesh, cs.vertices, blocks)


def _tangent_frame(n):
    """Deterministic orthonormal tangent pair (t1, t2) for unit normals (..., 3)."""
    n = np.asarray(n, dtype=float)
    a = np.zeros_like(n)
    np.put_along_axis(a, np.argmin(np.abs(n), axis=-1)[..., None], 1.0, axis=-1)
    t1 = np.cross(n, a)
    t1 /= _norm(t1)[..., None]
    return t1, np.cross(n, t1)


def contact_jacobian(mesh, cs: ContactSet, q):
    """(J_C, B_N, B_T): relative-velocity map and per-contact frames.

    J_C is (3*n_c, 3*nv) mapping nodal velocities to per-contact relative
    velocities (surfaces are static). B_N is (3*n_c, n_c), B_T is
    (3*n_c, 2*n_c); columns are the per-contact orthonormal frame.
    """
    nc = cs.count
    cols = (3 * cs.vertices[:, None] + np.arange(3)).ravel()
    jc = sp.csr_matrix((np.ones(3 * nc), cols, np.arange(3 * nc + 1)),
                       shape=(3 * nc, mesh.num_dofs))
    c = np.arange(nc)
    bn = np.zeros((3 * nc, nc))
    bn.reshape(nc, 3, nc)[c, :, c] = cs.normals
    bt = np.zeros((3 * nc, 2 * nc))
    bt.reshape(nc, 3, nc, 2)[c, :, c] = np.stack(_tangent_frame(cs.normals), -1)
    return jc, bn, bt


def s_profile(x, eps):
    """C1 pre-sliding ramp: 2x/eps - x^2/eps^2 below eps, else 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < eps, 2.0 * x / eps - x ** 2 / eps ** 2, 1.0)
    return out if out.ndim else float(out)


def eta_smooth(vbar, eps):
    """Smoothed unit-direction map of slips (..., 2), |eta| <= 1, eta(0) = 0."""
    vbar = np.asarray(vbar, dtype=float)
    nv = _norm(vbar)[..., None]
    moving = nv != 0
    return np.where(moving, s_profile(nv, eps) * vbar / np.where(moving, nv, 1.0),
                    0.0)


def _eta_jacobian(vbar, eps):
    """d eta/d vbar, (..., 2, 2) for slips (..., 2); continuous at 0 and eps."""
    vbar = np.asarray(vbar, dtype=float)
    nv = _norm(vbar)[..., None, None]
    still = nv < 1e-300
    nvs = np.where(still, 1.0, nv)
    vhat = vbar[..., None, :] / nvs
    vv = np.swapaxes(vhat, -1, -2) * vhat
    p = np.eye(2) - vv
    slow = (2.0 / eps - nv / eps ** 2) * p + (2.0 / eps - 2.0 * nv / eps ** 2) * vv
    return np.where(still, (2.0 / eps) * np.eye(2),
                    np.where(nv >= eps, p / nvs, slow))


def _slip(cs: ContactSet, cfg: ContactConfig, v):
    """Frames T (n_c, 3, 2), normal forces (n_c,) and slips T_i^T v_i (n_c, 2)."""
    t = np.stack(_tangent_frame(cs.normals), -1)
    vc = np.asarray(v, dtype=float).reshape(-1, 3)[cs.vertices]
    vbar = (np.swapaxes(t, 1, 2) @ vc[:, :, None])[..., 0]
    return t, contact_lambda(cs, cfg), vbar


def friction_force(mesh, cs: ContactSet, cfg: ContactConfig, q, v):
    """f_f = -mu T Lambda eta(T^T v)."""
    f = np.zeros(mesh.num_dofs)
    if cfg.mu == 0.0:
        return f
    t, lam, vbar = _slip(cs, cfg, v)
    ft = lam[:, None] * eta_smooth(vbar, cfg.epsilon)
    np.add.at(f.reshape(-1, 3), cs.vertices, (t @ ft[:, :, None])[..., 0])
    return -cfg.mu * f


def friction_velocity_jacobian(mesh, cs: ContactSet, cfg: ContactConfig, q, v):
    """d f_f / d v (the only friction derivative kept in Jacobians): contact i
    adds -mu T_i (lambda_i D eta_i) T_i^T at its vertex."""
    if cfg.mu == 0.0:
        return sp.csr_matrix((mesh.num_dofs, mesh.num_dofs))
    t, lam, vbar = _slip(cs, cfg, v)
    d = lam[:, None, None] * _eta_jacobian(vbar, cfg.epsilon)
    return -cfg.mu * _vertex_blocks(mesh, cs.vertices, t @ d @ np.swapaxes(t, 1, 2))
