"""Barrier contact against analytic implicit surfaces, plus smoothed friction.

Contacts are vertex-vs-surface only. The barrier has compact support
[0, delta]; friction follows the maximum dissipation principle with a C1
pre-sliding ramp below speed epsilon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# Nonpositive gaps are clamped to GAP_CLAMP_REL * delta and flagged.
GAP_CLAMP_REL = 1e-6


class HalfSpace:
    """Half-space {x : (x - point) . normal >= 0}."""

    def __init__(self, point, normal):
        self.point = np.asarray(point, dtype=float)
        n = np.asarray(normal, dtype=float)
        nn = np.linalg.norm(n)
        if not np.isclose(nn, 1.0, atol=1e-9):
            raise ValueError("normal must be unit length")
        self.normal = n / nn

    def distance(self, x):
        return float(np.dot(x - self.point, self.normal))

    def gradient(self, x):
        return self.normal

    def hessian(self, x):
        return np.zeros((3, 3))


class Sphere:
    """Outside of a sphere: d(x) = |x - center| - radius."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("radius must be > 0")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def distance(self, x):
        return float(np.linalg.norm(x - self.center) - self.radius)

    def gradient(self, x):
        r = x - self.center
        nr = np.linalg.norm(r)
        if nr == 0:
            return np.array([0.0, 0.0, 1.0])
        return r / nr

    def hessian(self, x):
        r = x - self.center
        nr = np.linalg.norm(r)
        n = r / nr
        return (np.eye(3) - np.outer(n, n)) / nr


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


def gap(mesh, surfaces, q) -> ContactSet:
    """Signed distance of every surface-vertex/surface pair.

    Every pair is measured and returned; ``active_set`` keeps the pairs
    inside the barrier support (d < delta) and clamps penetrating gaps.
    """
    pos = np.asarray(q, dtype=float).reshape(-1, 3)
    verts, surfs, gaps, normals = [], [], [], []
    for si, surf in enumerate(surfaces):
        for v in mesh.surface_vertices:
            d = surf.distance(pos[v])
            verts.append(v)
            surfs.append(si)
            gaps.append(d)
            normals.append(surf.gradient(pos[v]))
    if not verts:
        return ContactSet(np.zeros(0, int), np.zeros(0, int),
                          np.zeros(0), np.zeros((0, 3)))
    return ContactSet(np.array(verts), np.array(surfs),
                      np.array(gaps), np.array(normals))


def active_set(mesh, cfg: ContactConfig, q) -> ContactSet:
    """Contacts inside the barrier support (d < delta), gaps clamped."""
    cs = gap(mesh, cfg.surfaces, q)
    keep = cs.gaps < cfg.delta
    gaps = cs.gaps[keep]
    pen = gaps <= 0
    if pen.any():
        warnings.warn(f"{int(pen.sum())} penetrating contact(s), gap clamped",
                      stacklevel=2)
    gaps = np.maximum(gaps, GAP_CLAMP_REL * cfg.delta)
    return ContactSet(cs.vertices[keep], cs.surfaces[keep], gaps,
                      cs.normals[keep], pen)


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
    """Per-contact normal force magnitudes lambda = -kappa * b'(d)."""
    return -cfg.kappa * barrier_grad(cs.gaps, cfg.delta)


def contact_force(mesh, cs: ContactSet, cfg: ContactConfig, q):
    """f_c = -grad_q [kappa * sum b(d)] as a flat (3*nv,) vector."""
    f = np.zeros(mesh.num_dofs)
    if cs.count == 0:
        return f
    lam = contact_lambda(cs, cfg)
    for i in range(cs.count):
        v = cs.vertices[i]
        f[3 * v:3 * v + 3] += lam[i] * cs.normals[i]
    return f


def contact_stiffness(mesh, cs: ContactSet, cfg: ContactConfig, q) -> sp.csr_matrix:
    """d f_c / d q (symmetric, <= 0 definite blocks per contact)."""
    n = mesh.num_dofs
    if cs.count == 0:
        return sp.csr_matrix((n, n))
    pos = np.asarray(q, dtype=float).reshape(-1, 3)
    lam = contact_lambda(cs, cfg)
    bpp = barrier_hess(cs.gaps, cfg.delta)
    rows, cols, vals = [], [], []
    for i in range(cs.count):
        v = cs.vertices[i]
        nrm = cs.normals[i]
        surf = cfg.surfaces[cs.surfaces[i]]
        blk = (-cfg.kappa * bpp[i] * np.outer(nrm, nrm)
               + lam[i] * surf.hessian(pos[v]))
        idx = np.arange(3 * v, 3 * v + 3)
        rows.append(np.repeat(idx, 3))
        cols.append(np.tile(idx, 3))
        vals.append(blk.ravel())
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _tangent_frame(n):
    """Deterministic orthonormal tangent pair for a unit normal."""
    a = np.zeros(3)
    a[np.argmin(np.abs(n))] = 1.0
    t1 = np.cross(n, a)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def contact_jacobian(mesh, cs: ContactSet, q):
    """(J_C, B_N, B_T): relative-velocity map and per-contact frames.

    J_C is (3*n_c, 3*nv) mapping nodal velocities to per-contact relative
    velocities (surfaces are static). B_N is (3*n_c, n_c), B_T is
    (3*n_c, 2*n_c); columns are the per-contact orthonormal frame.
    """
    nc = cs.count
    n = mesh.num_dofs
    jc = sp.lil_matrix((3 * nc, n))
    bn = np.zeros((3 * nc, nc))
    bt = np.zeros((3 * nc, 2 * nc))
    for i in range(nc):
        v = cs.vertices[i]
        jc[3 * i:3 * i + 3, 3 * v:3 * v + 3] = np.eye(3)
        nrm = cs.normals[i]
        if np.linalg.norm(nrm) < 1e-12:
            warnings.warn(f"degenerate normal at contact {i}, dropped")
            continue
        t1, t2 = _tangent_frame(nrm)
        bn[3 * i:3 * i + 3, i] = nrm
        bt[3 * i:3 * i + 3, 2 * i] = t1
        bt[3 * i:3 * i + 3, 2 * i + 1] = t2
    return jc.tocsr(), bn, bt


def sliding_basis(jc, bt):
    """T = J_C^T B_T, mapping tangential force coords to generalized forces."""
    return jc.T @ bt


def s_profile(x, eps):
    """C1 pre-sliding ramp: 2x/eps - x^2/eps^2 below eps, else 1."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < eps, 2.0 * x / eps - x ** 2 / eps ** 2, 1.0)
    return out if out.ndim else float(out)


def eta_smooth(vbar, eps):
    """Smoothed unit-direction map, |eta| <= 1, eta(0) = 0."""
    vbar = np.asarray(vbar, dtype=float)
    nv = np.linalg.norm(vbar)
    if nv == 0:
        return np.zeros_like(vbar)
    return s_profile(nv, eps) * vbar / nv


def _eta_jacobian(vbar, eps):
    """d eta/d vbar (2x2), continuous at 0 and at |v| = eps."""
    nv = np.linalg.norm(vbar)
    if nv < 1e-300:
        return (2.0 / eps) * np.eye(2)
    vhat = vbar / nv
    p = np.eye(2) - np.outer(vhat, vhat)
    if nv >= eps:
        return p / nv
    s_over = 2.0 / eps - nv / eps ** 2
    sp_ = 2.0 / eps - 2.0 * nv / eps ** 2
    return s_over * p + sp_ * np.outer(vhat, vhat)


def friction_force(mesh, cs: ContactSet, cfg: ContactConfig, q, v):
    """f_f = -mu T Lambda eta(T^T v)."""
    f = np.zeros(mesh.num_dofs)
    if cs.count == 0 or cfg.mu == 0.0:
        return f
    jc, _, bt = contact_jacobian(mesh, cs, q)
    t = sliding_basis(jc, bt)
    lam = contact_lambda(cs, cfg)
    vbar = t.T @ v
    eta = np.zeros(2 * cs.count)
    for i in range(cs.count):
        eta[2 * i:2 * i + 2] = eta_smooth(vbar[2 * i:2 * i + 2], cfg.epsilon)
    lam2 = np.repeat(lam, 2)
    return -cfg.mu * (t @ (lam2 * eta))


def friction_velocity_jacobian(mesh, cs: ContactSet, cfg: ContactConfig, q, v):
    """d f_f / d v (the only friction derivative kept in Jacobians)."""
    n = mesh.num_dofs
    if cs.count == 0 or cfg.mu == 0.0:
        return sp.csr_matrix((n, n))
    jc, _, bt = contact_jacobian(mesh, cs, q)
    t = sp.csr_matrix(sliding_basis(jc, bt))
    lam = contact_lambda(cs, cfg)
    vbar = t.T @ v
    deta = sp.lil_matrix((2 * cs.count, 2 * cs.count))
    for i in range(cs.count):
        deta[2 * i:2 * i + 2, 2 * i:2 * i + 2] = \
            lam[i] * _eta_jacobian(vbar[2 * i:2 * i + 2], cfg.epsilon)
    return (-cfg.mu * (t @ deta.tocsr() @ t.T)).tocsr()
