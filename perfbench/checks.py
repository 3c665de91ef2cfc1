"""Output checks made apart from the program.

Each check returns a list of error strings (empty when it passes).  The
checks use their own energy, mass and geometry code and compare against
properties the method must have, never against stored output.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg


class Energy:
    """Total mechanical energy of a stable neo-Hookean tet mesh, written
    from the model's definitions: kinetic + elastic + gravity (zero at rest)
    + the compact log barrier kappa * sum b(d) against half-spaces."""

    def __init__(self, rest, tets, youngs, poisson, density, gravity,
                 halfspaces=(), kappa=0.0, delta=1.0):
        p = rest[tets]
        dm = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                      axis=2)
        self.tets = tets
        self.vol = np.linalg.det(dm) / 6.0
        self.dminv = np.linalg.inv(dm)
        m = np.zeros(len(rest))
        np.add.at(m, tets, (density * self.vol / 4.0)[:, None])
        self.mass = np.repeat(m, 3)
        self.mu = youngs / (2.0 * (1.0 + poisson))
        self.lam = youngs * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
        self.q_rest = rest.reshape(-1)
        self.g = np.tile(np.asarray(gravity, dtype=float), len(rest))
        self.halfspaces = [(np.asarray(pt, float), np.asarray(nrm, float))
                           for pt, nrm in halfspaces]
        self.kappa = kappa
        self.delta = delta

    def __call__(self, q, v):
        x = q.reshape(-1, 3)[self.tets]
        ds = np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0], x[:, 3] - x[:, 0]],
                      axis=2)
        f = ds @ self.dminv
        alpha = 1.0 + self.mu / self.lam
        psi = (0.5 * self.mu * (np.einsum("eij,eij->e", f, f) - 3.0)
               + 0.5 * self.lam * ((np.linalg.det(f) - alpha) ** 2
                                   - (1.0 - alpha) ** 2))
        e = 0.5 * float(v @ (self.mass * v)) + float(self.vol @ psi)
        e -= float((self.mass * self.g) @ (q - self.q_rest))
        for pt, nrm in self.halfspaces:
            d = (q.reshape(-1, 3) - pt) @ nrm
            d = d[d < self.delta]
            e += self.kappa * float(np.sum(-(d - self.delta) ** 2
                                           * np.log(d / self.delta)))
        return e


def energy_never_rises(energy, states, tol):
    e = np.array([energy(s.q, s.v) for s in states])
    if not np.isfinite(e).all():
        return [f"non-finite energy at step {int(np.argmin(np.isfinite(e)))}"]
    rise = float(np.max(e - e[0]))
    if rise > tol:
        k = int(np.argmax(e - e[0]))
        return [f"energy rose by {rise:.3e} J above its initial value "
                f"{e[0]:.6e} J at step {k} (tolerance {tol:.1e} J)"]
    return []


def mirror_map(rest, axis, length):
    """Index of each vertex's mirror image about ``axis`` = length / 2."""
    key = {tuple(np.round(p, 9)): i for i, p in enumerate(rest)}
    img = rest.copy()
    img[:, axis] = length - img[:, axis]
    try:
        return np.array([key[tuple(np.round(p, 9))] for p in img])
    except KeyError as exc:
        raise ValueError(f"mesh is not mirror-symmetric about axis {axis}") from exc


def mirror_symmetric(rest, states, mirrors, rtol):
    """In every state the displacement d satisfies d[mirror(v)] = R d[v]
    for each mirror."""
    for k, s in enumerate(states):
        d = (s.q - rest.reshape(-1)).reshape(-1, 3)
        scale = max(float(np.abs(d).max()), 1e-300)
        for axis, idx in mirrors:
            img = d[idx].copy()
            img[:, axis] = -img[:, axis]
            err = float(np.abs(d - img).max()) / scale
            if err > rtol:
                return [f"displacement not mirror-symmetric about axis {axis} "
                        f"at step {k}: relative error {err:.3e} > {rtol:.0e}"]
    return []


def dirichlet_at_rest(states, rest, fixed):
    dofs = (3 * fixed[:, None] + np.arange(3)).ravel()
    q_rest = rest.reshape(-1)[dofs]
    for k, s in enumerate(states):
        if not (np.array_equal(s.q[dofs], q_rest) and not s.v[dofs].any()):
            return [f"a Dirichlet vertex moved at step {k}"]
    return []


def eigenvalues_match(k_ff, m_ff, lam, rtol):
    """The split's eigenvalues against a dense generalized eigh."""
    ref = scipy.linalg.eigh(k_ff, m_ff, eigvals_only=True,
                            subset_by_index=[0, len(lam) - 1])
    err = float(np.max(np.abs(np.asarray(lam) - ref)))
    if err > rtol * float(np.max(np.abs(ref))):
        return [f"split eigenvalues differ from dense eigh by {err:.3e} "
                f"(relative tolerance {rtol:.0e})"]
    return []


def be_free_fall(states, mass, h, gravity, delta, tol):
    """Before first contact every vertex follows backward Euler under
    gravity alone, so the centre of mass is x0 + n h v0 + h^2 n(n+1)/2 g."""
    m = mass.reshape(-1, 3)[:, 0]
    com = [m @ s.q.reshape(-1, 3) / m.sum() for s in states]
    v0 = m @ states[0].v.reshape(-1, 3) / m.sum()
    g = np.asarray(gravity, dtype=float)
    n_free = 0
    for n in range(1, len(states)):
        if states[n].q.reshape(-1, 3)[:, 2].min() < delta:
            break
        want = com[0] + n * h * v0 + h * h * n * (n + 1) / 2.0 * g
        err = float(np.abs(com[n] - want).max())
        if err > tol:
            return [f"centre of mass off the backward-Euler free fall by "
                    f"{err:.3e} m at step {n}"]
        n_free = n
    if n_free < 5:
        return [f"only {n_free} steps before first contact"]
    if n_free == len(states) - 1:
        return ["the block never reached the contact band"]
    return []


def above_plane(states, point, normal):
    for k, s in enumerate(states):
        d = (s.q.reshape(-1, 3) - point) @ normal
        if d.min() <= 0.0:
            return [f"vertex {int(np.argmin(d))} below the plane at step {k} "
                    f"(distance {d.min():.3e} m)"]
    return []


def cli_outputs(out_dir, nsteps, frame_every, states):
    """Frame and row counts, and each frame equal to the stepped state."""
    nframes = 1 + nsteps // frame_every
    errs = []
    frames = sorted(f for f in os.listdir(out_dir) if f.startswith("frame_"))
    if len(frames) != nframes:
        errs.append(f"{len(frames)} frames written, expected {nframes}")
    for i, name in enumerate(frames[:nframes]):
        with open(os.path.join(out_dir, name)) as f:
            q = np.array([[float(x) for x in ln.split()[1:]] for ln in f])
        if not np.array_equal(q.reshape(-1), states[i * frame_every].q):
            errs.append(f"{name} differs from the state after step "
                        f"{i * frame_every}")
            break
    for name, rows in (("diagnostics.csv", nsteps), ("energy.csv", nframes)):
        with open(os.path.join(out_dir, name)) as f:
            got = sum(1 for _ in f) - 1
        if got != rows:
            errs.append(f"{name} has {got} rows, expected {rows}")
    return errs
