"""phi_1 evaluation (dense, Krylov, modal) and the exponential
Rosenbrock-Euler step u1 = u0 + h*phi1(h J) F(u0)."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

DEFAULT_KRYLOV_DIM = 30
DEFAULT_KRYLOV_TOL = 1e-10


class KrylovWarning(UserWarning):
    pass


def phi1_dense(z, b=None):
    """phi1(Z) B with phi1(Z) = Z^{-1}(exp(Z) - I) and a (k, p) B, I by
    default, via the augmented exponential so that singular or
    near-singular Z is handled by the series limit."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    k = z.shape[0]
    b = np.eye(k) if b is None else np.asarray(b, dtype=float)
    aug = np.zeros((k + b.shape[1], k + b.shape[1]))
    aug[:k, :k] = z
    aug[:k, k:] = b
    return scipy.linalg.expm(aug)[:k, k:]


def phi1_action_krylov(j, w, h, m=DEFAULT_KRYLOV_DIM, tol=DEFAULT_KRYLOV_TOL):
    """Approximate h*phi1(h J) w by an Arnoldi projection.

    Returns the vector; emits KrylovWarning if the subspace budget m is
    exhausted before the residual estimate drops below tol.
    """
    n = j.shape[0]
    if m < 1:
        raise ValueError("krylov dimension must be >= 1")
    m = min(m, n)
    beta = np.linalg.norm(w)
    if beta == 0.0 or h == 0.0:
        return np.zeros(n)
    v = np.zeros((m + 1, n))
    hess = np.zeros((m + 1, m))
    v[0] = w / beta
    for jcol in range(m):
        z = j @ v[jcol]
        for i in range(jcol + 1):
            hess[i, jcol] = np.dot(v[i], z)
            z -= hess[i, jcol] * v[i]
        # one reorthogonalization pass keeps the basis clean
        for i in range(jcol + 1):
            c = np.dot(v[i], z)
            hess[i, jcol] += c
            z -= c * v[i]
        hnorm = np.linalg.norm(z)
        hess[jcol + 1, jcol] = hnorm
        k = jcol + 1
        y = phi1_dense(h * hess[:k, :k], np.eye(k, 1))[:, 0]
        if hnorm < 1e-14 * max(1.0, np.abs(hess[:k, jcol]).max()):
            break  # invariant subspace: the projection is exact
        v[k] = z / hnorm
        # residual-style error estimate for the phi1 action
        err = beta * h * hnorm * abs(y[-1])
        if err <= tol * max(1.0, beta * h * np.linalg.norm(y)):
            break
    else:
        # the last estimate is above tol; with m = n the projection is exact
        if m < n:
            warnings.warn(f"Krylov budget m={m} exhausted, estimate {err:.2e}",
                          KrylovWarning, stacklevel=2)
    return beta * h * (v[:k].T @ y)


def ere_step(model, u0, h, m=DEFAULT_KRYLOV_DIM, tol=DEFAULT_KRYLOV_TOL):
    """Exponential Rosenbrock-Euler: one Jacobian, no nonlinear solve."""
    f0 = model.eval_F(u0)
    j = model.eval_J(u0)
    return u0 + phi1_action_krylov(j, f0, h, m=m, tol=tol)


def _modal_pieces(lambdas, h):
    """lam and per-mode cos(w h), sin(w h)/w and (1 - cos(w h))/lam with
    w = sqrt(lam). Negative lam uses the hyperbolic forms, lam ~ 0 the
    series."""
    lam = np.asarray(lambdas, dtype=float)
    c, sn, p = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    small = np.abs(lam) * h * h < 1e-12
    pos = (lam > 0) & ~small
    neg = (lam < 0) & ~small
    wpos = np.sqrt(lam[pos])
    c[pos] = np.cos(wpos * h)
    sn[pos] = np.sin(wpos * h) / wpos
    wneg = np.sqrt(-lam[neg])
    c[neg] = np.cosh(wneg * h)
    sn[neg] = np.sinh(wneg * h) / wneg
    p[~small] = (1.0 - c[~small]) / lam[~small]
    z = lam[small] * h * h
    c[small] = 1.0 - z / 2.0
    sn[small] = h * (1.0 - z / 6.0)
    p[small] = 0.5 * h * h * (1.0 - z / 12.0)
    return lam, c, sn, p


def phi1_modal(lambdas, h):
    """Exact h*phi1(h A_i) for per-mode blocks A_i = [[0, 1], [-lam, 0]].

    Returns (s, 2, 2). Nonnegative lam uses trig, negative lam hyperbolic,
    lam ~ 0 the series.
    """
    lam, _, sn, p = _modal_pieces(lambdas, h)
    return np.stack([np.stack([sn, p], -1), np.stack([-lam * p, sn], -1)], -2)


def exp_modal_apply(lambdas, h, gq, gv):
    """Apply expm(h J_G^r) to the reduced vector (gq, gv): per mode the block
    [[c, sn], [-lam sn, c]] of ``_modal_pieces``."""
    lam, c, sn, _ = _modal_pieces(lambdas, h)
    return c * gq + sn * gv, -lam * sn * gq + c * gv


def phi1_modal_apply(lambdas, h, gq, gv):
    """Apply h*phi1(h J_G^r) to the reduced vector (gq, gv): per mode the
    block [[sn, p], [-lam p, sn]] of ``_modal_pieces``."""
    lam, _, sn, p = _modal_pieces(lambdas, h)
    return sn * gq + p * gv, -lam * p * gq + sn * gv
