"""Modal model reduction: generalized eigenpairs, G/H force splitting,
the SIERE family of additive integrators, and SMW low-rank solves."""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import expo
from .steppers import (NewtonConfig, StepFailure, _factorize,
                       _implicit_stage, _shifted_solve, _tr_stage)
# perfbench/tracer.py patches this alias as one of its entry points
from .steppers import newton_solve  # noqa: F401
from .system import _splu

DENSE_EIG_CUTOFF = 300
# Shift of the sparse eigensolve, just below zero: K - EIG_SHIFT*M stays
# nonsingular when K is singular (a body with no fixed vertex).
EIG_SHIFT = -1e-8


class RefreshPolicy(enum.Enum):
    """When ``driver.Advancer`` remakes the split after the first."""

    ONCE = "once"
    EVERY_STEP = "every_step"
    EVERY_N = "every_n"


@dataclass(frozen=True)
class ModalSplit:
    """s smallest generalized eigenpairs K x = lam M x, M-orthonormal. The
    ``driver.Advancer`` decides when a split is remade."""

    x: np.ndarray           # (ndof, s), zero rows on fixed dofs
    lam: np.ndarray         # (s,), ascending

    @property
    def s(self):
        return self.x.shape[1]


def smallest_eigpairs(k, m, s):
    """s algebraically smallest eigenpairs of K x = lam M x.

    M must be SPD, K symmetric (possibly indefinite). Eigenvectors are
    M-orthonormal with a deterministic sign (largest-magnitude entry > 0).

    Up to DENSE_EIG_CUTOFF unknowns, and for all n pairs, which ARPACK
    cannot return, the pencil is solved densely, for the s pairs only.
    Otherwise ARPACK runs in shift-invert mode about EIG_SHIFT, and its
    inverse of K - EIG_SHIFT*M is one symmetric-mode SuperLU factor made
    by ``system._splu``, the call that factors the implicit stages. That
    factor keeps the pencil's own order, so a large pencil should come in
    a fill-reducing order, as ``modal_split`` passes it.
    """
    n = k.shape[0]
    if s > n:
        raise ValueError(f"s={s} exceeds dimension {n}")
    if s == 0:
        return np.zeros((n, 0)), np.zeros(0)
    if n <= DENSE_EIG_CUTOFF or s == n:
        lam, vec = scipy.linalg.eigh(sp.csr_matrix(k).toarray(),
                                     sp.csr_matrix(m).toarray(),
                                     subset_by_index=[0, s - 1])
    else:
        # a fixed random start vector makes the result reproducible; a
        # constant one is orthogonal to the antisymmetric modes of a
        # mirror-symmetric mesh
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        k, m = sp.csr_matrix(k), sp.csr_matrix(m)
        lu = _splu((k - EIG_SHIFT * m).tocsc())
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        try:
            lam, vec = spla.eigsh(k, k=s, M=m, sigma=EIG_SHIFT, which="LM",
                                  v0=v0, OPinv=opinv)
        except spla.ArpackNoConvergence as exc:
            raise RuntimeError("eigensolver did not converge") from exc
        order = np.argsort(lam)
        lam, vec = lam[order], vec[:, order]
    # enforce M-orthonormality and sign convention
    for i in range(s):
        nrm = np.sqrt(vec[:, i] @ (m @ vec[:, i]))
        vec[:, i] /= nrm
        j = np.argmax(np.abs(vec[:, i]))
        if vec[j, i] < 0:
            vec[:, i] = -vec[:, i]
    return vec, lam


def modal_split(model, u, s) -> ModalSplit:
    """Build the split from the model's stiffness at state u, respecting
    fixed-vertex masking: the eigenproblem is solved on the free block, in
    the order of the model's factors, and X is un-permuted once."""
    n = model.ndof
    nfree = int(model.free.sum())
    if s > nfree:
        raise ValueError(f"s={s} exceeds free dimension {nfree}")
    ed = getattr(model, "_ed", None)  # a ForceModel's factor order
    take = np.flatnonzero(model.free) if ed is None else ed.take
    kf = sp.csr_matrix(model.stiffness(u[:n]))[take][:, take]
    xf, lam = smallest_eigpairs(kf, sp.diags(model.mass[take]), s)
    x = np.zeros((n, s))
    x[take] = xf
    neg = int((lam < 0).sum())
    if neg:
        warnings.warn(f"{neg} negative stiffness eigenvalue(s) in split")
    return ModalSplit(x, lam)


def refresh_split(model, u, ms: ModalSplit) -> ModalSplit | None:
    """A split of ms's size at state u, or None, with a warning, when the
    eigensolve fails; the caller then keeps ms."""
    try:
        return modal_split(model, u, ms.s)
    except (RuntimeError, ValueError) as exc:
        warnings.warn(f"eigen refresh failed ({exc}); keeping previous split")
        return None


def _restrict(model, ms: ModalSplit, w):
    """Modal coordinates (X^T M w_q, X^T M w_v) of a first-order vector."""
    n = model.ndof
    return ms.x.T @ (model.mass * w[:n]), ms.x.T @ (model.mass * w[n:])


def _prolong(ms: ModalSplit, yq, yv):
    """First-order vector (X yq, X yv) from modal coordinates."""
    return np.concatenate([ms.x @ yq, ms.x @ yv])


def project_G(model, ms: ModalSplit, fvec):
    """Project a first-order vector onto the G (modal) component.

    The bottom block is an acceleration: f = M a, f_G = M X X^T f, so
    a_G = X X^T (M a)."""
    return _prolong(ms, *_restrict(model, ms, fvec))


def _jg_apply(model, ms: ModalSplit, w):
    """J_G w via the modal blocks [[0, 1], [-lam, 0]]."""
    yq, yv = _restrict(model, ms, w)
    return _prolong(ms, yv, -(ms.lam * yq))


class SmwSolver:
    """Solves (A + Y Z^T) x = rhs with one factorization of A.

    A is a sparse or dense 2n matrix or its solve r -> A^-1 r (as
    ``_shifted_solve`` gives), Y and Z are skinny (2n rows). Counts solves
    for diagnostics.
    """

    def __init__(self, a, y, z):
        self.n_solves = 0
        self._solve_a = _factorize(a)
        self.z = z if y.size else None  # s = 0: A alone
        if self.z is not None:
            self._ainv_y = self._solve_a(y)
            cap = np.eye(y.shape[1]) + z.T @ self._ainv_y
            try:
                self._cap_lu = scipy.linalg.lu_factor(cap)
            except scipy.linalg.LinAlgError as exc:
                raise StepFailure("singular SMW capacitance matrix") from exc
            if np.abs(np.diag(self._cap_lu[0])).min() < 1e-14:
                raise StepFailure("singular SMW capacitance matrix")

    def solve(self, rhs):
        self.n_solves += 1
        x = self._solve_a(rhs)
        if self.z is None:
            return x
        w = scipy.linalg.lu_solve(self._cap_lu, self.z.T @ x)
        return x - self._ainv_y @ w


class _Complement:
    """The split's complement as a system for ``steppers._implicit_stage``:
    ``eval_F(u)`` is H = F - G and ``shifted(u, c)`` the SMW solve of
    I - c J_H. G is the projection of F, or with ``u_ref`` the modal
    linearization J_G (u - u_ref). The SmwSolvers it builds count its
    solves."""

    def __init__(self, model, ms: ModalSplit, u_ref=None):
        self.model, self.ms, self.u_ref = model, ms, u_ref
        self.solvers = []

    def eval_F(self, u):
        f = self.model.eval_F(u)
        if self.u_ref is None:
            return f - project_G(self.model, self.ms, f)
        return f - _jg_apply(self.model, self.ms, u - self.u_ref)

    def shifted(self, u, c):
        """I - c J_H = (I - c J) + Y Z^T, the c factor in Z: the blocks of
        c J_G are Y = [[X, 0], [0, -X lam]], Z = [[0, cMX], [cMX, 0]]."""
        x, zero = self.ms.x, np.zeros_like(self.ms.x)
        cmx = c * (self.model.mass[:, None] * x)
        y = np.block([[x, zero], [zero, -x * self.ms.lam]])
        z = np.block([[zero, cmx], [cmx, zero]])
        self.solvers.append(SmwSolver(_shifted_solve(self.model, u, c), y, z))
        return self.solvers[-1].solve

    def count(self, diag):
        """Write the SMW solves made so far into diag["smw_solves"]."""
        if diag is not None:
            diag["smw_solves"] = sum(sv.n_solves for sv in self.solvers)


def _ere_subspace_term(model, u, ms: ModalSplit, h):
    """h*phi1(h J_G) G(u), evaluated in the modal subspace and prolonged."""
    if ms.s == 0:
        return np.zeros(2 * model.ndof)
    gq, gv = _restrict(model, ms, model.eval_F(u))
    return _prolong(ms, *expo.phi1_modal_apply(ms.lam, h, gq, gv))


def beere_step(model, u0, h, ms: ModalSplit, cfg=NewtonConfig(), diag=None):
    """BEERE: u1 = u0 + h H(u1) + h phi1(h J_G) G(u0); cfg=None gives SIERE.
    diag["smw_solves"] counts the SMW solves."""
    comp = _Complement(model, ms)
    u1 = _implicit_stage(comp, u0 + _ere_subspace_term(model, u0, ms, h), h,
                         u0, cfg)
    comp.count(diag)
    return u1


def bdf2ere_step(model, u0, um1, h, ms: ModalSplit, cfg=NewtonConfig(),
                 diag=None):
    """BDF2ERE: ERE on the modal part, BDF2 in H; cfg=None gives SBDF2ERE."""
    comp = _Complement(model, ms)
    ere = _ere_subspace_term(model, u0, ms, h)
    u1 = _implicit_stage(comp, (4.0 * u0 - um1 + 2.0 * ere) / 3.0,
                         2.0 * h / 3.0, u0, cfg)
    comp.count(diag)
    return u1


def _exp_g_apply(model, ms: ModalSplit, c, w):
    """expm(c * J_G) w: identity off the subspace, exact 2x2 blocks on it."""
    if ms.s == 0:
        return w
    yq, yv = _restrict(model, ms, w)
    zq, zv = expo.exp_modal_apply(ms.lam, c, yq, yv)
    return w + _prolong(ms, zq - yq, zv - yv)


def strsbdf2ere_step(model, u0, h, ms: ModalSplit, diag=None):
    """STR-SBDF2ERE: semi-implicit TR-BDF2 on the complement, exact modal
    exponential on the subspace.

    Stage 2 is BDF2 applied to w(t) = expm(-t J_G) u(t) over the nodes
    {0, h/2, h}, mapped back; this keeps subspace modes neutrally stable
    (a stage-2 rhs that treats the modal exponential explicitly is not)
    and reduces to plain STR-SBDF2 at s = 0.
    """
    u_half = _tr_stage(model, u0, 0.25 * h, None, stage=1)

    # modal operations act on deviations from rest; propagating absolute
    # positions would spin the rest geometry through the mode rotation
    u_ref = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    u_prop = u_ref + (4.0 * _exp_g_apply(model, ms, h / 2.0, u_half - u_ref)
                      - _exp_g_apply(model, ms, h, u0 - u_ref)) / 3.0
    # stage 2 solves against the remainder of F past the modal linearization
    comp = _Complement(model, ms, u_ref)
    u1 = _implicit_stage(comp, u_prop, h / 3.0, u_half, None, stage=2)
    comp.count(diag)
    return u1
