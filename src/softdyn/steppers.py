"""Difference time steppers: BE, SI, TR, BDF2, TR-BDF2, SDIRK and their
semi-implicit 'S' variants, plus the simplified Newton solver of their
stages. A semi-implicit method is its implicit twin in one-iteration mode:
its table row is ``partial(twin, cfg=None)``.

Steppers act on any system exposing ``eval_F(u)`` and ``eval_J(u)`` (J may
be dense or sparse). Every implicit stage solves with I - cJ through one
type, the factored solve r -> (I - cJ)^-1 r of ``_shifted_solve``: a system
with ``shifted(u, c)``, as ForceModel, supplies it, and for any other the
assembled I - cJ is factored. A failed stage solve raises StepFailure with
its stage. The step size is kept constant by the caller, and the Newton
step functions take its store of factors, {c: solve} per stage coefficient
c, to start each stage from the last factor under c.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SDIRK_GAMMA = 2.0 - np.sqrt(2.0)
SDIRK_BETA = np.sqrt(2.0) / 4.0

# A one-iteration stage that inflates its residual by more than this warns.
DIVERGENCE_FACTOR = 1e6
# Newton's line search halves the step at most this many times.
MAX_HALVINGS = 30
# Newton keeps a stage's factor while each step shrinks ||g|| to at most
# this fraction of its value.
CONTRACTION_THETA = 0.1


class Method(enum.Enum):
    BE = "BE"
    SI = "SI"
    TR = "TR"
    BDF2 = "BDF2"
    SBDF2 = "SBDF2"
    TRBDF2 = "TRBDF2"
    STRBDF2 = "STRBDF2"
    SDIRK = "SDIRK"
    SSDIRK = "SSDIRK"
    ERE = "ERE"
    SIERE = "SIERE"
    BEERE = "BEERE"
    BDF2ERE = "BDF2ERE"
    SBDF2ERE = "SBDF2ERE"
    STRSBDF2ERE = "STRSBDF2ERE"


@dataclass(frozen=True)
class MethodEntry:
    """One row of the method table, as data. The step function ``fn``
    takes ``(model, u0, [um1,] h, [split,] [newton])``: the previous state
    ``um1`` when ``history`` is 2, the ModalSplit ``split`` when ``modal``
    and the NewtonConfig ``newton`` when ``newton``. A modal row also takes
    the counts dict ``diag`` and a Newton row that is not modal the factor
    store ``factors``, both as keywords. A semi-implicit row's ``fn`` is
    ``partial(twin, cfg=None)``."""

    fn: Callable
    history: int = 1
    modal: bool = False
    newton: bool = False

    def step(self, model, u0, um1, h, newton, split, diag, factors=None):
        """Advance one step by fn, passing the arguments of this row."""
        args = [model, u0, um1, h] if self.history == 2 else [model, u0, h]
        args += [split] if self.modal else []
        args += [newton] if self.newton else []
        if self.modal:
            return self.fn(*args, diag=diag)
        if self.newton:
            return self.fn(*args, factors=factors)
        return self.fn(*args)


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 50
    abs_tol: float = 1e-10
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")


class StepFailure(RuntimeError):
    """Nonlinear or linear solve failure; carries the last iterate."""

    def __init__(self, msg, last_iterate=None, residual_norm=None, stage=None):
        super().__init__(msg)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.stage = stage
        self.step = self.t = None  # run_simulation sets step index, start time


def _factorize(jmat):
    """A solve(rhs) callable for jmat: a callable is already one, a sparse
    matrix is factored by SuperLU and a dense one by LU."""
    if callable(jmat):
        return jmat
    if sp.issparse(jmat):
        return spla.splu(jmat.tocsc()).solve
    lu = scipy.linalg.lu_factor(jmat)
    return lambda r: scipy.linalg.lu_solve(lu, r)


def _shifted_solve(model, u, c):
    """The solve r -> (I - c J(u))^-1 r: ``model.shifted``'s if it has one,
    else the factored I - c J of ``eval_J``, sparse or dense."""
    if hasattr(model, "shifted"):
        return model.shifted(u, c)
    j = model.eval_J(u)
    eye = sp.identity if sp.issparse(j) else np.eye
    return _factorize(eye(j.shape[0]) - c * j)


def _direction(jacobian_fn, solve, u, g, gnorm):
    """(solve, -solve(g)); solve is jacobian_fn(u) factored when None."""
    try:
        if solve is None:
            solve = _factorize(jacobian_fn(u))
        return solve, -solve(g)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise StepFailure(f"linear solve failed: {exc}", u, gnorm) from exc


def _line_search(residual_fn, u, g, du):
    """Halve the step along du until the merit ||g||^2 drops. Returns
    (u_new, g_new, cut), cut when the full step was not taken, or None
    after MAX_HALVINGS halvings."""
    phi0 = np.dot(g, g)
    step = 1.0
    for halvings in range(MAX_HALVINGS + 1):
        u_try = u + step * du
        g_try = residual_fn(u_try)
        if np.dot(g_try, g_try) < phi0 or not np.isfinite(phi0):
            return u_try, g_try, halvings > 0
        step *= 0.5
    return None


def newton_solve(residual_fn, jacobian_fn, guess, cfg: NewtonConfig,
                 solve=None):
    """Simplified Newton with step halving on the merit ||g||^2 (Hairer and
    Wanner, Solving ODEs II, Sec. IV.8).

    ``jacobian_fn(u)`` returns the residual Jacobian, dense or sparse, or
    its factored solve r -> J^-1 r as a callable. It is factored at the
    first iterate, unless ``solve``, a factored solve made earlier, is
    given to start from. A factor is kept while every step contracts the
    residual, ||g_new|| <= CONTRACTION_THETA ||g||, at full length. A step
    that fails the test or that the line search cut refactors at the next
    iterate. A line search exhausted on a kept factor refactors at the
    current iterate and retries. Convergence is judged on the true residual.
    Raises StepFailure on non-convergence, on a failed linear solve, or on
    a line search exhausted from a fresh factor.
    """
    u = np.array(guess, dtype=float)
    g = residual_fn(u)
    g0_norm = np.linalg.norm(g)
    for it in range(cfg.max_iters + 1):
        gnorm = np.linalg.norm(g)
        if gnorm <= cfg.abs_tol or gnorm <= cfg.rel_tol * g0_norm:
            return u
        if it == cfg.max_iters:
            raise StepFailure(f"Newton did not converge ({gnorm:.3e})", u,
                              gnorm)
        kept = solve is not None
        solve, du = _direction(jacobian_fn, solve, u, g, gnorm)
        found = _line_search(residual_fn, u, g, du)
        if found is None and kept:
            solve, du = _direction(jacobian_fn, None, u, g, gnorm)
            found = _line_search(residual_fn, u, g, du)
        if found is None:
            raise StepFailure("line search exhausted", u, gnorm)
        u, g, cut = found
        if cut or np.linalg.norm(g) > CONTRACTION_THETA * gnorm:
            solve = None


def _solve_stage(residual_fn, jacobian_fn, guess, cfg: NewtonConfig | None,
                 stage=None, solve=None):
    """Solve residual_fn(u) = 0 from guess: Newton under cfg, starting from
    the factored solve ``solve`` if given, or with cfg None one undamped
    Newton iteration (one factorization and solve), which warns when it
    inflates the residual g at the guess by over DIVERGENCE_FACTOR; g = 0
    gives no scale, and then nothing is compared. A StepFailure raised
    here or by Newton carries the label stage."""
    if cfg is not None:
        try:
            return newton_solve(residual_fn, jacobian_fn, guess, cfg, solve)
        except StepFailure as exc:
            exc.stage = stage
            raise
    g = residual_fn(guess)
    gnorm = np.linalg.norm(g)
    try:
        u1 = guess - _factorize(jacobian_fn(guess))(g)
        if not np.all(np.isfinite(u1)):
            raise np.linalg.LinAlgError("non-finite state")
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise StepFailure(f"semi-implicit solve failed: {exc}", guess, gnorm,
                          stage) from exc
    if gnorm > 0.0 and (np.linalg.norm(residual_fn(u1))
                        > DIVERGENCE_FACTOR * gnorm):
        warnings.warn("semi-implicit stage increased its residual by > 1e6, "
                      "possible divergence", stacklevel=2)
    return u1


def _implicit_stage(model, base, coeff_h, guess, cfg, stage=None,
                    factors=None):
    """Solve u = base + coeff_h * F(u) from guess by _solve_stage. With a
    store ``factors`` ({coeff_h: solve}), Newton starts from the factor
    kept under coeff_h, and each factor it makes is kept there."""
    def factor(u):
        solve = _shifted_solve(model, u, coeff_h)
        if factors is not None:
            factors[coeff_h] = solve
        return solve

    return _solve_stage(lambda u: u - base - coeff_h * model.eval_F(u),
                        factor, guess, cfg, stage,
                        None if factors is None else factors.get(coeff_h))


def step_be(model, u0, h, cfg: NewtonConfig | None = NewtonConfig(),
            factors=None):
    """Backward Euler: u1 = u0 + h F(u1); cfg=None gives SI."""
    return _implicit_stage(model, u0, h, u0, cfg, factors=factors)


def _tr_stage(model, u0, c, cfg, stage=None, factors=None):
    """Trapezoidal stage of width 2c: u = u0 + c (F(u0) + F(u))."""
    return _implicit_stage(model, u0 + c * model.eval_F(u0), c, u0, cfg, stage,
                           factors)


def _two_stage(model, u0, c1, w, c2, cfg, factors):
    """TR stage U of width 2 c1, then u1 = u0 + w (U - u0) + c2 F(u1)."""
    u_s = _tr_stage(model, u0, c1, cfg, 1, factors)
    return _implicit_stage(model, u0 + w * (u_s - u0), c2, u_s, cfg, 2,
                           factors)


def step_tr(model, u0, h, cfg: NewtonConfig = NewtonConfig(), factors=None):
    """Trapezoidal rule: u1 = u0 + h/2 (F(u1) + F(u0))."""
    return _tr_stage(model, u0, 0.5 * h, cfg, factors=factors)


def step_bdf2(model, u0, um1, h, cfg: NewtonConfig | None = NewtonConfig(),
              factors=None):
    """BDF2: u1 = u0 + (1/3)(u0 - um1 + 2 h F(u1)); cfg=None gives SBDF2."""
    base = u0 + (u0 - um1) / 3.0
    return _implicit_stage(model, base, 2.0 * h / 3.0, u0, cfg,
                           factors=factors)


def step_trbdf2(model, u0, h, cfg: NewtonConfig | None = NewtonConfig(),
                factors=None):
    """TR-BDF2: TR to the midpoint, then BDF2; cfg=None gives STR-BDF2."""
    return _two_stage(model, u0, 0.25 * h, 4.0 / 3.0, h / 3.0, cfg, factors)


def step_sdirk(model, u0, h, cfg: NewtonConfig | None = NewtonConfig(),
               factors=None):
    """Two-stage SDIRK, gamma = 2 - sqrt(2); cfg=None gives SSDIRK. Both
    stages have the coefficient gamma h / 2, so with a store stage 2
    starts from stage 1's factor."""
    g, b = SDIRK_GAMMA, SDIRK_BETA
    return _two_stage(model, u0, 0.5 * g * h, 2.0 * b / g, 0.5 * g * h, cfg,
                      factors)


# The difference methods. driver.METHODS adds the exponential and modal
# ones; no other place lists method names.
METHODS = {
    Method.BE: MethodEntry(step_be, newton=True),
    Method.SI: MethodEntry(partial(step_be, cfg=None)),
    Method.TR: MethodEntry(step_tr, newton=True),
    Method.BDF2: MethodEntry(step_bdf2, history=2, newton=True),
    Method.SBDF2: MethodEntry(partial(step_bdf2, cfg=None), history=2),
    Method.TRBDF2: MethodEntry(step_trbdf2, newton=True),
    Method.STRBDF2: MethodEntry(partial(step_trbdf2, cfg=None)),
    Method.SDIRK: MethodEntry(step_sdirk, newton=True),
    Method.SSDIRK: MethodEntry(partial(step_sdirk, cfg=None)),
}


def bootstrap_history(model, u0, h, cfg: NewtonConfig = NewtonConfig()):
    """Synthesize a two-step method's history: one SDIRK step from u0.
    Returns u1; the caller keeps u0 as the previous state."""
    return step_sdirk(model, u0, h, cfg)
