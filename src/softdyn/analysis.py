"""Damping-curve extraction, stability probes, energy accounting and
convergence-order measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import steppers
from .steppers import Method, NewtonConfig


@dataclass(frozen=True)
class DampingCurve:
    method: str
    omega_h: np.ndarray
    d_over_omega: np.ndarray


@dataclass(frozen=True)
class EnergyReport:
    t: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    gravity: np.ndarray

    @property
    def total(self):
        return self.kinetic + self.elastic + self.gravity


def amplification(method, omega, h):
    """Companion matrix T advancing q'' + omega^2 q = 0 by one step.

    2x2 for one-step methods, 4x4 block companion for the BDF2 family.
    """
    method = Method(method.upper()) if isinstance(method, str) else method
    j = np.array([[0.0, 1.0], [-omega ** 2, 0.0]])
    eye = np.eye(2)
    if method is Method.ERE:
        return scipy.linalg.expm(h * j)
    if method in (Method.BE, Method.SI):
        return np.linalg.solve(eye - h * j, eye)
    if method is Method.TR:
        return np.linalg.solve(eye - 0.5 * h * j, eye + 0.5 * h * j)
    if method in (Method.TRBDF2, Method.STRBDF2):
        t_half = np.linalg.solve(eye - 0.25 * h * j, eye + 0.25 * h * j)
        return np.linalg.solve(eye - (h / 3.0) * j,
                               (4.0 / 3.0) * t_half - (1.0 / 3.0) * eye)
    if method in (Method.SDIRK, Method.SSDIRK):
        g, b = steppers.SDIRK_GAMMA, steppers.SDIRK_BETA
        t_g = np.linalg.solve(eye - 0.5 * g * h * j, eye + 0.5 * g * h * j)
        return np.linalg.solve(eye - 0.5 * g * h * j,
                               (1.0 - 2.0 * b / g) * eye + (2.0 * b / g) * t_g)
    if method in (Method.BDF2, Method.SBDF2):
        s = np.linalg.solve(eye - (2.0 * h / 3.0) * j, eye)
        t = np.zeros((4, 4))
        t[:2, :2] = (4.0 / 3.0) * s
        t[:2, 2:] = -(1.0 / 3.0) * s
        t[2:, :2] = eye
        return t
    raise ValueError(f"unknown method {method}")


def spectral_radius(t):
    return float(np.abs(np.linalg.eigvals(t)).max())


def damping_coefficient(method, omega, h):
    """d = -(2/h) ln rho(T); 0 for conservative methods, inf if rho = 0."""
    if omega == 0.0:
        return 0.0
    rho = spectral_radius(amplification(method, omega, h))
    if rho == 0.0:
        return np.inf
    return -2.0 / h * np.log(rho)


def damping_curve(method, omega_h_grid, h=1.0) -> DampingCurve:
    """Sample d/omega over a grid of omega*h (the curve depends only on
    the product, so omega = grid/h)."""
    grid = np.asarray(omega_h_grid, dtype=float)
    if grid.size and (np.any(grid <= 0) or np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be positive ascending")
    vals = np.array([damping_coefficient(method, wh / h, h) / (wh / h)
                     for wh in grid])
    name = method.value if isinstance(method, Method) else str(method)
    return DampingCurve(name, grid, vals)


def stability_function(method, z, newton: NewtonConfig | None = None):
    """R(z) probed by running the actual stepper on u' = z u with h = 1."""

    class _Scalar:
        def eval_F(self, u):
            return z * u

        def eval_J(self, u):
            return np.array([[z]])

    cfg = newton or NewtonConfig(abs_tol=1e-13 * max(1.0, abs(z)))
    method = Method(method.upper()) if isinstance(method, str) else method
    entry = steppers.METHODS.get(method)
    if entry is None or entry.history != 1:
        raise ValueError(f"no one-step stability function for {method}")
    u1 = entry.step(_Scalar(), np.array([1.0]), None, 1.0, cfg, None, None)
    return float(u1[0])


def energy_report(model, states) -> EnergyReport:
    """Per-frame kinetic/elastic/gravity energies along a trajectory."""
    from .system import state_energy
    ts, ke, pe, pg = [], [], [], []
    for st in states:
        k, e, g = state_energy(model, st)
        ts.append(st.t)
        ke.append(k)
        pe.append(e)
        pg.append(g)
    return EnergyReport(np.array(ts), np.array(ke), np.array(pe), np.array(pg))


def convergence_order(step_fn, u0, t_end, h_list, reference):
    """Least-squares slope of log error vs log h.

    ``step_fn(u, um1, h)`` advances one step from u, with um1 the state
    before it (None on the first step); ``reference`` is the exact state
    at t_end (array) or a callable t -> array.
    """
    ref = reference(t_end) if callable(reference) else np.asarray(reference)
    errs = []
    for h in h_list:
        n = int(round(t_end / h))
        if abs(n * h - t_end) > 1e-12 * t_end:
            raise ValueError(f"h={h} does not divide t_end={t_end}")
        u, um1 = np.array(u0, dtype=float), None
        for _ in range(n):
            u, um1 = step_fn(u, um1, h), u
        errs.append(np.linalg.norm(u - ref))
    errs = np.array(errs)
    if np.any(errs < 1e-14):
        raise ArithmeticError("error at round-off floor; slope unreliable")
    slope, _ = np.polyfit(np.log(np.asarray(h_list)), np.log(errs), 1)
    return float(slope)
