"""Damping-curve extraction, stability probes, energy accounting and
convergence-order measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver
from .driver import Method


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


class _Linear:
    """u' = J u with constant J: one Newton iteration solves a stage."""

    def __init__(self, j):
        self.j = j

    def eval_F(self, u):
        return self.j @ u

    def eval_J(self, u):
        return self.j


def _step_matrix(method, j, h):
    """One step of a non-modal method on u' = J u as a matrix, built by
    stepping each basis vector through the method table: n x n, or for a
    history-2 method the 2n x 2n companion taking (u0, um1) to (u1, u0)."""
    method = Method(method.upper()) if isinstance(method, str) else method
    entry = driver.METHODS[method]
    if entry.modal:
        raise ValueError(f"{method} is modal: no step matrix")
    rig, n = _Linear(j), len(j)
    basis = np.eye(entry.history * n)
    top = np.column_stack([entry.step(rig, b[:n], b[n:], h, None, None, None)
                           for b in basis])
    return np.vstack([top, basis[:-n]])


def amplification(method, omega, h):
    """Companion matrix T advancing q'' + omega^2 q = 0 by one step of the
    method's own stepper.

    2x2 for one-step methods, 4x4 block companion for the BDF2 family.
    """
    return _step_matrix(method, np.array([[0.0, 1.0], [-omega ** 2, 0.0]]),
                        h)


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


def stability_function(method, z):
    """R(z): one step of the method on u' = z u with h = 1."""
    t = _step_matrix(method, np.array([[z]]), 1.0)
    if t.shape != (1, 1):
        raise ValueError(f"no one-step stability function for {method}")
    return float(t[0, 0])


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
