"""Simulation driving: one step dispatch through the method table and a
frame-producing run loop with CSV-friendly diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contact as ct
from . import expo, reduction, steppers
from .reduction import ModalSplit, RefreshPolicy
from .steppers import Method, MethodEntry, NewtonConfig, StepFailure
from .system import SimState

# Every method: the difference methods plus the exponential and modal ones.
METHODS = {
    **steppers.METHODS,
    Method.ERE: MethodEntry(expo.ere_step),
    Method.SIERE: MethodEntry(reduction.siere_step, modal=True),
    Method.BEERE: MethodEntry(reduction.beere_step, modal=True, newton=True),
    Method.BDF2ERE: MethodEntry(reduction.bdf2ere_step, history=2,
                                modal=True, newton=True),
    Method.SBDF2ERE: MethodEntry(reduction.sbdf2ere_step, history=2,
                                 modal=True),
    Method.STRSBDF2ERE: MethodEntry(reduction.strsbdf2ere_step, modal=True),
}


@dataclass
class ReductionConfig:
    s: int = 5
    policy: RefreshPolicy = RefreshPolicy.ONCE
    every_n: int = 1

    def __post_init__(self):
        if self.s < 0 or self.every_n < 1:
            raise ValueError("reduction needs s >= 0 and every_n >= 1")


class Advancer:
    """Advances one simulation with a fixed method and step size. It owns
    the run's store of stage factors, {c: solve} per stage coefficient c,
    which the Newton difference rows start each stage from."""

    def __init__(self, model, method: str, h: float,
                 newton: NewtonConfig = NewtonConfig(),
                 red: ReductionConfig | None = None):
        self.model = model
        self.entry = METHODS[Method(method.upper())]
        self.h = h
        self.newton = newton
        self.split: ModalSplit | None = None
        self.red = (red or ReductionConfig()) if self.entry.modal else None
        self.last_diag: dict = {}
        self.factors: dict = {}

    def step(self, state: SimState) -> SimState:
        h, model = self.h, self.model
        u0 = state.u
        um1 = state.history.u if state.history is not None else None
        diag: dict = {}
        clamps = model.gap_clamps
        if self.entry.history == 2 and um1 is None:
            # the bootstrap forward step is the first step of the run; a
            # modal row takes its first split at the step after it
            u1 = steppers.bootstrap_history(model, u0, h, self.newton)
            diag["bootstrap"] = 1
        else:
            if self.entry.modal:
                if self.split is None:
                    red = self.red
                    self.split = reduction.modal_split(
                        model, u0, red.s, red.policy, red.every_n)
                else:
                    self.split = reduction.refresh_split(model, u0, self.split)
                ms = self.split
                diag["s"] = ms.s
                diag["lam_min"] = float(ms.lam.min()) if ms.s else 0.0
                diag["lam_max"] = float(ms.lam.max()) if ms.s else 0.0
                diag["refreshes"] = ms.refresh_count
            u1 = self.entry.step(model, u0, um1, h, self.newton, self.split,
                                 diag, self.factors)

        if self.model.contact is not None:
            n = model.ndof
            q1, v1 = u1[:n], u1[n:]
            cs = model._contact_set(q1)
            diag["n_contacts"] = cs.count
            diag["min_gap"] = float(cs.gaps.min()) if cs.count else np.nan
            lam = ct.contact_lambda(cs, model.contact)
            diag["max_lambda"] = float(lam.max()) if cs.count else 0.0
            ff = ct.friction_force(model.mesh, cs, model.contact, q1, v1)
            diag["friction_power"] = float(np.dot(v1, ff))
            diag["gap_clamps"] = model.gap_clamps - clamps
        self.last_diag = diag
        return SimState.from_u(u1, state.t + h,
                               history=SimState.from_u(u0, state.t))


def run_simulation(model, method, h, duration,
                   newton: NewtonConfig = NewtonConfig(),
                   red: ReductionConfig | None = None,
                   initial: SimState | None = None,
                   cadence: float | None = None,
                   on_step=None):
    """Run for ``duration`` seconds; returns (frames, diagnostics rows).

    Frames are captured every 1/cadence seconds (every step if cadence is
    None). ``on_step(state, diag)`` is called after each step.
    """
    if initial is None:
        q0 = model.q_rest.copy()
        initial = SimState(q0, np.zeros_like(q0), 0.0)
    adv = Advancer(model, method, h, newton, red)
    nsteps = int(round(duration / h))
    frame_every = 1 if cadence is None else max(1, int(round(1.0 / (cadence * h))))
    state = initial
    frames = [state]
    diags = []
    for k in range(nsteps):
        try:
            state = adv.step(state)
        except StepFailure as exc:
            exc.step, exc.t = k + 1, state.t
            raise
        row = {"step": k + 1, "t": state.t}
        row.update(adv.last_diag)
        diags.append(row)
        if on_step is not None:
            on_step(state, adv.last_diag)
        if (k + 1) % frame_every == 0:
            frames.append(state)
    return frames, diags
