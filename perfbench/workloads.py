"""The benchmark's workloads: seeded inputs, timed episodes and checks.

An episode is one whole simulation from raw inputs to final outputs: set-up
(mesh or scene, ``ForceModel``, first step), then the steady steps.  A run
repeats episodes while the next one still fits in the measuring time.  The
operations counted in ``attempted`` and ``failed`` are time steps.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import softdyn as sd
from softdyn import cli, driver
from softdyn.reduction import RefreshPolicy
from softdyn.steppers import StepFailure

import checks
from tracer import Tracer, layer_metrics

H_BEAM = 1.0 / 60.0
BEAM = (16, 4, 4, 1.0, 0.25, 0.25)        # cells, then lengths in m
YOUNGS, POISSON, DENSITY = 1e5, 0.4, 1000.0
MATERIAL = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, YOUNGS, POISSON,
                             DENSITY)
GRAVITY = (0.0, 0.0, -9.8)
# Peak speed of the seeded initial velocity field, m/s.
V_AMP = 0.05
BLOCK_STEPS = 60
# Extra set-ups timed per block-drop episode: one takes ~15-20 ms, too short
# to time steadily alone.
BLOCK_SETUPS = 10
# Energy may exceed its initial value by at most this, in J (see README).
ENERGY_TOL = 1e-9


@dataclass
class Episode:
    setups: list = field(default_factory=list)   # set-up times, seconds
    run_s: float = 0.0
    step_s: list = field(default_factory=list)   # steady steps, seconds
    attempted: int = 0
    failures: list = field(default_factory=list)
    states: list = field(default_factory=list)   # accepted, initial first
    traced: bool = False
    extra: dict = field(default_factory=dict)


def _failure(ep, k, exc=None):
    if exc is None:
        ep.failures.append({"step": k, "stage": "non-finite state",
                            "residual": None})
    else:
        ep.failures.append({"step": k, "stage": exc.stage,
                            "residual": exc.residual_norm, "error": str(exc)})


def _finite(state):
    return bool(np.isfinite(state.q).all() and np.isfinite(state.v).all())


# -- clamped beams -----------------------------------------------------------

def beam_velocity(rest, seed):
    """Smooth random velocity, mirror-symmetric about x = L/2 and y = W/2,
    zero on the clamped end faces."""
    _, _, _, lx, ly, lz = BEAM
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, 8)
    xi, eta, zeta = rest[:, 0] / lx, rest[:, 1] / ly - 0.5, rest[:, 2] / lz
    even_x, odd_x = np.sin(np.pi * xi), np.sin(2.0 * np.pi * xi)
    v = np.empty_like(rest)
    v[:, 0] = odd_x * (c[0] + c[1] * eta ** 2 + c[2] * zeta)
    v[:, 1] = even_x * eta * (c[3] + c[4] * zeta)
    v[:, 2] = even_x * (c[5] + c[6] * eta ** 2 + c[7] * zeta)
    v *= V_AMP / np.abs(v).max()
    v[np.isclose(rest[:, 0], 0.0) | np.isclose(rest[:, 0], lx)] = 0.0
    return v.reshape(-1)


def beam_episode(method, red, seed, nsteps):
    ep = Episode()
    t0 = time.perf_counter()
    mesh = sd.beam_mesh(*BEAM)
    t_mesh = time.perf_counter()
    v0 = beam_velocity(mesh.rest_positions, seed)
    t_model = time.perf_counter()
    model = sd.ForceModel(mesh, MATERIAL, sd.RayleighParams(), GRAVITY, None)
    adv = sd.Advancer(model, method, H_BEAM, red=red)
    state = sd.SimState(model.q_rest.copy(), v0, 0.0)
    ep.states.append(state)
    for k in range(1, nsteps + 1):
        ep.attempted += 1
        t = time.perf_counter()
        try:
            state = adv.step(state)
        except StepFailure as exc:
            _failure(ep, k, exc)
            break
        dt = time.perf_counter() - t
        if k == 1:
            ep.setups.append((t_mesh - t0) + (t + dt - t_model))
        else:
            ep.step_s.append(dt)
        if not _finite(state):
            _failure(ep, k)
            break
        ep.states.append(state)
    ep.run_s = time.perf_counter() - t0 - (t_model - t_mesh)
    ep.extra = {"split": adv.split}  # the checks rebuild the mesh
    return ep


def check_beam(episodes, with_eigs):
    lx, ly = BEAM[3], BEAM[4]
    mesh = sd.beam_mesh(*BEAM)
    rest = mesh.rest_positions
    mirrors = [(0, checks.mirror_map(rest, 0, lx)),
               (1, checks.mirror_map(rest, 1, ly))]
    fixed = np.nonzero(np.isclose(rest[:, 0], 0.0) | np.isclose(rest[:, 0], lx))[0]
    energy = checks.Energy(rest, mesh.tets, YOUNGS, POISSON, DENSITY, GRAVITY)
    errs = []
    for ep in episodes:
        errs += checks.mirror_symmetric(rest, ep.states, mirrors, 1e-9)
        errs += checks.dirichlet_at_rest(ep.states, rest, fixed)
        errs += checks.energy_never_rises(energy, ep.states, ENERGY_TOL)
    ep = episodes[-1]
    if with_eigs and len(ep.states) > 1:
        # the last split was computed at the state the last step started from
        k = sd.stiffness_matrix(mesh, MATERIAL, ep.states[-2].q)
        free = np.ones(mesh.num_dofs, bool)
        free[(3 * fixed[:, None] + np.arange(3)).ravel()] = False
        k_ff = k.toarray()[np.ix_(free, free)]
        m_ff = np.diag(energy.mass[free])
        errs += checks.eigenvalues_match(k_ff, m_ff, ep.extra["split"].lam, 1e-8)
    return errs


# -- contact scene through the CLI ----------------------------------------

def block_inputs(root, seed, workdir):
    """Scene and mesh generated from demos/assets/block_drop.json: the block
    is lowered to a seeded height just above the barrier band and gravity
    gets a seeded tilt steeper than the friction angle, so the block lands
    and keeps sliding."""
    assets = os.path.join(root, "demos", "assets")
    with open(os.path.join(assets, "block_drop.json")) as f:
        scene = json.load(f)
    with open(os.path.join(assets, scene["mesh"])) as f:
        lines = f.read().splitlines()
    rng = np.random.default_rng(seed)
    nv, nt = int(lines[0].split()[1]), int(lines[0].split()[3])
    pos = np.array([[float(x) for x in ln.split()] for ln in lines[1:1 + nv]])
    tets = np.array([[int(x) for x in ln.split()]
                     for ln in lines[1 + nv:1 + nv + nt]])
    delta = scene["contact"]["delta"]
    pos[:, 2] += delta * rng.uniform(1.3, 1.5) - pos[:, 2].min()
    tilt = np.radians(rng.uniform(18.0, 20.0))
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    g = float(np.linalg.norm(scene["gravity"]))
    scene["gravity"] = [g * np.sin(tilt) * np.cos(azimuth),
                        g * np.sin(tilt) * np.sin(azimuth), -g * np.cos(tilt)]
    scene["duration"] = BLOCK_STEPS * scene["stepper"]["h"]
    scene["mesh"] = "block.mesh"
    lines[1:1 + nv] = [f"{p[0]!r} {p[1]!r} {p[2]!r}" for p in pos.tolist()]
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "block.mesh"), "w") as f:
        f.write("\n".join(lines) + "\n")
    path = os.path.join(workdir, "scene.json")
    with open(path, "w") as f:
        json.dump(scene, f, indent=1)
    return path, scene, pos, tets


class _StepRecorder:
    """Times each ``Advancer.step`` made inside the CLI and keeps its state."""

    def __init__(self, ep):
        self.ep = ep

    def __enter__(self):
        self.orig = orig = driver.Advancer.step
        ep = self.ep

        def step(adv, state):
            ep.attempted += 1
            t = time.perf_counter()
            try:
                new = orig(adv, state)
            except StepFailure as exc:
                _failure(ep, ep.attempted, exc)
                raise
            if ep.attempted > 1:
                ep.step_s.append(time.perf_counter() - t)
            if not ep.states:
                ep.states.append(state)
            if not _finite(new):
                _failure(ep, ep.attempted)
            ep.states.append(new)
            return new

        driver.Advancer.step = step
        return self

    def __exit__(self, *exc):
        driver.Advancer.step = self.orig


def block_episode(root, seed, workdir):
    scene_path, scene, pos, tets = block_inputs(root, seed, workdir)
    out = os.path.join(workdir, "out")
    shutil.rmtree(out, ignore_errors=True)
    ep = Episode()
    with _StepRecorder(ep):
        t0 = time.perf_counter()
        rc = cli.main(["simulate", "--scene", scene_path, "--out", out])
        ep.run_s = time.perf_counter() - t0
    ep.extra = {"rc": rc, "scene": scene, "scene_path": scene_path, "out": out,
                "rest": pos, "tets": tets, "output_bytes": sum(
                    os.path.getsize(os.path.join(out, f))
                    for f in os.listdir(out))}
    return ep


def block_setups(ep):
    """Set-up as the CLI does it: scene load, model, first step."""
    for _ in range(BLOCK_SETUPS):
        t0 = time.perf_counter()
        sc = sd.load_scene(ep.extra["scene_path"])
        model = sd.build_model(sc)
        adv = sd.Advancer(model, sc.method, sc.h, sc.newton, sc.reduction)
        q0 = model.q_rest.copy()
        adv.step(sd.SimState(q0, np.zeros_like(q0), 0.0))
        ep.setups.append(time.perf_counter() - t0)


def check_block(episodes):
    errs = []
    for ep in episodes:
        scene, out = ep.extra["scene"], ep.extra["out"]
        if ep.extra["rc"] != 0:
            errs.append(f"softdyn simulate exited {ep.extra['rc']}")
            continue
        h = scene["stepper"]["h"]
        con = scene["contact"]
        plane = con["surfaces"][0]
        energy = checks.Energy(
            ep.extra["rest"], ep.extra["tets"], scene["material"]["youngs_modulus"],
            scene["material"]["poisson_ratio"], scene["material"]["density"],
            scene["gravity"], [(plane["point"], plane["normal"])],
            con["kappa"], con["delta"])
        errs += checks.be_free_fall(ep.states, energy.mass, h, scene["gravity"],
                                    con["delta"], 1e-9)
        errs += checks.above_plane(ep.states, np.asarray(plane["point"], float),
                                   np.asarray(plane["normal"], float))
        errs += checks.energy_never_rises(energy, ep.states, ENERGY_TOL)
        frame_every = max(1, round(1.0 / (scene["output_cadence"] * h)))
        errs += checks.cli_outputs(out, BLOCK_STEPS, frame_every, ep.states)
    return errs


# -- the run ---------------------------------------------------------------


def _beam(method, red, nsteps):
    return {"episode": lambda root, seed, workdir: beam_episode(
                method, red, seed, nsteps),
            "check": lambda eps: check_beam(eps, red is not None)}


WORKLOADS = {
    "beam16-trbdf2": _beam("TRBDF2", None, 3),
    "beam16-strsbdf2ere": _beam(
        "STRSBDF2ERE", sd.ReductionConfig(10, RefreshPolicy.EVERY_STEP), 6),
    "block-drop": {"episode": block_episode, "check": check_block,
                   "setups": block_setups},
}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def run(name, seed, seconds, trace, root):
    """Run one workload; returns the result object run.py prints."""
    wl = WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    tracers = []
    episodes = []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    try:
        while True:
            traced = bool(trace) and len(episodes) % 2 == 1
            if traced:
                tracers.append(Tracer())
                tracers[-1].install()
            t = time.perf_counter()
            try:
                ep = wl["episode"](root, seed, workdir)
            finally:
                if traced:
                    tracers[-1].uninstall()
            took = time.perf_counter() - t
            ep.traced = traced
            if peak_rss_mb is None:
                # one whole simulation: later episodes build new meshes,
                # and fem's element-data cache never frees an old one
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not traced and "setups" in wl:
                wl["setups"](ep)
            episodes.append(ep)
            if len(episodes) >= (2 if trace else 1) and \
                    time.perf_counter() + took > deadline:
                break
        errs = wl["check"](episodes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it, or it was never made

    failures = [f for ep in episodes for f in ep.failures]
    for f in failures:
        print(f"FAILED step {f['step']}: stage {f['stage']}, residual "
              f"{f['residual']}: {f.get('error', '')}", file=sys.stderr)
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    plain = [ep for ep in episodes if not ep.traced]
    steps = [s for ep in plain for s in ep.step_s]
    if trace:
        # Per-layer figures come from the first traced episode alone: later
        # episodes of one process start ARPACK from other random vectors,
        # so their factorizations can differ in the last bits.  The others
        # only add samples to the overhead estimate.
        traced = [ep for ep in episodes if ep.traced]
        tracer = tracers[0]
        metrics = layer_metrics(tracer.spans)
        traced_step = _median(s for ep in traced for s in ep.step_s)
        metrics["trace.overhead_pct"] = 100.0 * (traced_step / _median(steps) - 1.0)
        metrics["trace.absent_entry_points"] = len(tracer.absent)
        metrics["cli.output_bytes"] = traced[0].extra.get("output_bytes", 0)
        for a in tracer.absent:
            print(f"trace: entry point {a} is absent", file=sys.stderr)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        h = H_BEAM if name.startswith("beam") else \
            episodes[0].extra["scene"]["stepper"]["h"]
        # throughput per episode, then the median, so that a burst of load
        # from other processes moves one episode's figure only
        rate = [h * len(ep.step_s) / sum(ep.step_s) for ep in plain if ep.step_s]
        out = {
            "setup_s": {"value": _median(s for ep in plain for s in ep.setups),
                        "unit": "s"},
            "step_ms_p50": {"value": 1e3 * _median(steps), "unit": "ms"},
            "sim_s_per_wall_s": {"value": _median(rate),
                                 "unit": "s/s"},
            "run_s": {"value": _median(ep.run_s for ep in plain),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not errs,
            "attempted": sum(ep.attempted for ep in episodes),
            "failed": len(failures), "metrics": out}

