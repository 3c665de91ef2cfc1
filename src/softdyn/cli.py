"""Command-line interface: simulate, damping-curves, convergence, eigs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, driver, reduction, scenes, steppers
from .meshes import MeshError
from .steppers import StepFailure

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _parse_grid(spec):
    """lo:hi:npts log-spaced grid."""
    try:
        lo, hi, npts = spec.split(":")
        lo, hi, npts = float(lo), float(hi), int(npts)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}, expected lo:hi:npts") from exc
    if npts == 0:
        return np.zeros(0)
    if lo <= 0 or hi <= lo:
        raise ValueError("grid must satisfy 0 < lo < hi")
    return np.geomspace(lo, hi, npts)


def _write_obj(path, positions):
    with open(path, "w") as f:
        for p in positions.reshape(-1, 3):
            f.write(f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


def cmd_simulate(args):
    sc = scenes.load_scene(args.scene)
    model = scenes.build_model(sc)
    os.makedirs(args.out, exist_ok=True)
    frames, diags = driver.run_simulation(
        model, sc.method, sc.h, sc.duration, sc.newton, sc.reduction,
        cadence=sc.cadence)
    for i, st in enumerate(frames):
        _write_obj(os.path.join(args.out, f"frame_{i:06d}.obj"), st.q)
    rep = analysis.energy_report(model, frames)
    _write_csv(os.path.join(args.out, "energy.csv"),
               ["t", "ke", "pe_elastic", "pe_gravity", "total"],
               [(t, k, e, g, k + e + g) for t, k, e, g in
                zip(rep.t, rep.kinetic, rep.elastic, rep.gravity)])
    keys = sorted({k for d in diags for k in d} - {"step", "t"})
    _write_csv(os.path.join(args.out, "diagnostics.csv"),
               ["step", "t"] + keys,
               [[d["step"], d["t"]] + [d.get(k, "") for k in keys]
                for d in diags])
    return 0


def cmd_damping_curves(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    grid = _parse_grid(args.grid)
    os.makedirs(args.out, exist_ok=True)
    for m in methods:
        curve = analysis.damping_curve(m, grid)
        _write_csv(os.path.join(args.out, f"damping_{curve.method}.csv"),
                   ["method", "omega_h", "d_over_omega"],
                   [(curve.method, wh, d) for wh, d in
                    zip(curve.omega_h, curve.d_over_omega)])
    return 0


def cmd_convergence(args):
    methods = [m.strip().upper() for m in args.methods.split(",") if m.strip()]
    h_list = [float(x) for x in args.h_list.split(",")]
    rng = np.random.default_rng(args.seed)
    u0 = np.array([1.0 + 0.1 * rng.standard_normal(), 0.0])
    c = u0[0] + 0.5

    def exact(t):
        return np.array([0.5 * (np.sin(t) - np.cos(t)) + c * np.exp(-t), t])

    class Rig:
        def eval_F(self, u):
            return np.array([-u[0] + np.sin(u[1]), 1.0])

        def eval_J(self, u):
            return np.array([[-1.0, np.cos(u[1])], [0.0, 0.0]])

    rig = Rig()
    cfg = steppers.NewtonConfig(abs_tol=1e-13, rel_tol=1e-14)
    rows = []
    for m in methods:
        entry = steppers.METHODS.get(steppers.Method(m))
        if entry is None:
            raise ValueError(f"unsupported convergence method {m!r}")

        def step(u, um1, h, entry=entry):
            if entry.history == 2 and um1 is None:
                return steppers.bootstrap_history(rig, u, h, cfg=cfg)[0]
            return entry.step(rig, u, um1, h, cfg, None, None)

        rows.append((m, analysis.convergence_order(step, u0, 1.0, h_list,
                                                   exact)))
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "convergence.csv"),
               ["method", "slope"], rows)
    for m, slope in rows:
        print(f"{m}: slope {slope:.3f}")
    return 0


def cmd_eigs(args):
    sc = scenes.load_scene(args.scene)
    model = scenes.build_model(sc)
    nfree = int(model.free.sum())
    s = min(args.s, nfree)
    u0 = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    try:
        ms = reduction.modal_split(model, u0, s)
    except RuntimeError as exc:  # reported by main like a failed step
        raise StepFailure(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "eigenvalues.csv"),
               ["index", "lambda"], list(enumerate(ms.lam)))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="softdyn")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a scene, write frames and CSVs")
    ps.add_argument("--scene", required=True)
    ps.add_argument("--out", default="out")
    ps.set_defaults(fn=cmd_simulate)

    pd = sub.add_parser("damping-curves", help="sample damping curves to CSV")
    pd.add_argument("--methods", required=True)
    pd.add_argument("--grid", default="0.01:100:64")
    pd.add_argument("--out", default="out")
    pd.set_defaults(fn=cmd_damping_curves)

    pc = sub.add_parser("convergence", help="measure convergence orders")
    pc.add_argument("--methods", required=True)
    pc.add_argument("--h-list", default="0.1,0.05,0.025,0.0125")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default="out")
    pc.set_defaults(fn=cmd_convergence)

    pe = sub.add_parser("eigs", help="smallest generalized eigenvalues")
    pe.add_argument("--scene", required=True)
    pe.add_argument("--s", type=int, default=10)
    pe.add_argument("--out", default="out")
    pe.set_defaults(fn=cmd_eigs)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (scenes.SceneError, MeshError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailure as exc:
        where = ", ".join(f"{a} {getattr(exc, a)}"
                          for a in ("step", "t", "stage", "residual_norm"))
        print(f"numerical failure ({where}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
