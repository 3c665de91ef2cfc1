"""In-memory span tracer that wraps softdyn's public functions from outside.

Every traced entry point is listed once in ``ENTRY_POINTS``.  ``Tracer.install``
replaces each one at its module attribute with a wrapper that records a span
(name, start, end, parent) and restores the originals on ``uninstall``.
Nothing inside ``src/`` is changed.  Per-layer metrics are derived from the
spans afterwards by ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute path, span name).  Re-exported aliases are listed next
# to their originals: a call made through an alias binding (for example
# ``reduction.newton_solve``, which ``beere_step`` uses) would otherwise be
# missed.  Methods are patched once, on their class, which every alias
# shares.
ENTRY_POINTS = [
    ("softdyn.meshes", "box_mesh", "meshes.build"),
    ("softdyn.meshes", "beam_mesh", "meshes.build"),
    ("softdyn.meshes", "load_mesh", "meshes.build"),
    ("softdyn.scenes", "load_mesh", "meshes.build"),
    ("softdyn", "box_mesh", "meshes.build"),
    ("softdyn", "beam_mesh", "meshes.build"),
    ("softdyn", "load_mesh", "meshes.build"),
    ("softdyn.scenes", "load_scene", "scenes.load"),
    ("softdyn", "load_scene", "scenes.load"),
    ("softdyn.scenes", "build_model", "scenes.build_model"),
    ("softdyn", "build_model", "scenes.build_model"),
    ("softdyn.fem", "stiffness_matrix", "fem.stiffness_matrix"),
    ("softdyn", "stiffness_matrix", "fem.stiffness_matrix"),
    ("softdyn.fem", "elastic_force", "fem.elastic_force"),
    ("softdyn", "elastic_force", "fem.elastic_force"),
    ("softdyn.system", "ForceModel.eval_F", "system.eval_F"),
    ("softdyn.system", "ForceModel.eval_J", "system.eval_J"),
    ("softdyn.steppers", "newton_solve", "steppers.newton_solve"),
    ("softdyn.reduction", "newton_solve", "steppers.newton_solve"),
    ("softdyn", "newton_solve", "steppers.newton_solve"),
    ("scipy.sparse.linalg", "splu", "splu"),
    ("softdyn.reduction", "modal_split", "reduction.modal_split"),
    ("softdyn", "modal_split", "reduction.modal_split"),
    ("softdyn.reduction", "smallest_eigpairs", "reduction.smallest_eigpairs"),
    ("softdyn", "smallest_eigpairs", "reduction.smallest_eigpairs"),
    ("softdyn.reduction", "refresh_split", "reduction.refresh_split"),
    ("softdyn.reduction", "SmwSolver.__init__", "reduction.SmwSolver.build"),
    ("softdyn.reduction", "SmwSolver.solve", "reduction.SmwSolver.solve"),
    ("softdyn.expo", "phi1_modal_apply", "expo.modal_apply"),
    ("softdyn.expo", "exp_modal_apply", "expo.modal_apply"),
    ("softdyn.contact", "active_set", "contact.active_set"),
    ("softdyn.contact", "contact_lambda", "contact.forces"),
    ("softdyn.contact", "contact_force", "contact.forces"),
    ("softdyn.contact", "friction_force", "contact.forces"),
    ("softdyn.contact", "contact_stiffness", "contact.jacobians"),
    ("softdyn.contact", "friction_velocity_jacobian", "contact.jacobians"),
    ("softdyn.driver", "Advancer.step", "driver.Advancer.step"),
    ("softdyn.driver", "run_simulation", "driver.run_simulation"),
    ("softdyn.analysis", "energy_report", "analysis.energy_report"),
    ("softdyn", "energy_report", "analysis.energy_report"),
    ("softdyn.cli", "main", "cli.main"),
]

STEP = "driver.Advancer.step"
# span fields
NAME, START, END, PARENT, ERROR, INFO = range(6)


class _TracedLU:
    """Stands in for a SuperLU factor so that its solves are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span per call; ``info(result)`` is kept on it."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx][ERROR] = True
                raise
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][INFO] = info(result)
            return result

        return traced

    def _wrap_splu(self, fn):
        """splu is attributed to the layer that asked for the factorization:
        ``reduction`` inside an SmwSolver build, ``steppers`` otherwise."""
        by_layer = {layer: self.wrap(layer, fn, info=lambda lu: int(lu.nnz))
                    for layer in ("steppers.splu", "reduction.splu")}

        def traced(*args, **kwargs):
            layer = "steppers.splu"
            if any(self.spans[i][NAME] == "reduction.SmwSolver.build"
                   for i in self._stack):
                layer = "reduction.splu"
            lu = by_layer[layer](*args, **kwargs)
            return _TracedLU(lu, self.wrap(layer + ".solve", lu.solve))

        return traced

    def _wrap_newton(self, fn):
        """Counts Newton iterations and residual evaluations through the
        callables the stepper hands to ``newton_solve``."""
        inner = self.wrap("steppers.newton_solve", fn)

        def traced(residual_fn, jacobian_fn, *args, **kwargs):
            return inner(self.wrap("newton.residual", residual_fn),
                         self.wrap("newton.jacobian", jacobian_fn),
                         *args, **kwargs)

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        """Patch every entry point; those the program lacks go to ``absent``."""
        for modname, attr, name in ENTRY_POINTS:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            if name == "splu":
                new = self._wrap_splu(fn)
            elif name == "steppers.newton_solve":
                new = self._wrap_newton(fn)
            elif name == "contact.active_set":  # keeps whether it clamped
                new = self.wrap(name, fn, lambda cs: bool(cs.penetrating.any()))
            else:
                new = self.wrap(name, fn)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, new)

    def uninstall(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()


def _ms(span):
    return 1e3 * (span[END] - span[START])


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced episode.

    The first step carries the cold set-up work, so per-step figures use the
    steady steps (step 2 onward) only.
    """
    n = len(spans)
    step_of = [-1] * n           # enclosing outermost step span
    children_ms = [0.0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    for i, sp in enumerate(spans):
        p = sp[PARENT]
        if p >= 0:
            children_ms[p] += _ms(sp)
            step_of[i] = step_of[p]
            ancestors[i] = ancestors[p] | {spans[p][NAME]}
        if sp[NAME] == STEP and step_of[i] < 0:
            step_of[i] = i
    first = next((i for i in range(n) if step_of[i] == i), -1)
    steady = [i for i in range(n) if step_of[i] >= 0 and step_of[i] != first]
    per = max(1, sum(1 for i in steady if step_of[i] == i))

    by_name: dict[str, list[int]] = {}
    for i in steady:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def outer(i):
        return spans[i][NAME] not in ancestors[i]

    def calls(name):
        return len(by_name.get(name, []))

    def incl(name):
        return sum(_ms(spans[i]) for i in by_name.get(name, []) if outer(i))

    def self_ms(name):
        return sum(_ms(spans[i]) - children_ms[i] for i in by_name.get(name, []))

    def per_call(name):
        c = calls(name)
        return incl(name) / c if c else 0.0

    def nnz(name):
        vals = [spans[i][INFO] for i in by_name.get(name, [])]
        return int(statistics.median(vals)) if vals else 0

    def episode(name, fn):
        """fn(indices of all that name's spans, set-up included)."""
        return fn([i for i in range(n) if spans[i][NAME] == name])

    def outer_ms(sel):
        return sum(_ms(spans[i]) for i in sel if outer(i))

    def self_sum(sel):
        return sum(_ms(spans[i]) - children_ms[i] for i in sel)

    stiff_in_j = sum(1 for i in by_name.get("fem.stiffness_matrix", [])
                     if "system.eval_J" in ancestors[i])
    newton_calls = calls("steppers.newton_solve")
    iters = calls("newton.jacobian")
    trials = calls("newton.residual") - newton_calls
    post_step = sum(_ms(spans[i]) for i in steady
                    if spans[i][NAME].startswith("contact.")
                    and spans[i][PARENT] >= 0
                    and spans[spans[i][PARENT]][NAME] == STEP)
    return {
        "meshes.build_ms": episode("meshes.build", outer_ms),
        "scenes.load_ms": episode("scenes.load", outer_ms),
        "fem.stiffness_matrix.calls_per_step": calls("fem.stiffness_matrix") / per,
        "fem.stiffness_matrix.ms_per_call": per_call("fem.stiffness_matrix"),
        "fem.stiffness_matrix.ms_per_step": incl("fem.stiffness_matrix") / per,
        "fem.elastic_force.calls_per_step": calls("fem.elastic_force") / per,
        "fem.elastic_force.ms_per_step": incl("fem.elastic_force") / per,
        "system.eval_F.calls_per_step": calls("system.eval_F") / per,
        "system.eval_F.self_ms_per_step": self_ms("system.eval_F") / per,
        "system.eval_J.calls_per_step": calls("system.eval_J") / per,
        "system.eval_J.self_ms_per_step": self_ms("system.eval_J") / per,
        "system.stiffness_per_eval_J":
            stiff_in_j / calls("system.eval_J") if calls("system.eval_J") else 0.0,
        "steppers.newton_solve.calls_per_step": newton_calls / per,
        "steppers.newton_solve.iters_per_step": iters / per,
        "steppers.newton_solve.residual_evals_per_step":
            calls("newton.residual") / per,
        "steppers.newton_solve.ls_accept_ratio": iters / trials if trials else 0.0,
        "steppers.newton_solve.self_ms_per_step":
            self_ms("steppers.newton_solve") / per,
        "steppers.splu.calls_per_step": calls("steppers.splu") / per,
        "steppers.splu.ms_per_call": per_call("steppers.splu"),
        "steppers.splu.nnz": nnz("steppers.splu"),
        "steppers.splu.solves_per_step": calls("steppers.splu.solve") / per,
        "steppers.splu.solve_ms_per_step": incl("steppers.splu.solve") / per,
        "reduction.modal_split.calls_per_step":
            calls("reduction.modal_split") / per,
        "reduction.modal_split.ms_per_call": per_call("reduction.modal_split"),
        "reduction.smallest_eigpairs.ms_per_call":
            per_call("reduction.smallest_eigpairs"),
        "reduction.refresh_split.self_ms_per_step":
            self_ms("reduction.refresh_split") / per,
        "reduction.refresh_fallbacks": episode(
            "reduction.modal_split", lambda sel: sum(
                1 for i in sel if spans[i][ERROR]
                and "reduction.refresh_split" in ancestors[i])),
        "reduction.SmwSolver.builds_per_step":
            calls("reduction.SmwSolver.build") / per,
        "reduction.SmwSolver.build_ms_per_step":
            incl("reduction.SmwSolver.build") / per,
        "reduction.SmwSolver.solves_per_step":
            calls("reduction.SmwSolver.solve") / per,
        "reduction.SmwSolver.solve_ms_per_step":
            incl("reduction.SmwSolver.solve") / per,
        "reduction.splu.ms_per_call": per_call("reduction.splu"),
        "reduction.splu.nnz": nnz("reduction.splu"),
        "expo.modal_apply.ms_per_step": incl("expo.modal_apply") / per,
        "contact.active_set.calls_per_step": calls("contact.active_set") / per,
        "contact.active_set.ms_per_step": incl("contact.active_set") / per,
        "contact.active_set.clamped_calls": episode(
            "contact.active_set", lambda sel: sum(1 for i in sel if spans[i][INFO])),
        "contact.forces.ms_per_step": incl("contact.forces") / per,
        "contact.jacobians.ms_per_step": incl("contact.jacobians") / per,
        "contact.post_step.ms_per_step": post_step / per,
        "driver.Advancer.step.self_ms_per_step": self_ms(STEP) / per,
        "analysis.energy_report.ms": episode("analysis.energy_report", outer_ms),
        "cli.self_ms": episode("cli.main", self_sum),
    }
