"""Method-table wiring: one Advancer step of every method equals a direct
call of that method's public step function; the Advancer's store of stage
factors carries them across steps."""

import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import softdyn as sd
from softdyn import contact, expo, reduction, steppers
from softdyn.driver import METHODS, Advancer, ReductionConfig
from softdyn.steppers import Method, NewtonConfig

H = 0.01
CFG = NewtonConfig()

# Each method's public step function, called directly: (model, u0, um1,
# split) -> u1. SDIRK's two stages share one coefficient, so in a fresh
# Advancer stage 2 starts from stage 1's factor; the direct call gets a
# fresh store too.
DIRECT = {
    Method.BE: lambda m, u, um1, ms: steppers.step_be(m, u, H, CFG),
    Method.SI: lambda m, u, um1, ms: steppers.step_si(m, u, H),
    Method.TR: lambda m, u, um1, ms: steppers.step_tr(m, u, H, CFG),
    Method.BDF2: lambda m, u, um1, ms: steppers.step_bdf2(m, u, um1, H, CFG),
    Method.SBDF2: lambda m, u, um1, ms: steppers.step_sbdf2(m, u, um1, H),
    Method.TRBDF2: lambda m, u, um1, ms: steppers.step_trbdf2(m, u, H, CFG),
    Method.STRBDF2: lambda m, u, um1, ms: steppers.step_strbdf2(m, u, H),
    Method.SDIRK:
        lambda m, u, um1, ms: steppers.step_sdirk(m, u, H, CFG, factors={}),
    Method.SSDIRK: lambda m, u, um1, ms: steppers.step_ssdirk(m, u, H),
    Method.ERE: lambda m, u, um1, ms: expo.ere_step(m, u, H),
    Method.SIERE: lambda m, u, um1, ms: reduction.siere_step(m, u, H, ms),
    Method.BEERE:
        lambda m, u, um1, ms: reduction.beere_step(m, u, H, ms, CFG),
    Method.BDF2ERE:
        lambda m, u, um1, ms: reduction.bdf2ere_step(m, u, um1, H, ms, CFG),
    Method.SBDF2ERE:
        lambda m, u, um1, ms: reduction.sbdf2ere_step(m, u, um1, H, ms),
    Method.STRSBDF2ERE:
        lambda m, u, um1, ms: reduction.strsbdf2ere_step(m, u, H, ms),
}


def _beam():
    mesh = sd.box_mesh(3, 1, 1, 0.3, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    v0 = 0.05 * np.sin(np.arange(model.ndof)) * model.free
    return model, sd.SimState(model.q_rest.copy(), v0, 0.0)


def test_table_covers_every_method():
    assert set(METHODS) == set(Method) == set(DIRECT)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_advancer_step_matches_direct_call(method):
    model, state = _beam()
    adv = Advancer(model, method.value, H, CFG, ReductionConfig(s=3))
    u0, um1 = state.u, None
    if METHODS[method].history == 2:
        state = adv.step(state)
        np.testing.assert_array_equal(state.u,
                                      steppers.step_sdirk(model, u0, H, CFG))
        u0, um1 = state.u, u0
    got = adv.step(state).u
    assert (adv.split is not None) == METHODS[method].modal
    np.testing.assert_array_equal(got, DIRECT[method](model, u0, um1,
                                                      adv.split))


@pytest.mark.parametrize("name", ["NOPE", "TR-BDF2"])
def test_advancer_rejects_unknown_name(name):
    model, _ = _beam()
    with pytest.raises(ValueError):
        Advancer(model, name, H)


def test_run_simulation_attaches_step_and_time(monkeypatch):
    """A StepFailure leaves run_simulation with the index and start time of
    the step that failed."""
    model, state = _beam()
    step = Advancer.step

    def third_fails(adv, st):
        if st.t > 1.5 * H:
            raise steppers.StepFailure("no", residual_norm=1.0, stage=2)
        return step(adv, st)

    monkeypatch.setattr(Advancer, "step", third_fails)
    with pytest.raises(steppers.StepFailure) as ei:
        sd.run_simulation(model, "BE", H, 10 * H, initial=state)
    assert (ei.value.step, ei.value.t, ei.value.stage) == (3, 2 * H, 2)


def _block_in_contact(plane_z):
    """A 0.2 m SNH box over a plane at height plane_z, delta 0.01."""
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    plane = sd.HalfSpace((0, 0, plane_z), (0, 0, 1))
    contact = sd.ContactConfig((plane,), delta=0.01, kappa=100.0, mu=0.3)
    return sd.ForceModel(sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2), mat,
                         sd.RayleighParams(), (0, 0, -9.8), contact)


def test_min_gap_reports_penetration():
    """SI from a box whose bottom face is 5 mm inside a plane stays
    penetrating; min_gap gives the signed gap, not the barrier's clamp."""
    model = _block_in_contact(0.005)
    with pytest.warns(UserWarning, match="penetrating"):
        _, rows = sd.run_simulation(model, "SI", H, 3 * H)
    assert [r["gap_clamps"] for r in rows] == [8, 4, 4]
    for r in rows:
        assert r["min_gap"] == pytest.approx(-0.005, abs=5e-4)


def test_bootstrap_step_reports_contact():
    """The bootstrap step of a history-2 method reports the contact fields
    of its state like every later step."""
    model = _block_in_contact(-0.005)
    frames, rows = sd.run_simulation(model, "BDF2", H, 3 * H)
    fields = {"n_contacts", "min_gap", "max_lambda", "friction_power",
              "gap_clamps"}
    assert rows[0]["bootstrap"] == 1
    assert fields <= set(rows[0]) and fields <= set(rows[1])
    cs = contact.active_set(model.mesh, model.contact, frames[1].q)
    assert rows[0]["n_contacts"] == cs.count > 0
    assert rows[0]["min_gap"] == cs.gaps.min()


NEWTON_ROWS = [m for m, e in METHODS.items() if e.newton and not e.modal]


@pytest.mark.parametrize("method", NEWTON_ROWS, ids=lambda m: m.value)
def test_kept_factors_bit_identical_on_linear(method):
    """On a linear model every stage factor is the same matrix's, so an
    Advancer run, whose store carries the factors across steps, equals
    store-free calls of the public step functions bit for bit."""
    mesh = sd.box_mesh(3, 1, 1, 0.3, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(0.01, 0.1),
                          (0, 0, -9.8), None)
    entry = METHODS[method]
    adv = Advancer(model, method.value, H, CFG)
    state = sd.SimState(model.q_rest.copy(), np.zeros(model.ndof), 0.0)
    u, um1 = state.u, None
    for _ in range(8):
        state = adv.step(state)
        if entry.history == 2 and um1 is None:
            u, um1 = steppers.bootstrap_history(model, u, H, CFG), u
        else:
            u, um1 = entry.step(model, u, um1, H, CFG, None, None), u
        np.testing.assert_array_equal(state.u, u)
    assert adv.factors


def test_contact_onset_refactors_and_converges(monkeypatch):
    """A jump from a free fall to a block 5 mm above a plane and moving
    into it: the factor kept from the free fall stops contracting, so the
    step refactors and lands where a store-free step lands."""
    model = _block_in_contact(-0.05)
    adv = Advancer(model, "BE", H, CFG)
    state = sd.SimState(model.q_rest.copy(), np.zeros(model.ndof), 0.0)
    state = adv.step(adv.step(state))
    kept = adv.factors[H]
    nv = model.mesh.num_vertices
    jump = sd.SimState(model.q_rest + np.tile([0.0, 0.0, -0.045], nv),
                       np.tile([0.0, 0.0, -0.5], nv), state.t)
    splu, calls = spla.splu, []

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped trial states
        got = adv.step(jump).u
        ref = steppers.step_be(model, jump.u, H, CFG)
    assert adv.last_diag["n_contacts"] > 0
    assert calls and adv.factors[H] is not kept
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("method", ["BE", "TRBDF2"])
def test_run_simulation_repeats_bit_for_bit(method):
    """Two runs of one contact scene, each with its own model and factor
    store, give the same frames and diagnostics bit for bit."""
    runs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamped trial states
            frames, rows = sd.run_simulation(_block_in_contact(-0.005),
                                             method, H, 15 * H)
        runs.append((np.array([f.u for f in frames]), rows))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
