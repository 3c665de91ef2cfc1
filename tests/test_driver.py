"""Method-table wiring: one Advancer step of every method equals a direct
call of that method's public step function."""

import numpy as np
import pytest

import softdyn as sd
from softdyn import contact, expo, reduction, steppers
from softdyn.driver import METHODS, Advancer, ReductionConfig
from softdyn.steppers import Method, NewtonConfig

H = 0.01
CFG = NewtonConfig()

# Each method's public step function, called directly: (model, u0, um1,
# split) -> u1.
DIRECT = {
    Method.BE: lambda m, u, um1, ms: steppers.step_be(m, u, H, CFG),
    Method.SI: lambda m, u, um1, ms: steppers.step_si(m, u, H),
    Method.TR: lambda m, u, um1, ms: steppers.step_tr(m, u, H, CFG),
    Method.BDF2: lambda m, u, um1, ms: steppers.step_bdf2(m, u, um1, H, CFG),
    Method.SBDF2: lambda m, u, um1, ms: steppers.step_sbdf2(m, u, um1, H),
    Method.TRBDF2: lambda m, u, um1, ms: steppers.step_trbdf2(m, u, H, CFG),
    Method.STRBDF2: lambda m, u, um1, ms: steppers.step_strbdf2(m, u, H),
    Method.SDIRK: lambda m, u, um1, ms: steppers.step_sdirk(m, u, H, CFG),
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
