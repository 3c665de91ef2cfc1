"""Damping curves, amplification matrices, convergence measurement."""

import numpy as np
import pytest

import softdyn as sd
from softdyn import analysis

from conftest import LinearModel


def test_be_damping_closed_form():
    # rho(T_BE) = 1/sqrt(1+(wh)^2)  =>  d = (1/h) ln(1+(wh)^2)
    for wh in (0.1, 1.0, 10.0):
        h = 0.25
        w = wh / h
        d = analysis.damping_coefficient("BE", w, h)
        ref = np.log(1.0 + wh ** 2) / h
        assert np.isclose(d, ref, rtol=1e-10)


def test_tr_zero_damping():
    for wh in (0.1, 1.0, 50.0):
        d = analysis.damping_coefficient("TR", wh, 1.0)
        assert abs(d) < 1e-10


def test_ere_zero_damping():
    for wh in (0.1, 1.0, 50.0):
        d = analysis.damping_coefficient("ERE", wh, 1.0)
        assert abs(d) < 1e-8


def test_amplification_matches_stepper():
    # T from the closed form must reproduce one actual step on q'' = -w^2 q
    from softdyn import steppers as st
    w, h = 7.0, 0.05
    m = LinearModel([[0.0, 1.0], [-w * w, 0.0]])
    u0 = np.array([0.3, -1.1])
    cfg = st.NewtonConfig(abs_tol=1e-14)
    cases = {
        "BE": st.step_be(m, u0, h, cfg),
        "TR": st.step_tr(m, u0, h, cfg),
        "TRBDF2": st.step_trbdf2(m, u0, h, cfg),
        "SDIRK": st.step_sdirk(m, u0, h, cfg),
    }
    for name, ref in cases.items():
        t = analysis.amplification(name, w, h)
        np.testing.assert_allclose(t @ u0, ref, atol=1e-10)


def test_bdf2_companion_matches_stepper():
    from softdyn import steppers as st
    w, h = 7.0, 0.05
    m = LinearModel([[0.0, 1.0], [-w * w, 0.0]])
    u0 = np.array([0.3, -1.1])
    um1 = np.array([0.25, -1.0])
    t = analysis.amplification("BDF2", w, h)
    big = t @ np.concatenate([u0, um1])
    ref = st.step_bdf2(m, u0, um1, h, st.NewtonConfig(abs_tol=1e-14))
    np.testing.assert_allclose(big[:2], ref, atol=1e-10)
    np.testing.assert_allclose(big[2:], u0, atol=1e-14)


def test_damping_curve_shape_and_validation():
    grid = np.geomspace(1e-2, 1e2, 16)
    c = sd.damping_curve("SDIRK", grid)
    assert c.omega_h.shape == (16,)
    assert c.d_over_omega.shape == (16,)
    assert np.all(np.isfinite(c.d_over_omega))
    with pytest.raises(ValueError):
        sd.damping_curve("BE", np.array([0.1, 0.05]))  # not ascending
    with pytest.raises(ValueError):
        sd.damping_curve("BE", np.array([-1.0, 1.0]))


def test_stability_function_values():
    assert np.isclose(sd.stability_function("BE", -1.0), 0.5, rtol=1e-10)
    assert np.isclose(sd.stability_function("TR", -2.0), 0.0, atol=1e-12)
    # BE amplification stays positive for real negative z (no ringing)
    assert sd.stability_function("BE", -100.0) > 0


def test_convergence_order_errors():
    m = LinearModel([[-1.0]])
    step = lambda u, um1, h: u / (1.0 - h * -1.0 * 1.0)  # noqa: E731  (BE)
    with pytest.raises(ValueError):
        sd.convergence_order(step, np.array([1.0]), 1.0, [0.3], np.array([0.0]))
    # exact stepper hits the round-off floor and must refuse a slope
    exact = lambda u, um1, h: u * np.exp(-h)  # noqa: E731
    with pytest.raises(ArithmeticError):
        sd.convergence_order(exact, np.array([1.0]), 1.0, [0.1, 0.05],
                             np.array([np.exp(-1.0)]))


def test_energy_report_totals():
    mesh = sd.box_mesh(1, 1, 1, 0.1, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    frames, _ = sd.run_simulation(model, "TR", 0.005, 0.05)
    rep = sd.energy_report(model, frames)
    assert rep.t.shape == rep.total.shape
    # conservative system + conservative method: total nearly constant
    assert np.abs(rep.total - rep.total[0]).max() < 1e-4 * max(
        1.0, np.abs(rep.total[0]))
