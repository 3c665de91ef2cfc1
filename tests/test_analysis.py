"""Damping curves, amplification matrices, convergence measurement."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as hst

import softdyn as sd
from softdyn import analysis

from conftest import LinearModel

NON_MODAL = ("BE", "SI", "TR", "BDF2", "SBDF2", "TRBDF2", "STRBDF2", "SDIRK",
             "SSDIRK", "ERE")
CLI_GRID = np.geomspace(1e-2, 1e2, 64)


def closed_form_amplification(method, omega, h):
    """The one-step matrices written out from each method's coefficients,
    independent of the steppers: 2x2, or the 4x4 companion on (u0, um1)
    for the BDF2 family."""
    j = np.array([[0.0, 1.0], [-omega ** 2, 0.0]])
    eye = np.eye(2)
    if method == "ERE":
        return scipy.linalg.expm(h * j)
    if method in ("BE", "SI"):
        return np.linalg.solve(eye - h * j, eye)
    if method == "TR":
        return np.linalg.solve(eye - 0.5 * h * j, eye + 0.5 * h * j)
    if method in ("TRBDF2", "STRBDF2"):
        t_half = np.linalg.solve(eye - 0.25 * h * j, eye + 0.25 * h * j)
        return np.linalg.solve(eye - (h / 3.0) * j,
                               (4.0 / 3.0) * t_half - (1.0 / 3.0) * eye)
    if method in ("SDIRK", "SSDIRK"):
        g, b = 2.0 - np.sqrt(2.0), np.sqrt(2.0) / 4.0
        t_g = np.linalg.solve(eye - 0.5 * g * h * j, eye + 0.5 * g * h * j)
        return np.linalg.solve(eye - 0.5 * g * h * j,
                               (1.0 - 2.0 * b / g) * eye + (2.0 * b / g) * t_g)
    assert method in ("BDF2", "SBDF2")
    s = np.linalg.solve(eye - (2.0 * h / 3.0) * j, eye)
    t = np.zeros((4, 4))
    t[:2, :2] = (4.0 / 3.0) * s
    t[:2, 2:] = -(1.0 / 3.0) * s
    t[2:, :2] = eye
    return t


@pytest.mark.parametrize("method", NON_MODAL)
@given(hst.floats(1e-2, 1e2), hst.sampled_from([0.25, 1.0]))
def test_amplification_matches_closed_form(method, omega_h, h):
    t = analysis.amplification(method, omega_h / h, h)
    ref = closed_form_amplification(method, omega_h / h, h)
    assert np.linalg.norm(t - ref) <= 1e-12 * np.linalg.norm(ref)


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


def test_stability_function_covers_the_table():
    # ERE is in the method table with the exponential and modal rows
    for z in (-3.0, -1.0, -0.01, 0.5):
        assert np.isclose(sd.stability_function("ERE", z), np.exp(z),
                          rtol=1e-12, atol=0.0)
    # two-step and modal rows have no one-step stability function
    for method in ("BDF2", "SIERE"):
        with pytest.raises(ValueError):
            sd.stability_function(method, -1.0)
    with pytest.raises(ValueError):
        sd.amplification("SIERE", 1.0, 0.1)


@pytest.mark.parametrize("method", NON_MODAL)
def test_damping_curve_runs_without_warnings(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = sd.damping_curve(method, CLI_GRID)
    assert np.all(np.isfinite(curve.d_over_omega))


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
