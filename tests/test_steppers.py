"""Integrator oracles: scalar closed forms, linear-system exactness checks,
order of accuracy, Newton behavior."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as hst
from hypothesis.extra import numpy as hnp

import softdyn as sd
from softdyn import steppers as st
from softdyn.steppers import Method, NewtonConfig, StepFailure

from conftest import LinearModel


class Scalar:
    """u' = lam u."""

    def __init__(self, lam):
        self.lam = lam

    def eval_F(self, u):
        return self.lam * u

    def eval_J(self, u):
        return np.array([[self.lam]])


TIGHT = NewtonConfig(abs_tol=1e-14, rel_tol=1e-15)


def test_be_scalar_closed_form():
    lam, h = -3.0, 0.1
    u1 = st.step_be(Scalar(lam), np.array([2.0]), h, TIGHT)
    assert np.isclose(u1[0], 2.0 / (1 - h * lam), rtol=1e-12)


def test_si_equals_be_on_linear():
    m = LinearModel([[0.0, 1.0], [-50.0, -0.5]], [0.0, 1.0])
    u0 = np.array([0.3, -0.2])
    u_be = st.step_be(m, u0, 0.05, TIGHT)
    u_si = st.step_si(m, u0, 0.05)
    np.testing.assert_allclose(u_be, u_si, atol=1e-10)


def test_tr_scalar_closed_form():
    lam, h = -4.0, 0.2
    u1 = st.step_tr(Scalar(lam), np.array([1.0]), h, TIGHT)
    z = h * lam
    assert np.isclose(u1[0], (1 + z / 2) / (1 - z / 2), rtol=1e-12)


def test_bdf2_scalar_closed_form():
    lam, h = -1000.0, 0.1
    u0, um1 = 1.0, 1.0
    u1 = st.step_bdf2(Scalar(lam), np.array([u0]), np.array([um1]), h, TIGHT)
    ref = (4 * u0 - um1) / (3 - 2 * h * lam)
    assert np.isclose(u1[0], ref, rtol=1e-10)
    assert u1[0] > 0  # L-stable: no sign flip even at stiff lam


def test_sbdf2_equals_bdf2_on_linear():
    m = LinearModel([[0.0, 1.0], [-200.0, -1.0]])
    u0 = np.array([0.5, 0.1])
    um1 = np.array([0.45, 0.12])
    a = st.step_bdf2(m, u0, um1, 0.02, TIGHT)
    b = st.step_sbdf2(m, u0, um1, 0.02)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_trbdf2_stage_closed_form():
    # trapezoidal half stage: (1 + z/4) / (1 - z/4)
    lam, h = -100.0, 1.0
    u1, u_half = st.step_trbdf2(Scalar(lam), np.array([1.0]), h, TIGHT,
                                return_stage=True)
    z = h * lam
    assert np.isclose(u_half[0], (1 + z / 4) / (1 - z / 4), rtol=1e-10)
    ref = (4.0 / 3.0 * u_half[0] - 1.0 / 3.0) / (1 - z / 3)
    assert np.isclose(u1[0], ref, rtol=1e-10)


class SparseLinearModel(LinearModel):
    """LinearModel whose eval_J is sparse."""

    def eval_J(self, u):
        return sp.csr_matrix(self.j)


@hst.composite
def stable_linear_systems(draw):
    """(J, c, u0, um1, h) of a stable u' = J u + c of size 2k: either
    J = S - A A^T - I/10 with S skew, whose symmetric part is negative
    definite, or the damped oscillator J = [[0, I], [-K, -a I - b K]] with
    K = A A^T + I/10 and a, b >= 0, undamped included."""
    k = draw(hst.integers(1, 3))
    mat = hnp.arrays(float, (2 * k, 2 * k), elements=hst.floats(-25.0, 25.0))
    a, s = draw(mat), draw(mat)
    if draw(hst.booleans()):
        j = s - s.T - a @ a.T - 0.1 * np.eye(2 * k)
    else:
        kk = a[:k, :k] @ a[:k, :k].T + 0.1 * np.eye(k)
        damp = (draw(hst.floats(0.0, 1.0)) * np.eye(k)
                + draw(hst.floats(0.0, 0.01)) * kk)
        j = np.block([[np.zeros((k, k)), np.eye(k)], [-kk, -damp]])
    w = draw(hnp.arrays(float, 6 * k, elements=hst.floats(-1.0, 1.0)))
    return j, w[:2 * k], w[2 * k:4 * k], w[4 * k:], draw(hst.floats(1e-3, 0.1))


# The divergence guard compares ||F(u1)|| with ||F(u0)||, which a drawn u0
# near the equilibrium J u + c = 0 makes tiny; this test compares states.
@pytest.mark.filterwarnings("ignore:semi-implicit step increased")
@given(stable_linear_systems())
def test_semi_implicit_matches_on_linear(system):
    """On u' = J u + c one Newton iteration solves each stage exactly, so a
    semi-implicit method equals its implicit twin, with J dense or sparse."""
    j, c, u0, um1, h = system
    for model in (LinearModel(j, c), SparseLinearModel(j, c)):
        for full, semi in (("BE", "SI"), ("BDF2", "SBDF2"),
                           ("TRBDF2", "STRBDF2"), ("SDIRK", "SSDIRK")):
            a, b = (st.METHODS[Method(name)].step(model, u0, um1, h, TIGHT,
                                                   None, None)
                    for name in (full, semi))
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name,order", [
    ("BE", 1), ("SI", 1), ("TR", 2), ("TRBDF2", 2), ("STRBDF2", 2),
    ("SDIRK", 2), ("SSDIRK", 2),
])
def test_order_one_step(name, order):
    m = LinearModel([[0.0, 1.0], [-9.0, -0.4]], [0.0, 1.2])
    u0 = np.array([0.8, -0.3])
    ref = m.exact(u0, 1.0)
    entry = st.METHODS[Method(name)]

    def step(u, um1, h):
        return entry.step(m, u, um1, h, TIGHT, None, None)

    slope = sd.convergence_order(step, u0, 1.0, [0.1, 0.05, 0.025, 0.0125], ref)
    assert abs(slope - order) < 0.1


def test_order_bdf2():
    m = LinearModel([[0.0, 1.0], [-9.0, -0.4]], [0.0, 1.2])
    u0 = np.array([0.8, -0.3])
    ref = m.exact(u0, 1.0)
    errs = []
    h_list = [0.1, 0.05, 0.025, 0.0125]
    for h in h_list:
        n = int(round(1.0 / h))
        # exact history to avoid polluting the order with bootstrap error
        u_cur, u_prev = np.array(u0), m.exact(u0, -h)
        for _ in range(n):
            u_cur, u_prev = st.step_bdf2(m, u_cur, u_prev, h, TIGHT), u_cur
        errs.append(np.linalg.norm(u_cur - ref))
    slope, _ = np.polyfit(np.log(h_list), np.log(errs), 1)
    assert abs(slope - 2) < 0.1


def test_l_stability_probe():
    # |R(z)| -> 0 as z -> -inf for the L-stable family, -> 1 for TR
    z = -1e6
    assert abs(sd.stability_function("BE", z)) < 1e-5
    assert abs(sd.stability_function("TRBDF2", z)) < 1e-4
    assert abs(sd.stability_function("SDIRK", z)) < 1e-4
    assert abs(abs(sd.stability_function("TR", z)) - 1.0) < 1e-4


def test_bootstrap_relabels():
    m = LinearModel([[0.0, 1.0], [-9.0, -0.4]])
    u0 = np.array([1.0, 0.0])
    # the caller relabels: u0 becomes the history and u1 the current state
    u1 = st.bootstrap_history(m, u0, 0.01, TIGHT)
    np.testing.assert_array_equal(u0, [1.0, 0.0])
    np.testing.assert_array_equal(u1, st.step_sdirk(m, u0, 0.01, TIGHT))


def test_newton_quadratic_convergence():
    # residual g(x) = x^2 - 2 from a decent guess: few iterations
    calls = []

    def res(x):
        calls.append(1)
        return np.array([x[0] ** 2 - 2.0])

    def jac(x):
        return np.array([[2.0 * x[0]]])

    x = st.newton_solve(res, jac, np.array([1.0]), NewtonConfig(abs_tol=1e-14))
    assert np.isclose(x[0], np.sqrt(2.0), rtol=1e-12)
    assert len(calls) < 15


def test_newton_line_search_rescues():
    # steep residual where a full step overshoots badly
    def res(x):
        return np.array([np.arctan(x[0])])

    def jac(x):
        return np.array([[1.0 / (1.0 + x[0] ** 2)]])

    x = st.newton_solve(res, jac, np.array([20.0]),
                        NewtonConfig(max_iters=100, abs_tol=1e-12))
    assert abs(x[0]) < 1e-10


def test_newton_reports_failure():
    # x^2 + 1 = 0 has no real root; must raise, not loop forever
    def res(x):
        return np.array([x[0] ** 2 + 1.0])

    def jac(x):
        return np.array([[2.0 * x[0]]])

    with pytest.raises(StepFailure) as ei:
        st.newton_solve(res, jac, np.array([3.0]), NewtonConfig(max_iters=40))
    assert ei.value.residual_norm is not None


def test_divergence_guard():
    class Exploding:
        # huge force with a useless (zero) Jacobian: the linearized solve
        # degenerates to an explicit update that blows up
        def eval_F(self, u):
            return 1e9 * u + 1e9

        def eval_J(self, u):
            return np.array([[0.0]])

    with pytest.warns(UserWarning, match="divergence"):
        st.step_strbdf2(Exploding(), np.array([1.0]), 1.0)


def test_divergence_guard_skips_zero_force_start():
    # F(u0) = 0 at u0 = 0 gives the guard no scale, so SBDF2 stepped from
    # (u0, um1) = (0, e1) on the oscillator raises no warning
    m = LinearModel([[0.0, 1.0], [-100.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u1 = st.step_sbdf2(m, np.zeros(2), np.array([1.0, 0.0]), 0.1)
    assert np.all(np.isfinite(u1))


def test_singular_stage_raises_step_failure():
    # I - c J is singular at these steps: the one-iteration solve raises
    # StepFailure instead of returning inf or nan, and Newton raises it
    # instead of SuperLU's bare RuntimeError
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(StepFailure):
            st.step_si(Scalar(10.0), np.array([1.0]), 0.1)
        with pytest.raises(StepFailure) as ei:
            st.step_strbdf2(Scalar(40.0), np.array([1.0]), 0.1)
    assert ei.value.stage == 1
    np.testing.assert_array_equal(ei.value.last_iterate, [1.0])

    class SparseScalar(Scalar):
        def eval_J(self, u):
            return sp.csr_matrix(super().eval_J(u))

    with pytest.raises(StepFailure):
        st.step_be(SparseScalar(10.0), np.array([1.0]), 0.1)


def test_simplified_newton_linear_is_one_direct_solve(rng):
    # one factor, one full step: the result is the direct solve's, bit for bit
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    at = []

    def jac(u):
        at.append(u.copy())
        return a

    u = st.newton_solve(lambda u: a @ u - b, jac, np.zeros(6), NewtonConfig())
    assert len(at) == 1
    np.testing.assert_array_equal(
        u, scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b))


def test_newton_takes_a_factored_solve_as_jacobian(rng):
    # a callable from jacobian_fn is the factored solve itself: Newton
    # visits the same iterates, bit for bit, as when it factors the matrix
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)

    def jac(u):
        return a + np.diag(1.5 * u ** 2)

    def factored(u):
        lu = scipy.linalg.lu_factor(jac(u))
        return lambda r: scipy.linalg.lu_solve(lu, r)

    runs = []
    for jacobian_fn in (jac, factored):
        visited = []

        def residual(u):
            visited.append(u.copy())
            return a @ u + 0.5 * u ** 3 - b

        u = st.newton_solve(residual, jacobian_fn, np.full(5, 2.0), TIGHT)
        runs.append(np.array(visited + [u]))
    assert len(runs[0]) > 3
    np.testing.assert_array_equal(runs[1], runs[0])


def test_simplified_newton_factors_per_trbdf2_step(monkeypatch):
    mesh = sd.beam_mesh(8, 2, 2, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    splu, calls = spla.splu, []

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    for _ in range(20):
        u = st.step_trbdf2(model, u, 1.0 / 60.0)
    assert len(calls) / 20 <= 3.0  # a fresh factor per iteration gives 5.8


def test_kept_factors_per_advancer_trbdf2_step(monkeypatch):
    # the Advancer's store starts each stage from the last step's factor
    # under its coefficient: 0.85 factors per step here, 2.4 without it
    mesh = sd.beam_mesh(8, 2, 2, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    splu, calls = spla.splu, []

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    adv = sd.Advancer(model, "TRBDF2", 1.0 / 60.0)
    state = sd.SimState(model.q_rest.copy(), np.zeros(model.ndof))
    for _ in range(20):
        state = adv.step(state)
    assert len(calls) / 20 <= 1.25
    assert sorted(adv.factors) == [0.25 / 60.0, 1.0 / 180.0]


def _logged(g, dg):
    """g, dg wrapped to log ("g", x) and ("J", x) per call."""
    log = []

    def res(x):
        log.append(("g", x[0]))
        return np.array([g(x[0])])

    def jac(x):
        log.append(("J", x[0]))
        return np.array([[dg(x[0])]])

    return res, jac, log


def test_simplified_newton_refactors_on_slow_contraction():
    # x^2 - 4 from 3: the full first step only contracts |g| by 0.139 > theta,
    # so the next iterate refactors even though the line search did not cut
    res, jac, log = _logged(lambda x: x * x - 4.0, lambda x: 2.0 * x)
    cfg = NewtonConfig(abs_tol=1e-12, rel_tol=1e-15)
    x = st.newton_solve(res, jac, np.array([3.0]), cfg)
    factored_at = [v for kind, v in log if kind == "J"]
    assert factored_at == [3.0, 3.0 - 5.0 / 6.0]
    assert abs(x[0] * x[0] - 4.0) <= cfg.abs_tol


def test_simplified_newton_refactors_when_kept_direction_ascends():
    # (x + 1/2) x (x - 3) from 1.49: the first step contracts |g| by 80x
    # and lands where g' has flipped sign, so the kept factor's direction
    # raises |g| at every length; the solve refactors there and converges
    res, jac, log = _logged(lambda x: (x + 0.5) * x * (x - 3.0),
                            lambda x: 3.0 * x * x - 5.0 * x - 1.5)
    cfg = NewtonConfig(abs_tol=1e-12, rel_tol=1e-15)
    x = st.newton_solve(res, jac, np.array([1.49]), cfg)
    kinds = [kind for kind, _ in log]
    first, second = [i for i, k in enumerate(kinds) if k == "J"][:2]
    x1 = log[first + 1][1]  # the accepted full step from the first factor
    assert log[second] == ("J", x1)
    assert kinds[first + 2:second] == ["g"] * (st.MAX_HALVINGS + 1)
    assert abs((x[0] + 0.5) * x[0] * (x[0] - 3.0)) <= cfg.abs_tol


def test_start_factor_refactors_when_line_search_exhausted():
    # x^2 - 4 from 3, started from the factor of g' = -4 (taken at x = -2):
    # its direction raises |g| at every length, so Newton refactors at 3
    # after MAX_HALVINGS + 1 trials instead of raising StepFailure
    res, jac, log = _logged(lambda x: x * x - 4.0, lambda x: 2.0 * x)
    cfg = NewtonConfig(abs_tol=1e-12, rel_tol=1e-15)
    x = st.newton_solve(res, jac, np.array([3.0]), cfg,
                        solve=lambda r: r / -4.0)
    kinds = [kind for kind, _ in log]
    assert kinds[:st.MAX_HALVINGS + 3] == ["g"] * (st.MAX_HALVINGS + 2) + ["J"]
    assert log[st.MAX_HALVINGS + 2] == ("J", 3.0)
    assert abs(x[0] * x[0] - 4.0) <= cfg.abs_tol


def test_start_factor_kept_while_it_contracts(rng):
    # a start factor of the exact Jacobian of a linear residual is used
    # as is: no factorization, and the direct solve's result bit for bit
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    lu = scipy.linalg.lu_factor(a)
    at = []
    u = st.newton_solve(lambda u: a @ u - b, lambda u: at.append(u) or a,
                        np.zeros(6), NewtonConfig(),
                        solve=lambda r: scipy.linalg.lu_solve(lu, r))
    assert at == []
    np.testing.assert_array_equal(u, scipy.linalg.lu_solve(lu, b))
