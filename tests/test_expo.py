"""phi1 and exponential stepping oracles."""

import numpy as np
import pytest
import scipy.linalg

import softdyn as sd
from softdyn import expo


def phi1_reference(z):
    """Taylor-series / solve-based independent reference for phi1."""
    z = np.asarray(z, float)
    n = z.shape[0]
    # series for small norms (the solve form cancels catastrophically there)
    if np.linalg.cond(z) < 1e12 and np.abs(z).max() > 1e-2:
        return np.linalg.solve(z, scipy.linalg.expm(z) - np.eye(n))
    out = np.eye(n)
    term = np.eye(n)
    for k in range(2, 40):
        term = term @ z / k
        out = out + term
    return out


def test_phi1_dense_vs_reference():
    rng = np.random.default_rng(0)
    for scale in (1e-6, 0.1, 1.0, 10.0):
        z = scale * rng.standard_normal((6, 6))
        np.testing.assert_allclose(expo.phi1_dense(z), phi1_reference(z),
                                   rtol=1e-10, atol=1e-12)


def test_phi1_identity_at_zero():
    np.testing.assert_allclose(expo.phi1_dense(np.zeros((4, 4))), np.eye(4),
                               atol=1e-14)


_PHI1_CASES = {
    "random": np.random.default_rng(2).standard_normal((6, 6)),
    "singular": np.diag([0.0, 0.0, -1.0, 2.0, 0.0, 0.5]),
    "oscillatory": np.array([[0.0, 3.0], [-3.0, 0.0]]),
}


@pytest.mark.parametrize("rhs", ["e1", "random"])
@pytest.mark.parametrize("case", list(_PHI1_CASES))
def test_phi1_dense_times_b(case, rhs):
    z = _PHI1_CASES[case]
    k = z.shape[0]
    b = (np.eye(k, 1) if rhs == "e1"
         else np.random.default_rng(3).standard_normal((k, 3)))
    ref = expo.phi1_dense(z) @ b
    got = expo.phi1_dense(z, b)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_krylov_matches_dense():
    rng = np.random.default_rng(1)
    n = 60
    a = rng.standard_normal((n, n))
    a = a - a.T - 0.1 * np.eye(n)  # skew-ish, stable
    w = rng.standard_normal(n)
    h = 0.3
    ref = h * phi1_reference(h * a) @ w
    got = expo.phi1_action_krylov(a, w, h, m=n)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-8


def test_krylov_early_termination():
    # vector confined to a small invariant subspace: happy breakdown
    d = np.diag([-1.0, -2.0, -3.0] + [0.0] * 57)
    w = np.zeros(60)
    w[:3] = [1.0, -1.0, 0.5]
    got = expo.phi1_action_krylov(d, w, 0.5, m=30)
    ref = 0.5 * phi1_reference(0.5 * d) @ w
    assert np.linalg.norm(got - ref) < 1e-10


def test_krylov_budget_warning():
    rng = np.random.default_rng(2)
    n = 80
    a = rng.standard_normal((n, n))
    a = -a @ a.T  # wide spectrum
    w = rng.standard_normal(n)
    with pytest.warns(expo.KrylovWarning):
        expo.phi1_action_krylov(a, w, 10.0, m=3, tol=1e-14)


def test_ere_exact_on_linear():
    from conftest import LinearModel
    m = LinearModel([[0.0, 1.0], [-40.0, -0.3]], [0.0, 2.0])
    u0 = np.array([0.4, -0.1])
    for h in (0.01, 0.1, 1.0):
        got = expo.ere_step(m, u0, h, m=2 + 1)
        ref = m.exact(u0, h)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-8


def test_phi1_modal_oracle():
    # 2x2 blocks of h*phi1(h*A) and expm(h*A) for A = [[0,1],[-lam,0]] vs
    # dense references; exp_modal_apply maps the unit vectors to its columns
    h = 0.37
    for lam in (-25.0, -1e-13, 0.0, 1e-13, 4.0, 900.0):
        a = np.array([[0.0, 1.0], [-lam, 0.0]])
        ref = h * phi1_reference(h * a)
        got = expo.phi1_modal(np.array([lam]), h)[0]
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
        got = np.array(expo.exp_modal_apply(np.array([lam, lam]), h,
                                            np.array([1.0, 0.0]),
                                            np.array([0.0, 1.0])))
        np.testing.assert_allclose(got, scipy.linalg.expm(h * a), rtol=1e-9,
                                   atol=1e-12)


def test_phi1_modal_apply_consistent():
    rng = np.random.default_rng(5)
    lams = np.array([1.0, 50.0, 2000.0])
    gq = rng.standard_normal(3)
    gv = rng.standard_normal(3)
    h = 0.05
    blocks = expo.phi1_modal(lams, h)
    oq, ov = expo.phi1_modal_apply(lams, h, gq, gv)
    for i in range(3):
        ref = blocks[i] @ np.array([gq[i], gv[i]])
        assert np.isclose(oq[i], ref[0], rtol=1e-12)
        assert np.isclose(ov[i], ref[1], rtol=1e-12)
