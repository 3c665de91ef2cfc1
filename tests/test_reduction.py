"""Modal reduction oracles: eigenpairs, projectors, SMW identity, and the
limits that tie the subspace-split steppers back to SI and ERE."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as spsp
import scipy.sparse.linalg as spla

import softdyn as sd
from softdyn import expo, reduction, steppers
from softdyn.reduction import RefreshPolicy
from softdyn.steppers import Method


def _model(nx=2, ny=1, nz=1, fix="left", damping=(0.0, 0.0), grav=(0, 0, -9.8)):
    mesh = sd.box_mesh(nx, ny, nz, 0.1 * nx, 0.1 * ny, 0.1 * nz, fix=fix)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    return sd.ForceModel(mesh, mat, sd.RayleighParams(*damping), grav, None)


def _rest_u(model):
    return np.concatenate([model.q_rest, np.zeros(model.ndof)])


def test_eigpairs_orthonormal_and_residual():
    rng = np.random.default_rng(0)
    n = 40
    a = rng.standard_normal((n, n))
    k = a + a.T + n * np.eye(n)
    m = np.diag(rng.uniform(0.5, 2.0, n))
    s = 7
    x, lam = sd.smallest_eigpairs(k, m, s)
    np.testing.assert_allclose(x.T @ m @ x, np.eye(s), atol=1e-8)
    res = k @ x - m @ x * lam
    assert np.abs(res).max() < 1e-8 * np.abs(k).max()
    # deterministic sign: largest-magnitude entry positive
    for i in range(s):
        assert x[np.argmax(np.abs(x[:, i])), i] > 0
    # smallest-first ordering against the dense reference
    ref = np.sort(scipy.linalg.eigh(k, m, eigvals_only=True))[:s]
    np.testing.assert_allclose(lam, ref, rtol=1e-10)


def test_eigpairs_large_path():
    # above the dense cutoff the shift-invert branch must agree with dense
    model = _model(7, 3, 3)
    kf = model.stiffness(model.q_rest).toarray()[np.ix_(model.free, model.free)]
    mf = np.diag(model.mass[model.free])
    assert kf.shape[0] > 300
    x, lam = sd.smallest_eigpairs(kf, mf, 6)
    ref = np.sort(scipy.linalg.eigh(kf, mf, eigvals_only=True))[:6]
    np.testing.assert_allclose(lam, ref, rtol=1e-6)


def test_eigpairs_every_pair_above_cutoff():
    """s = n above the dense cutoff, which ARPACK cannot return, takes the
    dense path and gives dense eigh's eigenpairs."""
    rng = np.random.default_rng(3)
    n = reduction.DENSE_EIG_CUTOFF + 1
    a = rng.standard_normal((n, n))
    k = a + a.T + n * np.eye(n)
    mdiag = rng.uniform(0.5, 2.0, n)
    x, lam = sd.smallest_eigpairs(spsp.csr_matrix(k), spsp.diags(mdiag), n)
    ref = scipy.linalg.eigh(k, np.diag(mdiag), eigvals_only=True)
    np.testing.assert_allclose(lam, ref, rtol=1e-10)
    np.testing.assert_allclose(x.T @ (mdiag[:, None] * x), np.eye(n),
                               atol=1e-8)
    assert np.abs(k @ x - mdiag[:, None] * x * lam).max() < 1e-8 * n


def test_modal_split_masks_fixed():
    model = _model()
    ms = reduction.modal_split(model, _rest_u(model), 4)
    fixed = ~model.free
    assert np.abs(ms.x[fixed]).max() == 0.0
    # M-orthonormal over the free block
    gram = ms.x.T @ (model.mass[:, None] * ms.x)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)


def test_projector_idempotent_and_split_sums():
    model = _model()
    rng = np.random.default_rng(4)
    u = _rest_u(model)
    u[:model.ndof] += 0.01 * rng.standard_normal(model.ndof) * model.free
    u[model.ndof:] += 0.1 * rng.standard_normal(model.ndof) * model.free
    ms = reduction.modal_split(model, u, 5)
    f = model.eval_F(u)
    g = reduction.project_G(model, ms, f)
    gg = reduction.project_G(model, ms, g)
    assert np.linalg.norm(g - gg) < 1e-10 * max(1.0, np.linalg.norm(g))
    hs = reduction._Complement(model, ms).eval_F(u)  # H = F - G
    assert np.linalg.norm(g + hs - f) < 1e-12 * max(1.0, np.linalg.norm(f))
    # H is M-orthogonal to the subspace
    n = model.ndof
    assert np.abs(ms.x.T @ (model.mass * hs[:n])).max() < 1e-8


def test_jg_matches_modal_jacobian():
    model = _model()
    u = _rest_u(model)
    ms = reduction.modal_split(model, u, 4)
    # on a modal vector, J_G acts as the 2x2 block [[0,1],[-lam,0]]
    n = model.ndof
    wm = np.zeros(2 * n)
    wm[:n] = ms.x[:, 1]
    wm[n:] = 2.0 * ms.x[:, 1]
    out = reduction._jg_apply(model, ms, wm)
    np.testing.assert_allclose(out[:n], 2.0 * ms.x[:, 1], atol=1e-10)
    np.testing.assert_allclose(out[n:], -ms.lam[1] * ms.x[:, 1], atol=1e-8)


def test_smw_identity():
    rng = np.random.default_rng(9)
    n, s = 50, 4
    a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    y = rng.standard_normal((n, s))
    z = rng.standard_normal((n, s))
    rhs = rng.standard_normal(n)
    ref = np.linalg.solve(a + y @ z.T, rhs)
    got = reduction.SmwSolver(a, y, z).solve(rhs)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-8


def test_smw_h_solver_matches_dense():
    model = _model(3, 1, 1)
    u = _rest_u(model)
    ms = reduction.modal_split(model, u, 5)
    h = 0.02
    n2 = 2 * model.ndof
    jg = np.column_stack([reduction._jg_apply(model, ms, e)
                          for e in np.eye(n2)])
    jh = model.eval_J(u).toarray() - jg
    rng = np.random.default_rng(2)
    solve = reduction._Complement(model, ms).shifted(u, h)
    for _ in range(5):
        rhs = rng.standard_normal(n2)
        ref = np.linalg.solve(np.eye(n2) - h * jh, rhs)
        got = solve(rhs)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-8


def test_siere_s0_equals_si():
    model = _model()
    u = _rest_u(model)
    ms = reduction.modal_split(model, u, 0)
    h = 0.01
    u_red = reduction.beere_step(model, u, h, ms, None)
    u_si = steppers.step_be(model, u, h, None)
    assert np.linalg.norm(u_red - u_si) < 1e-10 * max(1.0, np.linalg.norm(u_si))


def test_siere_full_subspace_equals_ere():
    # undamped model: with s = n_free the H part vanishes and SIERE is ERE
    model = _model(grav=(0, 0, -9.8))
    u = _rest_u(model)
    nfree = int(model.free.sum())
    ms = reduction.modal_split(model, u, nfree)
    h = 0.01
    u_red = reduction.beere_step(model, u, h, ms, None)
    j = model.eval_J(u).toarray()
    ref = u + h * (expo.phi1_dense(h * j) @ model.eval_F(u))
    assert np.linalg.norm(u_red - ref) < 1e-10 * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("semi,full", [("SBDF2ERE", "BDF2ERE"),
                                       ("SIERE", "BEERE")])
def test_semi_implicit_ere_is_one_newton_on_linear(semi, full):
    # linear material: the implicit residual is affine, so a single Newton
    # iteration (the semi-implicit step) is already the exact solution
    mesh = sd.box_mesh(3, 1, 1, 0.3, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    rng = np.random.default_rng(21)
    u0 = _rest_u(model)
    u0[model.ndof:] += 0.05 * rng.standard_normal(model.ndof) * model.free
    um1 = u0.copy()
    um1[:model.ndof] -= 0.001 * model.free
    ms = reduction.modal_split(model, u0, 4)
    h = 0.01
    cfg = steppers.NewtonConfig(abs_tol=1e-13)
    u_semi = sd.METHODS[Method(semi)].step(model, u0, um1, h, cfg, ms, None)
    u_full = sd.METHODS[Method(full)].step(model, u0, um1, h, cfg, ms, None)
    assert (np.linalg.norm(u_semi - u_full)
            < 1e-9 * max(1.0, np.linalg.norm(u_full)))


def test_sbdf2ere_close_to_bdf2ere_nonlinear():
    # nonlinear material: semi-implicit differs only by the quadratic
    # Newton remainder, far smaller than the step itself
    model = _model(3, 1, 1)
    rng = np.random.default_rng(22)
    u0 = _rest_u(model)
    u0[model.ndof:] += 0.05 * rng.standard_normal(model.ndof) * model.free
    um1 = u0.copy()
    ms = reduction.modal_split(model, u0, 4)
    h = 0.01
    semi = reduction.bdf2ere_step(model, u0, um1, h, ms, None)
    full = reduction.bdf2ere_step(model, u0, um1, h, ms,
                                  steppers.NewtonConfig(abs_tol=1e-13))
    assert (np.linalg.norm(semi - full)
            < 0.02 * np.linalg.norm(full - u0))


def test_reduction_steppers_exact_on_linear_modes():
    # undamped linear material, initial condition inside the subspace:
    # the modal part is integrated exactly by every *ERE stepper
    mesh = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, 0), None)
    u0 = _rest_u(model)
    ms = reduction.modal_split(model, u0, 2)
    amp = 1e-4
    u0[:model.ndof] += amp * ms.x[:, 0]
    h = 0.05  # several periods of nothing for the stiff rest
    u1 = reduction.beere_step(model, u0, h, ms, None)
    w = np.sqrt(ms.lam[0])
    qa = amp * np.cos(w * h)
    va = -amp * w * np.sin(w * h)
    n = model.ndof
    got_q = ms.x[:, 0] @ (model.mass * (u1[:n] - model.q_rest))
    got_v = ms.x[:, 0] @ (model.mass * u1[n:])
    assert np.isclose(got_q, qa, rtol=1e-6, atol=1e-12)
    assert np.isclose(got_v, va, rtol=1e-6, atol=1e-10)


def test_strsbdf2ere_s0_is_semi_implicit_trbdf2():
    import scipy.sparse.linalg as spla
    model = _model(3, 2, 2)
    rng = np.random.default_rng(11)
    u0 = _rest_u(model)
    u0[:model.ndof] += 1e-3 * rng.standard_normal(model.ndof) * model.free
    h = 0.05
    ms = reduction.modal_split(model, u0, 0)
    got = reduction.strsbdf2ere_step(model, u0, h, ms)
    # reference: TR half step then BDF2 stage, both with lagged Jacobians
    n2 = 2 * model.ndof
    j0 = model.eval_J(u0)
    ident = spsp.identity(n2, format="csc")
    u_half = u0 + 0.5 * spla.spsolve((ident - (h / 4) * j0).tocsc(),
                                     h * model.eval_F(u0))
    jh = model.eval_J(u_half)
    rhs = (4 * u_half - u0) / 3 - u_half + (h / 3) * model.eval_F(u_half)
    ref = u_half + spla.spsolve((ident - (h / 3) * jh).tocsc(), rhs)
    assert np.linalg.norm(got - ref) < 1e-10 * max(1.0, np.linalg.norm(ref))


class _TwoModes:
    """Unit-mass oscillators q'' = -k q, k = diag(1, -16/h^2): stage 1 of
    STR-SBDF2ERE, I - (h/4) J, is exactly singular on the second mode."""

    ndof = 2
    mass = np.ones(2)
    q_rest = np.zeros(2)

    def __init__(self, h, sparse):
        self.j = np.zeros((4, 4))
        self.j[:2, 2:] = np.eye(2)
        self.j[2:, :2] = -np.diag([1.0, -16.0 / h ** 2])
        self.sparse = sparse

    def eval_F(self, u):
        return self.j @ u

    def eval_J(self, u):
        return spsp.csr_matrix(self.j) if self.sparse else self.j


class _ExplodingSplit:
    """F(u) = 1e9 (u - p) on two unit-mass dofs with a useless (zero)
    Jacobian, so that a one-iteration stage blows its residual up; the
    split keeps the first dof."""

    ndof = 2
    mass = np.ones(2)
    q_rest = np.zeros(2)
    p = np.array([1.0, 1.0, 0.0, 0.0])
    split = reduction.ModalSplit(np.eye(2)[:, :1], np.ones(1))

    def eval_F(self, u):
        return 1e9 * (u - self.p)

    def eval_J(self, u):
        return np.zeros((4, 4))


@pytest.mark.parametrize("name", ["SIERE", "SBDF2ERE", "STRSBDF2ERE",
                                  "BEERE", "BDF2ERE"])
def test_modal_steps_count_smw_solves(name, monkeypatch):
    """diag["smw_solves"] counts the solves of the SMW stage: one per
    semi-implicit step (STR-SBDF2ERE's stage 1 is a plain TR solve, not an
    SMW one) and one per Newton direction of BEERE and BDF2ERE."""
    model = _model(3, 1, 1)
    u0 = _rest_u(model)
    ms = reduction.modal_split(model, u0, 4)
    directions = []
    direction = steppers._direction

    def counted(*args):
        directions.append(1)
        return direction(*args)

    monkeypatch.setattr(steppers, "_direction", counted)
    diag = {}
    sd.METHODS[Method(name)].step(model, u0, u0, 0.01,
                                  steppers.NewtonConfig(), ms, diag)
    assert diag == {"smw_solves": max(1, len(directions))}
    assert name.startswith("S") or len(directions) > 1


def test_siere_divergence_warns():
    model = _ExplodingSplit()
    with pytest.warns(UserWarning, match="divergence"):
        sd.METHODS[Method.SIERE].step(model, np.zeros(4), None, 1.0, None,
                                      model.split, {})


def test_strsbdf2ere_stage_2_divergence_warns():
    # F(p) = 0 gives stage 1 a zero residual at its guess, so only the
    # labelled stage 2, whose guess p has a modal part, is checked and warns
    model = _ExplodingSplit()
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        reduction.strsbdf2ere_step(model, model.p, 1.0, model.split)
    assert len(rec) == 1 and "divergence" in str(rec[0].message)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_strsbdf2ere_singular_stage_1_raises_step_failure(sparse):
    h = 0.1
    ms = reduction.ModalSplit(np.zeros((2, 0)), np.zeros(0))
    u0 = np.array([1.0, 1.0, 0.0, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(steppers.StepFailure) as ei:
            reduction.strsbdf2ere_step(_TwoModes(h, sparse), u0, h, ms)
    assert ei.value.stage == 1


def test_strsbdf2ere_failed_stage_2_raises_step_failure(monkeypatch):
    model = _model()
    u0 = _rest_u(model)
    ms = reduction.modal_split(model, u0, 2)
    monkeypatch.setattr(reduction.SmwSolver, "solve",
                        lambda self, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(steppers.StepFailure) as ei:
        reduction.strsbdf2ere_step(model, u0, 0.01, ms)
    assert ei.value.stage == 2
    assert np.isfinite(ei.value.residual_norm)


def test_strsbdf2ere_modal_accuracy_and_stability():
    # undamped linear material, initial condition on the lowest mode:
    # the subspace exponential keeps the mode neutrally stable over many
    # steps and accurate to the half-stage truncation error
    mesh = sd.box_mesh(3, 2, 2, 0.3, 0.2, 0.2, fix="left")
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, 0), None)
    u0 = _rest_u(model)
    ms = reduction.modal_split(model, u0, 4)
    amp = 1e-4
    w = np.sqrt(ms.lam[0])
    u0[:model.ndof] += amp * ms.x[:, 0]
    h = 0.2 / w  # omega*h = 0.2 on the tracked mode
    n = model.ndof
    u = u0.copy()
    e0 = 0.5 * ms.lam[0] * amp ** 2
    for k in range(50):
        u = reduction.strsbdf2ere_step(model, u, h, ms)
        gq = ms.x[:, 0] @ (model.mass * (u[:n] - model.q_rest))
        gv = ms.x[:, 0] @ (model.mass * u[n:])
        energy = 0.5 * (ms.lam[0] * gq ** 2 + gv ** 2)
        # bounded: per-step growth is O((omega*h)^6) ~ 1e-9 here, versus
        # 1 + (omega*h)^2/12 ~ 1.003 for the explicit-phi1 second stage
        assert energy <= e0 * (1.0 + 1e-7) ** (k + 1)
    t = 50 * h
    exact = amp * np.cos(w * t)
    assert abs(gq - exact) < 0.05 * amp


def test_refresh_keeps_split_when_eigensolve_fails(monkeypatch):
    """A failed eigen refresh warns and gives None; the Advancer then keeps
    its split, the same object, and counts no refresh."""
    model = _model()
    u = _rest_u(model)
    red = sd.ReductionConfig(3, RefreshPolicy.EVERY_STEP)
    adv = sd.Advancer(model, "SIERE", 0.01, red=red)
    state = adv.step(sd.SimState(model.q_rest.copy(),
                                 np.zeros(model.ndof), 0.0))
    ms = adv.split
    x, lam = ms.x.copy(), ms.lam.copy()

    def fails(k, m, s):
        raise RuntimeError("eigensolver did not converge")

    monkeypatch.setattr(reduction, "smallest_eigpairs", fails)
    with pytest.warns(UserWarning, match="eigen refresh failed"):
        assert reduction.refresh_split(model, u, ms) is None
    with pytest.warns(UserWarning, match="eigen refresh failed"):
        adv.step(state)
    assert adv.split is ms
    assert adv.last_diag["refreshes"] == adv.refreshes == 0
    np.testing.assert_array_equal(ms.x, x)
    np.testing.assert_array_equal(ms.lam, lam)


def test_modal_split_counts_negative_eigenvalues():
    """An indefinite K gives its negative eigenvalues first, with a warning
    that counts them."""

    class TwoModes:  # unit masses, K = diag(1, -16)
        ndof = 2
        free = np.ones(2, bool)
        mass = np.ones(2)

        def stiffness(self, q):
            return spsp.diags([1.0, -16.0])

    with pytest.warns(UserWarning, match="1 negative stiffness eigenvalue"):
        ms = reduction.modal_split(TwoModes(), np.zeros(4), 2)
    assert (ms.lam < 0).sum() == 1
    np.testing.assert_allclose(ms.lam, [-16.0, 1.0])
    np.testing.assert_allclose(np.abs(ms.x), [[0.0, 1.0], [1.0, 0.0]])


def test_smw_singular_capacitance_raises():
    """(I + Y Z^T) with Y = e1, Z = -e1 is singular: its capacitance matrix
    1 + Z^T Y is 0, and the solver refuses it."""
    e1 = np.eye(4)[:, :1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        with pytest.raises(steppers.StepFailure, match="singular SMW"):
            reduction.SmwSolver(np.eye(4), e1, -e1)


def test_refresh_at_same_state_reproduces_split():
    """A refresh at the split's own state spans the same subspace (largest
    principal angle in the M inner product) with the same eigenvalues."""
    model = _model()
    u = _rest_u(model)
    ms = reduction.modal_split(model, u, 3)
    ms2 = reduction.refresh_split(model, u, ms)
    sqm = np.sqrt(model.mass)[:, None]
    assert scipy.linalg.subspace_angles(sqm * ms.x, sqm * ms2.x).max() < 1e-8
    assert np.abs(ms2.lam - ms.lam).max() < 1e-6


def test_s_exceeds_free_raises():
    model = _model()
    with pytest.raises(ValueError):
        reduction.modal_split(model, _rest_u(model),
                              int(model.free.sum()) + 1)


def test_sparse_eigensolve_reproducible():
    # above the dense cutoff (396 free dofs) two splits of one state agree
    # bit for bit
    mesh = sd.beam_mesh(12, 3, 2, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)
    assert int(model.free.sum()) > reduction.DENSE_EIG_CUTOFF
    a = reduction.modal_split(model, _rest_u(model), 6)
    b = reduction.modal_split(model, _rest_u(model), 6)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.x, b.x)


def _beam12():
    """A 12x3x2 beam clamped at both ends: 396 free dofs, above the cutoff."""
    mesh = sd.beam_mesh(12, 3, 2, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    return sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8), None)


def test_sparse_eigensolve_factors_once_in_symmetric_mode(monkeypatch):
    """The shift-invert eigensolve factors K - sigma M once, by the
    steppers' symmetric-mode SuperLU call, on the pencil pre-ordered by the
    mesh's fill-reducing order (NATURAL column order)."""
    model = _beam12()
    calls = []
    splu = spla.splu

    def logged(a, **kwargs):
        calls.append(kwargs)
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", logged)
    reduction.modal_split(model, _rest_u(model), 6)
    assert calls == [{"permc_spec": "NATURAL",
                      "options": {"SymmetricMode": True}}]


def test_sparse_eigpairs_match_dense_at_deformed_state():
    """Away from rest the sparse branch gives the dense eigenvalues to
    1e-10 and eigenpairs with small residuals."""
    model = _model(7, 3, 3)
    red = sd.ReductionConfig(s=6, policy=RefreshPolicy.EVERY_STEP)
    frames, _ = sd.run_simulation(model, "STRSBDF2ERE", 0.01, 0.03, red=red)
    free = model.free
    k = model.stiffness(frames[-1].q)
    kf = k.toarray()[np.ix_(free, free)]
    mf = np.diag(model.mass[free])
    assert kf.shape[0] > reduction.DENSE_EIG_CUTOFF
    x, lam = sd.smallest_eigpairs(kf, mf, 6)
    ref = np.sort(scipy.linalg.eigh(kf, mf, eigvals_only=True))[:6]
    np.testing.assert_allclose(lam, ref, rtol=1e-10)
    res = np.linalg.norm(kf @ x - mf @ x * lam, axis=0)
    assert res.max() < 1e-10 * np.linalg.norm(kf, 2)


def test_sparse_strsbdf2ere_runs_are_bit_identical():
    """Two STR-SBDF2ERE runs on the 16x4x4 beam, refreshing the split by
    the sparse eigensolver at every step, agree bit for bit."""
    runs = []
    for _ in range(2):
        mesh = sd.beam_mesh(16, 4, 4, 1.0, 0.25, 0.25)
        mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4,
                                1000.0)
        model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8))
        assert model.free.sum() > reduction.DENSE_EIG_CUTOFF
        red = sd.ReductionConfig(s=10, policy=RefreshPolicy.EVERY_STEP)
        frames, diags = sd.run_simulation(model, "STRSBDF2ERE", 0.01, 0.04,
                                          red=red)
        assert len(frames) == 5 and diags[-1]["refreshes"] == 3
        runs.append((np.array([f.u for f in frames]), diags))
    np.testing.assert_array_equal(runs[1][0], runs[0][0])
    assert runs[1][1] == runs[0][1]


def test_refresh_keeps_split_when_factor_is_singular():
    """A K - sigma M that SuperLU finds exactly singular makes modal_split
    raise RuntimeError; refresh_split then warns and gives None, and the
    Advancer keeps its split."""

    class Diagonal:  # unit masses, K = diag(self.k)
        ndof = 320
        free = np.ones(320, bool)
        mass = np.ones(320)
        k = np.arange(1.0, 321.0)

        def stiffness(self, q):
            return spsp.diags(self.k)

    model = Diagonal()
    u = np.zeros(2 * model.ndof)
    red = sd.ReductionConfig(3, RefreshPolicy.EVERY_STEP)
    adv = sd.Advancer(model, "SIERE", 0.01, red=red)
    adv._update_split(u)  # the split an Advancer step would make first
    ms = adv.split
    x, lam = ms.x.copy(), ms.lam.copy()
    model.k = model.k.copy()
    model.k[5] = reduction.EIG_SHIFT  # K - EIG_SHIFT * M has a zero pivot
    with pytest.raises(RuntimeError, match="exactly singular"):
        reduction.modal_split(model, u, 3)
    with pytest.warns(UserWarning, match="eigen refresh failed"):
        assert reduction.refresh_split(model, u, ms) is None
    with pytest.warns(UserWarning, match="eigen refresh failed"):
        adv._update_split(u)
    assert adv.split is ms and adv.refreshes == 0
    np.testing.assert_array_equal(ms.x, x)
    np.testing.assert_array_equal(ms.lam, lam)
