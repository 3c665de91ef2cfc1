"""First-order form: recomposition identity, Jacobian vs FD, spectrum, and
the n-space solve of I - cJ against the 2n block system."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import softdyn as sd
from softdyn import contact, reduction, steppers

from conftest import perturb


@pytest.fixture
def model(beam):
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    return sd.ForceModel(beam, mat, sd.RayleighParams(0.01, 0.5),
                         (0, 0, -9.8), None)


def rand_state(model, rng, vel_scale=0.1):
    q = perturb(model.mesh, rng, 0.03)
    v = vel_scale * rng.standard_normal(q.size)
    u = np.concatenate([q, v])
    # respect Dirichlet: fixed dofs at rest, zero velocity
    n = model.ndof
    u[:n] = np.where(model.free, u[:n], model.q_rest)
    u[n:] = np.where(model.free, u[n:], 0.0)
    return u


def test_recomposition_identity(model, rng):
    """F(u) and J(u) u share the position block: both are the masked v."""
    n = model.ndof
    for _ in range(5):
        u = rand_state(model, rng)
        f = model.eval_F(u)[:n]
        ju = (model.eval_J(u) @ u)[:n]
        assert np.linalg.norm(f - ju) < 1e-10 * max(1.0, np.linalg.norm(f))


def test_jacobian_vs_fd(beam, rng):
    # mass-proportional damping only: the q-derivative of K(q) v through
    # stiffness-proportional damping is deliberately lagged in eval_J
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(beam, mat, sd.RayleighParams(0.0, 0.5),
                          (0, 0, -9.8), None)
    u = rand_state(model, rng)
    j = model.eval_J(u).toarray()
    eps = 1e-6
    jfd = np.zeros_like(j)
    free2 = np.concatenate([model.free, model.free])
    for i in np.nonzero(free2)[0]:  # fixed dofs are held constant
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        jfd[:, i] = (model.eval_F(up) - model.eval_F(um)) / (2 * eps)
    assert np.abs(j - jfd).max() < 1e-4 * max(1.0, np.abs(jfd).max())


def _fd_columns(model, u, cols, eps):
    """Central differences of eval_F over the given columns of u."""
    out = np.zeros((u.size, u.size))
    for i in cols:
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        out[:, i] = (model.eval_F(up) - model.eval_F(um)) / (2 * eps)
    return out


def test_jacobian_vs_fd_with_contact_and_friction(rng):
    """eval_J with barrier contact on a plane and a sphere and sliding
    friction: the q-block matches FD of F with friction's q-dependence
    lagged (its frames and normal forces frozen), the v-block matches FD.
    Vertex 2 touches both surfaces; the fixed vertex 0 lies inside the
    plane's barrier band, and its blocks are dropped."""
    cube = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1)
    mesh = sd.TetMesh(cube.rest_positions, cube.tets, [0],
                      cube.surface_vertices)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e4, 0.4, 1000.0)
    plane = sd.HalfSpace((0, 0, -0.004), (0, 0, 1))
    out = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
    ball = sd.Sphere(mesh.rest_positions[2] + 0.11 * out, 0.105)

    def build(mu):
        return sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8),
                             sd.ContactConfig((plane, ball), 0.01, 100.0, mu))

    model, lagged = build(0.4), build(0.0)
    n = model.ndof
    q = model.q_rest + 5e-4 * rng.uniform(-1, 1, n)
    q[:3] = model.q_rest[:3]
    v = np.where(model.free, 1e-3 * rng.standard_normal(n), 0.0)
    u = np.concatenate([q, v])
    cs = model._contact_set(q)
    assert 0 in cs.vertices and list(cs.vertices).count(2) == 2
    assert not cs.penetrating.any()
    free = np.flatnonzero(model.free)

    j = model.eval_J(u).toarray()
    jq = _fd_columns(lagged, u, free, 1e-7)[:, :n]
    jv = _fd_columns(model, u, n + free, 1e-9)[:, n:]
    scale = np.abs(j).max()
    assert np.abs(j[:, :n] - jq).max() < 1e-6 * scale
    assert np.abs(j[:, n:] - jv).max() < 1e-6 * scale
    # the lagged form: friction adds nothing to the q-block, whose exact
    # q-derivative (FD of the friction model itself) does differ
    np.testing.assert_array_equal(j[:, :n], lagged.eval_J(u).toarray()[:, :n])
    full_q = _fd_columns(model, u, free, 1e-7)[:, :n]
    assert np.abs(full_q - jq).max() > 1e-3 * scale
    # the fixed vertex's rows and columns stay empty
    fixed = np.r_[0:3, n:n + 3]
    assert not j[fixed].any() and not j[:, fixed].any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_jacobian_vs_fd_with_rayleigh(seed, material):
    """eval_J on seeded random small meshes (box meshes with perturbed rest
    positions) under Rayleigh (alpha, beta) > 0, at a random state. The
    v-block (both row blocks) matches central FD of eval_F in full. The
    q-block matches FD of the alpha = 0 twin: eval_J lags the q-derivative
    of alpha K(q) v. That lag is checked against its lagged form, not FD:
    the q-block is the twin's, bit for bit, and for the linear material,
    whose K is constant, it also matches FD of the model itself."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = rng.integers(1, 3, 3)
    box = sd.box_mesh(nx, ny, nz, 0.1 * nx, 0.1 * ny, 0.1 * nz, fix="left")
    rest = box.rest_positions + 0.01 * rng.uniform(-1, 1,
                                                   (box.num_vertices, 3))
    mesh = sd.TetMesh(rest, box.tets, box.fixed_vertices, box.surface_vertices)
    alpha, beta = rng.uniform(0.005, 0.02), rng.uniform(0.1, 1.0)

    def build(a):
        return sd.ForceModel(mesh, material, sd.RayleighParams(a, beta),
                             (0, 0, -9.8), None)

    model, twin = build(alpha), build(0.0)
    u = rand_state(model, rng)
    n, free = model.ndof, np.flatnonzero(model.free)
    j = model.eval_J(u).toarray()
    scale = np.abs(j).max()
    jv = _fd_columns(model, u, n + free, 1e-6)[:, n:]
    assert np.abs(j[:, n:] - jv).max() < 1e-8 * scale
    jq = _fd_columns(twin, u, free, 1e-7)[:, :n]
    assert np.abs(j[:, :n] - jq).max() < 1e-8 * scale
    np.testing.assert_array_equal(j[:, :n], twin.eval_J(u).toarray()[:, :n])
    full_q = _fd_columns(model, u, free, 1e-7)[:, :n]
    lag = np.abs(full_q - jq).max()
    if material.model is sd.Material.LINEAR:
        assert lag < 1e-8 * scale
    else:
        assert lag > 1e-3 * scale


def test_fixed_dofs_static(model):
    u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    f = model.eval_F(u)
    fixed = ~model.free
    assert np.abs(f[:model.ndof][fixed]).max() == 0.0
    assert np.abs(f[model.ndof:][fixed]).max() == 0.0


def test_undamped_spectrum_imaginary():
    """Without damping, eigenvalues of J at rest are +-i*sqrt(lambda_i)."""
    mesh = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1, fix="left")
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, 0), None)
    u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    j = model.eval_J(u).toarray()
    free2 = np.concatenate([model.free, model.free])
    jf = j[np.ix_(free2, free2)]
    ev = np.linalg.eigvals(jf)
    assert np.abs(ev.real).max() < 1e-6 * np.abs(ev).max()
    # generalized stiffness eigenvalues
    _, lam = sd.smallest_eigpairs(
        model.stiffness(model.q_rest).toarray()[np.ix_(model.free, model.free)],
        np.diag(model.mass[model.free]),
        int(model.free.sum()))
    ref = np.sort(np.concatenate([np.sqrt(lam), -np.sqrt(lam)]))
    got = np.sort(ev.imag)
    np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-8)


def test_rayleigh_damping_combination(beam):
    """D = alpha K + beta M (alpha multiplies K, beta M): eval_J's velocity
    block is -M^-1 D on the free dofs."""
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.3, 1000.0)
    model = sd.ForceModel(beam, mat, sd.RayleighParams(0.01, 0.3))
    n, free = model.ndof, np.ix_(model.free, model.free)
    jd = model.eval_J(np.concatenate([model.q_rest, np.zeros(n)])).toarray()
    d = 0.01 * model.stiffness(model.q_rest).toarray() + 0.3 * np.diag(model.mass)
    ref = -(d / model.mass[:, None])[free]
    assert np.abs(jd[n:, n:][free] - ref).max() < 1e-12 * np.abs(ref).max()


def test_state_energy_components(model):
    st = sd.SimState(model.q_rest.copy(), np.zeros(model.ndof), 0.0)
    ke, pe, pg = sd.state_energy(model, st)
    assert ke == 0.0
    assert abs(pe) < 1e-10
    # gravity reference: -sum m_i g . q_i
    v = np.ones(model.ndof)
    st2 = sd.SimState(model.q_rest.copy(), v, 0.0)
    ke2, _, _ = sd.state_energy(model, st2)
    assert np.isclose(ke2, 0.5 * model.mass.sum())


def test_simstate_u_roundtrip(model, rng):
    u = rand_state(model, rng)
    st = sd.SimState.from_u(u, 1.5)
    np.testing.assert_array_equal(st.u, u)
    assert st.t == 1.5


@pytest.mark.parametrize("rayleigh", [(0.0, 0.0), (0.0, 20.0)],
                         ids=["undamped", "mass-damped"])
def test_stiffness_assembled_once_per_eval_J(beam, rng, monkeypatch, rayleigh):
    """eval_J builds Rayleigh D from the K it assembles; eval_F assembles
    no K when the Rayleigh term is mass-proportional only."""
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(beam, mat, sd.RayleighParams(*rayleigh),
                          (0, 0, -9.8), None)
    calls = []
    assemble = sd.fem.stiffness_matrix
    monkeypatch.setattr(sd.fem, "stiffness_matrix",
                        lambda *a: calls.append(1) or assemble(*a))
    u = rand_state(model, rng)
    model.eval_J(u)
    assert len(calls) == 1
    calls.clear()
    model.eval_F(u)
    assert len(calls) == 0


@pytest.mark.parametrize("method, calls", [("SI", 2), ("SBDF2", 2),
                                           ("STRBDF2", 3), ("SSDIRK", 3)])
def test_divergence_guard_reuses_force_at_u0(model, rng, monkeypatch,
                                             method, calls):
    """Each one-iteration stage checks its residual at its new iterate,
    and the next stage's (or step's) residual there takes that force from
    the model's memo: one elastic force call per distinct configuration
    (u0, each stage, u1)."""
    log = []
    force = sd.fem.elastic_force
    monkeypatch.setattr(sd.fem, "elastic_force",
                        lambda *a: log.append(1) or force(*a))
    u0, um1 = rand_state(model, rng), rand_state(model, rng)
    sd.METHODS[sd.Method(method)].step(model, u0, um1, 1e-3, None, None, None)
    assert len(log) == calls


def _record_configurations(monkeypatch):
    """Patch the kernels that depend on the configuration q alone so that
    each call logs its q; returns {kernel name: [q bytes, ...]}."""
    logs = {}
    for module, name in [(sd.fem, "elastic_force"),
                         (sd.fem, "stiffness_matrix"),
                         (sd.contact, "active_set")]:
        log = logs.setdefault(name, [])

        def recorded(mesh, params, q, kernel=getattr(module, name), log=log):
            log.append(np.asarray(q).tobytes())
            return kernel(mesh, params, q)

        monkeypatch.setattr(module, name, recorded)
    return logs


@pytest.mark.parametrize("case", ["trbdf2", "be-contact"])
def test_each_configuration_evaluated_once(beam, rng, monkeypatch, case):
    """One step computes the elastic force, the stiffness and the contact
    set at most once per distinct configuration, post-step diagnostics
    included."""
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    if case == "trbdf2":
        model = sd.ForceModel(beam, mat, sd.RayleighParams(), (0, 0, -9.8))
        u = rand_state(model, rng, 0.1)
        method = "TRBDF2"
    else:
        # the bottom face starts inside the barrier support
        plane = sd.HalfSpace((0, 0, -0.005), (0, 0, 1))
        contact = sd.ContactConfig((plane,), delta=0.01, kappa=100.0, mu=0.3)
        model = sd.ForceModel(sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2), mat,
                              sd.RayleighParams(), (0, 0, -9.8), contact)
        u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
        method = "BE"
    logs = _record_configurations(monkeypatch)
    adv = sd.Advancer(model, method, 0.01)
    adv.step(sd.SimState.from_u(u))
    for name, log in logs.items():
        assert len(log) == len(set(log)), name
    assert len(logs["elastic_force"]) >= 3
    assert len(logs["stiffness_matrix"]) >= 2
    if case == "be-contact":
        assert adv.last_diag["n_contacts"] > 0
        assert len(logs["active_set"]) >= 2


def test_gap_clamps_counted_once_per_configuration():
    """The clamped contacts of a configuration count once, however often F
    is evaluated there, and an Advancer step reports the clamps of the
    contact sets it computed."""
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    plane = sd.HalfSpace((0, 0, 0.005), (0, 0, 1))  # above the bottom face
    contact = sd.ContactConfig((plane,), delta=0.01, kappa=100.0)

    def block():
        return sd.ForceModel(sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2), mat,
                             sd.RayleighParams(), (0, 0, -9.8), contact)

    model = block()
    u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    with pytest.warns(UserWarning, match="4 penetrating"):
        model.eval_F(u)
    model.eval_F(u)
    assert model.gap_clamps == 4

    # SI from u0 stays penetrating: its first step computes the sets of
    # u0 and u1, its second only that of u2
    model = block()
    adv = sd.Advancer(model, "SI", 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = adv.step(sd.SimState.from_u(u))
        assert adv.last_diag["gap_clamps"] == 8
        adv.step(state)
    assert adv.last_diag["gap_clamps"] == 4
    assert model.gap_clamps == 12


def test_linear_stiffness_keeps_canonical_pattern(beam, rng):
    """The linear material's constant K stays on the mesh's canonical
    pattern, entries whose element contributions cancel included, so the
    factor pattern's maps apply to it; its force is -K (q - q_rest)."""
    mat = sd.MaterialParams(sd.Material.LINEAR, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(beam, mat, sd.RayleighParams(), (0, 0, -9.8))
    q = rand_state(model, rng)[:model.ndof]
    k = model.stiffness(q)
    snh = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    ref = sd.stiffness_matrix(beam, snh, q)
    np.testing.assert_array_equal(k.indptr, ref.indptr)
    np.testing.assert_array_equal(k.indices, ref.indices)
    assert k.nnz > k.count_nonzero()
    np.testing.assert_array_equal(model.elastic_force(q),
                                  -(k @ (q - model.q_rest)))


def _contact_model(mesh, material, rayleigh=(0.0, 0.0)):
    """The bottom face starts inside the barrier support of a plane."""
    mat = sd.MaterialParams(sd.Material(material), 1e5, 0.4, 1000.0)
    plane = sd.HalfSpace((0, 0, -0.005), (0, 0, 1))
    contact = sd.ContactConfig((plane,), delta=0.01, kappa=100.0, mu=0.3)
    return sd.ForceModel(mesh, mat, sd.RayleighParams(*rayleigh),
                         (0, 0, -9.8), contact)


def test_contact_terms_computed_once_per_set(monkeypatch):
    """In a BE step on a contact scene the normal forces (barrier_grad) and
    the tangent frames are computed once per contact set, though eval_F,
    the factor and the step's diagnostics each use the set again."""
    calls = dict.fromkeys(["active_set", "_tangent_frame", "barrier_grad",
                           "friction_force", "contact_stiffness",
                           "friction_velocity_jacobian"], 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(contact, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(contact, name, counted)
    model = _contact_model(sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2),
                           "stable_neo_hookean")
    u = np.concatenate([model.q_rest, 0.01 * np.ones(model.ndof)])
    adv = sd.Advancer(model, "BE", 0.01)
    adv.step(sd.SimState.from_u(u))
    sets = calls["active_set"]
    assert adv.last_diag["n_contacts"] > 0 and sets >= 2
    assert calls["_tangent_frame"] == calls["barrier_grad"] == sets
    # every set is used more than once: by eval_F and the diagnostics
    # (friction_force), and the factor's sets by both Jacobian kernels
    assert calls["friction_force"] > sets
    assert calls["contact_stiffness"] == calls["friction_velocity_jacobian"] >= 1


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2),
       st.sampled_from([m.value for m in sd.Material]),
       st.floats(1e-4, 0.1), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_shifted_solve_matches_block_system(nx, ny, nz, material, c, k, seed):
    """The n-space solve of (I - cJ) x = r equals a solve with the 2n
    block matrix, with Rayleigh damping, contact and friction active."""
    rng = np.random.default_rng(seed)
    mesh = sd.box_mesh(nx, ny, nz, 0.1 * nx, 0.1 * ny, 0.1 * nz, fix="left")
    model = _contact_model(mesh, material, rng.uniform(0.001, 0.05, 2)
                           * (1.0, 100.0))
    n = model.ndof
    u = np.concatenate([model.q_rest + 1e-3 * rng.uniform(-1, 1, n),
                        0.1 * rng.standard_normal(n)])
    assert model._contact_set(u[:n]).count > 0
    assert not model._contact_set(u[:n]).penetrating.any()
    ref = spla.splu((sp.identity(2 * n) - c * model.eval_J(u)).tocsc())
    solve = model.shifted(u, c)
    for shape in (2 * n, (2 * n, 1), (2 * n, k)):
        r = rng.standard_normal(shape)
        x, x_ref = solve(r), ref.solve(r)
        assert x.shape == r.shape
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _record_factorizations(monkeypatch):
    """Log the shape of every SuperLU factorization and count eval_J."""
    log = {"splu": [], "eval_J": 0}
    splu, eval_j = spla.splu, sd.ForceModel.eval_J

    def recorded_splu(a, *args, **kwargs):
        log["splu"].append(a.shape)
        return splu(a, *args, **kwargs)

    def counted_eval_j(self, u):
        log["eval_J"] += 1
        return eval_j(self, u)

    monkeypatch.setattr(spla, "splu", recorded_splu)
    monkeypatch.setattr(sd.ForceModel, "eval_J", counted_eval_j)
    return log


@pytest.mark.parametrize("method", ["TRBDF2", "STRSBDF2ERE", "BE-contact"])
def test_force_model_factors_only_free_block(beam, rng, monkeypatch, method):
    """A ForceModel step factors n_free x n_free matrices only, and never
    assembles the 2n block Jacobian."""
    if method == "BE-contact":
        model = _contact_model(sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2),
                               "stable_neo_hookean")
        u = np.concatenate([model.q_rest, np.zeros(model.ndof)])
    else:
        mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4,
                                1000.0)
        model = sd.ForceModel(beam, mat, sd.RayleighParams(0.01, 0.5),
                              (0, 0, -9.8))
        u = rand_state(model, rng)
        u[:model.ndof] = model.q_rest  # a positive definite K for the split
    adv = sd.Advancer(model, method.split("-")[0], 0.01,
                      red=sd.ReductionConfig(s=4))
    log = _record_factorizations(monkeypatch)
    adv.step(sd.SimState.from_u(u))
    nfree = int(model.free.sum())
    assert log["splu"] and set(log["splu"]) == {(nfree, nfree)}
    assert log["eval_J"] == 0
    if method == "BE-contact":
        assert adv.last_diag["n_contacts"] > 0


def _logged_splu(monkeypatch):
    """Log (permc_spec, nnz of L+U) of every SuperLU factorization."""
    log, splu = [], spla.splu

    def logged(a, *args, **kwargs):
        lu = splu(a, *args, **kwargs)
        log.append((kwargs.get("permc_spec"), lu.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", logged)
    return log


def test_fill_order_computed_once_per_mesh(monkeypatch):
    """Two models on one mesh, 5 steps each, compute one MMD order: that of
    the mesh's free vertex graph. Every factor keeps its matrix's order."""
    log = _logged_splu(monkeypatch)
    mesh = sd.beam_mesh(8, 2, 2, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    red = sd.ReductionConfig(s=4, policy=reduction.RefreshPolicy.EVERY_STEP)
    for method in ("TRBDF2", "STRSBDF2ERE"):
        model = sd.ForceModel(mesh, mat, sd.RayleighParams(0.01, 0.5),
                              (0, 0, -9.8))
        adv = sd.Advancer(model, method, 0.01, red=red)
        state = sd.SimState(model.q_rest, np.zeros(model.ndof))
        for _ in range(5):
            state = adv.step(state)
    specs = [spec for spec, _ in log]
    assert specs[0] == "MMD_AT_PLUS_A"
    assert specs.count("MMD_AT_PLUS_A") == 1 and len(specs) > 10
    assert set(specs[1:]) == {"NATURAL"}


@pytest.mark.parametrize("nx, ny, nz", [(8, 2, 2), (16, 4, 4)])
def test_preordered_fill_matches_per_call_mmd(nx, ny, nz, rng, monkeypatch):
    """The factor on the pre-ordered pattern fills L+U no more than 1.01x
    an MMD order computed for the matrix itself, in dof order."""
    mesh = sd.beam_mesh(nx, ny, nz, 1.0, 0.25, 0.25)
    mat = sd.MaterialParams(sd.Material.STABLE_NEO_HOOKEAN, 1e5, 0.4, 1000.0)
    model = sd.ForceModel(mesh, mat, sd.RayleighParams(), (0, 0, -9.8))
    n, free, c = model.ndof, model.free, 0.25 / 60
    q = np.where(free, perturb(mesh, rng, 0.005), model.q_rest)
    a = sp.diags(model.mass) + (c * c) * model.stiffness(q)
    ref = spla.splu(sp.csr_matrix(a)[free][:, free].tocsc(),
                    permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    log = _logged_splu(monkeypatch)
    model.shifted(np.concatenate([q, np.zeros(n)]), c)
    assert [spec for spec, _ in log] == ["NATURAL"]
    assert log[0][1] <= 1.01 * ref.nnz


def test_import_loads_no_optimize_or_csgraph():
    """import softdyn loads neither scipy.optimize nor scipy.sparse.csgraph:
    either would raise every run's peak RSS."""
    code = ("import sys, softdyn; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.optimize', 'scipy.sparse.csgraph'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         cwd=Path(sd.__file__).parents[1],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_all_names_are_attributes():
    """softdyn.__all__ is kept by hand: each name in it must exist."""
    assert [n for n in sd.__all__ if not hasattr(sd, n)] == []


_SPLU = spla.splu


def _failing_splu(monkeypatch, fail_from=0):
    """splu raises SuperLU's singular-factor error from call fail_from on."""
    calls = []

    def failing(a, *args, **kwargs):
        calls.append(1)
        if len(calls) > fail_from:
            raise RuntimeError("Factor is exactly singular")
        return _SPLU(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", failing)


def test_superlu_errors_raise_step_failure(model, rng, monkeypatch):
    """A failed n-space factorization surfaces as StepFailure on the Newton,
    the one-iteration and the SMW path, Newton's and the one iteration's."""
    u0 = rand_state(model, rng)
    u0[:model.ndof] = model.q_rest  # a positive definite K for the split
    ms = reduction.modal_split(model, u0, 4)
    _failing_splu(monkeypatch)
    with pytest.raises(steppers.StepFailure):
        steppers.step_be(model, u0, 0.01)
    with pytest.raises(steppers.StepFailure, match="linear solve failed"):
        reduction.beere_step(model, u0, 0.01, ms)
    with pytest.raises(steppers.StepFailure) as ei:
        steppers.step_trbdf2(model, u0, 0.01, None)
    assert ei.value.stage == 1
    _failing_splu(monkeypatch, fail_from=1)  # stage 1 factors, SMW fails
    with pytest.raises(steppers.StepFailure) as ei:
        reduction.strsbdf2ere_step(model, u0, 0.01, ms)
    assert ei.value.stage == 2
