"""Barrier, contact and friction oracles."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import softdyn as sd
from softdyn import contact as ct


DELTA = 0.01

_PLANE = sd.HalfSpace((0, 0, 0), (0, 0, 1))
_BALL = sd.Sphere((0.02, 0.02, -0.1), 0.1)
# name -> (surfaces, lift of the single tet). "plane+sphere" puts every
# bottom vertex inside both supports; "clear" leaves every gap above DELTA.
SCENES = {
    "plane": ((_PLANE,), 0.004),
    "tilted": ((sd.HalfSpace((0, 0, 0), np.array([0.1, -0.05, 1.0])
                             / np.linalg.norm([0.1, -0.05, 1.0])),), 0.004),
    "sphere": ((_BALL,), 0.002),
    "plane+sphere": ((_PLANE, _BALL), 0.002),
    "clear": ((_PLANE,), 0.02),
}
IN_CONTACT = [name for name in SCENES if name != "clear"]


def _one(cs, i):
    """The one-contact set holding contact i of cs."""
    return ct.ContactSet(*(getattr(cs, f.name)[[i]] for f in fields(cs)))


def _dense(mesh, cs, blocks):
    """Per-contact blocks (n_c, 3, 3) summed at their vertices into a dense
    (3 nv, 3 nv) matrix."""
    nv = mesh.num_vertices
    out = np.zeros((nv, 3, nv, 3))
    np.add.at(out, (cs.vertices, slice(None), cs.vertices), blocks)
    return out.reshape(3 * nv, 3 * nv)


def _scene(name, mu=0.0):
    """Single tet of size 0.05 lifted above the scene's surfaces."""
    surfaces, lift = SCENES[name]
    mesh = sd.single_tet(0.05)
    cfg = ct.ContactConfig(surfaces, DELTA, 7.0, mu, 1e-3)
    q = mesh.rest_positions.reshape(-1).copy()
    q[2::3] += lift
    return mesh, cfg, q


def test_barrier_support():
    assert ct.barrier_value(DELTA, DELTA) == 0.0
    assert ct.barrier_value(2 * DELTA, DELTA) == 0.0
    assert ct.barrier_grad(DELTA, DELTA) == 0.0
    assert ct.barrier_value(0.5 * DELTA, DELTA) > 0.0


def test_barrier_closed_form():
    x = 0.4 * DELTA
    ref = -(x - DELTA) ** 2 * np.log(x / DELTA)
    assert np.isclose(ct.barrier_value(x, DELTA), ref, rtol=1e-12)


def test_barrier_derivatives_fd():
    eps = 1e-8 * DELTA
    for x in np.linspace(0.05 * DELTA, 0.95 * DELTA, 9):
        g_fd = (ct.barrier_value(x + eps, DELTA) -
                ct.barrier_value(x - eps, DELTA)) / (2 * eps)
        h_fd = (ct.barrier_grad(x + eps, DELTA) -
                ct.barrier_grad(x - eps, DELTA)) / (2 * eps)
        assert abs(ct.barrier_grad(x, DELTA) - g_fd) < 1e-5 * max(1.0, abs(g_fd))
        assert abs(ct.barrier_hess(x, DELTA) - h_fd) < 1e-4 * max(1.0, abs(h_fd))


def test_lambda_monotone_positive():
    cfg = ct.ContactConfig((sd.HalfSpace((0, 0, 0), (0, 0, 1)),),
                           DELTA, 50.0, 0.0, 1e-3)
    xs = np.linspace(0.9 * DELTA, 0.05 * DELTA, 40)
    lam = ct.contact_lambda(xs, cfg)
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) > 0)  # grows as the gap shrinks


def test_surfaces_geometry():
    with pytest.raises(ValueError):
        sd.HalfSpace((0, 0, 1), (0, 0, 2))  # non-unit normal rejected
    hs = sd.HalfSpace((0, 0, 1), (0, 0, 1))
    assert np.isclose(hs.distance(np.array([5.0, 5.0, 3.0])), 2.0)
    np.testing.assert_allclose(hs.gradient(np.zeros(3)), [0, 0, 1])
    assert np.abs(hs.hessian(np.zeros(3))).max() == 0.0

    sph = sd.Sphere((1, 0, 0), 2.0)
    x = np.array([4.0, 0.0, 0.0])
    assert np.isclose(sph.distance(x), 1.0)
    np.testing.assert_allclose(sph.gradient(x), [1, 0, 0])
    # FD check of the sphere hessian
    eps = 1e-6
    hess_fd = np.zeros((3, 3))
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        hess_fd[:, i] = (sph.gradient(xp) - sph.gradient(xm)) / (2 * eps)
    np.testing.assert_allclose(sph.hessian(x), hess_fd, atol=1e-6)


def test_active_set_and_clamp():
    mesh = sd.single_tet(0.05)
    cfg = ct.ContactConfig((sd.HalfSpace((0, 0, 0.0), (0, 0, 1)),),
                           DELTA, 1.0, 0.0, 1e-3)
    q = mesh.rest_positions.reshape(-1).copy()
    q[2::3] += 0.004  # bottom face at z = 0.004 < delta
    cs = ct.active_set(mesh, cfg, q)
    assert cs.count == 3
    assert np.all(cs.gaps > 0)
    # penetration is flagged and warned of; the gaps stay signed and the
    # barrier clamps them
    q[2::3] -= 0.005
    with pytest.warns(UserWarning):
        cs2 = ct.active_set(mesh, cfg, q)
    np.testing.assert_allclose(cs2.gaps, -0.001, rtol=1e-12)
    assert cs2.penetrating.all()
    clamped = ct.barrier_grad(np.full(3, ct.GAP_CLAMP_REL * DELTA), DELTA)
    np.testing.assert_array_equal(cs2.lam, -clamped)


@pytest.mark.parametrize("scene", SCENES)
def test_contact_force_fd(scene):
    mesh, cfg, q = _scene(scene)

    def energy(qq):
        cs = ct.active_set(mesh, cfg, qq)
        return cfg.kappa * sum(ct.barrier_value(g, cfg.delta) for g in cs.gaps)

    cs = ct.active_set(mesh, cfg, q)
    f = ct.contact_force(mesh, cs, cfg, q)
    eps = 1e-8
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += eps
        qm[i] -= eps
        g = (energy(qp) - energy(qm)) / (2 * eps)
        assert abs(f[i] + g) < 1e-4 * max(1.0, abs(g))


@pytest.mark.parametrize("scene", SCENES)
def test_contact_stiffness_fd(scene):
    mesh, cfg, q = _scene(scene)
    cs = ct.active_set(mesh, cfg, q)
    # convention: contact_stiffness is d f_c / d q (not its negative)
    k = _dense(mesh, cs, ct.contact_stiffness(cs, cfg, q))
    eps = 1e-7
    kfd = np.zeros_like(k)
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += eps
        qm[i] -= eps
        fp = ct.contact_force(mesh, ct.active_set(mesh, cfg, qp), cfg, qp)
        fm = ct.contact_force(mesh, ct.active_set(mesh, cfg, qm), cfg, qm)
        kfd[:, i] = (fp - fm) / (2 * eps)
    assert np.abs(k - kfd).max() < 1e-4 * max(1.0, np.abs(kfd).max())


def test_empty_contact_set_kernels():
    mesh, cfg, q = _scene("clear", mu=0.4)
    cs = ct.active_set(mesh, cfg, q)
    assert cs.count == 0
    v = np.ones_like(q)
    n = q.size
    for f in (ct.contact_force(mesh, cs, cfg, q),
              ct.friction_force(mesh, cs, cfg, q, v)):
        assert f.shape == (n,) and not f.any()
    for k in (ct.contact_stiffness(cs, cfg, q),
              ct.friction_velocity_jacobian(cs, cfg, v)):
        assert k.shape == (0, 3, 3)
    jc, bn, bt = ct.contact_jacobian(mesh, cs, q)
    assert jc.shape == (0, n) and bn.shape == (0, 0) and bt.shape == (0, 0)


@pytest.mark.parametrize("scene", IN_CONTACT)
def test_kernels_sum_over_contacts(scene):
    """Each kernel equals the sum of its one-contact results (the per-contact
    loop); only the order of the sums at shared vertices may differ."""
    mesh, cfg, q, v, cs = _sliding_setup(0.0007, scene)
    kernels = (lambda c: ct.contact_force(mesh, c, cfg, q),
               lambda c: ct.friction_force(mesh, c, cfg, q, v),
               lambda c: _dense(mesh, c, ct.contact_stiffness(c, cfg, q)),
               lambda c: _dense(mesh, c, ct.friction_velocity_jacobian(c, cfg, v)))
    for kernel in kernels:
        ref = sum(kernel(_one(cs, i)) for i in range(cs.count))
        np.testing.assert_allclose(kernel(cs), ref, rtol=1e-12,
                                   atol=1e-15 * np.abs(ref).max())


_EPS = 1e-3
_coord = st.floats(-2.0, 2.0, allow_subnormal=False)
_points = hnp.arrays(float, st.tuples(st.integers(1, 5), st.just(3)),
                     elements=_coord)
# slips with |v| = 0, 0 < |v| < eps and |v| >= eps
_slip = st.builds(lambda r, a: r * np.array([np.cos(a), np.sin(a)]),
                  st.one_of(st.just(0.0), st.floats(1e-9 * _EPS, _EPS,
                                                    exclude_max=True),
                            st.floats(_EPS, 1e3 * _EPS)),
                  st.floats(0.0, 2 * np.pi))
_slips = st.lists(_slip, min_size=1, max_size=6).map(np.array)


def _unit_rows(p):
    p = np.where(np.linalg.norm(p, axis=1, keepdims=True) < 1e-3, (0, 0, -1.0), p)
    return p / np.linalg.norm(p, axis=1, keepdims=True)


_normals = _points.map(_unit_rows)


def _assert_rowwise(fn, xs):
    """fn on the batch xs equals fn on each row of xs, bit for bit."""
    out = fn(xs)
    outs = out if isinstance(out, tuple) else (out,)
    for i, x in enumerate(xs):
        ref = fn(x)
        refs = ref if isinstance(ref, tuple) else (ref,)
        for o, r in zip(outs, refs):
            assert np.array_equal(o[i], r)


@given(_points, _normals, _coord, st.floats(0.05, 3.0))
def test_surfaces_batched_equal_pointwise(pts, normals, c, radius):
    hs = sd.HalfSpace(pts[0], normals[0])
    ball = sd.Sphere((c, -c, 5.0), radius)  # off every drawn point
    for fn in (hs.distance, hs.gradient, hs.hessian, ball.distance, ball.hessian):
        _assert_rowwise(fn, pts)
    # the sphere's gradient is (0, 0, 1) at its center
    with_center = np.vstack([pts, ball.center])
    _assert_rowwise(ball.gradient, with_center)
    np.testing.assert_array_equal(ball.gradient(with_center)[-1], [0, 0, 1])


@given(_normals, _slips)
def test_friction_helpers_batched_equal_pointwise(normals, slips):
    _assert_rowwise(ct._tangent_frame, normals)
    _assert_rowwise(lambda x: ct.eta_smooth(x, _EPS), slips)
    _assert_rowwise(lambda x: ct._eta_jacobian(x, _EPS), slips)


@given(st.one_of(_normals, _normals.map(lambda n: n[0])))
@example(np.vstack([np.eye(3), -np.eye(3)]))  # zero components
def test_tangent_frame_equals_np_cross_form(normals):
    """The component-wise cross products give np.cross's frame bit for bit."""
    a = np.zeros_like(normals)
    np.put_along_axis(a, np.argmin(np.abs(normals), axis=-1)[..., None], 1.0,
                      axis=-1)
    t1 = np.cross(normals, a)
    t1 /= ct._norm(t1)[..., None]
    ref = t1, np.cross(normals, t1)
    for got, want in zip(ct._tangent_frame(normals), ref):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tangent_frame_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        t1, t2 = ct._tangent_frame(n)
        basis = np.stack([n, t1, t2])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_s_profile_and_eta():
    eps = 1e-3
    assert ct.s_profile(0.0, eps) == 0.0
    assert np.isclose(ct.s_profile(eps, eps), 1.0)
    assert np.isclose(ct.s_profile(0.5 * eps, eps), 0.75)
    # eta: unit direction scaled by s(|v|), identity past eps
    v = np.array([2 * eps, 0.0])
    np.testing.assert_allclose(ct.eta_smooth(v, eps), v / np.linalg.norm(v))
    v2 = np.array([0.25 * eps, 0.0])
    s = ct.s_profile(0.25 * eps, eps)
    np.testing.assert_allclose(ct.eta_smooth(v2, eps), [s, 0.0])


def test_eta_jacobian_fd():
    eps = 1e-3
    rng = np.random.default_rng(11)
    for scale in (0.3, 0.9, 2.5):
        v = scale * eps * rng.standard_normal(2)
        jac = ct._eta_jacobian(v, eps)
        d = 1e-9
        jfd = np.zeros((2, 2))
        for i in range(2):
            vp, vm = v.copy(), v.copy()
            vp[i] += d
            vm[i] -= d
            jfd[:, i] = (ct.eta_smooth(vp, eps) - ct.eta_smooth(vm, eps)) / (2 * d)
        np.testing.assert_allclose(jac, jfd, atol=1e-4)
    # continuous limit at v = 0
    np.testing.assert_allclose(ct._eta_jacobian(np.zeros(2), eps),
                               (2.0 / eps) * np.eye(2), atol=1e-12)


def _sliding_setup(v_tangent, scene="plane"):
    mesh, cfg, q = _scene(scene, mu=0.4)
    v = np.zeros_like(q)
    v[0::3] = v_tangent
    cs = ct.active_set(mesh, cfg, q)
    return mesh, cfg, q, v, cs


@pytest.mark.parametrize("scene", IN_CONTACT)
def test_friction_opposes_and_coulomb_cone(scene):
    mesh, cfg, q, v, cs = _sliding_setup(0.5, scene)
    ff = ct.friction_force(mesh, cs, cfg, q, v)
    assert np.dot(ff, v) < 0  # dissipative
    lam = cs.lam
    # per-contact cone bound: |f_t| <= mu*lambda (fast sliding -> equality);
    # a contact's own force is its one-contact set's force at its vertex
    for i, vtx in enumerate(cs.vertices):
        fi = ct.friction_force(mesh, _one(cs, i), cfg, q, v).reshape(-1, 3)[vtx]
        ft = np.linalg.norm(fi)
        assert ft <= cfg.mu * lam[i] * (1 + 1e-9)
        assert np.isclose(ft, cfg.mu * lam[i], rtol=1e-9)


def test_friction_vanishes_at_rest():
    mesh, cfg, q, v, cs = _sliding_setup(0.0)
    ff = ct.friction_force(mesh, cs, cfg, q, v)
    assert np.abs(ff).max() == 0.0


def test_friction_mdp_limit():
    # as eps -> 0 the force tends to the maximal dissipation value mu*lambda
    mesh = sd.single_tet(0.05)
    q = mesh.rest_positions.reshape(-1).copy()
    q[2::3] += 0.004
    v = np.zeros_like(q)
    v[0::3] = 1e-4  # slow sliding
    mags = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        cfg = ct.ContactConfig((sd.HalfSpace((0, 0, 0), (0, 0, 1)),),
                               DELTA, 7.0, 0.4, eps)
        cs = ct.active_set(mesh, cfg, q)
        ff = ct.friction_force(mesh, cs, cfg, q, v)
        mags.append(np.linalg.norm(ff.reshape(-1, 3)[cs.vertices[0]]) /
                    (cfg.mu * cs.lam[0]))
    assert np.all(np.diff(mags) >= 0)
    assert mags[0] < 0.1 and mags[-1] > 0.999


@pytest.mark.parametrize("scene", SCENES)
def test_friction_velocity_jacobian_fd(scene):
    mesh, cfg, q, v, cs = _sliding_setup(0.0007, scene)
    jac = -cfg.mu * _dense(mesh, cs, ct.friction_velocity_jacobian(cs, cfg, v))
    eps = 1e-9
    jfd = np.zeros_like(jac)
    for i in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        jfd[:, i] = (ct.friction_force(mesh, cs, cfg, q, vp) -
                     ct.friction_force(mesh, cs, cfg, q, vm)) / (2 * eps)
    assert np.abs(jac - jfd).max() < 1e-4 * max(1.0, np.abs(jfd).max())
