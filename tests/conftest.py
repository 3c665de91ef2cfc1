import numpy as np
import pytest
from hypothesis import settings

import softdyn as sd

# Property tests draw the same examples on every run and stay short.
settings.register_profile("softdyn", derandomize=True, deadline=None,
                          max_examples=30)
settings.load_profile("softdyn")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_mesh():
    """5-tet unit-ish box, no Dirichlet."""
    return sd.box_mesh(1, 1, 1, 0.2, 0.2, 0.2)


@pytest.fixture
def beam():
    return sd.box_mesh(3, 1, 1, 0.3, 0.1, 0.1, fix="left")


@pytest.fixture(params=["linear", "stable_neo_hookean"])
def material(request):
    return sd.MaterialParams(sd.Material(request.param), 1e5, 0.4, 1000.0)


def perturb(mesh, rng, scale=0.05):
    """Rest positions plus a modest random displacement (flat array)."""
    q = mesh.rest_positions.reshape(-1).copy()
    bbox = np.linalg.norm(mesh.rest_positions.max(0) - mesh.rest_positions.min(0))
    return q + scale * bbox * rng.standard_normal(q.size)


class LinearModel:
    """u' = J u + c with constant J, c: closed-form reference available."""

    def __init__(self, j, c=None):
        self.j = np.asarray(j, float)
        self.c = np.zeros(len(self.j)) if c is None else np.asarray(c, float)

    def eval_F(self, u):
        return self.j @ u + self.c

    def eval_J(self, u):
        return self.j

    def exact(self, u0, t):
        import scipy.linalg
        n = len(self.j)
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = t * self.j
        aug[:n, n] = t * self.c
        e = scipy.linalg.expm(aug)
        return e[:n, :n] @ u0 + e[:n, n]
