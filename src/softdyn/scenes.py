"""Scene configuration: strict JSON parsing and serialization."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import contact as ct
from .driver import ReductionConfig
from .fem import Material, MaterialParams, RayleighParams
from .meshes import load_mesh
from .reduction import RefreshPolicy
from .steppers import Method, NewtonConfig
from .system import ForceModel


class SceneError(ValueError):
    pass


@dataclass(frozen=True)
class SceneConfig:
    mesh_path: str
    material: MaterialParams
    rayleigh: RayleighParams
    gravity: tuple
    contact: ct.ContactConfig | None
    method: str
    h: float
    newton: NewtonConfig
    reduction: ReductionConfig | None
    duration: float
    cadence: float

    def __post_init__(self):
        if self.duration <= 0:
            raise SceneError("duration must be > 0")
        if self.cadence <= 0:
            raise SceneError("cadence must be > 0")
        if not isinstance(self.method, str):
            raise SceneError(f"method must be a string, not {self.method!r}")
        try:
            Method(self.method.upper())
        except ValueError:
            raise SceneError(f"unknown method {self.method!r}") from None


def _is_number(x, kind=(int, float)):
    return isinstance(x, kind) and not isinstance(x, bool)


def _require(d, where, keys):
    for key in keys:
        if key not in d:
            raise SceneError(f"missing required field {key!r} in {where}")


def _take(d, where, other=(), reals=(), ints=(), vectors=(), required=()):
    """Check the fields of section d: no names but other, reals, ints and
    vectors, and every name in required present; a JSON number under
    reals, an integer under ints and a list of 3 numbers under vectors,
    where no number is a boolean."""
    if not isinstance(d, dict):
        raise SceneError(f"{where} must be a JSON object, not {d!r}")
    extra = set(d) - {*other, *reals, *ints, *vectors}
    if extra:
        raise SceneError(f"unknown field(s) {sorted(extra)} in {where}")
    _require(d, where, required)
    for key in (k for k in (*reals, *ints) if k in d):
        if not _is_number(d[key], int if key in ints else (int, float)):
            what = "an integer" if key in ints else "a number"
            raise SceneError(f"{where}.{key} must be {what}, not {d[key]!r}")
    for key in (k for k in vectors if k in d):
        v = d[key]
        if (not isinstance(v, (list, tuple)) or len(v) != 3
                or not all(map(_is_number, v))):
            raise SceneError(f"{where}.{key} must be 3 numbers, not {v!r}")


def _parse_surface(d, i):
    where = f"surfaces[{i}]"
    _take(d, where, {"kind"}, ("radius",),
          vectors=("point", "normal", "center"), required=("kind",))
    kind = d["kind"]
    if kind == "halfspace":
        _require(d, where, ("point", "normal"))
        return ct.HalfSpace(d["point"], d["normal"])
    if kind == "sphere":
        _require(d, where, ("center", "radius"))
        return ct.Sphere(d["center"], d["radius"])
    raise SceneError(f"unknown surface kind {kind!r}")


def parse_scene(data: dict, base_dir=".") -> SceneConfig:
    _take(data, "scene", {"mesh", "material", "rayleigh", "contact",
                          "stepper", "reduction"},
          ("duration", "output_cadence"), vectors=("gravity",),
          required=("mesh", "material", "stepper", "duration",
                    "output_cadence"))
    if not isinstance(data["mesh"], str):
        raise SceneError(f"scene.mesh must be a string, not {data['mesh']!r}")
    mesh_path = os.path.join(base_dir, data["mesh"])
    if not os.path.exists(mesh_path):
        raise SceneError(f"mesh file not found: {mesh_path}")

    md = data["material"]
    _take(md, "material", {"model"},
          ("youngs_modulus", "poisson_ratio", "density"),
          required=("model", "youngs_modulus", "poisson_ratio", "density"))
    try:
        mat = MaterialParams(Material(md["model"]), md["youngs_modulus"],
                             md["poisson_ratio"], md["density"])
    except ValueError as exc:
        raise SceneError(f"bad material: {exc}") from exc

    rd = data.get("rayleigh", {})
    _take(rd, "rayleigh", reals=("alpha", "beta"))
    ray = RayleighParams(rd.get("alpha", 0.0), rd.get("beta", 0.0))

    grav = data.get("gravity", (0.0, 0.0, 0.0))

    con = None
    if "contact" in data:
        _take(data["contact"], "contact", {"surfaces"},
              ("delta", "kappa", "mu", "epsilon"))
        cd = dict(data["contact"])
        surfs = cd.pop("surfaces", [])
        if not isinstance(surfs, list):
            raise SceneError(f"contact.surfaces must be a list, not {surfs!r}")
        surfs = [_parse_surface(s, i) for i, s in enumerate(surfs)]
        con = ct.ContactConfig(tuple(surfs), **cd)

    sd = data["stepper"]
    _take(sd, "stepper", {"method", "newton"}, ("h",),
          required=("method", "h"))
    nd = sd.get("newton", {})
    _take(nd, "newton", (), ("abs_tol", "rel_tol"), ("max_iters",))
    newton = NewtonConfig(**nd)
    method = sd["method"]
    h = sd["h"]
    if h <= 0:
        raise SceneError("step size must be > 0")

    red = None
    if "reduction" in data:
        _take(data["reduction"], "reduction", {"refresh"}, ints=("s", "every_n"))
        rdd = dict(data["reduction"])
        red = ReductionConfig(policy=RefreshPolicy(rdd.pop("refresh", "once")),
                              **rdd)

    return SceneConfig(mesh_path, mat, ray, tuple(grav), con, method, h,
                       newton, red, data["duration"], data["output_cadence"])


def load_scene(path) -> SceneConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scene(data, base_dir=os.path.dirname(os.path.abspath(path)))


def build_model(sc: SceneConfig) -> ForceModel:
    mesh = load_mesh(sc.mesh_path)
    return ForceModel(mesh, sc.material, sc.rayleigh, sc.gravity, sc.contact)
