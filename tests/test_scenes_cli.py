"""Scene schema strictness, serialization round trips, CLI exit codes,
and byte-identical determinism of the pipeline outputs."""

import json
import os

import numpy as np
import pytest

import softdyn as sd
from softdyn import cli, scenes


@pytest.fixture
def scene_dir(tmp_path):
    mesh = sd.box_mesh(2, 1, 1, 0.2, 0.1, 0.1, fix="left")
    sd.save_mesh(mesh, tmp_path / "m.mesh")
    data = {
        "mesh": "m.mesh",
        "material": {"model": "stable_neo_hookean", "youngs_modulus": 1e5,
                     "poisson_ratio": 0.4, "density": 1000.0},
        "gravity": [0.0, 0.0, -9.8],
        "stepper": {"method": "BE", "h": 0.01},
        "duration": 0.05,
        "output_cadence": 100.0,
    }
    (tmp_path / "scene.json").write_text(json.dumps(data))
    return tmp_path, data


def test_parse_and_build(scene_dir):
    d, data = scene_dir
    sc = sd.load_scene(d / "scene.json")
    assert sc.method == "BE"
    assert sc.h == 0.01
    model = sd.build_model(sc)
    assert model.ndof == 3 * 12


def test_unknown_field_rejected(scene_dir):
    d, data = scene_dir
    bad = dict(data, extra_knob=1)
    with pytest.raises(sd.SceneError, match="extra_knob"):
        scenes.parse_scene(bad, base_dir=str(d))
    bad2 = dict(data)
    bad2["material"] = dict(data["material"], typo_field=2)
    with pytest.raises(sd.SceneError, match="typo_field"):
        scenes.parse_scene(bad2, base_dir=str(d))


def test_missing_required_rejected(scene_dir):
    d, data = scene_dir
    for req in ("mesh", "material", "stepper", "duration"):
        bad = {k: v for k, v in data.items() if k != req}
        with pytest.raises(sd.SceneError):
            scenes.parse_scene(bad, base_dir=str(d))


def test_bad_values_rejected(scene_dir):
    d, data = scene_dir
    cases = [
        ("stepper", {"method": "NOPE", "h": 0.01}),
        ("stepper", {"method": "TR-BDF2", "h": 0.01}),
        ("stepper", {"method": "BE", "h": -1.0}),
        ("duration", -2.0),
        ("gravity", [0.0, 1.0]),
        ("material", dict(data["material"], model="rubber")),
    ]
    for key, val in cases:
        bad = dict(data, **{key: val})
        with pytest.raises(sd.SceneError):
            scenes.parse_scene(bad, base_dir=str(d))


def test_parse_full_scene(scene_dir):
    """Every optional section parses into the values the JSON gives."""
    d, data = scene_dir
    full = dict(data)
    full["contact"] = {
        "surfaces": [
            {"kind": "halfspace", "point": [0, 0, 0], "normal": [0, 0, 1]},
            {"kind": "sphere", "center": [1, 1, 1], "radius": 0.5}],
        "delta": 0.01, "kappa": 5.0, "mu": 0.2, "epsilon": 1e-3}
    full["reduction"] = {"s": 3, "refresh": "every_n", "every_n": 4}
    full["rayleigh"] = {"alpha": 0.01, "beta": 0.2}
    sc = scenes.parse_scene(full, base_dir=str(d))
    assert sc.mesh_path == str(d / "m.mesh")
    plane, ball = sc.contact.surfaces
    assert isinstance(plane, sd.HalfSpace) and isinstance(ball, sd.Sphere)
    assert list(plane.point) == [0, 0, 0] and list(plane.normal) == [0, 0, 1]
    assert list(ball.center) == [1, 1, 1] and ball.radius == 0.5
    assert (sc.contact.delta, sc.contact.kappa, sc.contact.mu,
            sc.contact.epsilon) == (0.01, 5.0, 0.2, 1e-3)
    assert sc.reduction == sd.ReductionConfig(3, sd.RefreshPolicy.EVERY_N, 4)
    assert (sc.rayleigh.alpha, sc.rayleigh.beta) == (0.01, 0.2)
    assert sc.gravity == (0.0, 0.0, -9.8)
    assert (sc.method, sc.h, sc.duration, sc.cadence) == ("BE", 0.01, 0.05, 100.0)

def test_simulate_cli_outputs(scene_dir, tmp_path):
    d, _ = scene_dir
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--scene", str(d / "scene.json"),
                   "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "energy.csv" in names
    assert "diagnostics.csv" in names
    assert "frame_000000.obj" in names
    # OBJ frame: one vertex line per mesh vertex
    lines = (out / "frame_000000.obj").read_text().strip().splitlines()
    assert len(lines) == 12
    assert all(ln.startswith("v ") for ln in lines)
    header = (out / "energy.csv").read_text().splitlines()[0]
    assert header == "t,ke,pe_elastic,pe_gravity,total"


def test_simulate_deterministic(scene_dir, tmp_path):
    d, _ = scene_dir
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["simulate", "--scene", str(d / "scene.json"),
                         "--out", str(out)]) == 0
    for name in os.listdir(out1):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"


def test_cli_config_error_exit(tmp_path):
    assert cli.main(["simulate", "--scene", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--scene", str(bad),
                     "--out", str(tmp_path / "o")]) == 2


MISSING = object()  # the field is deleted from its section
# The test scene's contact surfaces, by the section name that picks one.
SURFACES = {"halfspace": {"kind": "halfspace", "point": [0.0, 0.0, -1.0],
                          "normal": [0.0, 0.0, 1.0]},
            "sphere": {"kind": "sphere", "center": [0.0, 0.0, -2.0],
                       "radius": 0.5}}


@pytest.mark.parametrize("section, field, value", [
    ("stepper", "h", "0.01"),
    (None, "duration", "0.05"),
    (None, "output_cadence", None),
    (None, "gravity", -9.8),
    ("material", "youngs_modulus", "1e5"),
    ("material", "density", True),
    ("reduction", "s", 2.5),
    ("reduction", "s", "3"),
    ("reduction", "s", True),
    ("reduction", "s", -1),
    ("reduction", "every_n", 0),
    ("stepper", "h", MISSING),
    ("stepper", "method", MISSING),
    ("stepper", "method", 5),
    ("material", "density", MISSING),
    ("halfspace", "point", MISSING),
    ("sphere", "radius", MISSING),
    (None, "gravity", ["0", "0", "-9.8"]),
    (None, "gravity", [0.0, 0.0, True]),
    ("halfspace", "normal", [0.0, 0.0, "1"]),
    ("halfspace", "point", [0.0, 0.0]),
    ("sphere", "center", [0.0, None, 0.0]),
    (None, "mesh", 5),
    ("contact", "surfaces", 5),
    (None, "stepper", [1]),
])
def test_cli_bad_scene_number_exit(scene_dir, tmp_path, capsys, section,
                                   field, value):
    """A scene number of the wrong JSON type or out of range, a missing
    required field, a method or mesh that is not a string, a section that
    is not an object or surfaces that are not a list is a config error
    (exit 2) that names the field, not a traceback."""
    d, data = scene_dir
    data = json.loads(json.dumps(data))
    data["reduction"] = {"s": 2, "refresh": "every_n", "every_n": 1}
    data["contact"] = {"surfaces": [dict(s) for s in SURFACES.values()]}
    scenes.parse_scene(data, base_dir=str(d))  # valid before the change
    target = (data["contact"]["surfaces"][list(SURFACES).index(section)]
              if section in SURFACES else data[section] if section else data)
    if value is MISSING:
        del target[field]
    else:
        target[field] = value
    (d / "bad.json").write_text(json.dumps(data))
    rc = cli.main(["simulate", "--scene", str(d / "bad.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


def test_cli_numerical_failure_exit(tmp_path):
    # absurd stiffness + huge step with a tight Newton budget
    mesh = sd.box_mesh(1, 1, 1, 0.1, 0.1, 0.1, fix="left")
    sd.save_mesh(mesh, tmp_path / "m.mesh")
    data = {
        "mesh": "m.mesh",
        "material": {"model": "stable_neo_hookean", "youngs_modulus": 1e12,
                     "poisson_ratio": 0.49, "density": 1.0},
        "gravity": [0.0, 0.0, -9.8e4],
        "stepper": {"method": "BE", "h": 10.0,
                    "newton": {"max_iters": 2, "abs_tol": 1e-14,
                               "rel_tol": 1e-16}},
        "duration": 20.0,
        "output_cadence": 1.0,
    }
    (tmp_path / "scene.json").write_text(json.dumps(data))
    rc = cli.main(["simulate", "--scene", str(tmp_path / "scene.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cli_numerical_failure_says_where(scene_dir, tmp_path, capsys):
    """A Newton that cannot converge fails TR-BDF2's first stage of step 1;
    the CLI prints the step, its start time, the stage and the residual."""
    d, data = scene_dir
    data = dict(data, stepper={"method": "TRBDF2", "h": 0.01, "newton": {
        "max_iters": 1, "abs_tol": 1e-300, "rel_tol": 1e-300}})
    (d / "fail.json").write_text(json.dumps(data))
    rc = cli.main(["simulate", "--scene", str(d / "fail.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure (step 1, t 0.0, stage 1, residual_norm " in err
    assert "Newton did not converge" in err


def test_damping_curves_cli(tmp_path):
    out = tmp_path / "d"
    rc = cli.main(["damping-curves", "--methods", "BE,TR",
                   "--grid", "0.01:100:8", "--out", str(out)])
    assert rc == 0
    txt = (out / "damping_BE.csv").read_text().splitlines()
    assert txt[0] == "method,omega_h,d_over_omega"
    assert len(txt) == 9
    assert cli.main(["damping-curves", "--methods", "BE",
                     "--grid", "5:1:3", "--out", str(out)]) == 2


def test_convergence_cli(tmp_path, capsys):
    out = tmp_path / "c"
    rc = cli.main(["convergence", "--methods", "BE,TR", "--seed", "7",
                   "--out", str(out)])
    assert rc == 0
    body = (out / "convergence.csv").read_text()
    rows = dict(line.split(",") for line in body.splitlines()[1:])
    assert abs(float(rows["BE"]) - 1.0) < 0.15
    assert abs(float(rows["TR"]) - 2.0) < 0.15


def test_eigs_cli(scene_dir, tmp_path):
    d, _ = scene_dir
    out = tmp_path / "e"
    rc = cli.main(["eigs", "--scene", str(d / "scene.json"), "--s", "4",
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,lambda"
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    assert lams == sorted(lams)
    assert all(l > 0 for l in lams)
