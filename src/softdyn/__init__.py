"""softdyn: stiff elastodynamics with implicit, exponential and
subspace-split time integrators on tetrahedral FEM meshes."""

from .meshes import TetMesh, MeshError, load_mesh, save_mesh, single_tet, \
    box_mesh, beam_mesh
from .fem import Material, MaterialParams, RayleighParams, \
    lumped_masses, elastic_energy, elastic_force, stiffness_matrix
from .contact import HalfSpace, Sphere, ContactConfig
from .system import SimState, ForceModel, state_energy
from .steppers import Method, NewtonConfig, StepFailure, newton_solve, \
    bootstrap_history
from .expo import phi1_dense, phi1_action_krylov, phi1_modal, ere_step
from .reduction import RefreshPolicy, ModalSplit, smallest_eigpairs, \
    modal_split, SmwSolver
from .analysis import DampingCurve, EnergyReport, amplification, \
    spectral_radius, damping_coefficient, damping_curve, \
    stability_function, energy_report, convergence_order
from .driver import Advancer, ReductionConfig, run_simulation, METHODS
from .scenes import SceneError, SceneConfig, parse_scene, load_scene, \
    scene_to_dict, build_model

__version__ = "0.1.0"

__all__ = [
    "TetMesh", "MeshError", "load_mesh", "save_mesh", "single_tet",
    "box_mesh", "beam_mesh",
    "Material", "MaterialParams", "RayleighParams", "lumped_masses",
    "elastic_energy", "elastic_force", "stiffness_matrix",
    "HalfSpace", "Sphere", "ContactConfig",
    "SimState", "ForceModel", "state_energy",
    "Method", "NewtonConfig", "StepFailure",
    "newton_solve", "bootstrap_history",
    "phi1_dense", "phi1_action_krylov", "phi1_modal", "ere_step",
    "RefreshPolicy", "ModalSplit", "smallest_eigpairs", "modal_split",
    "SmwSolver",
    "DampingCurve", "EnergyReport", "amplification", "spectral_radius",
    "damping_coefficient", "damping_curve", "stability_function",
    "energy_report", "convergence_order",
    "Advancer", "ReductionConfig", "run_simulation", "METHODS",
    "SceneError", "SceneConfig", "parse_scene", "load_scene",
    "scene_to_dict", "build_model",
]
