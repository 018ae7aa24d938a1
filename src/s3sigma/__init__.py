"""Mechanics and quantization of a free particle on the 3-sphere.

The sphere is handled as the SU(2) group manifold: chart geometry with
both invariant frames, closed-form and integrated geodesics with their
constants of motion, the centrally extended 7-parameter symmetry group,
the polarized quantum operators with their hyperspherical eigenbasis,
and deterministic quadrature.  Every identity the construction asserts
is checked by an independent numerical oracle; the `suite` module and
the `s3sigma` command expose those checks.
"""

from .config import SpaceConfig
from .errors import ChartBoundaryError, DomainError, QuadratureError, StencilError
from .geometry import ChartCoords, S3Point, canonical_one_form, dual_field, \
    killing_residual, metric, metric_inverse, rho
from .classical import (PhaseState, SolutionPoint, Trajectory, geodesic_exact,
                        geodesic_integrate, hamiltonian, hj_inverse,
                        hj_transform, lagrangian, momentum, poisson_bracket,
                        verify_basic_algebra)
from .sigma_group import (SigmaGroupElement, characteristic_check,
                          compose, identity, inverse, left_fields,
                          noether_invariants, quantization_form, right_fields)
from .specfun import PolyEval, gegenbauer, spherical_harmonic
from .quadrature import HypersphericalNode, QuadGrid, build_grid, integrate
from .quantum import (SpectralLabel, WaveFunction, apply_hamiltonian, apply_J,
                      apply_nu, apply_position, contraction_study,
                      left_action_operator, psi, spectrum)

__version__ = "0.1.0"

__all__ = [
    "SpaceConfig", "ChartCoords", "S3Point", "PhaseState", "SolutionPoint",
    "Trajectory", "SigmaGroupElement", "PolyEval",
    "HypersphericalNode", "QuadGrid", "SpectralLabel", "WaveFunction",
    "ChartBoundaryError", "DomainError", "QuadratureError", "StencilError",
    "rho", "metric", "metric_inverse", "canonical_one_form", "dual_field",
    "killing_residual", "lagrangian", "momentum", "hamiltonian",
    "geodesic_exact", "geodesic_integrate", "hj_transform", "hj_inverse",
    "poisson_bracket", "verify_basic_algebra", "compose", "inverse",
    "identity", "left_fields", "right_fields", "quantization_form",
    "noether_invariants", "characteristic_check", "gegenbauer",
    "spherical_harmonic", "build_grid", "integrate", "psi", "apply_nu",
    "apply_position", "apply_hamiltonian", "apply_J", "left_action_operator",
    "spectrum", "contraction_study",
]
