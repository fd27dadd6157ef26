"""Desk-scale solver and verification suite for mean field games in which the
agents control both the drift and the diffusion of their state process.

The backward value equation is fully nonlinear in the Laplacian; it is
discretized with a monotone explicit scheme, the forward density equation is
its exact discrete adjoint, and the coupled system is solved by a damped
iteration of the density-to-density map.  Monte-Carlo simulation of the
controlled process and a family of regularity/structure audits close the
loop between the PDE solutions and the underlying stochastic control
problem.
"""

from .control import (
    ClosedFormCoefficients,
    ControlBounds,
    HamiltonianSpec,
    ModelSpec,
    l3_from_l2,
    model_a,
    mollify_hamiltonian,
    mollify_model,
    single_control_model,
    validate_hypotheses,
)
from .couplings import DensityInit, KernelCoupling, TerminalBase, TerminalSpec
from .diagnostics import (
    KrylovSample,
    class_m_check,
    krylov_m,
    lipschitz_constant,
    semiconcavity_constant,
    three_point_check,
)
from .errors import ConfigError, ContractError, StabilityError
from .fixed_point import (
    coupling_fields,
    monotonicity_gap,
    phi_map,
    picard_solve,
    uniqueness_crosscheck,
)
from .fp import DensityPath, TransportOperator, build_transport_operator, check_duality, solve_fp
from .grid import GridSpec, TimeField
from .hjb import (
    grid_for,
    hjb_residual,
    lambda_transform,
    linearize,
    solve_hjb,
    solve_hjb_lambda,
)
from .sde import McConfig, dpp_check, modulus_check, simulate_value
from .wasserstein import GridMeasure, d1, holder_half_diagnostic

__version__ = "0.1.0"

__all__ = [
    "ClosedFormCoefficients",
    "ConfigError",
    "ContractError",
    "ControlBounds",
    "DensityInit",
    "DensityPath",
    "GridMeasure",
    "GridSpec",
    "HamiltonianSpec",
    "KernelCoupling",
    "KrylovSample",
    "McConfig",
    "ModelSpec",
    "StabilityError",
    "TerminalBase",
    "TerminalSpec",
    "TimeField",
    "TransportOperator",
    "build_transport_operator",
    "check_duality",
    "class_m_check",
    "coupling_fields",
    "d1",
    "dpp_check",
    "grid_for",
    "hjb_residual",
    "holder_half_diagnostic",
    "krylov_m",
    "l3_from_l2",
    "lambda_transform",
    "linearize",
    "lipschitz_constant",
    "model_a",
    "modulus_check",
    "mollify_hamiltonian",
    "mollify_model",
    "monotonicity_gap",
    "phi_map",
    "picard_solve",
    "semiconcavity_constant",
    "simulate_value",
    "single_control_model",
    "solve_fp",
    "solve_hjb",
    "solve_hjb_lambda",
    "three_point_check",
    "uniqueness_crosscheck",
    "validate_hypotheses",
]
