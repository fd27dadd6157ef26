"""The package's public names: a name added to or dropped from `mfgdiff.__all__` fails here."""

import mfgdiff

PUBLIC = [
    "ClosedFormCoefficients", "ConfigError", "ContractError", "ControlBounds",
    "DensityInit", "DensityPath", "GridMeasure", "GridSpec", "HamiltonianSpec",
    "KernelCoupling", "KrylovSample", "McConfig", "ModelSpec", "StabilityError",
    "TerminalBase", "TerminalSpec", "TimeField", "TransportOperator",
    "build_transport_operator", "check_duality", "class_m_check", "coupling_fields",
    "d1", "dpp_check", "grid_for", "hjb_residual", "holder_half_diagnostic",
    "krylov_m", "l3_from_l2", "lambda_transform", "linearize", "lipschitz_constant",
    "model_a", "modulus_check", "mollify_hamiltonian", "mollify_model",
    "monotonicity_gap", "phi_map", "picard_solve", "semiconcavity_constant",
    "simulate_value", "single_control_model", "solve_fp", "solve_hjb",
    "solve_hjb_lambda", "three_point_check", "uniqueness_crosscheck",
    "validate_hypotheses",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 48
    assert sorted(mfgdiff.__all__) == PUBLIC
    assert all(hasattr(mfgdiff, name) for name in PUBLIC)
