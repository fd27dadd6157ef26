"""Hamiltonian evaluation, mollification and the structural-hypothesis audit."""

import hashlib

import numpy as np
import pytest

from mfgdiff import (
    ClosedFormCoefficients,
    ConfigError,
    ControlBounds,
    HamiltonianSpec,
    l3_from_l2,
    model_a,
    mollify_hamiltonian,
    mollify_model,
    validate_hypotheses,
)
from mfgdiff.config import FixedPointConfig
from mfgdiff.control import (
    ModelSpec,
    h1_segment_mean,
    h1_terms,
    h1_value,
    h2_segment_mean,
    h2_terms,
    h2_value,
    hamiltonian_values,
    node_zeros,
)
from mfgdiff.couplings import DensityInit, KernelCoupling, TerminalBase, TerminalSpec, validate_kernel
from mfgdiff.fixed_point import picard_solve
from mfgdiff.grid import GridSpec
from mfgdiff.sde import McConfig

from conftest import at_point, brute_force_h1, brute_force_h2


@pytest.fixture(scope="module")
def ma():
    return model_a()


# ---------------------------------------------------------------------------
# closed-form values against frozen examples and the brute-force oracle
# ---------------------------------------------------------------------------


def test_h1_zero_momentum(ma):
    value, alpha = at_point(h1_terms, ma, 0.0, 0.5, 0.0)
    assert value == 0.0
    assert alpha == 0.0


@pytest.mark.parametrize(
    "p, value, argmin",
    [(2.0, -1.5, -1.0), (0.5, -0.125, -0.5)],
)
def test_h1_frozen_examples(ma, p, value, argmin):
    h, alpha = at_point(h1_terms, ma, 0.0, 0.5, p)
    assert h == pytest.approx(value, abs=1e-12)
    assert alpha == pytest.approx(argmin, abs=1e-12)
    bf_val, bf_arg = brute_force_h1(p)
    assert h == pytest.approx(bf_val, abs=1e-6)
    assert alpha == pytest.approx(bf_arg, abs=1e-3)


@pytest.mark.parametrize(
    "q, value, argmin",
    [(0.0, 0.0, 1.0), (2.0, 1.25, 0.5), (-4.0, -7.0, 2.0)],
)
def test_h2_frozen_examples(ma, q, value, argmin):
    h, eta = at_point(h2_terms, ma, 0.0, 0.5, q)
    assert h == pytest.approx(value, abs=1e-12)
    assert eta == pytest.approx(argmin, abs=1e-12)
    bf_val, bf_arg = brute_force_h2(q)
    assert h == pytest.approx(bf_val, abs=1e-6)
    assert eta == pytest.approx(bf_arg, abs=1e-3)


def test_brute_force_sweep(ma, rng):
    for _ in range(100):
        p = rng.uniform(-6, 6)
        q = rng.uniform(-10, 10)
        assert at_point(h1_terms, ma, 0.0, 0.5, p)[0] == pytest.approx(brute_force_h1(p)[0], abs=1e-6)
        assert at_point(h2_terms, ma, 0.0, 0.5, q)[0] == pytest.approx(brute_force_h2(q)[0], abs=1e-6)


def test_tabulated_matches_closed_form(ma, rng):
    # exhaustive search over a fine grid must reproduce the clamped forms
    tab = HamiltonianSpec(
        kind="tabulated",
        dim=1,
        control_grid_u=np.linspace(-1, 1, 2001)[:, None],
        control_grid_eta=np.linspace(0.5, 2.0, 1501),
        lagrangian_l1=lambda t, x, a: 0.5 * float(np.sum(a**2)) * np.ones(np.shape(np.asarray(x)[..., 0])),
        lagrangian_l3=lambda t, x, e: (float(e) - 1.0) ** 2 * np.ones(np.shape(np.asarray(x)[..., 0])),
    )
    from dataclasses import replace

    tab_model = replace(ma, hamiltonians=tab)
    for _ in range(25):
        p, q = rng.uniform(-4, 4), rng.uniform(-8, 8)
        assert at_point(h1_terms, tab_model, 0.1, 0.3, p)[0] == pytest.approx(
            at_point(h1_terms, ma, 0.1, 0.3, p)[0], abs=1e-5
        )
        assert at_point(h2_terms, tab_model, 0.1, 0.3, q)[0] == pytest.approx(
            at_point(h2_terms, ma, 0.1, 0.3, q)[0], abs=1e-5
        )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_bounds_reject_equal_lambdas():
    with pytest.raises(ConfigError):
        ControlBounds(lambda1=1.0, lambda2=1.0)
    with pytest.raises(ConfigError):
        ControlBounds(lambda1=2.0, lambda2=1.0)


@pytest.mark.parametrize(
    "lambda1, lambda2, named",
    [(1.0, float("inf"), "lambda2"), (float("inf"), 2.0, "lambda1"), (float("-inf"), 2.0, "lambda1"),
     (float("nan"), 2.0, "lambda1"), (1.0, float("nan"), "lambda2")],
)
def test_bounds_reject_nonfinite_lambdas_by_name(lambda1, lambda2, named):
    # an infinite lambda2 would leave the Monte-Carlo increment guard unbounded
    with pytest.raises(ConfigError, match=f"{named} must be finite"):
        ControlBounds(lambda1=lambda1, lambda2=lambda2)


NAN = float("nan")


def _one_point_spec(u=0.0, eta=1.0):
    """A tabulated spec with the one-point control grids {u} and {eta} at zero running cost."""
    return HamiltonianSpec(
        kind="tabulated",
        dim=1,
        control_grid_u=np.array([[u]]),
        control_grid_eta=np.array([eta]),
        lagrangian_l1=lambda t, x, a: 0.0,
        lagrangian_l3=lambda t, x, e: 0.0,
    )


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=NAN), id="drift_bound"),
        pytest.param(lambda: ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=float("inf")), id="drift_bound_inf"),
        pytest.param(lambda: ClosedFormCoefficients(l1_weight=NAN), id="l1_weight"),
        pytest.param(lambda: ClosedFormCoefficients(l1_weight=float("inf")), id="l1_weight_inf"),
        pytest.param(lambda: ClosedFormCoefficients(l3_vertex=NAN), id="l3_vertex"),
        pytest.param(lambda: ClosedFormCoefficients(l3_weight=NAN), id="l3_weight"),
        pytest.param(lambda: ClosedFormCoefficients(l3_weight=float("inf")), id="l3_weight_inf"),
        pytest.param(lambda: mollify_hamiltonian(model_a().hamiltonians, NAN), id="mollify_delta"),
        pytest.param(lambda: mollify_hamiltonian(model_a().hamiltonians, float("inf")), id="mollify_delta_inf"),
        pytest.param(
            lambda: HamiltonianSpec(kind="mollified", base=model_a().hamiltonians, delta=NAN), id="spec_delta"
        ),
        pytest.param(
            lambda: HamiltonianSpec(kind="mollified", base=model_a().hamiltonians, delta=float("inf")),
            id="spec_delta_inf",
        ),
        pytest.param(lambda: ModelSpec(**{**vars(model_a()), "hamiltonians": _one_point_spec(u=NAN)}),
                     id="control_grid_u"),
        pytest.param(lambda: ModelSpec(**{**vars(model_a()), "hamiltonians": _one_point_spec(eta=NAN)}),
                     id="control_grid_eta"),
        pytest.param(lambda: ModelSpec(**{**vars(model_a()), "horizon": NAN}), id="horizon"),
        pytest.param(lambda: ModelSpec(**{**vars(model_a()), "horizon": float("inf")}), id="horizon_inf"),
        pytest.param(lambda: ModelSpec(**{**vars(model_a()), "discount": NAN}), id="discount"),
        pytest.param(lambda: KernelCoupling(eps=NAN, gain=0.5), id="kernel_eps"),
        pytest.param(lambda: KernelCoupling(eps=0.1, gain=NAN), id="kernel_gain"),
        pytest.param(lambda: KernelCoupling(eps=0.1, gain=float("inf")), id="kernel_gain_inf"),
        pytest.param(lambda: DensityInit(kind="gaussian", width=NAN), id="density_width"),
        pytest.param(lambda: TerminalBase(kind="cosine", amplitude=NAN), id="terminal_amplitude"),
        pytest.param(lambda: TerminalBase(kind="constant", value=NAN), id="terminal_value"),
        pytest.param(lambda: McConfig(num_paths=100, dt_mc=NAN, seed=0, x0=(0.5,)), id="dt_mc"),
        pytest.param(lambda: McConfig(num_paths=100, dt_mc=1e-3, seed=0, x0=(NAN,)), id="x0"),
        pytest.param(lambda: McConfig(num_paths=100, dt_mc=1e-3, seed=0, x0=(0.5, float("inf"))), id="x0_inf"),
        pytest.param(lambda: FixedPointConfig(tol=NAN), id="fixed_point_tol"),
        pytest.param(
            lambda: picard_solve(model_a(), GridSpec(dim=1, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=2.0),
                                 tol=NAN),
            id="picard_tol",
        ),
        pytest.param(
            lambda: validate_kernel(GridSpec(dim=1, box_length=1.0, nx=32, nt=64, horizon=0.01, a_max=0.5), NAN),
            id="validate_kernel_eps",
        ),
    ],
)
def test_nonfinite_parameters_rejected(build):
    # each check is written so that a NaN fails it, as a value out of range does
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: ModelSpec(**{**vars(model_a()), "discount": float("inf")}), lambda: model_a(discount=float("inf"))],
    ids=["model_spec", "model_a"],
)
def test_infinite_discount_rejected_by_name(build):
    # as an infinite horizon is: the discounted march could not take a step of it
    with pytest.raises(ConfigError, match="discount must be .* finite"):
        build()


def test_empty_control_grid_rejected():
    with pytest.raises(ConfigError):
        HamiltonianSpec(
            kind="tabulated",
            dim=1,
            control_grid_u=np.zeros((0, 1)),
            control_grid_eta=np.array([1.0]),
            lagrangian_l1=lambda t, x, a: 0.0,
            lagrangian_l3=lambda t, x, e: 0.0,
        )


def test_closed_form_drift_box_is_drift_bound(ma, rng):
    # the closed form minimizes over [-drift_bound, drift_bound], here 0.4, not model A's 1
    from dataclasses import replace

    from mfgdiff.control import h1_segment_mean

    model = replace(ma, bounds=ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=0.4))
    box = np.linspace(-0.4, 0.4, 8001)
    s = (np.arange(20000) + 0.5) / 20000
    for p in (*rng.uniform(-3, 3, 20), 0.8, -0.8, 5.0):
        value, alpha = at_point(h1_terms, model, 0.1, 0.3, p)
        assert value == pytest.approx(np.min(p * box + 0.5 * box**2), abs=1e-8)
        assert alpha == pytest.approx(np.clip(-p, -0.4, 0.4), abs=1e-15)
        # the exact segment mean against a midpoint rule for the mean of H1_p on [0, p]
        mean = h1_segment_mean(model, 0.1, np.array([[0.3]]), np.array([[p]]))[0, 0]
        assert mean == pytest.approx(np.mean(np.clip(-s * p, -0.4, 0.4)), abs=1e-8)


def test_drift_grid_beyond_drift_bound_rejected(ma):
    # theta_lf and the time-step bound dominate only drifts up to drift_bound = 1
    from dataclasses import replace

    bad = _one_point_spec(u=-1.5)
    for spec in (bad, mollify_hamiltonian(bad, 0.01)):
        with pytest.raises(ConfigError, match="control_grid_u"):
            replace(ma, hamiltonians=spec)
    replace(ma, hamiltonians=_one_point_spec(u=-1.0))


def test_eta_grid_outside_bounds_rejected(ma):
    from dataclasses import replace

    bad = HamiltonianSpec(
        kind="tabulated",
        dim=1,
        control_grid_u=np.zeros((1, 1)),
        control_grid_eta=np.array([3.0]),  # above lambda2^2/2 = 2
        lagrangian_l1=lambda t, x, a: 0.0,
        lagrangian_l3=lambda t, x, e: 0.0,
    )
    with pytest.raises(ConfigError, match="control_grid_eta"):
        replace(ma, hamiltonians=bad)


def test_concavity_along_lines(ma, rng):
    # infimum of affine functions: H(theta q1 + (1-theta) q2) >= mix of values
    for _ in range(200):
        q1, q2 = rng.uniform(-10, 10, size=2)
        th = rng.uniform()
        for terms, (z1, z2) in ((h2_terms, (q1, q2)), (h1_terms, rng.uniform(-6, 6, size=2))):
            mix = at_point(terms, ma, 0.0, 0.5, th * z1 + (1 - th) * z2)[0]
            values = th * at_point(terms, ma, 0.0, 0.5, z1)[0] + (1 - th) * at_point(terms, ma, 0.0, 0.5, z2)[0]
            assert mix >= values - 1e-12


def test_ellipticity_range(ma, rng):
    for q in rng.uniform(-20, 20, size=200):
        # the derivative is the minimizing eta, so it lies in [1/2, 2] exactly
        assert 0.5 <= at_point(h2_terms, ma, 0.0, 0.5, q)[1] <= 2.0


def test_envelope_consistency_interior(ma):
    # centered difference of the value matches the derivative where the
    # argmin is interior and unique
    h = 1e-5
    # eta* = 1 - q/2 interior for |q| < 1 .. 2
    for terms, points in ((h2_terms, (-1.5, -0.2, 0.3, 0.9)), (h1_terms, (-0.8, -0.3, 0.4, 0.9))):
        for z in points:
            deriv = at_point(terms, ma, 0.0, 0.5, z)[1]
            fd = (at_point(terms, ma, 0.0, 0.5, z + h)[0] - at_point(terms, ma, 0.0, 0.5, z - h)[0]) / (2 * h)
            assert abs(fd - deriv) <= 1e-3 * (1 + abs(deriv))


def test_monotone_argmin(ma, rng):
    qs = np.sort(rng.uniform(-10, 10, size=100))
    args = [at_point(h2_terms, ma, 0.0, 0.5, q)[1] for q in qs]
    assert np.all(np.diff(args) <= 1e-14)


def test_h2_lipschitz_in_q(ma, rng):
    for _ in range(200):
        q1, q2 = rng.uniform(-10, 10, size=2)
        dv = abs(at_point(h2_terms, ma, 0.0, 0.5, q1)[0] - at_point(h2_terms, ma, 0.0, 0.5, q2)[0])
        assert dv <= 2.0 * abs(q1 - q2) + 1e-12


def test_l3_from_l2_convexity():
    # convex, nonincreasing cost in sigma gives a convex cost in eta
    l2 = lambda t, x, s: (3.0 - s) ** 2
    l3 = l3_from_l2(l2)
    etas = np.linspace(0.5, 2.0, 200)
    vals = np.array([l3(0.0, np.zeros(1), e) for e in etas])
    second = vals[2:] + vals[:-2] - 2 * vals[1:-1]
    assert np.all(second > 0)


# ---------------------------------------------------------------------------
# one evaluation of both Hamiltonians on a derivative stack
# ---------------------------------------------------------------------------


def _tabulated_model(dim):
    """Model A's quadratic costs on coarse control grids: several controls per node, t and x unused."""
    from dataclasses import replace

    axis = np.linspace(-1.0, 1.0, 5)
    grid_u = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    spec = HamiltonianSpec(
        kind="tabulated",
        dim=dim,
        control_grid_u=grid_u,
        control_grid_eta=np.linspace(0.5, 2.0, 7),
        lagrangian_l1=lambda t, x, a: 0.5 * float(np.sum(a**2)) + node_zeros(t, x),
        lagrangian_l3=lambda t, x, e: (float(e) - 1.0) ** 2 + node_zeros(t, x),
    )
    return replace(model_a(dim=dim), hamiltonians=spec)


def _non_dyadic_model(dim):
    """Closed-form costs and bounds whose products and quotients round, unlike model A's."""
    from dataclasses import replace

    model = model_a(dim=dim)
    return replace(
        model,
        bounds=ControlBounds(lambda1=0.9, lambda2=1.7, drift_bound=0.8),
        hamiltonians=replace(model.hamiltonians, closed_form=ClosedFormCoefficients(0.3, 1.1, 0.7)),
    )


_STACK_MODELS = {
    "closed_1d": lambda: model_a(),
    "closed_2d": lambda: model_a(dim=2),
    "closed_1d_non_dyadic": lambda: _non_dyadic_model(1),
    "closed_2d_non_dyadic": lambda: _non_dyadic_model(2),
    "tabulated_1d": lambda: _tabulated_model(1),
    "tabulated_2d": lambda: _tabulated_model(2),
    "mollified_1d": lambda: mollify_model(model_a(), 0.05),
}


def _derivative_stack_with_edges(dim, levels, rng):
    """A (1 + d, levels, 8, ..., 8) stack: random entries, then +-0, the clamp kinks, NaN and +-inf.

    The kinks are model A's: eta = 1 - q / 2 is a_min = 1/2 at q = 1 and
    a_max = 2 at q = -2, and alpha = -p is -1 at p = 1 and 1 at p = -1.
    """
    stack = 4.0 * rng.standard_normal((1 + dim, levels) + (8,) * dim)
    edges = {0: [0.0, -0.0, 1.0, -2.0, np.nan, np.inf, -np.inf], 1: [0.0, -0.0, 1.0, -1.0, np.nan, -np.inf]}
    for row in range(1 + dim):
        values = edges[min(row, 1)]
        flat = stack[row].reshape(-1)
        # each edge value on its own node, and again shifted per row so that rows mix
        flat[: len(values)] = values
        flat[len(values) + row : 2 * len(values) + row] = values
    return stack


@pytest.mark.parametrize("case", list(_STACK_MODELS))
def test_stacked_hamiltonians_match_split_evaluation(case, rng):
    model = _STACK_MODELS[case]()
    dim = model.dim
    x = GridSpec(dim=dim, box_length=1.0, nx=8, nt=1, horizon=1e-3, a_max=2.0).coords()
    t = np.linspace(0.0, model.horizon, 3).reshape((-1,) + (1,) * dim)
    work = {}
    for _ in range(2):  # the second call reuses the buffers the first one left in work
        stack = _derivative_stack_with_edges(dim, 3, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            ref2 = h2_value(model, t, x, stack[0])
            ref1 = h1_value(model, t, x, np.moveaxis(stack[1:], 0, -1))
            for got2, got1 in (hamiltonian_values(model, t, x, stack), hamiltonian_values(model, t, x, stack, work)):
                # raw bytes: the sign of every zero and every NaN count
                assert got2.tobytes() == ref2.tobytes()
                assert got1.tobytes() == ref1.tobytes()
                assert (got2 + got1).tobytes() == (ref2 + ref1).tobytes()
        assert np.isnan(ref2).any() and np.isnan(ref1).any()  # a NaN propagates
    if model.hamiltonians.kind == "closed-form":
        assert "closed_form" in work
    # the clamp is active at both bounds
    eta = h2_terms(model, t, x, stack[0])[1]
    if model.hamiltonians.kind != "mollified":
        assert {model.bounds.a_min, model.bounds.a_max} <= set(eta.ravel().tolist())


# sha256 of the raw bytes of each evaluation, over two draws of
# `_derivative_stack_with_edges` (seed 20260), in the order of the dict below
_RECORDED_BITS = {
    "closed_1d": {
        "h1_value": "9ab10a04548c2a10a9af384bf72c967082c9c9ee92c11c2d752a2966de59225e",
        "h1_argmin": "5eefe278e1eaa9e760a91c857e27a55e030097271ff46ba176abc5a281c9a7c7",
        "h2_value": "395d44d8d8e4e176d6b672cabb5b3495b11651d22a075dbb220e8060a834ea46",
        "h2_argmin": "c7e2829fc81680106ae1b288f8ec4f40a0ed9985af403418c3d1b770b0290601",
        "stacked_h2": "395d44d8d8e4e176d6b672cabb5b3495b11651d22a075dbb220e8060a834ea46",
        "stacked_h1": "9ab10a04548c2a10a9af384bf72c967082c9c9ee92c11c2d752a2966de59225e",
        "marched_h2": "395d44d8d8e4e176d6b672cabb5b3495b11651d22a075dbb220e8060a834ea46",
        "marched_h1": "9ab10a04548c2a10a9af384bf72c967082c9c9ee92c11c2d752a2966de59225e",
        "h1_segment_mean": "3cfc3c11b8c2b7320ec6c8702efe172dd4370319e41c5b8f921017a1dfc02dc0",
        "h2_segment_mean": "826b365280075c04a2b18053a0394fe5a80f51b40f9dc140dee08a6a6b8b721e",
    },
    "closed_2d": {
        "h1_value": "08a7d5016835d5e991d2853cd13a325a8353ee560a1f200d4e40217ba7867b74",
        "h1_argmin": "9bca90d513bce19033d2a72017a74ee334684d91e8de82bc14f6193386332dfe",
        "h2_value": "10615701ced13c052c257df5bb0f1a0ee6e44f400714651ff205511a56858876",
        "h2_argmin": "162c2ece1261977172c550705deca97eb2ebaa66c5d8640c731a656f46bdd06f",
        "stacked_h2": "10615701ced13c052c257df5bb0f1a0ee6e44f400714651ff205511a56858876",
        "stacked_h1": "08a7d5016835d5e991d2853cd13a325a8353ee560a1f200d4e40217ba7867b74",
        "marched_h2": "10615701ced13c052c257df5bb0f1a0ee6e44f400714651ff205511a56858876",
        "marched_h1": "08a7d5016835d5e991d2853cd13a325a8353ee560a1f200d4e40217ba7867b74",
        "h1_segment_mean": "73b1466adf4e638e47ecbed7e4d3d27bc5b1a48aac84c731feae74d92daf365d",
        "h2_segment_mean": "84cea320f7425128578730ebdf10d5809aef8590f6eefb3d2fefb72777b31f04",
    },
    "closed_1d_non_dyadic": {
        "h1_value": "50430b67723579c82b2cd3150c235d299d92dbaa6bf5cbd7d268032c2f004865",
        "h1_argmin": "00e386792b65ae35e8162aa576e4ba884da37f17067e1c7dca5d894e0fe9039f",
        "h2_value": "01b5d26807232e9c2a92dcdb8c3a32765d8371d67be2caa3838cb2a687bca84f",
        "h2_argmin": "0a4aeb89dffd140521683c34fe4617563c42363e2c4e12ee84a11997c67c1518",
        "stacked_h2": "01b5d26807232e9c2a92dcdb8c3a32765d8371d67be2caa3838cb2a687bca84f",
        "stacked_h1": "50430b67723579c82b2cd3150c235d299d92dbaa6bf5cbd7d268032c2f004865",
        "marched_h2": "01b5d26807232e9c2a92dcdb8c3a32765d8371d67be2caa3838cb2a687bca84f",
        "marched_h1": "50430b67723579c82b2cd3150c235d299d92dbaa6bf5cbd7d268032c2f004865",
        "h1_segment_mean": "aa476b92fc88e9f2dea2027d27af4e87cac353eaf3b1ad86cc1a708dc91b669c",
        "h2_segment_mean": "6473ce62de773526f4fe85eee40c1c7ff692411c04aeaf65b1190ed8a8ca90a2",
    },
    "tabulated_1d": {
        "h1_value": "9e7835b3903e926231c14a819677a7433f84287ae656b8f2f54b088a06016017",
        "h1_argmin": "9846803ff4448a61055f1593588ea22e234209f0c34967b804f4eea2f6021bbc",
        "h2_value": "06da3102e3990a580b6d4e1ff20a0cdf6826807add46f3ac4e647ab181d3eb91",
        "h2_argmin": "f2c56b71981b57dcf50e1c892142c7a20d8b0b5ec5e4faa6f2249ffc91027589",
        "stacked_h2": "06da3102e3990a580b6d4e1ff20a0cdf6826807add46f3ac4e647ab181d3eb91",
        "stacked_h1": "9e7835b3903e926231c14a819677a7433f84287ae656b8f2f54b088a06016017",
        "marched_h2": "06da3102e3990a580b6d4e1ff20a0cdf6826807add46f3ac4e647ab181d3eb91",
        "marched_h1": "9e7835b3903e926231c14a819677a7433f84287ae656b8f2f54b088a06016017",
        "h1_segment_mean": "2a363898487d1ade77c1359c2cd9f2645ce7a5cad34a19c21db82fdc020d522a",
        "h2_segment_mean": "7931c07a087821e50e8abe96b4b1fc976f3d5190804a0e30611c019e30b2e45a",
    },
}


def _evaluation_digests(model, seed=20260):
    dim = model.dim
    x = GridSpec(dim=dim, box_length=1.0, nx=8, nt=1, horizon=1e-3, a_max=2.0).coords()
    t = np.linspace(0.0, model.horizon, 3).reshape((-1,) + (1,) * dim)
    rng = np.random.default_rng(seed)
    names = ("h1_value", "h1_argmin", "h2_value", "h2_argmin", "stacked_h2", "stacked_h1",
             "marched_h2", "marched_h1", "h1_segment_mean", "h2_segment_mean")
    digests = {name: hashlib.sha256() for name in names}
    work = {}
    for _ in range(2):  # the second march call reuses the buffers the first one left in work
        stack = _derivative_stack_with_edges(dim, 3, rng)
        q, p = stack[0], np.moveaxis(stack[1:], 0, -1)
        with np.errstate(invalid="ignore", over="ignore"):
            arrays = (
                *h1_terms(model, t, x, p),
                *h2_terms(model, t, x, q),
                *hamiltonian_values(model, t, x, stack),
                *hamiltonian_values(model, t, x, stack, work),
                h1_segment_mean(model, t, x, p),
                h2_segment_mean(model, t, x, q),
            )
        for name, arr in zip(names, arrays):
            digests[name].update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return {name: d.hexdigest() for name, d in digests.items()}


@pytest.mark.parametrize("case", ["closed_1d", "closed_2d", "closed_1d_non_dyadic", "tabulated_1d"])
def test_hamiltonian_evaluations_match_recorded_bits(case):
    # raw bytes: the sign of every zero and the NaN and inf edges count; every
    # evaluation path of both Hamiltonians, the march's included, is pinned here
    assert _evaluation_digests(_STACK_MODELS[case]()) == _RECORDED_BITS[case]


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_mollify_small_delta_close(ma):
    mm = mollify_model(ma, delta=1e-3)
    for q in (-3.0, -0.5, 0.4, 2.5):
        assert at_point(h2_terms, mm, 0.1, 0.4, q)[0] == pytest.approx(
            at_point(h2_terms, ma, 0.1, 0.4, q)[0], abs=1e-6
        )
    for p in (-2.0, 0.3, 1.5):
        assert at_point(h1_terms, mm, 0.1, 0.4, p)[0] == pytest.approx(
            at_point(h1_terms, ma, 0.1, 0.4, p)[0], abs=1e-6
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_mollifier_terms_match_loop_reference(dim):
    # the per-combination loop over all nine steps per axis, skipping zero weights
    from itertools import product

    from mfgdiff.control import _mollifier_terms

    delta = 0.15
    steps = np.arange(-4, 5) / 4.0
    w1 = np.clip(1.0 - steps**2, 0.0, None)
    offs, wts = [], []
    for combo in product(range(9), repeat=dim + 2):
        w = float(np.prod([w1[c] for c in combo]))
        if w != 0.0:
            offs.append([steps[c] * delta for c in combo])
            wts.append(w)
    weights = np.asarray(wts)
    offsets, got = _mollifier_terms(mollify_hamiltonian(model_a(dim=dim).hamiltonians, delta))
    assert np.array_equal(offsets, np.asarray(offs))
    assert np.array_equal(got, weights / weights.sum())


def _kinked_model():
    # H2(q) = min(2q, 0.5q + 1.5): slopes 2 then 0.5, kink at q = 1
    ham = HamiltonianSpec(
        kind="tabulated",
        dim=1,
        control_grid_u=np.zeros((1, 1)),
        control_grid_eta=np.array([0.5, 2.0]),
        lagrangian_l1=lambda t, x, a: np.zeros(np.shape(np.asarray(x)[..., 0])),
        lagrangian_l3=lambda t, x, e: (1.5 if e < 1.0 else 0.0)
        * np.ones(np.shape(np.asarray(x)[..., 0])),
    )
    return ModelSpec(
        bounds=ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=0.0),
        hamiltonians=ham,
        coupling_f=KernelCoupling(eps=0.1, gain=0.0),
        terminal=TerminalSpec(base=TerminalBase(kind="zero"), coupling=KernelCoupling(eps=0.1, gain=0.0)),
        m0=DensityInit(kind="uniform"),
        horizon=1.0,
    )


def test_mollify_smooths_kink():
    model = _kinked_model()
    delta = 0.2
    mm = mollify_model(model, delta)
    qs = np.linspace(1 - 2 * delta, 1 + 2 * delta, 81)
    derivs = np.array([at_point(h2_terms, mm, 0.0, 0.5, q)[1] for q in qs])
    # sandwiched between the one-sided slopes, strictly inside near the kink
    assert np.all(derivs >= 0.5 - 1e-12) and np.all(derivs <= 2.0 + 1e-12)
    mid = derivs[np.abs(qs - 1.0) < delta / 4]
    assert np.all(mid > 0.6) and np.all(mid < 1.9)
    # the 9-offset kernel leaves steps no larger than its largest weight
    # times the slope jump (1.5), against the full jump of 1.5 unsmoothed
    steps = np.arange(-4, 5) / 4.0
    w = np.clip(1.0 - steps**2, 0, None)
    max_weight = w.max() / w.sum()
    assert np.max(np.abs(np.diff(derivs))) <= max_weight * 1.5 + 1e-9


def test_mollify_kink_value_oracle():
    # marginal convolution in the last variable is an independent oracle here
    # because the base Hamiltonian does not depend on (t, x)
    model = _kinked_model()
    delta = 0.2
    mm = mollify_model(model, delta)
    steps = np.arange(-4, 5) / 4.0
    w = np.clip(1.0 - steps**2, 0, None)
    w = w / w.sum()
    for q0 in (1 - delta, 1 + delta):
        expected = sum(
            wi * at_point(h2_terms, model, 0.0, 0.5, q0 - si * delta)[0]
            for wi, si in zip(w, steps)
        )
        assert at_point(h2_terms, mm, 0.0, 0.5, q0)[0] == pytest.approx(expected, abs=1e-12)


def test_mollify_constant_unchanged():
    # constant Hamiltonian: single eta control with constant cost
    ham = HamiltonianSpec(
        kind="tabulated",
        dim=1,
        control_grid_u=np.zeros((1, 1)),
        control_grid_eta=np.array([1.0]),
        lagrangian_l1=lambda t, x, a: np.full(np.shape(np.asarray(x)[..., 0]), 2.0),
        lagrangian_l3=lambda t, x, e: np.full(np.shape(np.asarray(x)[..., 0]), -1.0),
    )
    model = ModelSpec(
        bounds=ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=0.0),
        hamiltonians=ham,
        coupling_f=KernelCoupling(eps=0.1, gain=0.0),
        terminal=TerminalSpec(base=TerminalBase(kind="zero"), coupling=KernelCoupling(eps=0.1, gain=0.0)),
        m0=DensityInit(kind="uniform"),
        horizon=1.0,
    )
    mm = mollify_model(model, 0.3)
    # H1 is constant (= 2); H2(q) = q + const is affine, also preserved
    assert at_point(h1_terms, mm, 0.2, 0.7, 0.0)[0] == pytest.approx(2.0, abs=1e-12)
    assert at_point(h2_terms, mm, 0.2, 0.7, 3.0)[0] == pytest.approx(
        at_point(h2_terms, model, 0.2, 0.7, 3.0)[0], abs=1e-12
    )


def test_mollify_rejects_nonpositive_delta(ma):
    with pytest.raises(ConfigError):
        mollify_hamiltonian(ma.hamiltonians, 0.0)
    with pytest.raises(ConfigError):
        mollify_hamiltonian(ma.hamiltonians, -0.1)


def test_mollify_preserves_concavity_and_bounds(ma, rng):
    mm = mollify_model(ma, 0.15)
    for _ in range(50):
        q1, q2 = rng.uniform(-8, 8, size=2)
        th = rng.uniform()
        assert (
            at_point(h2_terms, mm, 0.0, 0.5, th * q1 + (1 - th) * q2)[0]
            >= th * at_point(h2_terms, mm, 0.0, 0.5, q1)[0]
            + (1 - th) * at_point(h2_terms, mm, 0.0, 0.5, q2)[0]
            - 1e-12
        )
        assert 0.5 - 1e-12 <= at_point(h2_terms, mm, 0.0, 0.5, q1)[1] <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# hypothesis audit
# ---------------------------------------------------------------------------


def _sample_cloud(rng, n=300):
    return [
        (rng.uniform(0, 0.25), rng.uniform(0, 1, size=1), rng.uniform(-8, 8, size=1), q)
        for q in np.concatenate([np.linspace(-10, 10, n // 2), rng.uniform(-10, 10, n // 2)])
    ]


def test_hypotheses_model_a(ma, rng):
    report = validate_hypotheses(ma, _sample_cloud(rng))
    assert report.passed
    # ellipticity constant equals lambda1^2/2 on a q-range reaching the clamp
    assert report.by_name("ellipticity").worst == pytest.approx(0.5, abs=1e-12)
    # coercivity constant is the largest running cost at the argmin, <= 1
    assert 0.0 <= report.by_name("coercivity").worst <= 1.0 + 1e-12
    # space-independent model: every (t, x)-derivative constant vanishes
    assert report.by_name("mixed-qx").worst == pytest.approx(0.0, abs=1e-9)
    assert report.by_name("x-gradient").worst == pytest.approx(0.0, abs=1e-9)


def test_hypothesis_coercivity_equals_running_cost(ma, rng):
    # |H2_q q - H2| is the running cost at the minimizer
    for q in rng.uniform(-10, 10, size=50):
        value, eta = at_point(h2_terms, ma, 0.0, 0.5, q)
        assert abs(eta * q - value) == pytest.approx((eta - 1.0) ** 2, abs=1e-12)


def test_hypotheses_record_nonfinite(ma, rng):
    samples = _sample_cloud(rng, n=10)
    samples.append((float("nan"), np.array([0.5]), np.array([1.0]), 2.0))
    report = validate_hypotheses(ma, samples)
    assert report.n_nonfinite == 1
    assert report.n_samples == len(samples)


def test_hypotheses_empty_rejected(ma):
    with pytest.raises(ConfigError):
        validate_hypotheses(ma, [])


def test_hypotheses_fail_flagged(ma, rng):
    # a tiny declared constant must trip the pass flags
    report = validate_hypotheses(ma, _sample_cloud(rng), declared_c=1e-6)
    assert not report.passed
    assert not report.by_name("gradient-bound").passed
