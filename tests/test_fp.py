"""Density solver: adjoint structure, conservation, positivity, duality."""

import numpy as np
import pytest

from mfgdiff import ContractError, StabilityError, model_a, single_control_model
from mfgdiff.control import h1_terms, h2_terms
from mfgdiff.couplings import DensityInit
from mfgdiff.fixed_point import picard_solve
from mfgdiff.fp import DensityPath, TransportOperator, build_transport_operator, check_duality, solve_fp
from mfgdiff.grid import GridSpec, TimeField, grad_central, laplacian
from mfgdiff.hjb import grid_for, solve_hjb

from conftest import random_smooth_slice


@pytest.fixture(scope="module")
def ma():
    return model_a(horizon=0.05)


@pytest.fixture(scope="module")
def grid32(ma):
    return grid_for(ma, nx=32, nt=420)


def _diffusion_grid(nx=64, nt=512, horizon=0.02, a=0.5, theta=0.0):
    return GridSpec(dim=1, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=a, theta_lf=theta)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


def test_operator_constant_field(ma, grid32):
    u = TimeField.constant(grid32, 3.0)
    op = build_transport_operator(u, ma)
    assert np.allclose(op.a, 1.0, atol=1e-14)  # argmin at q = 0
    assert np.allclose(op.b, 0.0, atol=1e-14)


def test_operator_single_control(grid32, rng):
    sc = single_control_model(nu=1.0, horizon=0.05)
    grid = grid_for(sc, nx=32, nt=420)
    u = TimeField(grid, rng.standard_normal((grid.nt + 1, *grid.shape)))
    op = build_transport_operator(u, sc)
    assert np.allclose(op.a, 1.0, atol=1e-14)


def test_operator_matches_pointwise_eval(ma, grid32):
    from mfgdiff import eval_h2
    from mfgdiff.grid import laplacian

    x = grid32.axis_coords()
    u = TimeField(
        grid32,
        np.broadcast_to(np.cos(2 * np.pi * x), (grid32.nt + 1, *grid32.shape)).copy(),
    )
    op = build_transport_operator(u, ma)
    lap = laplacian(u.values[0], grid32.dx)
    i_star = int(np.argmax(lap))
    expected = eval_h2(ma, 0.0, x[i_star], lap[i_star]).argmin
    assert op.a[0, i_star] == pytest.approx(expected, abs=1e-14)
    # and pointwise over the whole slice
    for i in range(grid32.nx):
        assert op.a[0, i] == pytest.approx(eval_h2(ma, 0.0, x[i], lap[i]).argmin, abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_chunked_operator_build_matches_whole_stack(dim, rng):
    model = model_a(horizon=0.05, dim=dim)
    grid = grid_for(model, nx=32 if dim == 1 else 12, nt=420 if dim == 1 else 100)
    assert len(grid.level_chunks()) > 1
    u = TimeField(grid, 2e-3 * rng.standard_normal((grid.nt + 1, *grid.shape)))
    op = build_transport_operator(u, model)
    x = grid.coords()
    t = grid.times().reshape((-1,) + (1,) * dim)
    a = h2_terms(model, t, x, laplacian(u.values, grid.dx, dim))[1]
    b = h1_terms(model, t, x, grad_central(u.values, grid.dx, dim))[1]
    assert np.array_equal(op.a, a)
    assert np.array_equal(op.b, b)
    # the clamps are active on some nodes and not on others
    assert 0.0 < np.mean((a == model.bounds.a_min) | (a == model.bounds.a_max)) < 1.0
    diag = 1.0 - grid.dt * (2.0 * dim * a / grid.dx**2 + np.sum(np.abs(b), axis=-1) / grid.dx)
    assert op.step_positivity_margin() == float(diag.min())


def test_picard_working_set_bound():
    """One Picard solve holds at most 11 level stacks at its traced peak."""
    import tracemalloc

    model = model_a()
    grid = grid_for(model, nx=32, nt=1040)
    stack_bytes = (grid.nt + 1) * grid.n_nodes * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        picard_solve(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * stack_bytes


def test_picard_residual_sup_takes_no_extra_stack():
    """The residual sup adds no level stack: traced peak 6.3 stacks (7.0 with an abs copy)."""
    import tracemalloc

    # many nodes per level, so a chunk of the residual's temporaries is small next to a stack
    model = model_a(horizon=1 / 64)
    grid = grid_for(model, nx=128, nt=1040)
    stack_bytes = (grid.nt + 1) * grid.n_nodes * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        picard_solve(model, grid, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * stack_bytes


# ---------------------------------------------------------------------------
# adjoint structure
# ---------------------------------------------------------------------------


def test_adjoint_is_exact_transpose(rng):
    grid = _diffusion_grid(nx=16, nt=64)
    a = 0.5 + 0.3 * np.sin(2 * np.pi * grid.axis_coords())
    b = 0.4 * np.cos(2 * np.pi * grid.axis_coords())
    op = TransportOperator(
        grid,
        np.broadcast_to(a, (grid.nt + 1, grid.nx)).copy(),
        np.broadcast_to(b[:, None], (grid.nt + 1, grid.nx, 1)).copy(),
    )
    v = rng.standard_normal(grid.shape)
    m = rng.standard_normal(grid.shape)
    lhs = float(np.sum(op.apply_generator(0, v) * m))
    rhs = float(np.sum(v * op.apply_adjoint(0, m)))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_matches_direct_product_discretization(rng):
    # frozen non-constant coefficients: L^T m must equal the centered second
    # difference of (a m) minus the adjoint-upwind divergence of (b m)
    grid = _diffusion_grid(nx=16, nt=64)
    x = grid.axis_coords()
    a = 0.6 + 0.2 * np.sin(2 * np.pi * x)
    b = 0.3 * np.sin(4 * np.pi * x) + 0.1
    op = TransportOperator(
        grid,
        np.broadcast_to(a, (grid.nt + 1, grid.nx)).copy(),
        np.broadcast_to(b[:, None], (grid.nt + 1, grid.nx, 1)).copy(),
    )
    m = rng.random(grid.shape) + 0.5
    dx = grid.dx
    am = a * m
    diff_part = (np.roll(am, -1) + np.roll(am, 1) - 2 * am) / dx**2
    bp, bm = np.maximum(b, 0) * m, np.minimum(b, 0) * m
    div_part = (bp - np.roll(bp, 1)) / dx + (np.roll(bm, -1) - bm) / dx
    expected = diff_part - div_part
    assert np.max(np.abs(op.apply_adjoint(0, m) - expected)) <= 1e-12


def test_generator_annihilates_constants(rng):
    grid = _diffusion_grid(nx=16, nt=64)
    op = TransportOperator(
        grid,
        0.5 + 0.4 * rng.random((grid.nt + 1, grid.nx)),
        0.5 * rng.standard_normal((grid.nt + 1, grid.nx, 1)),
    )
    out = op.apply_generator(0, np.full(grid.shape, 7.0))
    assert np.max(np.abs(out)) <= 1e-10


def test_step_matrix_nonnegative_unit_rowsums():
    grid = _diffusion_grid(nx=16, nt=256, a=1.0, theta=0.5)
    x = grid.axis_coords()
    op = TransportOperator(
        grid,
        np.broadcast_to(0.6 + 0.3 * np.sin(2 * np.pi * x), (grid.nt + 1, grid.nx)).copy(),
        np.broadcast_to(0.4 * np.cos(2 * np.pi * x)[:, None], (grid.nt + 1, grid.nx, 1)).copy(),
    )
    dense = np.eye(grid.nx) + grid.dt * op.to_dense(0)
    assert dense.min() >= -1e-14
    # unit row sums of I + dt L (constants preserved); the transposed step
    # then conserves mass because its column sums are these row sums
    assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def _random_operator(dim, rng):
    """Random coefficients within the grid's budget, on a grid of at least 3 level chunks."""
    nx, nt, horizon = (16, 778, 2.0) if dim == 1 else (8, 200, 1.0)
    grid = GridSpec(dim=dim, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=0.5, theta_lf=1.0)
    assert len(grid.level_chunks()) >= 3
    a = rng.uniform(0.1, 0.5, (nt + 1, *grid.shape))
    b = rng.uniform(-1.0, 1.0, (nt + 1, *grid.shape, dim))
    return TransportOperator(grid, a, b)


def _dense_generator(grid, a, b):
    """L of one level from its definition, a * Lap_h + upwind b . D, as a dense matrix."""
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    rows = idx.ravel()
    mat = np.zeros((grid.n_nodes, grid.n_nodes))
    for k in range(grid.dim):
        ahead = np.roll(idx, -1, axis=k).ravel()  # node i + e_k
        behind = np.roll(idx, 1, axis=k).ravel()  # node i - e_k
        diff = a.ravel() / grid.dx**2
        drift = b[..., k].ravel() / grid.dx
        np.add.at(mat, (rows, ahead), diff + np.maximum(drift, 0.0))
        np.add.at(mat, (rows, behind), diff - np.minimum(drift, 0.0))
        np.add.at(mat, (rows, rows), -2.0 * diff - np.abs(drift))
    return mat


@pytest.mark.parametrize("dim", [1, 2])
def test_march_matches_dense_oracle(dim, rng):
    op = _random_operator(dim, rng)
    grid = op.grid
    cell = grid.dx**dim
    m0 = rng.uniform(0.1, 1.0, grid.shape)
    m0 /= m0.sum() * cell
    m = solve_fp(op, m0)
    ref = m0.ravel()
    worst = 0.0
    for n in range(grid.nt):
        dense = _dense_generator(grid, op.a[n], op.b[n])
        if n in (0, grid.nt // 2, grid.nt - 1):
            assert np.max(np.abs(op.to_dense(n) - dense)) <= 1e-13 * np.max(np.abs(dense))
        ref = (np.eye(grid.n_nodes) + grid.dt * dense).T @ ref
        worst = max(worst, float(np.max(np.abs(m.values[n + 1].ravel() - ref)) / np.max(ref)))
    assert worst <= 1e-13
    assert np.max(np.abs(m.mass - 1.0)) <= 1e-12
    phi_t = rng.standard_normal(grid.shape)
    psi = TimeField(grid, rng.standard_normal((grid.nt + 1, *grid.shape)))
    assert check_duality(m, op, phi_t, psi) <= 1e-13


# ---------------------------------------------------------------------------
# forward marches against Monte-Carlo oracles
# ---------------------------------------------------------------------------


def test_dirac_diffusion_variance():
    grid = _diffusion_grid(nx=64, nt=512, horizon=0.02, a=0.5)
    op = TransportOperator.constant(grid, a=0.5)
    m0 = DensityInit(kind="dirac", center=(0.5,)).discretize(grid)
    m = solve_fp(op, m0)
    assert np.max(np.abs(m.mass - 1.0)) <= 1e-12
    assert m.values.min() >= -1e-14
    x = grid.axis_coords()
    var_fp = float(np.sum((x - 0.5) ** 2 * m.values[-1]) * grid.dx)
    # independent Euler simulation of the same diffusion
    rng = np.random.default_rng(7)
    n, steps = 40000, 40
    dt = grid.horizon / steps
    xs = np.zeros(n)
    for _ in range(steps):
        xs += np.sqrt(2 * 0.5 * dt) * rng.standard_normal(n)
    sq = xs**2
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(var_fp - sq.mean()) <= 3 * se + 1e-4


def test_constant_drift_mean_advance():
    # horizon kept short so the spreading bump never reaches the wrap seam
    grid = _diffusion_grid(nx=64, nt=256, horizon=0.005, a=0.5, theta=1.0)
    c = 0.8
    op = TransportOperator.constant(grid, a=0.5, b=c)
    m0 = DensityInit(kind="gaussian", center=(0.5,), width=0.05).discretize(grid)
    m = solve_fp(op, m0)
    x = grid.axis_coords()
    mean_start = float(np.sum(x * m.values[0]) * grid.dx)
    mean_end = float(np.sum(x * m.values[-1]) * grid.dx)
    rng = np.random.default_rng(11)
    n, steps = 40000, 40
    dt = grid.horizon / steps
    xs = np.zeros(n)
    for _ in range(steps):
        xs += c * dt + np.sqrt(2 * 0.5 * dt) * rng.standard_normal(n)
    se = xs.std(ddof=1) / np.sqrt(n)
    assert abs((mean_end - mean_start) - xs.mean()) <= 3 * se + 1e-4
    # exact up to the Gaussian tail touching the wrap seam (~1e-5 relative)
    assert mean_end - mean_start == pytest.approx(c * grid.horizon, rel=1e-4)


def test_uniform_density_stationary():
    grid = _diffusion_grid(nx=32, nt=256, a=0.7)
    x = grid.axis_coords()
    a_var = np.broadcast_to(0.4 + 0.2 * np.sin(2 * np.pi * x) * 0, (grid.nt + 1, grid.nx)).copy()
    op = TransportOperator(grid, 0.7 * np.ones((grid.nt + 1, grid.nx)), np.zeros((grid.nt + 1, grid.nx, 1)))
    m = solve_fp(op, np.ones(grid.shape))
    assert np.max(np.abs(m.values - 1.0)) <= 1e-12


def test_fp_2d_mass_positivity():
    m2 = model_a(horizon=0.01, dim=2)
    grid = grid_for(m2, nx=12, nt=480)
    u = solve_hjb(m2, TimeField.zeros(grid), np.cos(2 * np.pi * grid.coords()[..., 0]), grid)
    op = build_transport_operator(u, m2)
    m = solve_fp(op, m2.m0.discretize(grid))
    assert np.max(np.abs(m.mass - 1.0)) <= 1e-12
    assert m.values.min() >= -1e-14


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fp_run(ma, grid32, rng=None):
    gamma = DensityPath.constant_in_time(grid32, ma.m0.discretize(grid32))
    from mfgdiff.fixed_point import coupling_fields

    f_path, g_slice = coupling_fields(ma, grid32, gamma.values)
    u = solve_hjb(ma, f_path, g_slice, grid32)
    op = build_transport_operator(u, ma)
    m = solve_fp(op, ma.m0.discretize(grid32))
    return op, m


def test_duality_constant_dual(fp_run, grid32):
    op, m = fp_run
    gap = check_duality(m, op, np.ones(grid32.shape), TimeField.zeros(grid32))
    assert gap <= 1e-12  # reduces to mass conservation


def test_duality_random_pairs(fp_run, grid32, rng):
    op, m = fp_run
    for _ in range(10):
        phi_t = random_smooth_slice(grid32, rng)
        psi = TimeField(
            grid32,
            np.stack([random_smooth_slice(grid32, rng) for _ in range(grid32.nt + 1)]),
        )
        assert check_duality(m, op, phi_t, psi) <= 1e-10


def test_duality_source_only_measures_horizon(fp_run, grid32):
    # psi = 1, phi_T = 0: the identity collapses to dt * sum of level masses = T
    op, m = fp_run
    gap = check_duality(m, op, np.zeros(grid32.shape), TimeField.constant(grid32, 1.0))
    assert gap <= 1e-10
    cell = grid32.dx
    lhs = grid32.dt * sum(m.values[n].sum() for n in range(grid32.nt)) * cell
    assert lhs == pytest.approx(grid32.horizon, abs=1e-10)


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------


def test_cfl_violation_rejected():
    # grid sized right at its own budget; larger actual coefficients break it
    grid = _diffusion_grid(nx=32, nt=32, a=0.7)
    op = TransportOperator.constant(grid, a=2.5)
    with pytest.raises(StabilityError):
        solve_fp(op, np.ones(grid.shape))


def test_negative_initial_density_rejected():
    grid = _diffusion_grid(nx=32, nt=256, a=0.7)
    op = TransportOperator.constant(grid, a=0.7)
    bad = np.ones(grid.shape)
    bad[3] = -0.5
    bad = bad / (bad.sum() * grid.dx)
    with pytest.raises(ValueError):
        solve_fp(op, bad)


def test_wrong_mass_rejected():
    grid = _diffusion_grid(nx=32, nt=256, a=0.7)
    op = TransportOperator.constant(grid, a=0.7)
    with pytest.raises(ValueError):
        solve_fp(op, np.full(grid.shape, 2.0))


def test_coefficient_range_guard(ma, grid32):
    u = TimeField.constant(grid32, 0.0)
    op = build_transport_operator(u, ma)
    # forging an out-of-range diffusion coefficient must be caught upstream
    bad = ContractError
    op.a[0, 0] = 5.0
    with pytest.raises(StabilityError):
        solve_fp(op, ma.m0.discretize(grid32))


@pytest.mark.parametrize("dim", [1, 2])
def test_undershoot_aborts_at_first_bad_level(dim):
    """A forged margin within the -1e-12 slack: the march stops at the first negative level."""
    nx, nt, horizon = (16, 778, 2.0) if dim == 1 else (8, 200, 1.0)
    grid = GridSpec(dim=dim, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=0.5)
    chunks = grid.level_chunks()
    assert len(chunks) >= 3
    a = np.zeros((nt + 1, *grid.shape))
    # pure diffusion at one node of one level, with diagonal 1 - dt * 2 d a / dx^2 = -slack
    at_zero = grid.dx**2 / (2 * dim * grid.dt)
    first = chunks[1].start + 5
    a[(first, *(2,) * dim)] = (1.0 + 2e-13) * at_zero
    # a deeper undershoot three levels later in the same chunk, at a far node
    a[(first + 3, *(nx // 2 + 2,) * dim)] = (1.0 + 8e-13) * at_zero
    op = TransportOperator(grid, a, np.zeros((nt + 1, *grid.shape, dim)))
    assert -1e-12 <= op.step_positivity_margin() < 0.0
    with pytest.raises(ContractError, match=rf"density undershoot -2\.\d+e-13 at level {first + 1};"):
        solve_fp(op, np.ones(grid.shape))


def test_density_path_validators():
    grid = _diffusion_grid(nx=32, nt=32, a=0.7)
    vals = np.ones((grid.nt + 1, grid.nx))
    DensityPath.from_values(grid, vals)  # uniform: fine
    vals2 = vals.copy()
    vals2[3, 4] = -1e-6
    with pytest.raises(ContractError):
        DensityPath.from_values(grid, vals2)


# ---------------------------------------------------------------------------
# moments under refinement
# ---------------------------------------------------------------------------


def test_first_moment_bounded_under_refinement():
    spreads = []
    for nx, nt in ((32, 128), (64, 512)):
        grid = _diffusion_grid(nx=nx, nt=nt, horizon=0.02, a=0.5)
        op = TransportOperator.constant(grid, a=0.5)
        m0 = DensityInit(kind="gaussian", center=(0.5,), width=0.06).discretize(grid)
        m = solve_fp(op, m0)
        spreads.append(m.first_moment_spread())
    assert 0.8 <= spreads[0] / spreads[1] <= 1.2


def test_lp_norms_reported():
    grid = _diffusion_grid(nx=32, nt=128, horizon=0.02, a=0.5)
    op = TransportOperator.constant(grid, a=0.5)
    m = solve_fp(op, DensityInit(kind="gaussian", center=(0.5,), width=0.08).discretize(grid))
    assert m.lp_norm(1) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(m.lp_norm(2))
