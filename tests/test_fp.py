"""Density solver: adjoint structure, conservation, positivity, duality."""

import numpy as np
import pytest

from mfgdiff import ContractError, StabilityError, model_a, single_control_model
from mfgdiff.control import h1_terms, h2_terms
from mfgdiff.couplings import DensityInit
from mfgdiff.fixed_point import picard_solve
from mfgdiff.fp import (
    DensityPath,
    TransportOperator,
    _step,
    build_transport_operator,
    check_duality,
    solve_fp,
)
from mfgdiff.grid import GridSpec, TimeField, grad_central, laplacian
from mfgdiff.hjb import grid_for, solve_hjb

from conftest import at_point, random_smooth_slice


@pytest.fixture(scope="module")
def ma():
    return model_a(horizon=0.05)


@pytest.fixture(scope="module")
def grid32(ma):
    return grid_for(ma, nx=32, nt=420)


def _diffusion_grid(nx=64, nt=512, horizon=0.02, a=0.5, theta=0.0):
    return GridSpec(dim=1, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=a, theta_lf=theta)


def _apply(op, n, v, transpose=False):
    """`_step` with the weights (diag, nbr) of level n on the slice v: I + dt * L_n, or its transpose."""
    diag, nbr = op.weights(slice(n, n + 1), transpose)
    return _step(diag[0], nbr[0], v, transpose)


def _stencil_matrix(op, n, transpose=False):
    """The matrix of `_apply(op, n, ., transpose)`, column by column."""
    shape = op.grid.shape
    unit = np.eye(op.grid.n_nodes)
    return np.stack([_apply(op, n, e.reshape(shape), transpose).ravel() for e in unit], axis=1)


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
    x = grid32.axis_coords()
    u = TimeField(
        grid32,
        np.broadcast_to(np.cos(2 * np.pi * x), (grid32.nt + 1, *grid32.shape)).copy(),
    )
    op = build_transport_operator(u, ma)
    lap = laplacian(u.values[0], grid32.dx)
    i_star = int(np.argmax(lap))
    expected = at_point(h2_terms, ma, 0.0, x[i_star], lap[i_star])[1]
    assert op.a[0, i_star] == pytest.approx(expected, abs=1e-14)
    # and pointwise over the whole slice
    for i in range(grid32.nx):
        assert op.a[0, i] == pytest.approx(at_point(h2_terms, ma, 0.0, x[i], lap[i])[1], abs=1e-14)


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
    """The residual sup adds no level stack: traced peak 6.474 stacks (7.0 with an abs copy)."""
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


# The measurement above in a fresh interpreter, which prints the traced peak in level stacks.
_RESIDUAL_PEAK_SCRIPT = """
import tracemalloc
from mfgdiff import model_a
from mfgdiff.fixed_point import picard_solve
from mfgdiff.hjb import grid_for

model = model_a(horizon=1 / 64)
grid = grid_for(model, nx=128, nt=1040)
stack_bytes = (grid.nt + 1) * grid.n_nodes * 8
tracemalloc.start()
tracemalloc.reset_peak()
picard_solve(model, grid, max_iter=1)
print(tracemalloc.get_traced_memory()[1] / stack_bytes)
"""


def test_picard_residual_sup_takes_no_extra_stack_in_fresh_process():
    """The same bound where pytest's own allocations do not shift the peak: 6.47 stacks.

    Inside pytest the measurement reads about 0.012 stacks lower, so there a
    third chunk-sized buffer in the residual's Hamiltonian evaluation (about
    6.505 stacks in a fresh process) still passes.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _RESIDUAL_PEAK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 6.5


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
    lhs = float(np.sum(_apply(op, 0, v) * m))
    rhs = float(np.sum(v * _apply(op, 0, m, transpose=True)))
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
    expected = m + grid.dt * (diff_part - div_part)
    # relative to the step's size, as 1e-12 was to L^T m's (about 120 here)
    assert np.max(np.abs(_apply(op, 0, m, transpose=True) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_generator_annihilates_constants(rng):
    grid = _diffusion_grid(nx=16, nt=64)
    op = TransportOperator(
        grid,
        0.5 + 0.4 * rng.random((grid.nt + 1, grid.nx)),
        0.5 * rng.standard_normal((grid.nt + 1, grid.nx, 1)),
    )
    out = _apply(op, 0, np.full(grid.shape, 7.0))
    # I + dt * L keeps constants: L annihilates them to 1e-10, as read off the step
    assert np.max(np.abs(out - 7.0)) <= 1e-10 * grid.dt


def test_step_matrix_nonnegative_unit_rowsums():
    grid = _diffusion_grid(nx=16, nt=256, a=1.0, theta=0.5)
    x = grid.axis_coords()
    op = TransportOperator(
        grid,
        np.broadcast_to(0.6 + 0.3 * np.sin(2 * np.pi * x), (grid.nt + 1, grid.nx)).copy(),
        np.broadcast_to(0.4 * np.cos(2 * np.pi * x)[:, None], (grid.nt + 1, grid.nx, 1)).copy(),
    )
    # I + dt L as the march applies it, from the step weights
    dense = _stencil_matrix(op, 0)
    assert dense.min() >= -1e-14
    # unit row sums of I + dt L (constants preserved); the transposed step
    # then conserves mass because its column sums are these row sums
    assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def _random_operator(dim, rng, box_length=1.0):
    """Random coefficients within the grid's budget, on a grid of at least 3 level chunks.

    Some drifts are exactly zero, negative zero and at the bound theta_lf = 1.
    On the unit box dx is a power of two, so a reordered weight formula rounds
    the same there; box_length = 0.7 makes dx non-dyadic.
    """
    nx, nt, horizon = (16, 778, 2.0) if dim == 1 else (8, 200, 1.0)
    grid = GridSpec(dim=dim, box_length=box_length, nx=nx, nt=nt, horizon=horizon * box_length**2,
                    a_max=0.5, theta_lf=1.0)
    assert len(grid.level_chunks()) >= 3
    a = rng.uniform(0.1, 0.5, (nt + 1, *grid.shape))
    b = rng.uniform(-1.0, 1.0, (nt + 1, *grid.shape, dim))
    for j, value in enumerate((0.0, -0.0, 1.0, -1.0)):
        b.reshape(-1)[j::7] = value
    return TransportOperator(grid, a, b)


def _upwind_step_weights(a, b, dx, dt):
    """Weights of I + dt * L on a run of levels, from the upwind formula written out per axis.

    up_k = a / dx^2 + b_k^+ / dx, dn_k = a / dx^2 - b_k^- / dx and
    diag = -(2 d a / dx^2 + sum_k |b_k| / dx), then scaled to the step;
    the neighbour weights as rows up_0, dn_0, up_1, ... after the level axis.
    """
    dim = b.shape[-1]
    diag = -(2.0 * dim * a / dx**2 + np.sum(np.abs(b), axis=-1) / dx)
    rows = []
    for k in range(dim):
        rows.append(a / dx**2 + np.maximum(b[..., k], 0.0) / dx)  # up_k
        rows.append(a / dx**2 - np.minimum(b[..., k], 0.0) / dx)  # dn_k
    return 1.0 + dt * diag, dt * np.stack(rows, axis=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_weights_equal_upwind_formula(dim, rng):
    # the shared kernel with theta = |b| is the upwind generator to the last bit,
    # on a non-dyadic dx, where a reordered formula would round differently
    op = _random_operator(dim, rng, box_length=0.7)
    grid = op.grid
    for levels in grid.level_chunks():
        got = op.weights(levels)
        ref = _upwind_step_weights(op.a[levels], op.b[levels], grid.dx, grid.dt)
        for g, r in zip(got, ref, strict=True):
            assert g.shape == r.shape
            assert np.array_equal(g, r)


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


@pytest.mark.parametrize(
    "dim, box_length",
    [
        pytest.param(1, 1.0, id="1"),
        pytest.param(2, 1.0, id="2"),
        pytest.param(1, 0.7, id="1-non-dyadic"),
        pytest.param(2, 0.7, id="2-non-dyadic"),
    ],
)
def test_march_matches_dense_oracle(dim, box_length, rng):
    op = _random_operator(dim, rng, box_length)
    grid = op.grid
    cell = grid.dx**dim
    m0 = rng.uniform(0.1, 1.0, grid.shape)
    m0 /= m0.sum() * cell
    m = solve_fp(op, m0)
    ref = m0.ravel()
    worst = 0.0
    for n in range(grid.nt):
        step = np.eye(grid.n_nodes) + grid.dt * _dense_generator(grid, op.a[n], op.b[n])
        if n in (0, grid.nt // 2, grid.nt - 1):
            # the weights of I + dt * L_n, applied by the step both ways, against the step and its transpose
            bound = 1e-13 * np.max(np.abs(step))
            generator = _stencil_matrix(op, n)
            if dim == 1:
                # one axis: the weights round as the definition's entries do, to the last bit
                assert np.array_equal(generator, step)
            assert np.max(np.abs(generator - step)) <= bound
            assert np.max(np.abs(_stencil_matrix(op, n, transpose=True) - step.T)) <= bound
        ref = step.T @ ref
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


@pytest.mark.parametrize(
    "phi_t",
    [np.zeros(33), np.float64(1.0), np.where(np.arange(32) == 5, np.nan, 1.0)],
    ids=["wrong-shape", "0-d", "nan"],
)
def test_duality_rejects_bad_terminal_slice(fp_run, phi_t, grid32):
    op, m = fp_run
    with pytest.raises(ValueError, match="phi_terminal"):
        check_duality(m, op, phi_t, TimeField.zeros(grid32))


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


def _nan_at_level_270(coefficient):
    """A 16x300 operator with a NaN written into a or b after the build, in the second level chunk."""
    grid = _diffusion_grid(nx=16, nt=300, horizon=0.02, a=0.5)
    assert grid.level_chunks()[1].start < 270
    op = TransportOperator.constant(grid, a=0.5)
    getattr(op, coefficient)[270, 3] = np.nan
    return op, DensityInit(kind="gaussian", center=(0.5,), width=0.1).discretize(grid)


@pytest.mark.parametrize("coefficient", ["a", "b"])
def test_nan_coefficient_rejected(coefficient):
    op, m0 = _nan_at_level_270(coefficient)
    with pytest.raises(StabilityError):
        solve_fp(op, m0)


@pytest.mark.parametrize("coefficient", ["a", "b"])
def test_nan_level_aborts_march(coefficient, monkeypatch):
    # past the margin, the per-chunk level checks must still stop a NaN density
    op, m0 = _nan_at_level_270(coefficient)
    monkeypatch.setattr(op, "step_positivity_margin", lambda: 1.0)
    with pytest.raises(ContractError, match="level 271"):
        solve_fp(op, m0)


def test_nan_density_path_rejected(grid32, ma):
    vals = np.broadcast_to(ma.m0.discretize(grid32), (grid32.nt + 1, *grid32.shape)).copy()
    vals[7, 3] = np.nan
    with pytest.raises(ContractError):
        DensityPath.from_values(grid32, vals)


def test_nonfinite_initial_density_rejected(grid32, ma):
    m0 = ma.m0.discretize(grid32)
    m0[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_fp(TransportOperator.constant(grid32, a=0.5), m0)


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


def test_density_path_names_first_bad_level():
    grid = _diffusion_grid(nx=32, nt=32, a=0.7)
    vals = np.ones((grid.nt + 1, grid.nx))
    vals[9, 4] = -1e-6
    vals[9, 5] += 1e-6  # mass unchanged: the undershoot alone is bad
    vals[20, 7] = -1e-3
    vals[20, 8] += 1e-3
    with pytest.raises(ContractError, match=r"density undershoot -1\.000e-06 at level 9;"):
        DensityPath.from_values(grid, vals)


# ---------------------------------------------------------------------------
# moments under refinement
# ---------------------------------------------------------------------------


def _first_moment_spread(m):
    """Sup over levels of the mean absolute deviation from the level mean.

    Coordinates are unrolled (flat-line); meaningful while the mass stays
    away from the wrap seam.
    """
    grid = m.grid
    cell = grid.dx**grid.dim
    coords = grid.coords()
    levels = grid.nt + 1
    w = m.values[..., None] * cell
    mean = (coords * w).reshape(levels, -1, grid.dim).sum(axis=1)
    dev = np.linalg.norm(coords - mean.reshape((levels,) + (1,) * grid.dim + (grid.dim,)), axis=-1)
    return float(np.max((dev * m.values).reshape(levels, -1).sum(axis=1) * cell))


def test_first_moment_bounded_under_refinement():
    spreads = []
    for nx, nt in ((32, 128), (64, 512)):
        grid = _diffusion_grid(nx=nx, nt=nt, horizon=0.02, a=0.5)
        op = TransportOperator.constant(grid, a=0.5)
        m0 = DensityInit(kind="gaussian", center=(0.5,), width=0.06).discretize(grid)
        m = solve_fp(op, m0)
        spreads.append(_first_moment_spread(m))
    assert 0.8 <= spreads[0] / spreads[1] <= 1.2


def test_lp_norms_reported():
    grid = _diffusion_grid(nx=32, nt=128, horizon=0.02, a=0.5)
    op = TransportOperator.constant(grid, a=0.5)
    m = solve_fp(op, DensityInit(kind="gaussian", center=(0.5,), width=0.08).discretize(grid))
    assert m.lp_norm(1) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(m.lp_norm(2))


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def _travelling_mode(x, t):
    """m = 1 + 0.5 e^(-a k^2 t) cos k(x - b t) with k = 2 pi: m_t = a m_xx - b m_x at a = 0.5, b = 1."""
    k = 2 * np.pi
    return 1 + 0.5 * np.exp(-0.5 * k * k * t) * np.cos(k * (x - t))


def _travelling_case(grid):
    """(operator, m(0), m(T)) of the travelling decaying mode under constant coefficients."""
    x = grid.axis_coords()
    return TransportOperator.constant(grid, 0.5, 1.0), _travelling_mode(x, 0.0), _travelling_mode(x, grid.horizon)


def _stationary_case(grid):
    """(operator, rho, rho): rho = 1 + 0.5 cos 2 pi x is a zero-flux state of m_t = (a m)_xx - (b m)_x.

    a = 1 + 0.5 sin 2 pi x and b = (a rho)' / rho (max |b| 6.92), so the flux
    (a m)_x - b m vanishes at m = rho: a hand-built operator, not a model's.
    """
    k = 2 * np.pi
    x = grid.axis_coords()
    rho = 1 + 0.5 * np.cos(k * x)
    a = 1 + 0.5 * np.sin(k * x)
    b = (0.5 * k * np.cos(k * x) * rho - 0.5 * k * np.sin(k * x) * a) / rho
    levels = grid.nt + 1
    op = TransportOperator(
        grid, np.broadcast_to(a, (levels, grid.nx)), np.broadcast_to(b[:, None], (levels, grid.nx, 1))
    )
    return op, rho, rho


# (case, a_max, theta_lf): the grid's bounds cover each operator's coefficients
@pytest.mark.parametrize(
    "case,a_max,theta_lf", [(_travelling_case, 0.5, 1.0), (_stationary_case, 1.5, 7.0)],
    ids=["travelling", "stationary"],
)
def test_density_march_converges_to_exact_solution(case, a_max, theta_lf):
    # sup errors at T, upwind: 4.98e-4, 2.63e-4, 1.35e-4 (orders 0.92, 0.96) for the
    # travelling mode and 6.36e-2, 3.21e-2, 1.61e-2 (0.99, 0.99) for the stationary density
    errors = []
    for nx in (32, 64, 128):
        # dt / dx^2 of 64 x 4160 at T = 0.25: nt = 1040, 4160, 16640
        grid = GridSpec(dim=1, box_length=1.0, nx=nx, nt=nx * nx * 65 // 64, horizon=0.25,
                        a_max=a_max, theta_lf=theta_lf)
        op, m0, exact = case(grid)
        errors.append(np.max(np.abs(solve_fp(op, m0).values[-1] - exact)))
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((0.9 <= orders) & (orders <= 1.1)), (errors, orders)
