"""Backward solver: exactness, convergence, monotonicity, transform, linearization."""

import re
import tracemalloc

import numpy as np
import pytest

from mfgdiff import ContractError, StabilityError, model_a, mollify_model, single_control_model
from mfgdiff import grid as grid_module
from mfgdiff.control import h1_segment_mean, h1_value, h2_segment_mean, h2_value
from mfgdiff.grid import GridSpec, TimeField, grad_central, laplacian
from mfgdiff.hjb import (
    _step_bracket,
    grid_for,
    hjb_lambda_residual,
    hjb_residual,
    lambda_transform,
    linearization_identity_gap,
    linearize,
    monotonicity_certificate,
    solve_hjb,
    solve_hjb_lambda,
)

from conftest import heat_solution, random_smooth_slice


@pytest.fixture(scope="module")
def ma():
    return model_a(horizon=0.05)


@pytest.fixture(scope="module")
def grid16(ma):
    return grid_for(ma, nx=16, nt=64)


def test_constant_solution_exact(ma, grid16):
    u = solve_hjb(ma, TimeField.zeros(grid16), np.full(grid16.shape, 2.5), grid16)
    assert np.max(np.abs(u.values - 2.5)) <= 1e-12


def test_constant_solution_exact_2d():
    ma2 = model_a(horizon=0.02, dim=1)
    from mfgdiff.control import model_a as factory

    m2 = factory(horizon=0.02, dim=2)
    grid = grid_for(m2, nx=8, nt=180)
    u = solve_hjb(m2, TimeField.zeros(grid), np.full(grid.shape, -1.0), grid)
    assert np.max(np.abs(u.values + 1.0)) <= 1e-12


def test_heat_limit_convergence():
    sc = single_control_model(nu=1.0, horizon=0.05)
    errs = []
    for nx, nt in ((32, 512), (64, 2048)):
        grid = grid_for(sc, nx=nx, nt=nt)
        x = grid.axis_coords()
        u = solve_hjb(sc, TimeField.zeros(grid), np.cos(2 * np.pi * x), grid)
        errs.append(np.max(np.abs(u.values[0] - heat_solution(1.0, 1.0, 0.05, 0.0, x))))
    assert errs[0] / errs[1] >= 2.5


def test_heat_limit_2d():
    sc = single_control_model(nu=1.0, horizon=0.02, dim=2)
    grid = grid_for(sc, nx=16, nt=360)
    x = grid.coords()
    k = 2 * np.pi
    g = np.cos(k * x[..., 0])  # one-frequency slice along the first axis
    u = solve_hjb(sc, TimeField.zeros(grid), g, grid)
    exact = np.exp(-k * k * grid.horizon) * g
    assert np.max(np.abs(u.values[0] - exact)) < 5e-2


def test_comparison_principle(ma, grid16, rng):
    for _ in range(20):
        f1 = random_smooth_slice(grid16, rng)
        g1 = random_smooth_slice(grid16, rng)
        f2 = f1 + np.abs(random_smooth_slice(grid16, rng))
        g2 = g1 + np.abs(random_smooth_slice(grid16, rng))
        fp1 = TimeField(grid16, np.broadcast_to(f1, (grid16.nt + 1, *grid16.shape)).copy())
        fp2 = TimeField(grid16, np.broadcast_to(f2, (grid16.nt + 1, *grid16.shape)).copy())
        u1 = solve_hjb(ma, fp1, g1, grid16)
        u2 = solve_hjb(ma, fp2, g2, grid16)
        assert np.all(u1.values <= u2.values + 1e-12)


def test_monotonicity_certificate(ma, grid16, rng):
    slice_u = random_smooth_slice(grid16, rng, amplitude=2.0)
    cert = monotonicity_certificate(ma, grid16, slice_u, t=0.02)
    assert cert["off_diagonal_min"] >= 0.0
    assert 0.0 <= cert["diagonal_min"] <= cert["diagonal_max"] <= 1.0


def test_cfl_rejection_reports_min_nt(ma):
    with pytest.raises(StabilityError, match="smallest admissible nt"):
        grid_for(ma, nx=64, nt=100)


def test_solver_rejects_underpowered_grid(ma):
    # grid whose stability data does not cover the model's bounds
    grid = GridSpec(dim=1, box_length=1.0, nx=16, nt=64, horizon=0.05, a_max=0.5, theta_lf=0.0)
    with pytest.raises(StabilityError):
        solve_hjb(ma, TimeField.zeros(grid), np.zeros(grid.shape), grid)


def _solve_discounted(model, f_path, g_slice, grid):
    return solve_hjb_lambda(model, f_path, g_slice, grid, 1.0)


@pytest.mark.parametrize("solve", [solve_hjb, _solve_discounted], ids=["direct", "discounted"])
def test_march_rejects_bad_inputs(solve, ma, grid16):
    fine = grid_for(ma, nx=16, nt=128)
    with pytest.raises(ValueError, match="lattice"):
        solve(ma, TimeField.zeros(fine), np.zeros(grid16.shape), grid16)
    with pytest.raises(ValueError, match="shape"):
        solve(ma, TimeField.zeros(grid16), 0.0, grid16)
    g = 1e307 * np.cos(2 * np.pi * grid16.axis_coords())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ContractError, match=f"time level {grid16.nt - 1},"):
            solve(ma, TimeField.zeros(grid16), g, grid16)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", [solve_hjb, _solve_discounted], ids=["direct", "discounted"])
@pytest.mark.parametrize("dim,nx,nt,level,node", [(1, 16, 600, 400, (5,)), (2, 8, 100, 30, (3, 6))], ids=["1d", "2d"])
def test_non_finite_cost_inside_a_level_chunk(bad, solve, dim, nx, nt, level, node):
    # the march checks finiteness once per chunk: the error must still name the
    # first bad level in march order, and the levels marched after it (which
    # overflow and turn to NaN) must raise no warning under the suite's filter
    model = model_a(horizon=0.05, dim=dim)
    grid = grid_for(model, nx=nx, nt=nt)
    assert any(c.start < level < c.stop - 1 for c in grid.level_chunks(stop=grid.nt))
    f_path = TimeField.zeros(grid)
    f_path.values[(level + 1, *node)] = bad  # level n reads the cost of level n + 1
    g = np.cos(2 * np.pi * grid.coords()[..., 0])
    with pytest.raises(ContractError, match=re.escape(f"time level {level}, node {node}")):
        solve(model, f_path, g, grid)


def test_linf_stability_bound(ma, grid16, rng):
    f = random_smooth_slice(grid16, rng)
    g = random_smooth_slice(grid16, rng, amplitude=2.0)
    f_path = TimeField(grid16, np.broadcast_to(f, (grid16.nt + 1, *grid16.shape)).copy())
    u = solve_hjb(ma, f_path, g, grid16)
    # H2(.,.,0) = H1(.,.,0) = 0 for this model
    bound = np.max(np.abs(g)) + grid16.horizon * np.max(np.abs(f))
    assert np.max(np.abs(u.values)) <= bound + 1e-10


# ---------------------------------------------------------------------------
# residual evaluator
# ---------------------------------------------------------------------------


def test_residual_zero_on_solver_output(ma, grid16, rng):
    f_path = TimeField(
        grid16,
        np.broadcast_to(random_smooth_slice(grid16, rng), (grid16.nt + 1, *grid16.shape)).copy(),
    )
    u = solve_hjb(ma, f_path, random_smooth_slice(grid16, rng), grid16)
    r = hjb_residual(u, ma, f_path)
    assert np.max(np.abs(r.values)) <= 1e-10


def test_residual_locality(ma, grid16, rng):
    f_path = TimeField.zeros(grid16)
    u = solve_hjb(ma, f_path, random_smooth_slice(grid16, rng), grid16)
    base = hjb_residual(u, ma, f_path).values
    n0, i0 = grid16.nt // 2, 5
    bumped = u.copy()
    bumped.values[n0, i0] += 0.1
    delta = hjb_residual(bumped, ma, f_path).values - base
    changed = {tuple(ix) for ix in np.argwhere(np.abs(delta) > 1e-13)}
    allowed = {(n0, i0)} | {(n0 - 1, (i0 + s) % grid16.nx) for s in (-1, 0, 1)}
    assert changed <= allowed


def test_residual_truncation_order_on_exact_solution():
    sc = single_control_model(nu=1.0, horizon=0.05)
    sups = []
    for nx, nt in ((32, 512), (64, 2048)):
        grid = grid_for(sc, nx=nx, nt=nt)
        x = grid.axis_coords()
        tt = grid.times()
        exact = heat_solution(1.0, 1.0, 0.05, tt[:, None], x[None, :])
        r = hjb_residual(TimeField(grid, exact), sc, TimeField.zeros(grid))
        sups.append(np.max(np.abs(r.values)))
    # truncation shrinks by ~4x per refinement (second order space, first order time)
    assert 2.5 <= sups[0] / sups[1] <= 6.0


# (dim, nx, nt, chunks): levels per chunk are 256 at 16 nodes and 64 at 8 x 8,
# so nt is either not a multiple of the chunk or below it
@pytest.mark.parametrize("dim,nx,nt,chunks", [(1, 16, 600, 3), (1, 16, 100, 1), (2, 8, 100, 2)])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_chunked_residual_matches_per_level_loop(dim, nx, nt, chunks, lam, rng):
    model = model_a(horizon=0.05, dim=dim)
    grid = grid_for(model, nx=nx, nt=nt)
    assert len(grid.level_chunks(1)) == chunks
    shape = (grid.nt + 1, *grid.shape)
    w = TimeField(grid, rng.standard_normal(shape))
    f_path = TimeField(grid, rng.standard_normal(shape))
    x = grid.coords()
    ref = np.zeros(shape)
    for n in range(grid.nt):
        ref[n] = (w.values[n + 1] - w.values[n]) / grid.dt + _step_bracket(
            model, grid, x, n + 1, w.values[n + 1], f_path.values[n + 1], lam
        )
    got = hjb_lambda_residual(w, model, f_path, lam).values
    # both evaluate the discount with math.exp per level, so no ulp moves
    assert np.array_equal(got, ref)
    if lam == 0.0:
        assert np.array_equal(hjb_residual(w, model, f_path).values, ref)


def test_residual_grid_mismatch_rejected(ma, grid16):
    other = grid_for(ma, nx=32, nt=420)
    u = solve_hjb(ma, TimeField.zeros(grid16), np.zeros(grid16.shape), grid16)
    with pytest.raises(ValueError):
        hjb_residual(u, ma, TimeField.zeros(other))


# ---------------------------------------------------------------------------
# exponential transform
# ---------------------------------------------------------------------------


def test_transform_lambda_zero_identity(ma, grid16):
    rng = np.random.default_rng(0)
    u = TimeField(grid16, rng.standard_normal((grid16.nt + 1, *grid16.shape)))
    v = lambda_transform(u, 0.0, "forward")
    assert np.array_equal(v.values, u.values)
    # the discounted solver and residual at lam = 0 are the undiscounted ones
    f_path = TimeField(grid16, np.broadcast_to(random_smooth_slice(grid16, rng), u.values.shape).copy())
    g = random_smooth_slice(grid16, rng)
    assert np.array_equal(
        solve_hjb_lambda(ma, f_path, g, grid16, 0.0).values, solve_hjb(ma, f_path, g, grid16).values
    )
    assert np.array_equal(
        hjb_lambda_residual(u, ma, f_path, 0.0).values, hjb_residual(u, ma, f_path).values
    )


def test_transform_roundtrip(ma, grid16, rng):
    u = TimeField(grid16, rng.standard_normal((grid16.nt + 1, *grid16.shape)))
    back = lambda_transform(lambda_transform(u, 0.7, "forward"), 0.7, "inverse")
    assert np.max(np.abs(back.values - u.values)) <= 1e-12


def test_transform_constant_value():
    grid = GridSpec(dim=1, box_length=1.0, nx=8, nt=16, horizon=1.0, a_max=0.1, theta_lf=0.0)
    u = TimeField.constant(grid, 1.0)
    v = lambda_transform(u, 1.0, "forward")
    assert v.values[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert v.values[grid.nt, 0] == pytest.approx(1.0, abs=1e-15)


def test_lambda_consistency_within_factor_two(ma, rng):
    grid = grid_for(ma, nx=32, nt=420)
    f = random_smooth_slice(grid, rng)
    g = random_smooth_slice(grid, rng)
    f_path = TimeField(grid, np.broadcast_to(f, (grid.nt + 1, *grid.shape)).copy())
    lam = 1.0
    u_direct = solve_hjb(ma, f_path, g, grid)
    v = solve_hjb_lambda(ma, f_path, g, grid, lam)
    u_indirect = lambda_transform(v, lam, "inverse")
    r_indirect = np.max(np.abs(hjb_residual(u_indirect, ma, f_path).values))
    v_direct = lambda_transform(u_direct, lam, "forward")
    r_direct = np.max(np.abs(hjb_lambda_residual(v_direct, ma, f_path, lam).values))
    assert r_indirect <= 2.0 * r_direct
    assert r_direct <= 2.0 * r_indirect


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_linearize_constant_field(ma, grid16):
    u = TimeField.constant(grid16, 4.0)
    lin = linearize(u, ma)
    # zero derivatives: V = H2_q(0) = vertex, Z = H1_p(0) = 0, c = 0
    assert np.allclose(lin.v.values, 1.0, atol=1e-14)
    assert np.allclose(lin.z, 0.0, atol=1e-14)
    assert np.allclose(lin.c.values, 0.0, atol=1e-14)
    assert linearization_identity_gap(u, ma, lin) <= 1e-12


def test_linearize_identity_model_a(ma, grid16, rng):
    f_path = TimeField(
        grid16,
        np.broadcast_to(random_smooth_slice(grid16, rng), (grid16.nt + 1, *grid16.shape)).copy(),
    )
    u = solve_hjb(ma, f_path, random_smooth_slice(grid16, rng, amplitude=2.0), grid16)
    lin = linearize(u, ma)
    assert linearization_identity_gap(u, ma, lin) <= 1e-8
    assert lin.v.values.min() >= 0.5 - 1e-9 and lin.v.values.max() <= 2.0 + 1e-9


def test_linearize_trapezoid_oracle(ma):
    # mean of the clamped slope over the segment [0, q] at q = 2
    from mfgdiff.control import _mean_clamped_linear

    lam = np.linspace(0, 1, 200001)
    trap = np.trapezoid(np.clip(1.0 - lam * 2.0 / 2.0, 0.5, 2.0), lam)
    exact = _mean_clamped_linear(np.array(1.0), np.array(2.0 / 2.0), 0.5, 2.0)
    assert float(exact) == pytest.approx(trap, abs=1e-8)
    assert float(exact) == pytest.approx(0.625, abs=1e-12)


def test_linearize_single_control_constant_v(rng):
    sc = single_control_model(nu=1.0, horizon=0.02)
    grid = grid_for(sc, nx=16, nt=64)
    u = solve_hjb(sc, TimeField.zeros(grid), random_smooth_slice(grid, rng), grid)
    lin = linearize(u, sc)
    assert np.allclose(lin.v.values, 1.0, atol=1e-13)
    assert linearization_identity_gap(u, sc, lin) <= 1e-10


def _whole_stack_linearization(u, model, order=16):
    """V, Z, c and the identity gap evaluated over the whole level stack at once."""
    grid = u.grid
    t = grid.times().reshape((-1,) + (1,) * grid.dim)
    x = grid.coords()
    lap = laplacian(u.values, grid.dx, grid.dim)
    grad = grad_central(u.values, grid.dx, grid.dim)
    v = h2_segment_mean(model, t, x, lap, order)
    z = h1_segment_mean(model, t, x, grad, order)
    c = h2_value(model, t, x, np.zeros_like(lap)) + h1_value(model, t, x, np.zeros_like(grad))
    lhs = v * lap + np.sum(z * grad, axis=-1) + c
    gap = float(np.max(np.abs(lhs - (h2_value(model, t, x, lap) + h1_value(model, t, x, grad)))))
    return v, z, c, gap


@pytest.mark.parametrize("case", ["model_a_1d", "model_a_2d", "single_control", "mollified_a"])
def test_chunked_linearization_matches_whole_stack(case, rng, monkeypatch):
    # 150-node chunks: several per field, the last one partial, on cheap grids
    monkeypatch.setattr(grid_module, "_CHUNK_NODES", 150)
    model, nx, nt = {
        "model_a_1d": (model_a(horizon=0.05), 16, 64),
        "model_a_2d": (model_a(horizon=0.0625, dim=2), 8, 64),
        "single_control": (single_control_model(nu=1.0, horizon=0.02), 16, 64),
        "mollified_a": (mollify_model(model_a(horizon=0.01), 0.05), 8, 20),
    }[case]
    grid = grid_for(model, nx=nx, nt=nt)
    sizes = [len(range(grid.nt + 1)[chunk]) for chunk in grid.level_chunks()]
    assert len(sizes) > 1 and sizes[-1] < sizes[0]
    u = solve_hjb(model, TimeField.zeros(grid), random_smooth_slice(grid, rng, amplitude=2.0), grid)
    lin = linearize(u, model, order=8)
    v, z, c, gap = _whole_stack_linearization(u, model, order=8)
    assert np.array_equal(lin.v.values, v)
    assert np.array_equal(lin.z, z)
    assert np.array_equal(lin.c.values, c)
    assert linearization_identity_gap(u, model, lin) == gap


def test_linearization_memory_bounded_by_chunks():
    # model A at 64x4160, the diagnose run of the reference document
    model = model_a(horizon=0.25)
    grid = grid_for(model, nx=64, nt=4160)
    x = grid.coords()[..., 0]
    t = grid.times()[:, None]
    # the phase keeps every node off the zeros of the Laplacian, where the closed-form
    # segment mean of H2_q cancels catastrophically and can leave [a_min, a_max]
    u = TimeField(grid, np.cos(2 * np.pi * x + 0.3) * (1.0 + t))
    tracemalloc.start()
    try:
        lin = linearize(u, model)
        _, lin_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        linearization_identity_gap(u, model, lin)
        _, gap_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = u.values.nbytes  # 2.1 MB; V, Z and c alone are three of them
    assert lin_peak < 10e6 and lin_peak < 5 * stack
    assert gap_peak - base < 2e6


def test_discount_underflow_rejected_before_marching(ma):
    # lam * T = 950: exp(-lam (T - t)) underflows to 0 on the early levels
    grid = grid_for(ma, nx=16, nt=1000)
    f_path = TimeField.zeros(grid)
    g = np.cos(2 * np.pi * grid.axis_coords())
    with pytest.raises(StabilityError, match=r"lam\*T=950"):
        solve_hjb_lambda(ma, f_path, g, grid, 19000.0)
    with pytest.raises(StabilityError, match=r"lam\*T=950"):
        hjb_lambda_residual(TimeField.zeros(grid), ma, f_path, 19000.0)
    # lam * T = 700 stays below log(1 / smallest normal float) and marches
    v = solve_hjb_lambda(ma, f_path, g, grid, 14000.0)
    assert np.all(np.isfinite(v.values))
    assert np.max(np.abs(hjb_lambda_residual(v, ma, f_path, 14000.0).values)) <= 1e-9
