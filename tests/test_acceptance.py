"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The expensive artifacts (the converged coupled solve at
nx = 64, the two-initialization rerun, the refined backward solves) are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from mfgdiff import model_a, single_control_model
from mfgdiff.couplings import DensityInit
from mfgdiff.diagnostics import KrylovSample, class_m_check, lipschitz_constant, semiconcavity_constant
from mfgdiff.fixed_point import coupling_fields, picard_solve, uniqueness_crosscheck
from mfgdiff.fp import DensityPath, TransportOperator, check_duality, solve_fp
from mfgdiff.grid import GridSpec, TimeField, interp_periodic
from mfgdiff.hjb import (
    grid_for,
    hjb_lambda_residual,
    hjb_residual,
    lambda_transform,
    linearization_identity_gap,
    linearize,
    solve_hjb,
    solve_hjb_lambda,
)
from mfgdiff.sde import McConfig, dpp_check, modulus_check, simulate_value
from mfgdiff.wasserstein import holder_half_diagnostic

from conftest import heat_solution, random_smooth_slice


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def acc_model():
    return model_a(coupling_gain_f=0.5, coupling_gain_g=0.1, horizon=0.25)


@pytest.fixture(scope="module")
def acc_grid(acc_model):
    return grid_for(acc_model, nx=64, nt=4160)


@pytest.fixture(scope="module")
def picard64(acc_model, acc_grid):
    start = time.monotonic()
    result = picard_solve(acc_model, acc_grid, theta=0.5, tol=1e-4, max_iter=50)
    result.elapsed = time.monotonic() - start
    return result


@pytest.fixture(scope="module")
def frozen_coupling_solves():
    """Backward solves with couplings frozen at the initial density, two grids."""
    model = model_a(horizon=0.25)
    out = {}
    for nx, nt in ((64, 4160), (128, 16640)):
        grid = grid_for(model, nx=nx, nt=nt)
        gamma = DensityPath.constant_in_time(grid, model.m0.discretize(grid))
        f_path, g_slice = coupling_fields(model, grid, gamma.values)
        out[nx] = solve_hjb(model, f_path, g_slice, grid)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_hamiltonian_oracle_equivalence(acc_model):
    from mfgdiff.control import h1_terms, h2_terms

    start = time.monotonic()
    rng = np.random.default_rng(101)
    n = 1000
    t = rng.uniform(0, 0.25, size=n)
    x = rng.uniform(0, 1, size=(n, 1))
    p = rng.uniform(-6, 6, size=(n, 1))
    q = rng.uniform(-10, 10, size=n)
    v1, _ = h1_terms(acc_model, t, x, p)
    v2, _ = h2_terms(acc_model, t, x, q)
    alphas = np.arange(-1.0, 1.0 + 5e-5, 1e-4)
    etas = np.arange(0.5, 2.0 + 5e-5, 1e-4)
    worst = 0.0
    for i in range(0, n, 100):
        sl = slice(i, i + 100)
        bf1 = np.min(p[sl] * alphas[None, :] + 0.5 * alphas[None, :] ** 2, axis=1)
        bf2 = np.min(q[sl, None] * etas[None, :] + (etas[None, :] - 1.0) ** 2, axis=1)
        worst = max(worst, float(np.max(np.abs(bf1 - v1[sl]))), float(np.max(np.abs(bf2 - v2[sl]))))
    elapsed = time.monotonic() - start
    _report(1, worst <= 1e-6 and elapsed < 10.0,
            f"brute-force gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)")


def test_c02_constant_solution_exact(acc_model):
    worst = 0.0
    for nx, nt in ((16, 1100), (64, 4160)):
        grid = grid_for(acc_model, nx=nx, nt=nt)
        u = solve_hjb(acc_model, TimeField.zeros(grid), np.full(grid.shape, 1.75), grid)
        worst = max(worst, float(np.max(np.abs(u.values - 1.75))))
    _report(2, worst <= 1e-12, f"sup deviation from the constant {worst:.2e} (tol 1e-12)")


def test_c03_heat_limit_convergence():
    start = time.monotonic()
    sc = single_control_model(nu=1.0, horizon=0.05)
    errs = []
    for nx, nt in ((64, 2048), (128, 8192)):
        grid = grid_for(sc, nx=nx, nt=nt)
        x = grid.axis_coords()
        u = solve_hjb(sc, TimeField.zeros(grid), np.cos(2 * np.pi * x), grid)
        tt = grid.times()
        exact = heat_solution(1.0, 1.0, 0.05, tt[:, None], x[None, :])
        errs.append(float(np.max(np.abs(u.values - exact))))
    elapsed = time.monotonic() - start
    ratio = errs[0] / errs[1]
    _report(3, ratio >= 2.5 and elapsed < 60.0,
            f"errors {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f} (>= 2.5), {elapsed:.1f}s")


def test_c04_discrete_comparison_principle(acc_model):
    grid = grid_for(model_a(horizon=0.05), nx=16, nt=64)
    model = model_a(horizon=0.05)
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(100):
        f1 = random_smooth_slice(grid, rng)
        g1 = random_smooth_slice(grid, rng)
        f2 = f1 + np.abs(random_smooth_slice(grid, rng))
        g2 = g1 + np.abs(random_smooth_slice(grid, rng))
        u1 = solve_hjb(model, TimeField(grid, np.broadcast_to(f1, (grid.nt + 1, grid.nx)).copy()), g1, grid)
        u2 = solve_hjb(model, TimeField(grid, np.broadcast_to(f2, (grid.nt + 1, grid.nx)).copy()), g2, grid)
        if not np.all(u1.values <= u2.values + 1e-12):
            violations += 1
    _report(4, violations == 0, f"{violations} violations over 100 ordered pairs (tol 1e-12)")


def test_c05_mass_conservation_and_positivity(picard64):
    m = picard64.m
    drift = float(np.max(np.abs(m.mass - 1.0)))
    least = float(m.values.min())
    _report(5, drift <= 1e-12 and least >= -1e-14,
            f"mass drift {drift:.2e} (tol 1e-12), min density {least:.2e} (tol -1e-14)")


def test_c06_exact_discrete_duality(picard64, acc_grid):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10):
        phi_t = random_smooth_slice(acc_grid, rng)
        psi = TimeField(
            acc_grid, rng.standard_normal((acc_grid.nt + 1, *acc_grid.shape))
        )
        worst = max(worst, check_duality(picard64.m, picard64.operator, phi_t, psi))
    _report(6, worst <= 1e-10, f"worst duality gap {worst:.2e} over 10 pairs (tol 1e-10)")


@pytest.fixture(scope="module")
def mc_setup(acc_model, acc_grid, picard64):
    cfg = McConfig(num_paths=10000, dt_mc=acc_grid.dt, seed=707, x0=(0.3,))
    ref = float(interp_periodic(picard64.u.values[0], acc_grid, np.array([[0.3]]))[0])
    return cfg, ref


def test_c07_mc_verification(acc_model, picard64, mc_setup):
    cfg, ref = mc_setup
    start = time.monotonic()
    est = simulate_value(picard64.u, picard64.m, acc_model, cfg)
    sub = simulate_value(picard64.u, picard64.m, acc_model, cfg, alpha_const=0.5, eta_const=1.0)
    elapsed = time.monotonic() - start
    gap = abs(est.mean - ref)
    feedback_ok = gap <= 3 * est.std_error + 0.05
    sub_ok = sub.mean >= ref - 3 * sub.std_error - 0.05
    _report(7, feedback_ok and sub_ok and elapsed < 60.0,
            f"|J - u(0,x0)| = {gap:.4f} (allow {3 * est.std_error + 0.05:.4f}); "
            f"suboptimal mean {sub.mean:.4f} >= {ref - 3 * sub.std_error - 0.05:.4f}; {elapsed:.1f}s")


def test_c08_dpp_gap(acc_model, acc_grid, picard64, mc_setup):
    cfg, _ = mc_setup
    res = dpp_check(picard64.u, picard64.m, acc_model, cfg, h=acc_grid.horizon / 8)
    allow = 3 * res.std_error + 0.05
    _report(8, res.gap <= allow, f"programming gap {res.gap:.4f} at h = T/8 (allow {allow:.4f})")


def test_c09_trajectory_modulus(acc_model):
    cfg = McConfig(num_paths=10000, dt_mc=1e-4, seed=909, x0=(0.5,))
    hs = [0.2 / 2**j for j in range(4, -1, -1)]
    res = modulus_check(acc_model, cfg, hs)
    grid = GridSpec(dim=1, box_length=1.0, nx=128, nt=2048, horizon=0.02, a_max=0.5, theta_lf=0.0)
    op = TransportOperator.constant(grid, a=0.5)
    m = solve_fp(op, DensityInit(kind="dirac", center=(0.5,)).discretize(grid))
    diag = holder_half_diagnostic(m)
    ok = 0.4 <= res.slope <= 0.6 and 0.4 <= diag.exponent <= 0.6
    _report(9, ok, f"path modulus slope {res.slope:.3f}, density exponent {diag.exponent:.3f} "
                   f"(both in [0.4, 0.6])")


def test_c10_fixed_point_convergence_and_uniqueness(acc_model, acc_grid, picard64):
    start = time.monotonic()
    rep = picard64.report
    conv_ok = rep.converged and rep.iterations <= 50 and rep.gap_history[-1] < 1e-4
    uniform = DensityPath.constant_in_time(acc_grid, np.ones(acc_grid.shape))
    bump = DensityPath.constant_in_time(
        acc_grid, DensityInit(kind="gaussian", center=(0.5,), width=0.08).discretize(acc_grid)
    )
    uniq = uniqueness_crosscheck(acc_model, acc_grid, (uniform, bump), theta=0.5, tol=1e-4, max_iter=50)
    elapsed = picard64.elapsed + (time.monotonic() - start)
    uniq_ok = uniq.both_converged and uniq.gap_between_limits <= 1e-3
    _report(10, conv_ok and uniq_ok and elapsed < 300.0,
            f"converged in {rep.iterations} iterations (last gap {rep.gap_history[-1]:.2e}); "
            f"two-initialization gap {uniq.gap_between_limits:.2e} (tol 1e-3); {elapsed:.0f}s (< 300s)")


def test_c11_regularity_stability(frozen_coupling_solves):
    lips = {nx: lipschitz_constant(u) for nx, u in frozen_coupling_solves.items()}
    semis = {nx: semiconcavity_constant(u) for nx, u in frozen_coupling_solves.items()}
    lr = lips[64] / lips[128]
    sr = semis[64] / semis[128]
    ok = 0.8 <= lr <= 1.2 and 0.8 <= sr <= 1.2
    _report(11, ok, f"lipschitz ratio {lr:.3f}, semiconcavity ratio {sr:.3f} (within 20%)")


def test_c12_class_conditions(acc_model):
    rng = np.random.default_rng(1212)
    samples = []
    for _ in range(1000):
        b = rng.standard_normal((1, 1)) * 3.0
        samples.append(KrylovSample(
            t=rng.uniform(0, 0.25), x=rng.uniform(0, 1, size=1),
            beta=rng.uniform(0.2, 5.0), big_b=b, p_under=rng.uniform(-4, 4, size=1),
            s=rng.uniform(-2, 2),
        ))
    report = class_m_check(acc_model, samples, declared_c=10.0)
    hom = report.by_name("homogeneity").worst
    ell = report.by_name("ellipticity").worst
    conc = report.by_name("concavity-in-B").worst
    ok = hom <= 1e-10 and ell >= 0.5 * (1 - 1e-6) and conc <= 1e-8 and report.passed
    _report(12, ok, f"homogeneity {hom:.2e} (tol 1e-10), ellipticity floor {ell:.4f} "
                    f"(certifies 0.5), concavity second difference {conc:.2e} (tol 1e-8)")


def test_c13_linearization_identity(acc_model, picard64):
    lin = linearize(picard64.u, acc_model)
    gap = linearization_identity_gap(picard64.u, acc_model, lin)
    vmin, vmax = float(lin.v.values.min()), float(lin.v.values.max())
    ok = gap <= 1e-8 and 0.5 - 1e-9 <= vmin and vmax <= 2.0 + 1e-9
    _report(13, ok, f"identity gap {gap:.2e} over all nodes (tol 1e-8), "
                    f"diffusion coefficient range [{vmin:.3f}, {vmax:.3f}]")


def test_c14_lambda_transform_consistency(acc_model, acc_grid, picard64):
    lam = 1.0
    f_path, g_slice = coupling_fields(acc_model, acc_grid, picard64.m.values)
    u_direct = picard64.u
    v = solve_hjb_lambda(acc_model, f_path, g_slice, acc_grid, lam)
    u_indirect = lambda_transform(v, lam, "inverse")
    r_indirect = float(np.max(np.abs(hjb_residual(u_indirect, acc_model, f_path).values)))
    v_direct = lambda_transform(u_direct, lam, "forward")
    r_direct = float(np.max(np.abs(hjb_lambda_residual(v_direct, acc_model, f_path, lam).values)))
    ratio = r_indirect / r_direct
    ok = r_indirect <= 2.0 * r_direct and r_direct <= 2.0 * r_indirect
    _report(14, ok, f"residual {r_indirect:.3e} vs direct-frame residual {r_direct:.3e}, "
                    f"ratio {ratio:.3f} (within factor 2)")
