"""Equilibrium map, damped iteration, monotonicity and uniqueness instruments."""

from pathlib import Path

import numpy as np
import pytest
import yaml

import mfgdiff.fixed_point as fixed_point
from mfgdiff import ConfigError, model_a
from mfgdiff.cli import main
from mfgdiff.couplings import DensityInit
from mfgdiff.fixed_point import (
    coupling_fields,
    lipschitz_probe,
    monotonicity_gap,
    phi_map,
    picard_solve,
    uniqueness_crosscheck,
)
from mfgdiff.fp import DensityPath
from mfgdiff.hjb import grid_for, hjb_residual
from mfgdiff.wasserstein import d1_path_sup


@pytest.fixture(scope="module")
def ma():
    return model_a(horizon=0.05)


@pytest.fixture(scope="module")
def ma_uncoupled():
    return model_a(horizon=0.05, coupling_gain_f=0.0, coupling_gain_g=0.0)


@pytest.fixture(scope="module")
def grid32(ma):
    return grid_for(ma, nx=32, nt=416)


def _uniform_path(grid):
    return DensityPath.constant_in_time(grid, np.ones(grid.shape))


def _bump_path(grid, width=0.1):
    slice_vals = DensityInit(kind="gaussian", center=(0.5,) * grid.dim, width=width).discretize(grid)
    return DensityPath.constant_in_time(grid, slice_vals)


def test_phi_constant_when_uncoupled(ma_uncoupled, grid32):
    _, m1 = phi_map(_uniform_path(grid32), ma_uncoupled, grid32)
    _, m2 = phi_map(_bump_path(grid32), ma_uncoupled, grid32)
    assert np.max(np.abs(m1.values - m2.values)) <= 1e-13


def test_phi_map_contract_smoke(ma, grid32):
    u, m = phi_map(_uniform_path(grid32), ma, grid32)
    assert np.max(np.abs(m.mass - 1.0)) <= 1e-12
    assert m.values.min() >= -1e-14
    assert np.all(np.isfinite(u.values))


def test_phi_lipschitz_probe(ma, grid32):
    k = lipschitz_probe(ma, grid32, _uniform_path(grid32), _bump_path(grid32))
    assert np.isfinite(k) and k >= 0.0


def test_picard_uncoupled_two_iterations(ma_uncoupled, grid32):
    res = picard_solve(ma_uncoupled, grid32, theta=1.0, tol=1e-12, max_iter=10)
    rep = res.report
    assert rep.converged
    assert rep.iterations == 2
    assert rep.gap_history[1] <= 1e-14


def test_picard_converges_and_is_self_consistent(ma, grid32):
    res = picard_solve(ma, grid32, theta=0.5, tol=1e-4, max_iter=50)
    rep = res.report
    assert rep.converged
    assert rep.final_hjb_residual <= 1e-10
    assert rep.final_duality_gap <= 1e-10
    # recompute the self-consistency residual directly on the returned pair
    f_final, _ = coupling_fields(ma, grid32, res.m.values)
    direct = np.max(np.abs(hjb_residual(res.u, ma, f_final).values))
    assert direct <= 1e-10
    # gaps eventually decrease
    g = rep.gap_history
    assert np.all(np.diff(g[1:]) < 0)
    # every iterate stayed a valid path
    assert np.max(rep.mass_drift_history) <= 1e-12


def test_picard_damping_invariance(ma, grid32):
    res1 = picard_solve(ma, grid32, theta=1.0, tol=1e-5, max_iter=80)
    res2 = picard_solve(ma, grid32, theta=0.5, tol=1e-5, max_iter=80)
    assert res1.report.converged and res2.report.converged
    assert d1_path_sup(res1.m, res2.m) <= 1e-3


def test_picard_1d_gap_is_exact(ma, grid32, monkeypatch):
    # in 1D the stopping gap is the exact path sup, bit for bit
    exact = []
    bound = fixed_point.d1_path_sup_bound

    def recording(current, previous):
        exact.append(d1_path_sup(current, previous))
        return bound(current, previous)

    monkeypatch.setattr(fixed_point, "d1_path_sup_bound", recording)
    res = picard_solve(ma, grid32, theta=0.5, tol=1e-4, max_iter=50)
    assert res.report.iterations > 1
    assert res.report.gap_history.tolist() == exact


def test_picard_nonconvergence_reported(ma, grid32):
    res = picard_solve(ma, grid32, theta=0.5, tol=1e-12, max_iter=2)
    assert not res.report.converged
    assert res.report.iterations == 2


def test_picard_rejects_bad_damping(ma, grid32):
    with pytest.raises(ConfigError):
        picard_solve(ma, grid32, theta=0.0)
    with pytest.raises(ConfigError):
        picard_solve(ma, grid32, theta=1.5)
    with pytest.raises(ConfigError):
        picard_solve(ma, grid32, tol=-1.0)


def test_picard_holder_checked_once(ma, grid32, monkeypatch):
    calls = []
    check = fixed_point.holder_half_diagnostic

    def counting(m):
        calls.append(m)
        return check(m)

    monkeypatch.setattr(fixed_point, "holder_half_diagnostic", counting)
    res = picard_solve(ma, grid32, theta=0.5, tol=1e-4, max_iter=50)
    assert res.report.iterations > 1
    assert len(calls) == 1 and calls[0] is res.m
    got, expected = res.report.holder, check(res.m)
    assert not got.degenerate and got.degenerate == expected.degenerate
    assert got.exponent == expected.exponent and got.max_ratio == expected.max_ratio
    assert np.array_equal(got.separations, expected.separations)
    assert np.array_equal(got.distances, expected.distances)


def test_picard_holder_none_without_four_separations(ma_uncoupled, grid32):
    # 424 = 8 * 53 levels admit only the separations T/2, T/4 and T/8
    grid = grid_for(ma_uncoupled, nx=32, nt=424)
    res = picard_solve(ma_uncoupled, grid, theta=1.0, tol=1e-12, max_iter=10)
    assert res.report.converged and res.report.holder is None


def test_solve_mfg_evaluates_the_scheme_residual_once(tmp_path, monkeypatch):
    # each iterate's value field is the march's own output, so only the returned pair is certified
    calls = []
    residual = fixed_point.hjb_residual

    def counting(u, model, f_path):
        calls.append(u)
        return residual(u, model, f_path)

    monkeypatch.setattr(fixed_point, "hjb_residual", counting)
    doc = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "model_a.yaml").read_text())
    doc["grid"].update(nx=32, nt=1040)
    doc["output"]["directory"] = str(tmp_path / "out")
    config = tmp_path / "model_a_32.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["solve-mfg", "--config", str(config), "--quiet"]) == 0
    header, *rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(rows) > 1
    assert len(calls) == 1
    assert header == "iteration,gap,mass_drift"


# ---------------------------------------------------------------------------
# monotonicity and uniqueness
# ---------------------------------------------------------------------------


def test_monotonicity_gap_zero_for_equal_paths(ma, grid32):
    p = _bump_path(grid32)
    gf, gg = monotonicity_gap(ma, p, p)
    assert gf == 0.0 and gg == 0.0


def test_monotonicity_gap_psd(ma, grid32, rng):
    for _ in range(5):
        v1 = rng.random((grid32.nt + 1, grid32.nx)) + 0.2
        v1 /= v1.sum(axis=1, keepdims=True) * grid32.dx
        v2 = rng.random((grid32.nt + 1, grid32.nx)) + 0.2
        v2 /= v2.sum(axis=1, keepdims=True) * grid32.dx
        gf, gg = monotonicity_gap(
            ma, DensityPath.from_values(grid32, v1), DensityPath.from_values(grid32, v2)
        )
        assert gf >= -1e-12 and gg >= -1e-12


def test_monotonicity_gap_detects_sign_flip(grid32, rng):
    flipped = model_a(horizon=0.05, coupling_gain_f=-0.5, coupling_gain_g=-0.1)
    # two separated bumps
    b1 = DensityPath.constant_in_time(
        grid32, DensityInit(kind="gaussian", center=(0.3,), width=0.06).discretize(grid32)
    )
    b2 = DensityPath.constant_in_time(
        grid32, DensityInit(kind="gaussian", center=(0.7,), width=0.06).discretize(grid32)
    )
    gf, _ = monotonicity_gap(flipped, b1, b2)
    assert gf < 0


def test_uniqueness_identical_inits(ma, grid32):
    p = _bump_path(grid32)
    res = uniqueness_crosscheck(ma, grid32, (p, p), tol=1e-4, max_iter=50)
    assert res.both_converged
    assert res.gap_between_limits <= 1e-14
    assert abs(res.lasry_lions_integral) <= 1e-14


def test_uniqueness_uncoupled_limits_identical(ma_uncoupled, grid32):
    res = uniqueness_crosscheck(
        ma_uncoupled, grid32, (_uniform_path(grid32), _bump_path(grid32)), theta=1.0, tol=1e-10, max_iter=10
    )
    assert res.both_converged
    assert res.gap_between_limits <= 1e-12


def test_uniqueness_nonconvergent_comparison_skipped(ma, grid32):
    res = uniqueness_crosscheck(
        ma, grid32, (_uniform_path(grid32), _bump_path(grid32)), tol=1e-13, max_iter=2
    )
    assert not res.both_converged
    assert res.gap_between_limits is None
    assert res.lasry_lions_integral is None


def test_picard_2d_smoke():
    m2 = model_a(horizon=0.01, dim=2, kernel_eps=0.15)
    grid = grid_for(m2, nx=8, nt=32)
    res = picard_solve(m2, grid, theta=0.5, tol=5e-3, max_iter=8)
    assert np.max(np.abs(res.m.mass - 1.0)) <= 1e-12
    assert res.m.values.min() >= -1e-14
    assert res.report.final_hjb_residual <= 1e-9


def test_uniqueness_rejects_nonmonotone_probe(grid32):
    flipped = model_a(horizon=0.05, coupling_gain_f=-0.5)
    b1 = DensityPath.constant_in_time(
        grid32, DensityInit(kind="gaussian", center=(0.3,), width=0.06).discretize(grid32)
    )
    b2 = DensityPath.constant_in_time(
        grid32, DensityInit(kind="gaussian", center=(0.7,), width=0.06).discretize(grid32)
    )
    with pytest.raises(ConfigError):
        uniqueness_crosscheck(flipped, grid32, (b1, b2))
