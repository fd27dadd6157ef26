"""Monte-Carlo verification: value agreement, programming identity, modulus."""

import numpy as np
import pytest

from mfgdiff import ConfigError, ContractError, model_a, mollify_model, sde, single_control_model
from mfgdiff.fixed_point import coupling_fields
from mfgdiff.fp import DensityPath, build_transport_operator, solve_fp
from mfgdiff.grid import TimeField, interp_periodic
from mfgdiff.hjb import grid_for, solve_hjb
from mfgdiff.sde import (
    McConfig,
    _check_increment_guard,
    dpp_check,
    modulus_check,
    simulate_value,
)

from conftest import heat_solution


@pytest.fixture(scope="module")
def heat_setup():
    """Single-control heat model with its solved fields."""
    sc = single_control_model(nu=1.0, horizon=0.05)
    grid = grid_for(sc, nx=64, nt=2048)
    x = grid.axis_coords()
    u = solve_hjb(sc, TimeField.zeros(grid), np.cos(2 * np.pi * x), grid)
    op = build_transport_operator(u, sc)
    m = solve_fp(op, sc.m0.discretize(grid))
    return sc, grid, u, m


def _cfg(grid, n=2000, seed=5, x0=(0.2,), antithetic=False):
    return McConfig(num_paths=n, dt_mc=grid.dt, seed=seed, x0=x0, antithetic=antithetic)


def _u0(u, x0):
    return float(interp_periodic(u.values[0], u.grid, np.asarray(x0)[None, :])[0])


def test_heat_limit_value_agreement(heat_setup):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid)
    est = simulate_value(u, m, sc, cfg)
    ref = _u0(u, cfg.x0)
    exact = heat_solution(1.0, 1.0, 0.05, 0.0, np.array(cfg.x0))[0]
    assert abs(est.mean - ref) <= 3 * est.std_error + 0.05
    assert abs(est.mean - exact) <= 3 * est.std_error + 0.05


def test_reproducibility_bit_identical(heat_setup):
    sc, grid, u, m = heat_setup
    e1 = simulate_value(u, m, sc, _cfg(grid, n=500))
    e2 = simulate_value(u, m, sc, _cfg(grid, n=500))
    assert e1.mean == e2.mean and e1.std_error == e2.std_error


def test_se_scaling(heat_setup):
    sc, grid, u, m = heat_setup
    e1 = simulate_value(u, m, sc, _cfg(grid, n=800, seed=21))
    e4 = simulate_value(u, m, sc, _cfg(grid, n=3200, seed=22))
    ratio = e1.std_error / e4.std_error
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def test_antithetic_not_worse(heat_setup):
    sc, grid, u, m = heat_setup
    plain = simulate_value(u, m, sc, _cfg(grid, n=4000, seed=31))
    anti = simulate_value(u, m, sc, _cfg(grid, n=4000, seed=31, antithetic=True))
    # variance per total path budget: SE^2 * pairs vs SE^2 * paths
    var_plain = plain.std_error**2 * plain.num_paths
    var_anti = anti.std_error**2 * anti.num_paths * 2  # pairs cost two paths
    assert var_anti <= var_plain * 1.05


def test_suboptimal_constant_control_bound():
    ma = model_a(horizon=0.05, coupling_gain_f=0.0, coupling_gain_g=0.0)
    grid = grid_for(ma, nx=32, nt=420)
    gamma = DensityPath.constant_in_time(grid, ma.m0.discretize(grid))
    f_path, g_slice = coupling_fields(ma, grid, gamma.values)
    u = solve_hjb(ma, f_path, g_slice, grid)
    m = solve_fp(build_transport_operator(u, ma), ma.m0.discretize(grid))
    cfg = McConfig(num_paths=3000, dt_mc=grid.dt, seed=17, x0=(0.3,))
    sub = simulate_value(u, m, ma, cfg, alpha_const=0.5, eta_const=1.0)
    ref = _u0(u, cfg.x0)
    assert sub.mean >= ref - 3 * sub.std_error - 0.05


def test_constant_fields_trivial_dpp():
    ma = model_a(horizon=0.05, coupling_gain_f=0.0, coupling_gain_g=0.0,
                 terminal_base=__import__("mfgdiff").TerminalBase(kind="constant", value=2.0))
    grid = grid_for(ma, nx=32, nt=416)
    u = solve_hjb(ma, TimeField.zeros(grid), np.full(grid.shape, 2.0), grid)
    m = solve_fp(build_transport_operator(u, ma), ma.m0.discretize(grid))
    cfg = McConfig(num_paths=500, dt_mc=grid.dt, seed=3, x0=(0.4,))
    res = dpp_check(u, m, ma, cfg, h=grid.horizon / 8)
    # both sides equal the constant: gap at round-off, no MC noise on a constant
    assert res.gap <= 3 * res.std_error + 1e-8


def test_dpp_full_horizon_matches_simulate(heat_setup):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid, n=1500, seed=9)
    res = dpp_check(u, m, sc, cfg, h=grid.horizon)
    est = simulate_value(u, m, sc, cfg)
    # at h = T the continuation value is the terminal slice of u, i.e. G
    assert res.mc_mean == pytest.approx(est.mean, abs=1e-12)


def test_dpp_heat_limit(heat_setup):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid, n=2000, seed=13)
    res = dpp_check(u, m, sc, cfg, h=grid.horizon / 8)
    assert res.gap <= 3 * res.std_error + 0.05


def test_dpp_h_validation(heat_setup):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid)
    with pytest.raises(ConfigError):
        dpp_check(u, m, sc, cfg, h=grid.dt * 2.5)
    with pytest.raises(ConfigError):
        dpp_check(u, m, sc, cfg, h=2 * grid.horizon)


def test_modulus_pure_diffusion_slope():
    ma = model_a(horizon=0.25)
    cfg = McConfig(num_paths=4000, dt_mc=1e-4, seed=23, x0=(0.5,))
    hs = [0.2 / 2**j for j in range(4, -1, -1)]
    res = modulus_check(ma, cfg, hs)  # defaults: zero drift, eta = lambda1^2/2
    assert 0.4 <= res.slope <= 0.6
    assert np.all(np.diff(res.estimates) > 0)


def test_modulus_drift_restricted_band():
    # with drift at the bound, the sqrt(h) term dominates only for
    # h << (lambda1 / M)^2; restrict to a tenth of that scale
    ma = model_a(horizon=0.25)
    m_bound = ma.bounds.drift_bound
    h_max = 0.1 * (ma.bounds.lambda1 / m_bound) ** 2
    cfg = McConfig(num_paths=4000, dt_mc=h_max / 256, seed=29, x0=(0.5,))
    hs = [h_max / 2**j for j in range(4, -1, -1)]
    res = modulus_check(ma, cfg, hs, alpha_const=m_bound, eta_const=0.5)
    assert 0.4 <= res.slope <= 0.6


def test_modulus_needs_four_points():
    ma = model_a()
    cfg = McConfig(num_paths=200, dt_mc=1e-3, seed=1, x0=(0.5,))
    with pytest.raises(ConfigError):
        modulus_check(ma, cfg, [0.1])


def test_modulus_rejects_inadmissible_controls():
    ma = model_a()
    cfg = McConfig(num_paths=200, dt_mc=1e-3, seed=1, x0=(0.5,))
    hs = [0.016, 0.032, 0.064, 0.128]
    with pytest.raises(ConfigError):
        modulus_check(ma, cfg, hs, alpha_const=5.0)
    with pytest.raises(ConfigError):
        modulus_check(ma, cfg, hs, eta_const=3.0)


def test_mc_config_validation():
    with pytest.raises(ConfigError):
        McConfig(num_paths=10, dt_mc=1e-3, seed=0, x0=(0.5,))
    with pytest.raises(ConfigError):
        McConfig(num_paths=200, dt_mc=-1e-3, seed=0, x0=(0.5,))
    with pytest.raises(ConfigError):
        McConfig(num_paths=201, dt_mc=1e-3, seed=0, x0=(0.5,), antithetic=True)


_INSTRUMENTS = {
    "simulate": lambda u, m, model, cfg: simulate_value(u, m, model, cfg),
    "dpp": lambda u, m, model, cfg: dpp_check(u, m, model, cfg, 8 * u.grid.dt),
}


@pytest.mark.parametrize("instrument", sorted(_INSTRUMENTS))
def test_dt_mc_must_not_exceed_grid_step(heat_setup, instrument):
    sc, grid, u, m = heat_setup
    run = _INSTRUMENTS[instrument]
    with pytest.raises(ConfigError, match="exceeds the grid step"):
        run(u, m, sc, McConfig(num_paths=200, dt_mc=grid.dt * 2, seed=0, x0=(0.2,)))
    with pytest.raises(ConfigError, match="x0 needs 1 coordinates"):
        run(u, m, sc, McConfig(num_paths=200, dt_mc=grid.dt, seed=0, x0=(0.2, 0.3)))


def _refuse(*args, **kwargs):
    raise AssertionError("field work on a path that does not need it")


def test_constant_controls_need_running_costs(monkeypatch):
    mm = mollify_model(model_a(horizon=0.01), 0.05)
    grid = grid_for(mm, nx=16, nt=64)
    m = DensityPath.constant_in_time(grid, mm.m0.discretize(grid))
    cfg = McConfig(num_paths=200, dt_mc=grid.dt, seed=0, x0=(0.5,))
    # rejected before any field work
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    monkeypatch.setattr(sde, "coupling_fields", _refuse)
    with pytest.raises(ConfigError, match="closed-form or tabulated"):
        simulate_value(TimeField.zeros(grid), m, mm, cfg, alpha_const=0.0, eta_const=1.0)


def test_constant_controls_skip_feedback_stencils(heat_setup, monkeypatch):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid, n=200)
    expected = simulate_value(u, m, sc, cfg, alpha_const=0.0, eta_const=1.0)
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    assert simulate_value(u, m, sc, cfg, alpha_const=0.0, eta_const=1.0) == expected
    with pytest.raises(AssertionError, match="field work"):
        simulate_value(u, m, sc, cfg)


def test_increment_guard():
    good = np.full((100, 1), 0.01)
    _check_increment_guard(good, bound=0.1, where="test")
    bad = good.copy()
    bad[:50] = 5.0
    with pytest.raises(ContractError):
        _check_increment_guard(bad, bound=0.1, where="test")
    with pytest.raises(ContractError):
        _check_increment_guard(np.array([[np.nan]]), bound=0.1, where="test")


# float.hex of (mean, std_error), recorded with one np.mod-based interpolation per
# field, before the fields shared their cells; the estimates must not move by a bit.
# They also depend on numpy's normal stream and libm (recorded with numpy 2.4, x86-64).
# feedback_2d was recorded again, one ulp off in both numbers, when the density
# march moved to the stencil weights of I + dt L: its 2D density moved by at
# most 7.1e-15 (maximum 11.05); the value field and the paths did not change.
_RECORDED_BITS = {
    "feedback": ("0x1.8a94e1cfada39p-5", "0x1.6c59b3de58f29p-6"),
    "constant": ("0x1.a0947508147fap-5", "0x1.6f09736a02593p-6"),
    "antithetic": ("0x1.3a7ca5871ce93p-5", "0x1.3f68c650e4dc5p-7"),
    "dpp": ("0x1.556ab9f18791ep-5", "0x1.93a6485d3ecd8p-9"),
    "feedback_2d": ("0x1.c705ae63da25ap-1", "0x1.831afc84e4029p-6"),
    "dpp_2d": ("0x1.b62d798cb6dffp-1", "0x1.84494d858c10cp-7"),
}


def test_estimates_match_recorded_bits(heat_setup):
    sc, grid, u, m = heat_setup
    got = {}
    e = simulate_value(u, m, sc, _cfg(grid, n=1000, seed=41))
    got["feedback"] = (e.mean, e.std_error)
    e = simulate_value(u, m, sc, _cfg(grid, n=1000, seed=42), alpha_const=0.0, eta_const=1.0)
    got["constant"] = (e.mean, e.std_error)
    e = simulate_value(u, m, sc, _cfg(grid, n=1000, seed=43, antithetic=True))
    got["antithetic"] = (e.mean, e.std_error)
    d = dpp_check(u, m, sc, _cfg(grid, n=1000, seed=44), h=grid.horizon / 8)
    got["dpp"] = (d.mc_mean, d.std_error)
    # 2D, started next to a corner of the box so paths cross both seams
    m2 = model_a(horizon=0.01, dim=2)
    g2 = grid_for(m2, nx=16, nt=40)
    gamma = DensityPath.constant_in_time(g2, m2.m0.discretize(g2))
    u2 = solve_hjb(m2, *coupling_fields(m2, g2, gamma.values), g2)
    d2 = solve_fp(build_transport_operator(u2, m2), m2.m0.discretize(g2))
    e = simulate_value(u2, d2, m2, McConfig(num_paths=1000, dt_mc=g2.dt, seed=45, x0=(0.03, 0.98)))
    got["feedback_2d"] = (e.mean, e.std_error)
    d = dpp_check(u2, d2, m2, McConfig(num_paths=1000, dt_mc=g2.dt, seed=46, x0=(0.03, 0.98)), h=g2.horizon / 2)
    got["dpp_2d"] = (d.mc_mean, d.std_error)
    assert {k: tuple(float.hex(v) for v in pair) for k, pair in got.items()} == _RECORDED_BITS
