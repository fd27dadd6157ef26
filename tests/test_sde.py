"""Monte-Carlo verification: value agreement, programming identity, modulus."""

import threading
import tracemalloc

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
    value_and_dpp,
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


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_increment_guard_rejects_infinite(value):
    inc = np.full((100, 1), 0.01)
    inc[7] = value
    with pytest.raises(ContractError, match="non-finite path increment during test"):
        _check_increment_guard(inc, bound=0.1, where="test")


def test_increment_guard_allows_exactly_allowed():
    inc = np.full((100, 1), 0.1)  # at the bound is not beyond it
    _check_increment_guard(inc, bound=0.1, where="test")
    allowed = 10  # max(10, 1e-6 * size) for a small batch
    inc[:allowed] = -5.0
    _check_increment_guard(inc, bound=0.1, where="test")
    inc[allowed] = 5.0
    with pytest.raises(ContractError, match=f"11 path increments exceeded .* \\(allowed {allowed}\\)"):
        _check_increment_guard(inc, bound=0.1, where="test")


@pytest.mark.parametrize("given, missing", [({"eta_const": 2.0}, "alpha_const"), ({"alpha_const": 0.5}, "eta_const")])
def test_half_given_constant_controls_rejected(given, missing, monkeypatch):
    ma = model_a(horizon=0.01)
    grid = grid_for(ma, nx=16, nt=64)
    m = DensityPath.constant_in_time(grid, ma.m0.discretize(grid))
    cfg = McConfig(num_paths=200, dt_mc=grid.dt, seed=0, x0=(0.5,))
    # rejected before any field work
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    monkeypatch.setattr(sde, "coupling_fields", _refuse)
    with pytest.raises(ConfigError, match=f"{missing} is missing"):
        simulate_value(TimeField.zeros(grid), m, ma, cfg, **given)


@pytest.fixture(scope="module")
def corner_2d_setup():
    """2D model A with its fields, for paths started next to a corner of the box."""
    m2 = model_a(horizon=0.01, dim=2)
    g2 = grid_for(m2, nx=16, nt=40)
    gamma = DensityPath.constant_in_time(g2, m2.m0.discretize(g2))
    u2 = solve_hjb(m2, *coupling_fields(m2, g2, gamma.values), g2)
    d2 = solve_fp(build_transport_operator(u2, m2), m2.m0.discretize(g2))
    return m2, g2, u2, d2


def _hex_fields(result):
    return {k: float.hex(float(v)) for k, v in vars(result).items()}


@pytest.mark.parametrize("case", ["plain", "antithetic", "h_is_horizon", "corner_2d"])
def test_sweep_matches_separate_instruments(case, heat_setup, request):
    if case == "corner_2d":
        # started at (0.03, 0.98), so paths cross both seams
        model, grid, u, m = request.getfixturevalue("corner_2d_setup")
        cfg = McConfig(num_paths=400, dt_mc=grid.dt, seed=47, x0=(0.03, 0.98))
        h = grid.horizon / 2
    else:
        model, grid, u, m = heat_setup
        cfg = _cfg(grid, n=400, seed=48, antithetic=case == "antithetic")
        h = grid.horizon if case == "h_is_horizon" else grid.horizon / 8
    est, dpp = value_and_dpp(u, m, model, cfg, h)
    assert _hex_fields(est) == _hex_fields(simulate_value(u, m, model, cfg))
    assert _hex_fields(dpp) == _hex_fields(dpp_check(u, m, model, cfg, h))


_EARLY_FAILURES = {
    # (dt_mc / grid dt, x0, h / grid dt, message); the heat grid has 2048 steps
    "dt_mc": (2.0, (0.2,), 8.0, "exceeds the grid step"),
    "x0": (1.0, (0.2, 0.3), 8.0, "x0 needs 1 coordinates"),
    "h_multiple": (1.0, (0.2,), 2.5, "positive multiple of dt_mc"),
    "h_level": (0.5, (0.2,), 2.5, "grid time level"),
    "h_horizon": (1.0, (0.2,), 4096.0, "exceeds the horizon"),
}


@pytest.mark.parametrize("instrument", [value_and_dpp, dpp_check], ids=["sweep", "dpp"])
@pytest.mark.parametrize("case", sorted(_EARLY_FAILURES))
def test_config_errors_before_field_work(heat_setup, monkeypatch, instrument, case):
    sc, grid, u, m = heat_setup
    dt_steps, x0, h_steps, message = _EARLY_FAILURES[case]
    cfg = McConfig(num_paths=200, dt_mc=dt_steps * grid.dt, seed=0, x0=x0)
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    monkeypatch.setattr(sde, "coupling_fields", _refuse)
    with pytest.raises(ConfigError, match=message):
        instrument(u, m, sc, cfg, h_steps * grid.dt)


_SPANS = {
    # instrument run with one span set to the parametrized value
    "modulus": lambda u, m, model, cfg, v: modulus_check(model, cfg, [0.1, 0.2, v, 0.05]),
    "dpp": lambda u, m, model, cfg, v: dpp_check(u, m, model, cfg, v),
    "sweep": lambda u, m, model, cfg, v: value_and_dpp(u, m, model, cfg, v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("instrument", sorted(_SPANS))
def test_non_finite_span_refused_before_work(heat_setup, monkeypatch, instrument, value):
    sc, grid, u, m = heat_setup
    cfg = McConfig(num_paths=200, dt_mc=grid.dt, seed=0, x0=(0.2,))
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    monkeypatch.setattr(sde, "coupling_fields", _refuse)
    monkeypatch.setattr(sde, "_normals", _refuse)
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=f"h={value} must be finite"):
        _SPANS[instrument](u, m, sc, cfg, value)
    assert threading.active_count() == threads


def _trip_guard_at(call):
    """`_check_increment_guard` with a zero bound on its `call`-th use; records the live threads then."""
    calls, seen = [0], []

    def check(increments, bound, where):
        calls[0] += 1
        if calls[0] == call:
            seen.append(threading.active_count())
            bound = 0.0
        _check_increment_guard(increments, bound, where)

    return check, seen


def test_no_helper_thread_outlives_a_call(heat_setup, monkeypatch):
    sc, grid, u, m = heat_setup
    cfg = _cfg(grid, n=200)
    threads = threading.active_count()
    value_and_dpp(u, m, sc, cfg, grid.horizon / 8)
    assert threading.active_count() == threads
    # fewer steps than one block of normals
    modulus_check(sc, cfg, [grid.dt * k for k in (1, 2, 4, 7)])
    assert threading.active_count() == threads
    # the guard trips midway, while the helper draws ahead
    check, seen = _trip_guard_at(20)
    monkeypatch.setattr(sde, "_check_increment_guard", check)
    with pytest.raises(ContractError, match=r"^200 path increments exceeded the sanity bound 0 during cost simulation \(allowed 10\)$"):
        value_and_dpp(u, m, sc, cfg, grid.horizon / 8)
    assert seen == [threads + 1]
    assert threading.active_count() == threads
    monkeypatch.undo()
    # stopped before the first step
    monkeypatch.setattr(sde, "_feedback_fields", _refuse)
    with pytest.raises(AssertionError, match="field work"):
        value_and_dpp(u, m, sc, cfg, grid.horizon / 8)
    assert threading.active_count() == threads


@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize("steps", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("dim", [1, 2])
def test_normals_follow_the_per_step_stream(dim, steps, antithetic):
    n, seed = 6, 13
    with sde._normals(seed, n, dim, antithetic, steps) as rows:
        # a row is valid only until the next one is requested
        got = [row.copy() for row in rows]
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(steps):
        if antithetic:
            z = rng.standard_normal((n // 2, dim))
            expected.append(np.concatenate([z, -z]))
        else:
            expected.append(rng.standard_normal((n, dim)))
    assert len(got) == steps
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_sweep_holds_no_full_stencil_stack():
    """The traced peak of `value_and_dpp` is that of the coupling fields it reads.

    On model A at 64x1040 with 1000 paths, one level stack is 533 kB.  The
    peak reads 2.31 stacks: `coupling_fields` (the F path and its FFT
    temporaries), before the sweep begins.  The sweep adds one chunk of
    stencils, the paths and the normals' ring (128 kB).  With full Laplacian
    and gradient stacks, alive while the coupling fields are computed, it
    read 4.31 stacks.
    """
    model = model_a(horizon=1 / 16)
    grid = grid_for(model, nx=64, nt=1040)
    m = DensityPath.constant_in_time(grid, model.m0.discretize(grid))
    u = solve_hjb(model, *coupling_fields(model, grid, m.values), grid)
    cfg = McConfig(num_paths=1000, dt_mc=grid.dt, seed=5, x0=(0.3,))
    # first-call costs (imports, caches) are not the sweep's working set
    value_and_dpp(u, m, model, McConfig(num_paths=100, dt_mc=grid.dt, seed=5, x0=(0.3,)), grid.horizon / 8)
    stack_bytes = (grid.nt + 1) * grid.n_nodes * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        value_and_dpp(u, m, model, cfg, grid.horizon / 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * stack_bytes
