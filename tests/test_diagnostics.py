"""Regularity constants, three-point inequality, structural-class audit."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mfgdiff import ConfigError, model_a, single_control_model
from mfgdiff.control import h1_terms, h2_terms
from mfgdiff.diagnostics import (
    KrylovSample,
    class_m_check,
    krylov_m,
    lipschitz_constant,
    random_triples,
    second_difference_quotient,
    semiconcavity_constant,
    three_point_check,
)
from mfgdiff.fixed_point import coupling_fields
from mfgdiff.fp import DensityPath
from mfgdiff.grid import GridSpec, TimeField
from mfgdiff.hjb import grid_for, solve_hjb

from conftest import at_point


def _grid(nx, nt=8, horizon=1e-4):
    return GridSpec(dim=1, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=0.5, theta_lf=0.0)


def _field(grid, slice_vals):
    return TimeField(grid, np.broadcast_to(slice_vals, (grid.nt + 1, *grid.shape)).copy())


# ---------------------------------------------------------------------------
# Lipschitz and semiconcavity constants
# ---------------------------------------------------------------------------


def test_lipschitz_constant_zero_for_constant():
    grid = _grid(32)
    assert lipschitz_constant(TimeField.constant(grid, 3.0)) == 0.0


def test_lipschitz_cosine_two_percent():
    grid = _grid(128)
    x = grid.axis_coords()
    u = _field(grid, np.cos(2 * np.pi * x))
    assert lipschitz_constant(u) == pytest.approx(2 * np.pi, rel=0.02)


def test_semiconcavity_cosine_two_percent():
    grid = _grid(128)
    x = grid.axis_coords()
    u = _field(grid, np.cos(2 * np.pi * x))
    assert semiconcavity_constant(u) == pytest.approx((2 * np.pi) ** 2, rel=0.02)


def test_semiconcavity_quadratic_interior_exact():
    # -(x - L/2)^2 is periodic-continuous but carries a convex kink at the
    # wrap seam; away from the seam the quotient is the exact second
    # derivative -2, at the seam it blows up like 2L/dx - 2
    grid = _grid(64)
    x = grid.axis_coords()
    u = _field(grid, -((x - 0.5) ** 2))
    quot = second_difference_quotient(u)[0]  # axis 0, all levels identical
    interior = quot[0, 1:-1]
    assert np.max(np.abs(interior + 2.0)) <= 1e-9
    assert semiconcavity_constant(u) == pytest.approx(2.0 / grid.dx - 2.0, rel=1e-12)


def test_constants_shift_invariant(rng):
    grid = _grid(32)
    vals = rng.standard_normal((grid.nt + 1, grid.nx))
    u = TimeField(grid, vals)
    v = TimeField(grid, vals + 11.0)
    assert lipschitz_constant(u) == pytest.approx(lipschitz_constant(v), abs=1e-10)
    assert semiconcavity_constant(u) == pytest.approx(semiconcavity_constant(v), abs=1e-9)


@pytest.fixture(scope="module")
def refinement_solves():
    ma = model_a(horizon=0.05, coupling_gain_f=0.0, coupling_gain_g=0.0)
    out = {}
    for nx, nt in ((64, 2080), (128, 8320)):
        grid = grid_for(ma, nx=nx, nt=nt)
        gamma = DensityPath.constant_in_time(grid, ma.m0.discretize(grid))
        f_path, g_slice = coupling_fields(ma, grid, gamma.values)
        x = grid.axis_coords()
        f_path = TimeField(
            grid,
            f_path.values + 0.3 * np.sin(2 * np.pi * x)[None, :],
        )
        out[nx] = solve_hjb(ma, f_path, g_slice, grid)
    return out


def test_lipschitz_stable_under_refinement(refinement_solves):
    c64 = lipschitz_constant(refinement_solves[64])
    c128 = lipschitz_constant(refinement_solves[128])
    assert 0.8 <= c64 / c128 <= 1.2


def test_semiconcavity_stable_under_refinement(refinement_solves):
    c64 = semiconcavity_constant(refinement_solves[64])
    c128 = semiconcavity_constant(refinement_solves[128])
    assert 0.8 <= c64 / c128 <= 1.2


# ---------------------------------------------------------------------------
# three-point inequality
# ---------------------------------------------------------------------------


def test_three_point_degenerate_triple_zero(rng):
    grid = _grid(32)
    u = TimeField(grid, rng.standard_normal((grid.nt + 1, grid.nx)))
    idx = rng.integers(0, grid.nx, size=(10, 1, 1))
    triples = np.repeat(idx, 3, axis=1)  # x = y = z
    assert three_point_check(u, triples, delta=0.1) == 0.0


def test_three_point_symmetric_reduction(rng):
    # x = z + h, y = z - h, delta = h^2: denominator is exactly 3 h^2, so the
    # worst ratio is one third of the semiconcavity constant
    grid = _grid(32)
    u = TimeField(grid, rng.standard_normal((grid.nt + 1, grid.nx)))
    z = np.arange(1, grid.nx - 1)
    triples = np.stack([z + 1, z - 1, z], axis=1)[:, :, None]
    worst = three_point_check(u, triples, delta=grid.dx**2)
    quot = second_difference_quotient(u)[0][:, 1:-1]
    assert worst == pytest.approx(float(quot.max()) / 3.0, rel=1e-12)


def test_three_point_stable_under_refinement(refinement_solves, rng):
    # same physical triples on both grids: draw on the coarse lattice and
    # scale the indices with the resolution
    base = np.random.default_rng(99).integers(0, 64, size=(1000, 3, 1))
    worsts = {}
    for nx, u in refinement_solves.items():
        worsts[nx] = three_point_check(u, base * (nx // 64), delta=0.05)
    assert 0.8 <= worsts[64] / worsts[128] <= 1.2


def test_three_point_shift_invariant(rng):
    grid = _grid(32)
    vals = rng.standard_normal((grid.nt + 1, grid.nx))
    triples = random_triples(grid, 50, rng)
    a = three_point_check(TimeField(grid, vals), triples, delta=0.1)
    b = three_point_check(TimeField(grid, vals + 5.0), triples, delta=0.1)
    assert a == pytest.approx(b, abs=1e-10)


def _three_point_full_stack(u, triples, delta):
    """The three-point ratio over the whole level stack at once (the reference)."""
    dx = u.grid.dx
    xi, yi, zi = (triples[:, k].astype(float) * dx for k in range(3))
    quart = (
        np.sum((xi - zi) ** 2, axis=1) ** 2
        + np.sum((yi - zi) ** 2, axis=1) ** 2
        + np.sum((xi + yi - 2 * zi) ** 2, axis=1)
    )
    denom = delta + quart / delta
    ux, uy, uz = (u.values[(slice(None),) + tuple(triples[:, k].T)] for k in range(3))
    return float(np.max((ux + uy - 2.0 * uz) / denom[None, :]))


@pytest.mark.parametrize("dim", [1, 2])
def test_three_point_chunks_match_full_stack(dim, rng):
    nx, nt = (64, 1040) if dim == 1 else (16, 600)
    grid = GridSpec(dim=dim, box_length=1.0, nx=nx, nt=nt, horizon=1e-4, a_max=0.5)
    vals = rng.standard_normal((nt + 1, *grid.shape))
    triples = random_triples(grid, 1000, rng)
    # the worst triple sits on the last level, in the last chunk
    vals[(nt,) + tuple(triples[0, 0])] += 100.0
    u = TimeField(grid, vals)
    for delta in (grid.dx, 0.3):
        got = three_point_check(u, triples, delta=delta)
        assert float.hex(got) == float.hex(_three_point_full_stack(u, triples, delta))


def test_three_point_traced_peak_bounded(rng):
    # 64 x 4160 with 1000 triples: the full stacks took about 159 MB
    grid = GridSpec(dim=1, box_length=1.0, nx=64, nt=4160, horizon=0.25, a_max=0.5)
    u = TimeField(grid, rng.standard_normal((grid.nt + 1, grid.nx)))
    triples = random_triples(grid, 1000, rng)
    tracemalloc.start()
    try:
        three_point_check(u, triples, delta=grid.dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_three_point_rejects_bad_delta(rng):
    grid = _grid(32)
    u = TimeField.constant(grid, 0.0)
    with pytest.raises(ConfigError):
        three_point_check(u, random_triples(grid, 5, rng), delta=0.0)


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_three_point_rejects_non_finite_delta(delta, rng):
    # a NaN delta made every ratio NaN, an infinite one made them all 0: a
    # certificate that says nothing
    grid = _grid(32)
    u = TimeField(grid, rng.standard_normal((grid.nt + 1, grid.nx)))
    with pytest.raises(ConfigError, match="delta must be .* finite"):
        three_point_check(u, random_triples(grid, 5, rng), delta=delta)


# ---------------------------------------------------------------------------
# structural-class audit
# ---------------------------------------------------------------------------


def _samples(rng, n=1000, d=1):
    out = []
    for _ in range(n):
        b = rng.standard_normal((d, d)) * 3.0
        out.append(
            KrylovSample(
                t=rng.uniform(0, 0.25),
                x=rng.uniform(0, 1, size=d),
                beta=rng.uniform(0.2, 5.0),
                big_b=0.5 * (b + b.T),
                p_under=rng.uniform(-4, 4, size=d),
                s=rng.uniform(-2, 2),
            )
        )
    return out


def test_class_m_assembly_value(rng):
    # beta * H2(tr B / beta) + beta * H1(p / beta) at beta = 1 reduces to H2 + H1
    ma = model_a()
    val = krylov_m(ma, np.array([0.1]), np.array([[0.5]]), np.array([1.0]),
                   np.array([[[2.0]]]), np.array([[0.3]]))
    expected = at_point(h2_terms, ma, 0.1, 0.5, 2.0)[0] + at_point(h1_terms, ma, 0.1, 0.5, 0.3)[0]
    assert float(val[0]) == pytest.approx(expected, abs=1e-14)


def test_class_m_model_a_full_audit(rng):
    ma = model_a()
    report = class_m_check(ma, _samples(rng), declared_c=10.0)
    assert report.passed
    hom = report.by_name("homogeneity")
    assert hom.worst <= 1e-10
    ell = report.by_name("ellipticity")
    assert ell.worst >= 0.5 * (1 - 1e-6)
    conc = report.by_name("concavity-in-B")
    assert conc.worst <= 1e-8


def test_class_m_ellipticity_matches_h2_derivative(rng):
    ma = model_a()
    samples = _samples(rng, n=50)
    report = class_m_check(ma, samples)
    # the diagonal derivative equals H2_q at tr(B)/beta, inside [1/2, 2]
    for s in samples[:10]:
        q = float(np.trace(s.big_b)) / s.beta
        deriv = at_point(h2_terms, ma, s.t, s.x, q)[1]
        assert 0.5 <= deriv <= 2.0
    assert report.by_name("ellipticity").passed


def test_class_m_failure_reported(rng):
    ma = model_a()
    report = class_m_check(ma, _samples(rng, n=100), declared_c=1e-4)
    assert not report.passed
    bad = report.by_name("derivative-bounds")
    assert not bad.passed
    assert len(bad.failing_samples) > 0


def test_class_m_single_control(rng):
    sc = single_control_model(nu=1.0)
    report = class_m_check(sc, _samples(rng, n=100), declared_c=10.0)
    assert report.passed
    assert report.by_name("ellipticity").worst == pytest.approx(1.0, abs=1e-6)


def test_krylov_sample_validation():
    with pytest.raises(ConfigError):
        KrylovSample(t=0.0, x=np.zeros(1), beta=-1.0, big_b=np.eye(1), p_under=np.zeros(1), s=0.0)
    with pytest.raises(ConfigError):
        KrylovSample(
            t=0.0, x=np.zeros(2), beta=1.0,
            big_b=np.array([[1.0, 2.0], [0.0, 1.0]]), p_under=np.zeros(2), s=0.0,
        )


def test_class_m_2d(rng):
    m2 = model_a(dim=2)
    report = class_m_check(m2, _samples(rng, n=100, d=2), declared_c=10.0)
    assert report.passed


# ---------------------------------------------------------------------------
# recorded bits of the regularity audits
# ---------------------------------------------------------------------------

# model builder and lattice (nx, nt) of a frozen-coupling model A solve
_AUDIT_CASES = {
    "1d": (lambda: model_a(), (32, 1040)),
    "2d": (lambda: model_a(dim=2, horizon=0.0625), (8, 64)),
}

_AUDIT_BITS = {
    "1d": {
        "lipschitz": "0x1.65a5a1d6169ebp+2",
        "semiconcavity": "0x1.cfd1bf95a28c0p+4",
        "three_point": "0x1.3d26654795071p+3",
        "quotient": "228f0c559e172463f80ca2d960d4f895766fc691b8b189f443283404749b18e3",
    },
    "2d": {
        "lipschitz": "0x1.69284dd08d6b0p+2",
        "semiconcavity": "0x1.29ba8983caae7p+5",
        "three_point": "0x1.78aeda7d380d6p+2",
        "quotient": "08cf173e5e4d411d76fc2912379427b77f7f37896b4023d13193b60cc3b0e43a",
    },
}


@pytest.mark.parametrize("case", sorted(_AUDIT_CASES))
def test_regularity_audits_match_recorded_bits(case):
    # raw bits, so a refactor of the periodic differences that reorders one
    # operation or reads one wrong neighbour fails here
    build, (nx, nt) = _AUDIT_CASES[case]
    model = build()
    grid = grid_for(model, nx=nx, nt=nt)
    gamma = DensityPath.constant_in_time(grid, model.m0.discretize(grid))
    f_path, g_slice = coupling_fields(model, grid, gamma.values)
    u = solve_hjb(model, f_path, g_slice, grid)
    triples = random_triples(grid, 500, np.random.default_rng(5))
    quotient = np.ascontiguousarray(second_difference_quotient(u)).tobytes()
    got = {
        "lipschitz": float.hex(lipschitz_constant(u)),
        "semiconcavity": float.hex(semiconcavity_constant(u)),
        "three_point": float.hex(three_point_check(u, triples, delta=grid.dx)),
        "quotient": hashlib.sha256(quotient).hexdigest(),
    }
    assert got == _AUDIT_BITS[case]
