"""Transport distance: exactness, metric structure, duality, time exponent."""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import mfgdiff.wasserstein as wasserstein
from mfgdiff import ConfigError, model_a
from mfgdiff.couplings import DensityInit
from mfgdiff.fixed_point import phi_map
from mfgdiff.fp import DensityPath, TransportOperator, solve_fp
from mfgdiff.grid import GridSpec
from mfgdiff.hjb import grid_for
from mfgdiff.wasserstein import (
    GridMeasure,
    d1,
    d1_path_sup,
    dual_potential_1d,
    holder_half_diagnostic,
    transport_lp_cost,
)


def _grid1(nx=16, nt=32, horizon=0.02, a=0.5):
    return GridSpec(dim=1, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=a, theta_lf=0.0)


def _grid2(nx=8, nt=64, horizon=0.002, a=0.5):
    return GridSpec(dim=2, box_length=1.0, nx=nx, nt=nt, horizon=horizon, a_max=a, theta_lf=0.0)


def _dirac(grid, idx):
    w = np.zeros(grid.shape)
    w[idx] = 1.0
    return GridMeasure(grid, w)


def test_identical_measures_zero():
    grid = _grid1()
    m = GridMeasure(grid, np.full(grid.shape, 1.0 / grid.nx))
    assert d1(m, m) == 0.0


def test_two_diracs_1d():
    grid = _grid1()
    assert d1(_dirac(grid, 3), _dirac(grid, 9)) == pytest.approx(6 * grid.dx, abs=1e-14)


def test_two_diracs_2d():
    grid = _grid2()
    a = _dirac(grid, (1, 1))
    b = _dirac(grid, (4, 5))
    expected = np.hypot(3 * grid.dx, 4 * grid.dx)
    assert d1(a, b) == pytest.approx(expected, abs=1e-9)


def test_shifted_uniform_vs_lp_oracle():
    grid = _grid1(nx=16)
    # interior-supported block, shifted by two nodes: far from the seam
    w1 = np.zeros(grid.shape)
    w1[4:8] = 0.25
    w2 = np.roll(w1, 2)
    m1, m2 = GridMeasure(grid, w1), GridMeasure(grid, w2)
    cdf_value = d1(m1, m2)
    assert cdf_value == pytest.approx(2 * grid.dx, abs=1e-12)
    pts = grid.coords().reshape(-1, 1)
    lp_value = transport_lp_cost(pts, w1, w2)
    assert cdf_value == pytest.approx(lp_value, abs=1e-9)


def test_dual_certificate_matches_primal(rng):
    grid = _grid1(nx=16)
    w1 = rng.random(grid.shape)
    w1 /= w1.sum()
    w2 = rng.random(grid.shape)
    w2 /= w2.sum()
    m1, m2 = GridMeasure(grid, w1), GridMeasure(grid, w2)
    primal = d1(m1, m2)
    phi = dual_potential_1d(m1, m2)
    assert np.max(np.abs(np.diff(phi))) <= grid.dx + 1e-15  # 1-Lipschitz on the line
    dual_value = float(np.sum(phi * (w1 - w2)))
    assert dual_value == pytest.approx(primal, abs=1e-12)
    # and the LP agrees
    pts = grid.coords().reshape(-1, 1)
    assert primal == pytest.approx(transport_lp_cost(pts, w1, w2), abs=1e-9)


def test_metric_axioms(rng):
    grid = _grid1(nx=32)
    ms = []
    for _ in range(3):
        w = rng.random(grid.shape)
        ms.append(GridMeasure(grid, w / w.sum()))
    a, b, c = ms
    assert d1(a, b) == pytest.approx(d1(b, a), abs=1e-15)
    assert d1(a, c) <= d1(a, b) + d1(b, c) + 1e-10
    assert d1(a, a) == 0.0


def test_translation_bound(rng):
    grid = _grid1(nx=32)
    w = np.zeros(grid.shape)
    w[10:16] = rng.random(6)
    w /= w.sum()
    for s in (1, 2, 3):
        shifted = GridMeasure(grid, np.roll(w, s))
        dist = d1(GridMeasure(grid, w), shifted)
        assert dist <= s * grid.dx + 1e-12
        assert dist == pytest.approx(s * grid.dx, abs=1e-12)  # interior support: equality


def test_2d_uniform_shift():
    grid = _grid2(nx=8)
    w = np.zeros(grid.shape)
    w[2:4, 2:4] = 0.25
    m1 = GridMeasure(grid, w)
    m2 = GridMeasure(grid, np.roll(w, 1, axis=0))
    assert d1(m1, m2) == pytest.approx(grid.dx, abs=1e-9)


def test_2d_coarsening():
    grid = GridSpec(dim=2, box_length=1.0, nx=64, nt=8, horizon=1e-4, a_max=0.5, theta_lf=0.0)
    w = np.zeros(grid.shape)
    w[24:40, 24:40] = 1.0
    w /= w.sum()
    m = GridMeasure(grid, w)
    assert d1(m, m) == pytest.approx(0.0, abs=1e-12)


def test_mass_and_grid_mismatch_rejected():
    grid = _grid1(nx=16)
    w = np.full(grid.shape, 1.0 / grid.nx)
    with pytest.raises(ValueError):
        GridMeasure(grid, w * 1.1)
    other = _grid1(nx=32)
    m1 = GridMeasure(grid, w)
    m2 = GridMeasure(other, np.full(other.shape, 1.0 / other.nx))
    with pytest.raises(ValueError):
        d1(m1, m2)


def test_negative_weights_rejected():
    grid = _grid1(nx=16)
    w = np.full(grid.shape, 1.0 / grid.nx)
    w[0] = -0.01
    w[1] += 0.01 + 1.0 / grid.nx
    with pytest.raises(ValueError):
        GridMeasure(grid, w)


# ---------------------------------------------------------------------------
# 2D transport LP on the moved mass, against the full LP
# ---------------------------------------------------------------------------


def _full_lp_oracle(points, w1, w2):
    """Full (un-reduced) transportation LP at unit masses, HiGHS tolerances 1e-10."""
    w1 = w1 / w1.sum()
    w2 = w2 / w2.sum()
    n = w1.size
    cost = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(n), np.ones((1, n))), sparse.kron(np.ones((1, n)), sparse.eye(n))]
    ).tocsr()
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=np.concatenate([w1, w2])[:-1],
                  method="highs", options=tight)
    assert res.success
    return res.fun


def _gauss2(grid, center, width):
    x = grid.axis_coords()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w = np.exp(-((xx - center[0]) ** 2 + (yy - center[1]) ** 2) / (2 * width**2))
    return w / w.sum()


def _block(rng, grid, rows, cols):
    w = np.zeros(grid.shape)
    w[rows, cols] = rng.random(w[rows, cols].shape) + 0.1
    return w / w.sum()


_LP_PAIRS = {
    "random": lambda rng, g: (_block(rng, g, slice(None), slice(None)),
                              _block(rng, g, slice(None), slice(None))),
    # node masses down to 1.5e-9: the unscaled full LP at default tolerances misses by 1.5e-9
    "small_masses": lambda rng, g: (_gauss2(g, (0.5, 0.5), 0.12), _gauss2(g, (0.56, 0.47), 0.12)),
    "disjoint": lambda rng, g: (_block(rng, g, slice(1, 3), slice(1, 3)),
                                _block(rng, g, slice(5, 7), slice(4, 7))),
    "overlapping": lambda rng, g: (_block(rng, g, slice(1, 5), slice(1, 5)),
                                   _block(rng, g, slice(3, 7), slice(2, 6))),
}


@pytest.mark.parametrize("case", sorted(_LP_PAIRS))
def test_reduced_lp_matches_full_oracle(rng, case):
    grid = _grid2(nx=8)
    pts = grid.coords().reshape(-1, 2)
    w1, w2 = (w.ravel() for w in _LP_PAIRS[case](rng, grid))
    assert transport_lp_cost(pts, w1, w2) == pytest.approx(_full_lp_oracle(pts, w1, w2), abs=1e-12)
    if case == "small_masses":
        assert min(w1.min(), w2.min()) < 1e-8


def test_identical_measures_zero_2d(rng):
    grid = _grid2(nx=8)
    w = _block(rng, grid, slice(None), slice(None))
    assert transport_lp_cost(grid.coords().reshape(-1, 2), w.ravel(), w.ravel()) == 0.0
    m = GridMeasure(grid, w)
    assert d1(m, m) == 0.0


def test_path_sup_2d_matches_oracle(rng):
    grid = _grid2(nx=8, nt=4)
    cell = grid.dx**grid.dim
    values = [np.stack([_block(rng, grid, slice(None), slice(None)) / cell
                        for _ in range(grid.nt + 1)]) for _ in range(2)]
    values[1][0] = values[0][0]  # shared first level, as in every Picard step
    p1, p2 = (DensityPath.from_values(grid, v) for v in values)
    pts = grid.coords().reshape(-1, 2)
    per_level = [
        _full_lp_oracle(pts, values[0][n].ravel() * cell, values[1][n].ravel() * cell)
        for n in range(1, grid.nt + 1)
    ]
    assert d1_path_sup(p1, p2) == pytest.approx(max(per_level), abs=1e-12)


@pytest.fixture
def highs_solves(monkeypatch):
    """Counts the HiGHS solves behind `transport_lp_cost`."""
    count = [0]
    solve = wasserstein.linprog

    def counting(*args, **kwargs):
        count[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(wasserstein, "linprog", counting)
    return count


def test_path_sup_2d_reuses_optimal_trees(highs_solves):
    # two successive damped Picard iterates of 2D model A, as in the stopping rule
    model = model_a(horizon=0.0625, dim=2)
    grid = grid_for(model, nx=8, nt=64)
    paths = [DensityPath.constant_in_time(grid, model.m0.discretize(grid))]
    for _ in range(2):
        image = phi_map(paths[-1], model, grid)[1]
        paths.append(DensityPath.from_values(grid, 0.5 * paths[-1].values + 0.5 * image.values))
    pts, cell = grid.coords().reshape(-1, 2), grid.dx**grid.dim
    fresh = max(
        transport_lp_cost(pts, paths[2].values[n].ravel() * cell, paths[1].values[n].ravel() * cell)
        for n in range(grid.nt + 1)
    )
    highs_solves[0] = 0
    sup = d1_path_sup(paths[2], paths[1])
    assert sup == pytest.approx(fresh, abs=1e-15)
    assert sup > 1e-3
    assert highs_solves[0] < (grid.nt + 1) / 2


def _moved_pair(grid, sources, sinks, a, b):
    """Weights sharing half their mass uniformly; the other half moves from `a` on
    the nodes `sources` to `b` on the nodes `sinks`."""
    w1 = np.full(grid.n_nodes, 0.5 / grid.n_nodes)
    w2 = w1.copy()
    w1[sources] += 0.5 * np.asarray(a)
    w2[sinks] += 0.5 * np.asarray(b)
    return w1, w2


def test_stored_tree_rejected_when_primal_infeasible(highs_solves):
    grid = _grid2(nx=8)
    pts = grid.coords().reshape(-1, 2)
    sources, sinks = [9, 14], [17, 22]  # nodes (1, 1), (1, 6) onto (2, 1), (2, 6)
    bases = {}
    first = _moved_pair(grid, sources, sinks, [0.6, 0.4], [0.5, 0.5])
    # optimal tree: (1,1)->(2,1) 0.5, (1,1)->(2,6) 0.1, (1,6)->(2,6) 0.4
    value = transport_lp_cost(pts, *first, bases)
    assert highs_solves[0] == 1 and len(bases) == 1
    (tree,) = bases.values()
    assert sorted(tree.tolist()) == [0, 1, 3]
    assert transport_lp_cost(pts, *first, bases) == pytest.approx(value, abs=1e-15)
    assert highs_solves[0] == 1  # certified from the stored tree
    # same node sets; on that tree (1,1)->(2,6) would carry -0.1, so HiGHS solves it
    second = _moved_pair(grid, sources, sinks, [0.4, 0.6], [0.5, 0.5])
    assert transport_lp_cost(pts, *second, bases) == pytest.approx(
        _full_lp_oracle(pts, *second), abs=1e-12
    )
    assert highs_solves[0] == 2
    (tree,) = bases.values()
    assert sorted(tree.tolist()) == [0, 2, 3]


def _north_west_corner(ns, nd, a, b):
    """Flat plan indices of the north-west-corner spanning tree for marginals a, b."""
    a, b = a.copy(), b.copy()
    i = j = 0
    cells = [0]
    while (i, j) != (ns - 1, nd - 1):
        x = min(a[i], b[j])
        a[i] -= x
        b[j] -= x
        if j == nd - 1 or (i < ns - 1 and a[i] <= b[j]):
            i += 1
        else:
            j += 1
        cells.append(i * nd + j)
    return np.asarray(cells)


def _assert_tree_rejected(pts, w1, w2, tree, highs_solves):
    """`tree`, stored for the node sets of (w1, w2), falls back to HiGHS and the true optimum."""
    bases = {}
    transport_lp_cost(pts, w1, w2, bases)
    (key,) = bases
    bases[key] = np.asarray(tree)
    solves = highs_solves[0]
    assert transport_lp_cost(pts, w1, w2, bases) == pytest.approx(
        _full_lp_oracle(pts, w1, w2), abs=1e-12
    )
    assert highs_solves[0] == solves + 1


def test_north_west_corner_tree_rejected(rng, highs_solves):
    grid = _grid2(nx=8)
    w1, w2 = (w.ravel() for w in _LP_PAIRS["overlapping"](rng, grid))
    diff = w1 - w2
    a, b = diff[diff > 0], -diff[diff < 0]
    tree = _north_west_corner(a.size, b.size, a / a.sum(), b / b.sum())
    _assert_tree_rejected(grid.coords().reshape(-1, 2), w1, w2, tree, highs_solves)


def test_crossed_tree_rejected(highs_solves):
    grid = _grid2(nx=8)
    w1, w2 = _moved_pair(grid, [9, 14], [17, 22], [0.6, 0.4], [0.5, 0.5])
    # feasible (0.1 straight, 0.5 and 0.4 crossed) but the straight edge (1,6)->(2,6)
    # has reduced cost 2 dx - 2 sqrt(26) dx < 0
    _assert_tree_rejected(grid.coords().reshape(-1, 2), w1, w2, [0, 1, 2], highs_solves)


@pytest.mark.parametrize("bad, message", [("negative", "nonnegative"), ("mass", "masses differ")])
def test_transport_lp_rejects_bad_weights(bad, message):
    grid = _grid2(nx=8)
    pts = grid.coords().reshape(-1, 2)
    w1 = np.full(grid.n_nodes, 1.0 / grid.n_nodes)
    w2 = w1.copy()
    if bad == "negative":
        w2[1] += w2[0] + 1e-9
        w2[0] = -1e-9
    else:
        w2[0] += 1e-9
    with pytest.raises(ValueError, match=message):
        transport_lp_cost(pts, w1, w2)


# ---------------------------------------------------------------------------
# time-regularity diagnostic
# ---------------------------------------------------------------------------


def test_holder_stationary_degenerate():
    grid = _grid1(nx=16, nt=32)
    path = DensityPath.constant_in_time(grid, np.ones(grid.shape))
    diag = holder_half_diagnostic(path)
    assert diag.degenerate
    assert diag.max_ratio == 0.0


def test_holder_pure_diffusion_band():
    grid = GridSpec(dim=1, box_length=1.0, nx=128, nt=2048, horizon=0.02, a_max=0.5, theta_lf=0.0)
    op = TransportOperator.constant(grid, a=0.5)
    m = solve_fp(op, DensityInit(kind="dirac", center=(0.5,)).discretize(grid))
    diag = holder_half_diagnostic(m)
    assert not diag.degenerate
    assert 0.4 <= diag.exponent <= 0.6
    assert np.isfinite(diag.max_ratio)


def test_holder_needs_four_separations():
    grid = GridSpec(dim=1, box_length=1.0, nx=16, nt=12, horizon=1e-3, a_max=0.5, theta_lf=0.0)
    path = DensityPath.constant_in_time(grid, np.ones(grid.shape))
    with pytest.raises(ConfigError):
        holder_half_diagnostic(path)


def test_path_sup_distance(rng):
    grid = _grid1(nx=32, nt=32)
    base = np.ones((grid.nt + 1, grid.nx))
    p1 = DensityPath.from_values(grid, base)
    shifted = base.copy()
    bump = np.zeros(grid.nx)
    bump[8:12] = 0.5
    bump -= bump.mean()
    shifted[5] = 1.0 + bump
    p2 = DensityPath.from_values(grid, shifted)
    sup = d1_path_sup(p1, p2)
    level5 = d1(
        GridMeasure.from_density(grid, base[5]), GridMeasure.from_density(grid, shifted[5])
    )
    assert sup == pytest.approx(level5, abs=1e-14)
