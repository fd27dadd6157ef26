"""Transport distance: exactness, metric structure, duality, time exponent."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import mfgdiff.wasserstein as wasserstein
from mfgdiff import ConfigError, model_a
from mfgdiff.couplings import DensityInit
import mfgdiff.fixed_point as fixed_point
from mfgdiff.fixed_point import phi_map, picard_solve
from mfgdiff.fp import DensityPath, TransportOperator, solve_fp
from mfgdiff.grid import GridSpec
from mfgdiff.hjb import grid_for
from mfgdiff.wasserstein import (
    GridMeasure,
    d1,
    d1_path_sup,
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


def dual_potential_1d(m1: GridMeasure, m2: GridMeasure) -> np.ndarray:
    """A maximizing 1-Lipschitz potential for the 1D dual problem: slopes -sign(CDF1 - CDF2)."""
    diff = np.cumsum(m1.weights - m2.weights)
    slopes = np.sign(diff[:-1])
    return np.concatenate([[0.0], np.cumsum(-slopes * m1.grid.dx)])


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


def test_2d_coarsening_below_minimum_grid_rejected():
    # 37 is prime: the only block factor is 37 itself, which leaves one node per axis
    grid = GridSpec(dim=2, box_length=1.0, nx=37, nt=8, horizon=1e-4, a_max=0.5, theta_lf=0.0)
    m = GridMeasure(grid, np.full(grid.shape, 1.0 / grid.n_nodes))
    with pytest.raises(ConfigError, match="coarsening 37 per axis lands below the minimum grid"):
        d1(m, m)


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
def cold_starts(monkeypatch):
    """Counts the simplex solves behind `transport_lp_cost`, each started by
    `_least_cost_start`."""
    count = [0]
    start = wasserstein._least_cost_start

    def counting(*args, **kwargs):
        count[0] += 1
        return start(*args, **kwargs)

    monkeypatch.setattr(wasserstein, "_least_cost_start", counting)
    return count


def _moved_pair(grid, sources, sinks, a, b):
    """Weights sharing half their mass uniformly; the other half moves from `a` on
    the nodes `sources` to `b` on the nodes `sinks`."""
    w1 = np.full(grid.n_nodes, 0.5 / grid.n_nodes)
    w2 = w1.copy()
    w1[sources] += 0.5 * np.asarray(a)
    w2[sinks] += 0.5 * np.asarray(b)
    return w1, w2


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


def _moved_lp(pts, w1, w2):
    """The costs, unit marginals and moved mass of the LP `transport_lp_cost` poses."""
    diff = w1 - w2
    src, dst = np.flatnonzero(diff > 0.0), np.flatnonzero(diff < 0.0)
    a, b = diff[src], -diff[dst]
    cost = np.linalg.norm(pts[src][:, None, :] - pts[dst][None, :, :], axis=-1)
    return cost, a / a.sum(), b / b.sum(), 0.5 * (a.sum() + b.sum())


def _assert_pivots_to_optimum(pts, w1, w2, tree):
    """`tree`, feasible but not optimal for the LP of (w1, w2), starts the simplex,
    whose pivots reach the true optimum."""
    cost, a, b, moved = _moved_lp(pts, w1, w2)
    basis = wasserstein._Basis(cost, a, b, np.asarray(tree))
    assert len(basis.flow) == len(tree) and min(basis.flow.values()) >= -1e-14
    assert basis.solve() * moved == pytest.approx(_full_lp_oracle(pts, w1, w2), abs=1e-12)
    assert sorted(basis.flow) != sorted(tree)


def test_north_west_corner_tree_pivots_to_optimum(rng):
    grid = _grid2(nx=8)
    w1, w2 = (w.ravel() for w in _LP_PAIRS["overlapping"](rng, grid))
    diff = w1 - w2
    a, b = diff[diff > 0], -diff[diff < 0]
    tree = _north_west_corner(a.size, b.size, a / a.sum(), b / b.sum())
    _assert_pivots_to_optimum(grid.coords().reshape(-1, 2), w1, w2, tree.tolist())


def test_crossed_tree_pivots_to_optimum():
    grid = _grid2(nx=8)
    w1, w2 = _moved_pair(grid, [9, 14], [17, 22], [0.6, 0.4], [0.5, 0.5])
    # feasible (0.1 straight, 0.5 and 0.4 crossed) but the straight edge (1,6)->(2,6)
    # has reduced cost 2 dx - 2 sqrt(26) dx < 0
    _assert_pivots_to_optimum(grid.coords().reshape(-1, 2), w1, w2, [0, 1, 2])


def _corners_to_centre(rng, grid):
    w1, w2 = np.zeros(grid.shape), np.zeros(grid.shape)
    w1[0, 0] = w1[0, -1] = w1[-1, 0] = w1[-1, -1] = 0.25
    w2[3:5, 3:5] = 0.25
    return w1, w2


def _uniform_blocks(rng, grid):
    w1, w2 = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)
    w1[rng.choice(grid.n_nodes, 20, replace=False)] = 1.0 / 20
    w2[rng.choice(grid.n_nodes, 20, replace=False)] = 1.0 / 20
    return w1, w2


def _integer_ratios(rng, grid):
    w1, w2 = (rng.integers(0, 4, grid.n_nodes).astype(float) for _ in range(2))
    return w1 / w1.sum(), w2 / w2.sum()


# ties in the masses (zero-flow tree edges) or in the costs (many optimal plans)
_DEGENERATE_PAIRS = {
    "corners_to_centre": _corners_to_centre,
    "uniform_blocks": _uniform_blocks,
    "integer_ratios": _integer_ratios,
}


@pytest.mark.parametrize("bland", [False, True])
@pytest.mark.parametrize("case", sorted(_DEGENERATE_PAIRS))
def test_degenerate_lp_matches_full_oracle(rng, monkeypatch, case, bland):
    if bland:  # Bland's rule from the first pivot on
        monkeypatch.setattr(wasserstein, "_BLAND_AFTER", 0)
    grid = _grid2(nx=8)
    pts = grid.coords().reshape(-1, 2)
    w1, w2 = (w.ravel() for w in _DEGENERATE_PAIRS[case](rng, grid))
    value = transport_lp_cost(pts, w1, w2)
    assert value == pytest.approx(_full_lp_oracle(pts, w1, w2), abs=1e-12)
    cost, a, b, moved = _moved_lp(pts, w1, w2)
    basis = wasserstein._Basis(cost, a, b, wasserstein._least_cost_start(cost, a, b))
    assert basis.solve() * moved == value
    tree = np.fromiter(basis.flow, dtype=np.intp)
    assert len(np.unique(tree)) == a.size + b.size - 1
    # the optimal tree is certified again with no pivot
    pivots = [0]
    pivot = wasserstein._Basis._pivot

    def counting(self, cell):
        pivots[0] += 1
        return pivot(self, cell)

    monkeypatch.setattr(wasserstein._Basis, "_pivot", counting)
    assert wasserstein._Basis(cost, a, b, tree).solve() * moved == value
    assert pivots[0] == 0


def test_pivot_cap_raises(rng, monkeypatch):
    monkeypatch.setattr(wasserstein, "_PIVOTS_PER_NODE", 0)
    grid = _grid2(nx=8)
    w1, w2 = (w.ravel() for w in _LP_PAIRS["random"](rng, grid))
    with pytest.raises(RuntimeError, match="transport LP failed"):
        transport_lp_cost(grid.coords().reshape(-1, 2), w1, w2)


def test_small_node_masses_on_a_row_exact():
    # both measures on row 3: the flat 2D distance is the 1D one along the row, and
    # the moved node masses at unit moved mass go down to 2e-12
    grid = _grid2(nx=8)
    y = grid.axis_coords()
    w1, w2 = np.zeros(grid.shape), np.zeros(grid.shape)
    w1[3] = np.exp(-((y - 0.44) ** 2) / (2 * 0.06**2))
    w2[3] = np.exp(-((y - 0.56) ** 2) / (2 * 0.06**2))
    w1 /= w1.sum()
    w2 /= w2.sum()
    diff = w1[3] - w2[3]
    pos, neg = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    assert min(pos[pos > 0].min() / pos.sum(), neg[neg > 0].min() / neg.sum()) < 1e-11
    exact = wasserstein._d1_cdf(w1[3], w2[3], grid.dx)
    value = transport_lp_cost(grid.coords().reshape(-1, 2), w1.ravel(), w2.ravel())
    assert value == pytest.approx(exact, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "bad, message", [("negative", "nonnegative"), ("mass", "masses differ"), ("nan", "nonnegative")]
)
def test_transport_lp_rejects_bad_weights(bad, message):
    grid = _grid2(nx=8)
    pts = grid.coords().reshape(-1, 2)
    w1 = np.full(grid.n_nodes, 1.0 / grid.n_nodes)
    w2 = w1.copy()
    if bad == "negative":
        w2[1] += w2[0] + 1e-9
        w2[0] = -1e-9
    elif bad == "nan":
        w2[5] = np.nan
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


def _rest_then_move(grid, start, end):
    # start on [0, T/2], then a steady mix towards end: m(t) - m(s) = (a_t - a_s)(end - start)
    share = np.clip(np.arange(grid.nt + 1) / (grid.nt / 2) - 1.0, 0.0, 1.0)
    share = share.reshape(-1, *[1] * grid.dim)
    cell = grid.dx**grid.dim
    return DensityPath.from_values(grid, ((1.0 - share) * start + share * end) / cell)


@pytest.mark.parametrize("dim", [1, 2])
def test_holder_uniform_in_time(rng, dim):
    grid = _grid1(nx=16, nt=32) if dim == 1 else _grid2(nx=8, nt=32)
    if dim == 1:
        start, end = rng.random(grid.shape) + 0.1, rng.random(grid.shape) + 0.1
        start, end = start / start.sum(), end / end.sum()
    else:
        full = (slice(None), slice(None))
        start, end = _block(rng, grid, *full), _block(rng, grid, *full)
    m = _rest_then_move(grid, start, end)
    level = lambda n: GridMeasure.from_density(grid, m.values[n])  # noqa: E731
    # anchored at t = 0 the path does not move within T/2, the largest separation
    assert d1(level(0), level(grid.nt // 2)) == 0.0
    diag = holder_half_diagnostic(m)
    assert not diag.degenerate
    # on the moving half a shift by s levels moves the share by s / (nt / 2)
    full_move = d1(GridMeasure(grid, start), GridMeasure(grid, end))
    shifts = np.rint(diag.separations / grid.dt)
    expected = shifts / (grid.nt / 2) * full_move
    assert diag.distances == pytest.approx(expected, rel=1e-9)
    assert diag.distances[-1] > 0.0


def _brute_force_holder(m, shifts):
    grid = m.grid
    level = lambda n: GridMeasure.from_density(grid, m.values[n])  # noqa: E731
    return np.array([max(d1(level(t), level(t + s)) for t in range(grid.nt + 1 - s))
                     for s in shifts])


def test_holder_distances_match_brute_force_1d(rng):
    grid = _grid1(nx=16, nt=64)
    values = rng.random((grid.nt + 1, grid.nx)) + 0.1
    m = DensityPath.from_values(grid, values / (values.sum(axis=1, keepdims=True) * grid.dx))
    diag = holder_half_diagnostic(m)
    brute = _brute_force_holder(m, np.rint(diag.separations / grid.dt).astype(int))
    np.testing.assert_allclose(diag.distances, brute, rtol=0.0, atol=1e-15)


def test_holder_distances_match_brute_force_2d(rng):
    # levels that drift a little at a time, with one jump in the middle
    grid = _grid2(nx=8, nt=16)
    full = (slice(None), slice(None))
    levels = [_block(rng, grid, *full)]
    for n in range(grid.nt):
        mix = 0.5 if n == 9 else 0.05
        levels.append((1.0 - mix) * levels[-1] + mix * _block(rng, grid, *full))
    m = DensityPath.from_values(grid, np.stack(levels) / grid.dx**grid.dim)
    diag = holder_half_diagnostic(m)
    brute = _brute_force_holder(m, np.rint(diag.separations / grid.dt).astype(int))
    np.testing.assert_allclose(diag.distances, brute, rtol=1e-9, atol=0.0)


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


# ---------------------------------------------------------------------------
# 2D path sup by level bounds
# ---------------------------------------------------------------------------


def _seam_pair(rng, grid):
    # mass on the first and last rows and columns, where the flat cost is largest
    w1, w2 = np.zeros(grid.shape), np.zeros(grid.shape)
    w1[[0, -1], :] = rng.random((2, grid.nx))
    w2[:, [0, -1]] = rng.random((grid.nx, 2))
    return w1 / w1.sum(), w2 / w2.sum()


def _corner_pair(rng, grid):
    w1 = _block(rng, grid, slice(0, 2), slice(0, 2))
    return w1, _block(rng, grid, slice(None), slice(None))


def _point_uniform_pair(rng, grid):
    point = np.zeros(grid.shape)
    point[2, 5] = 1.0
    return point, np.full(grid.shape, 1.0 / grid.n_nodes)


def _identical_pair(rng, grid):
    w = _block(rng, grid, slice(None), slice(None))
    return w, w.copy()


_BOUND_PAIRS = {
    "random": _LP_PAIRS["random"],
    "disjoint": _LP_PAIRS["disjoint"],
    "small_masses": _LP_PAIRS["small_masses"],
    "seam": _seam_pair,
    "corner": _corner_pair,
    "point_vs_uniform": _point_uniform_pair,
    "identical": _identical_pair,
}


def _assert_bounds_ordered(sigma, dx, oracle):
    glued = wasserstein._glued_plan_bound(sigma[None], dx)[0]
    assert oracle <= glued * (1.0 + 1e-9)
    return glued


@pytest.mark.parametrize("case", sorted(_BOUND_PAIRS))
def test_glued_plan_bound_above_oracle(rng, case):
    grid = _grid2(nx=8)
    w1, w2 = _BOUND_PAIRS[case](rng, grid)
    oracle = _full_lp_oracle(grid.coords().reshape(-1, 2), w1.ravel(), w2.ravel())
    glued = _assert_bounds_ordered(w1 - w2, grid.dx, oracle)
    if case == "identical":
        assert glued == 0.0


def test_glued_plan_bound_above_oracle_after_coarsening(rng):
    grid = GridSpec(dim=2, box_length=1.0, nx=64, nt=8, horizon=1e-4, a_max=0.5, theta_lf=0.0)
    w1 = _block(rng, grid, slice(10, 30), slice(16, 34))
    w2 = _block(rng, grid, slice(20, 40), slice(12, 28))
    coarse, (c1, c2) = wasserstein._coarsen(grid, np.stack([w1, w2]))
    support = np.flatnonzero((c1 + c2).ravel() > 0.0)
    pts = coarse.coords().reshape(-1, 2)[support]
    oracle = _full_lp_oracle(pts, c1.ravel()[support], c2.ravel()[support])
    _assert_bounds_ordered(c1 - c2, coarse.dx, oracle)
    assert d1(GridMeasure(grid, w1), GridMeasure(grid, w2)) == pytest.approx(oracle, abs=1e-12)


def test_glued_plan_bound_prices_a_diagonal_move_straight():
    # the two stages step 2 + 2 nodes; the glued plan moves 2 sqrt(2) nodes at once
    grid = _grid2(nx=8)
    sigma = np.zeros(grid.shape)
    sigma[2, 3], sigma[4, 5] = 1.0, -1.0
    glued = wasserstein._glued_plan_bound(sigma[None], grid.dx)[0]
    assert glued == pytest.approx(2.0 * np.sqrt(2.0) * grid.dx, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("levels, nx, limit_mib", [(65, 8, 1), (4, 32, 4)])
def test_glued_plan_bound_memory(rng, levels, nx, limit_mib):
    grid = _grid2(nx=nx)
    full = (slice(None), slice(None))
    sigma = np.stack([_block(rng, grid, *full) - _block(rng, grid, *full) for _ in range(levels)])
    tracemalloc.start()
    try:
        wasserstein._glued_plan_bound(sigma, grid.dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def _per_level_d1(p1, p2):
    grid = p1.grid
    return [
        d1(GridMeasure.from_density(grid, p1.values[n]), GridMeasure.from_density(grid, p2.values[n]))
        for n in range(grid.nt + 1)
    ]


@pytest.mark.parametrize(
    "peak, nx",
    [pytest.param(peak, 8, id=peak) for peak in ("first", "interior", "last", "none")]
    + [pytest.param("interior", 16, id="interior-16")],
)
def test_pruned_path_sup_matches_brute_force(rng, peak, nx):
    grid = _grid2(nx=nx, nt=12)
    cell = grid.dx**grid.dim
    full = (slice(None), slice(None))
    base = np.stack([_block(rng, grid, *full) for _ in range(grid.nt + 1)])
    other = np.stack([_block(rng, grid, *full) for _ in range(grid.nt + 1)])
    # small differences on every level, one level far apart unless there is no peak
    share = rng.uniform(0.02, 0.1, grid.nt + 1)
    level = {"first": 0, "interior": 5, "last": grid.nt, "none": None}[peak]
    if level is not None:
        share[level] = 0.9
    mixed = (1.0 - share[:, None, None]) * base + share[:, None, None] * other
    p1, p2 = (DensityPath.from_values(grid, v / cell) for v in (base, mixed))
    per_level = _per_level_d1(p1, p2)
    if level is not None:
        assert int(np.argmax(per_level)) == level
    assert d1_path_sup(p1, p2) == pytest.approx(max(per_level), abs=1e-12)


def test_pruned_path_sup_solves_past_a_loose_bound():
    # level 1 moves two half masses one node each, a value of dx, which the glued
    # plan prices at (1 + sqrt(13))/2 dx, the largest bound; the max is level 2's
    # straight move of 2 dx
    grid = _grid2(nx=8, nt=3)
    cell = grid.dx**grid.dim
    values = np.zeros((2, grid.nt + 1, *grid.shape))
    values[:, 0, 4, 4] = 1.0
    values[0, 1, 3, 0] = values[0, 1, 0, 3] = values[1, 1, 2, 0] = values[1, 1, 0, 2] = 0.5
    values[0, 2:, 2, 2] = values[1, 2, 2, 4] = values[1, 3, 3, 2] = 1.0
    p1, p2 = (DensityPath.from_values(grid, v / cell) for v in values)
    bound = wasserstein._glued_plan_bound(values[0] - values[1], grid.dx)
    assert int(np.argmax(bound)) == 1
    assert bound[1] == pytest.approx(0.5 * (1.0 + np.sqrt(13.0)) * grid.dx, rel=1e-12)
    per_level = _per_level_d1(p1, p2)
    assert per_level == pytest.approx([0.0, grid.dx, 2 * grid.dx, grid.dx], abs=1e-12)
    assert d1_path_sup(p1, p2) == pytest.approx(2 * grid.dx, abs=1e-12)


def test_pruned_path_sup_identical_paths_no_solve(rng, cold_starts):
    grid = _grid2(nx=8, nt=6)
    cell = grid.dx**grid.dim
    values = np.stack([_block(rng, grid, slice(None), slice(None)) for _ in range(grid.nt + 1)])
    p = DensityPath.from_values(grid, values / cell)
    assert d1_path_sup(p, DensityPath.from_values(grid, p.values.copy())) == 0.0
    assert cold_starts[0] == 0


@pytest.mark.parametrize("bad", ["negative", "mass"])
def test_pruned_path_sup_checks_every_level(rng, bad):
    grid = _grid2(nx=8, nt=6)
    cell = grid.dx**grid.dim
    full = (slice(None), slice(None))
    values = [np.stack([_block(rng, grid, *full) for _ in range(grid.nt + 1)]) / cell
              for _ in range(2)]
    # level 3 is shared by both paths, so its bound is 0 and it is never solved
    values[1][3] = values[0][3]
    if bad == "negative":
        values[0][3, 0, 1] += values[0][3, 0, 0] + 1e-9 / cell
        values[0][3, 0, 0] = -1e-9 / cell  # weight -1e-9, mass unchanged
    else:
        values[0][3] *= 1.0 + 1e-8
    values[1][3] = values[0][3]
    p1, p2 = (DensityPath(grid, v, v.reshape(grid.nt + 1, -1).sum(axis=1) * cell) for v in values)
    with pytest.raises(ValueError, match="nonnegative" if bad == "negative" else "not 1"):
        d1_path_sup(p1, p2)


@pytest.mark.parametrize("bad", ["negative", "mass"])
def test_level_sup_checks_every_level_1d(rng, bad):
    # 641 levels of 16 nodes walk in three chunks; the bad level sits in the last one
    grid = _grid1(nx=16, nt=640, horizon=0.1)
    assert len(grid.level_chunks()) == 3
    values = rng.random((grid.nt + 1, grid.nx)) + 0.1
    values /= values.sum(axis=1, keepdims=True) * grid.dx
    if bad == "negative":
        values[600, 1] += values[600, 0] + 1e-9 / grid.dx
        values[600, 0] = -1e-9 / grid.dx  # weight -1e-9, mass unchanged
    else:
        values[600] *= 1.0 + 1e-8
    bad_path = DensityPath(grid, values, values.sum(axis=1) * grid.dx)
    good_path = DensityPath.from_values(grid, np.ones((grid.nt + 1, grid.nx)))
    with pytest.raises(ValueError, match="nonnegative" if bad == "negative" else "not 1"):
        d1_path_sup(good_path, bad_path)
    with pytest.raises(ValueError, match="nonnegative" if bad == "negative" else "not 1"):
        holder_half_diagnostic(bad_path)


def test_path_sup_2d_solves_few_levels(monkeypatch):
    model = model_a(horizon=0.0625, dim=2)
    grid = grid_for(model, nx=8, nt=64)
    paths = [DensityPath.constant_in_time(grid, model.m0.discretize(grid))]
    for _ in range(2):
        image = phi_map(paths[-1], model, grid)[1]
        paths.append(DensityPath.from_values(grid, 0.5 * paths[-1].values + 0.5 * image.values))
    calls = [0]
    solve = wasserstein.transport_lp_cost

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(wasserstein, "transport_lp_cost", counting)
    assert d1_path_sup(paths[2], paths[1]) > 1e-3
    assert 1 <= calls[0] <= 16


def _model_a_2d():
    model = model_a(horizon=0.0625, dim=2)
    return model, grid_for(model, nx=8, nt=64)


def _recording_gaps(monkeypatch):
    """Records each pair `picard_solve` measures its gap on, with the gap it took."""
    pairs = []
    bound = fixed_point.d1_path_sup_bound

    def recording(current, previous):
        pairs.append((current, previous, bound(current, previous)))
        return pairs[-1][2]

    monkeypatch.setattr(fixed_point, "d1_path_sup_bound", recording)
    return pairs


def test_path_sup_2d_exact_on_picard_iterates(monkeypatch):
    # the pairs of the first three Picard steps of 2D model A: the exact sup against
    # brute force, and the stopping gap between it and 1.1 times it
    model, grid = _model_a_2d()
    pairs = _recording_gaps(monkeypatch)
    picard_solve(model, grid, theta=0.5, tol=1e-3, max_iter=3)
    assert len(pairs) == 3
    for current, previous, bound in pairs:
        brute = max(_per_level_d1(current, previous))
        assert d1_path_sup(current, previous) == pytest.approx(brute, abs=1e-15)
        assert brute <= bound <= 1.10 * brute


def test_picard_2d_stops_without_lp(monkeypatch):
    # the stopping rule solves no transport LP; the Hoelder check of the returned pair does
    model, grid = _model_a_2d()
    calls = {"path_sup": 0, "holder": 0}
    phase = ["path_sup"]
    solve, check = wasserstein.transport_lp_cost, fixed_point.holder_half_diagnostic

    def counting(*args, **kwargs):
        calls[phase[0]] += 1
        return solve(*args, **kwargs)

    def holder(m):
        phase[0] = "holder"
        return check(m)

    monkeypatch.setattr(wasserstein, "transport_lp_cost", counting)
    monkeypatch.setattr(fixed_point, "holder_half_diagnostic", holder)
    result = picard_solve(model, grid, theta=0.5, tol=1e-3, max_iter=50)
    assert result.report.iterations == 7
    assert calls["path_sup"] == 0 and calls["holder"] >= 1


def test_picard_2d_bound_stop_iterates_longer(monkeypatch):
    # tol between the last exact gap (9.19e-4) and the last bound (9.72e-4) of the
    # tol = 1e-3 solve: the exact rule stops after 7 iterations, the bound after 8
    model, grid = _model_a_2d()
    pairs = _recording_gaps(monkeypatch)
    result = picard_solve(model, grid, theta=0.5, tol=9.5e-4, max_iter=50)
    exact = np.array([d1_path_sup(current, previous) for current, previous, _ in pairs])
    gaps = result.report.gap_history
    assert result.report.converged and result.report.iterations == 8
    assert int(np.argmax(exact < 9.5e-4)) + 1 == 7
    assert np.array_equal(gaps, [bound for _, _, bound in pairs])
    assert np.all(gaps >= exact)


def test_picard_2d_lp_calls(monkeypatch):
    # the path sups and the Hoelder tracker of one 2D model A solve
    model, grid = _model_a_2d()
    calls = [0]
    solve = wasserstein.transport_lp_cost

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(wasserstein, "transport_lp_cost", counting)
    result = picard_solve(model, grid, theta=0.5, tol=1e-3, max_iter=50)
    assert len(result.report.gap_history) == 7
    assert calls[0] <= 75


def test_picard_2d_lp_calls_one_holder_check(monkeypatch, cold_starts):
    # the path sups of the 7 iterations, then one Hoelder check of the returned density;
    # every LP starts from the least-cost tree
    model, grid = _model_a_2d()
    calls = {"path_sup": 0, "holder": 0}
    phase = ["path_sup"]
    solve, check = wasserstein.transport_lp_cost, fixed_point.holder_half_diagnostic

    def counting(*args, **kwargs):
        calls[phase[0]] += 1
        return solve(*args, **kwargs)

    def holder(m):
        phase[0] = "holder"
        return check(m)

    monkeypatch.setattr(wasserstein, "transport_lp_cost", counting)
    monkeypatch.setattr(fixed_point, "holder_half_diagnostic", holder)
    result = picard_solve(model, grid, theta=0.5, tol=1e-3, max_iter=50)
    assert result.report.iterations == 7 and not result.report.holder.degenerate
    assert calls["path_sup"] + calls["holder"] <= 40
    assert cold_starts[0] == calls["path_sup"] + calls["holder"]
    assert 1 <= calls["holder"] <= 10



def test_pruned_path_sup_tightens_from_the_solved_value(rng):
    # two nearly equal levels whose glued bounds and LP values are ordered oppositely:
    # the level solved first is not the max, and sigma_2 - sigma_1 is small, so only
    # the solved value in d_1 + bound(sigma_2 - sigma_1) keeps the max level open
    grid = _grid2(nx=8, nt=2)
    pts = grid.coords().reshape(-1, 2)
    full = (slice(None), slice(None))
    base, other = _block(rng, grid, *full), _block(rng, grid, *full)
    for _ in range(100):
        pair = np.stack([other, 0.99 * other + 0.01 * _block(rng, grid, *full)])
        lp = [transport_lp_cost(pts, base.ravel(), w.ravel()) for w in pair]
        glued = wasserstein._glued_plan_bound(base - pair, grid.dx)
        if (lp[1] > lp[0]) != (glued[1] > glued[0]):
            break
    else:
        pytest.fail("no pair of nearly equal levels with opposite orders")
    cell = grid.dx**grid.dim
    p1 = DensityPath.from_values(grid, np.stack([base] * 3) / cell)
    p2 = DensityPath.from_values(grid, np.concatenate([base[None], pair]) / cell)
    assert d1_path_sup(p1, p2) == pytest.approx(max(lp), abs=1e-12)
