"""Order-1 optimal transport distance between grid measures, plus diagnostics.

The distance is taken with the flat (unrolled) ground cost |x - y| on the
box, on purpose, even though the solvers run on a torus.  It matches the
whole-space definition

    d1(m1, m2) = sup over 1-Lipschitz phi of  integral phi d(m1 - m2)

and agrees with the torus distance only while no mass needs to cross the
wrap seam.  Solved densities do carry mass there: model A's density at T
has full support (minimum 0.22) with 7.6% of its mass within 0.1 of the
seam, and for such measures the flat value can exceed the torus one (0.158
against 0.135 for a quarter-box rotation of that density).  The Picard
stopping rule and the Hölder diagnostic therefore measure the flat metric;
ROADMAP item 2 plans the switch to the torus distance.

In one dimension the value is exact and cheap: d1 = sum |CDF1 - CDF2| * dx.
The maximizing dual potential is explicit (slopes -sign(CDF1 - CDF2)), and a
transportation linear program over the same support reproduces the value,
which the tests use as an independent oracle.  In two dimensions the
distance is solved exactly as a transportation LP with Euclidean costs on
the mass that moves only: for a metric cost W1(m1, m2) equals the cost of
carrying (m1 - m2)+ onto (m1 - m2)- (Kantorovich-Rubinstein), so shared
mass cancels before the solve and the LP is posed at unit moved mass.
Measures wider than 32 nodes per axis are block-coarsened first
(diagnostic-grade accuracy, error O(dx * factor)).

Successive levels of one `d1_path_sup` mostly pose the same LP (the same
source and sink nodes) with slightly moved masses, so the sup reuses the
optimal basis of the last level that had those node sets, as the
transportation simplex would.  An optimal plan with exactly ns + nd - 1
positive flows on a connected support is a spanning tree of the bipartite
source-sink graph; the tree fixes the flows (from the marginals) and the
potentials (f_i - g_j = c_ij on its edges).  When every flow is >= -1e-14
and every reduced cost c_ij - f_i + g_j is >= -1e-12, at unit moved mass,
the tree is primal and dual feasible, hence optimal by LP duality, and its
cost is returned without a solve.  Otherwise HiGHS solves the level.  The
stored trees live in a dict owned by the caller, one per `d1_path_sup`
call; nothing is cached across calls.

The 2D `d1_path_sup` keeps only the largest level value, so it solves the
LP only on levels that can still hold it.  Every level of both paths is
checked once, as `GridMeasure` checks one measure, and the whole stack is
coarsened once, so that the bounds price the measures the LP sees.  Each
level gets an upper bound from two axis-aligned plans, vectorized over
levels: one moves mass along one axis until its marginal on that axis is
the sink's, then along the other axis; the other plan swaps the axes.
Each stage is a sum of flat 1D distances (CDF sums), and the cheaper plan
bounds the level.  The level with the largest remaining bound is then
solved exactly through `d1`, and after a solve at level n with value d_n
every bound is tightened to min(ub_t, d_n + bound(sigma_t - sigma_n)),
sigma = m1 - m2: the triangle inequality of the Kantorovich-Rubinstein
norm.  The loop stops once the largest remaining bound, raised by a
relative 1e-9 for the LP's tolerance, is at most the largest value
solved; identical paths return exactly 0.0 without an LP.  On the Picard
iterates of 2D model A at 8x8x64 about one level in seven is solved.

SciPy (HiGHS through `scipy.optimize.linprog`, and `scipy.sparse` for the
constraint matrix) is imported at the first LP a process solves, not when
this module loads.  Only the 2D distance needs it, and the import costs
about half a second and some 40 MB of resident memory, which every 1D run
and every CLI start would otherwise pay for nothing.

`holder_half_diagnostic` fits the exponent of d1(m(0), m(tau)) against tau
over dyadic separations tau = T/2^k, k = 1..5; a diffusion-dominated path
shows an exponent near 1/2 with a finite sup of d1 / sqrt(tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fp import DensityPath
from .grid import GridSpec

_MASS_TOL = 1e-10
_COARSE_LIMIT = 32
_HOLDER_MAX_K = 5  # the Hölder diagnostic's separations go down to T / 2^5
# HiGHS feasibility tolerances for the transport LP (defaults are 1e-7); the
# solve is exact to round-off while the moved node masses, at unit moved
# mass, stay above them.
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# relative slack on the level bounds of the 2D path sup, for the LP's tolerance
_LP_SLACK = 1e-9


@dataclass(frozen=True)
class GridMeasure:
    """Probability weights on grid nodes (cell masses, summing to 1)."""

    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != self.grid.shape:
            raise ValueError(f"weights shape {w.shape} != grid shape {self.grid.shape}")
        _check_levels(w.reshape(1, -1))
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_density(cls, grid: GridSpec, values: np.ndarray) -> "GridMeasure":
        return cls(grid, np.asarray(values, dtype=float) * grid.dx**grid.dim)


def _check_levels(levels: np.ndarray) -> np.ndarray:
    """GridMeasure's checks on each row of a (levels, nodes) array; returns the masses.

    Every weight must be >= -1e-12 and every row must sum to 1 within the
    mass tolerance; a NaN fails both.
    """
    lowest = levels.min(axis=1)
    mass = levels.sum(axis=1)
    if not np.all(lowest >= -1e-12):
        raise ValueError(f"weights must be nonnegative, min is {np.min(lowest):.3e}")
    off = np.abs(mass - 1.0)
    if not np.all(off <= _MASS_TOL):
        raise ValueError(f"weights sum to {mass[np.argmax(off)]}, not 1")
    return mass


def d1(m1: GridMeasure, m2: GridMeasure, bases: dict | None = None) -> float:
    """Order-1 transport distance between two measures on the same grid.

    In 2D, `bases` is handed on to `transport_lp_cost`.
    """
    if not m1.grid.same_lattice(m2.grid):
        raise ValueError("measures live on different grids")
    if abs(m1.weights.sum() - m2.weights.sum()) > _MASS_TOL:
        raise ValueError("measures have mismatched total mass")
    if m1.grid.dim == 1:
        return float(_d1_cdf(m1.weights, m2.weights, m1.grid.dx))
    g1, w1 = _coarsen(m1.grid, m1.weights)
    _, w2 = _coarsen(m2.grid, m2.weights)
    return transport_lp_cost(_support_points(g1), w1.ravel(), w2.ravel(), bases)


def _d1_cdf(w1: np.ndarray, w2: np.ndarray, dx: float) -> np.ndarray:
    """Flat 1D distance sum |CDF1 - CDF2| * dx along the last axis (one level or a stack)."""
    diff = np.cumsum(w1 - w2, axis=-1)
    return np.abs(diff[..., :-1]).sum(axis=-1) * dx


def d1_path_sup(p1: DensityPath, p2: DensityPath) -> float:
    """Sup over time levels of d1 between two density paths.

    In 2D the transport LP is solved only on the levels whose upper bound
    can still exceed the largest value solved so far (see the module
    docstring); the result is the max over all levels all the same.
    """
    grid = p1.grid
    if not grid.same_lattice(p2.grid):
        raise ValueError("paths live on different grids")
    cell = grid.dx**grid.dim
    if grid.dim == 1:
        # _d1_cdf is linear in w1 - w2: densities in, cell masses by scaling after
        return float(np.max(_d1_cdf(p1.values, p2.values, grid.dx)) * cell)
    w1, w2 = p1.values * cell, p2.values * cell
    levels = (grid.nt + 1, grid.n_nodes)
    mass1, mass2 = _check_levels(w1.reshape(levels)), _check_levels(w2.reshape(levels))
    if not np.all(np.abs(mass1 - mass2) <= _MASS_TOL):
        raise ValueError("measures have mismatched total mass")
    lattice, w1 = _coarsen(grid, w1)
    _, w2 = _coarsen(grid, w2)
    sigma = w1 - w2
    bound = _axis_plan_bound(sigma, lattice.dx)
    bases: dict = {}  # optimal trees of this sup's LPs, by (sources, sinks)
    best = 0.0
    while True:
        n = int(np.argmax(bound))
        if bound[n] * (1.0 + _LP_SLACK) <= best:
            return best
        value = d1(GridMeasure(lattice, w1[n]), GridMeasure(lattice, w2[n]), bases)
        best = max(best, value)
        # triangle inequality of the Kantorovich-Rubinstein norm
        np.minimum(bound, value + _axis_plan_bound(sigma - sigma[n], lattice.dx), out=bound)
        bound[n] = -np.inf


def _axis_plan_bound(sigma: np.ndarray, dx: float) -> np.ndarray:
    """Upper bound on the order-1 transport cost of each 2D level of `sigma`.

    `sigma` is a stack of signed weights, levels on the leading axis.  Its
    positive part is carried onto its negative part, each scaled to unit
    mass and the cost scaled back by the mean of the two masses, as
    `transport_lp_cost` does.  Two axis-aligned plans are priced per level
    and the cheaper is returned: one moves mass along the last axis so that
    the marginal on it matches the sink's, then along the other axis; the
    other does the same with the axes swapped.  Each stage is a sum of flat
    1D distances, and every step it takes is along one axis, so its
    Euclidean cost is at most that sum.
    """
    pos = np.maximum(sigma, 0.0)
    neg = np.maximum(-sigma, 0.0)
    pos_mass = pos.sum(axis=(-2, -1))
    neg_mass = neg.sum(axis=(-2, -1))
    moved = np.where((pos_mass > 0.0) & (neg_mass > 0.0), 0.5 * (pos_mass + neg_mass), 0.0)
    pos /= np.where(pos_mass > 0.0, pos_mass, 1.0)[:, None, None]
    neg /= np.where(neg_mass > 0.0, neg_mass, 1.0)[:, None, None]

    def along_last_first(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # each line along the last axis keeps its source mass, spread like the sink's marginal
        mid = src.sum(axis=-1, keepdims=True) * dst.sum(axis=-2, keepdims=True)
        across = _d1_cdf(np.swapaxes(mid, -2, -1), np.swapaxes(dst, -2, -1), dx)
        return (_d1_cdf(src, mid, dx) + across).sum(axis=-1)

    swapped = along_last_first(np.swapaxes(pos, -2, -1), np.swapaxes(neg, -2, -1))
    return np.minimum(along_last_first(pos, neg), swapped) * moved


def dual_potential_1d(m1: GridMeasure, m2: GridMeasure) -> np.ndarray:
    """A maximizing 1-Lipschitz potential for the 1D dual problem."""
    if m1.grid.dim != 1:
        raise ValueError("dual potential construction is one-dimensional")
    diff = np.cumsum(m1.weights - m2.weights)
    slopes = np.sign(diff[:-1])
    phi = np.concatenate([[0.0], np.cumsum(-slopes * m1.grid.dx)])
    return phi


def _support_points(grid: GridSpec) -> np.ndarray:
    return grid.coords().reshape(-1, grid.dim)


def _coarsen(grid: GridSpec, weights: np.ndarray) -> tuple[GridSpec, np.ndarray]:
    """Block-aggregate a 2D measure, or a stack of them on leading axes, until nx <= 32 per axis."""
    if grid.nx <= _COARSE_LIMIT:
        return grid, weights
    factor = int(np.ceil(grid.nx / _COARSE_LIMIT))
    while grid.nx % factor != 0:
        factor += 1
    nxc = grid.nx // factor
    if nxc < 8:
        raise ConfigError(f"coarsening {grid.nx} per axis lands below the minimum grid")
    wc = weights.reshape(*weights.shape[:-2], nxc, factor, nxc, factor).sum(axis=(-3, -1))
    coarse = GridSpec(
        dim=grid.dim,
        box_length=grid.box_length,
        nx=nxc,
        nt=grid.nt,
        horizon=grid.horizon,
        a_max=grid.a_max,
        theta_lf=grid.theta_lf,
    )
    return coarse, wc


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call (see the module docstring)."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def transport_lp_cost(
    points: np.ndarray, w1: np.ndarray, w2: np.ndarray, bases: dict | None = None
) -> float:
    """Exact transportation LP with unit cost |x - y| between two weight vectors.

    Only the mass that moves is transported: for a metric cost
    W1(w1, w2) = W1((w1 - w2)+, (w1 - w2)-), so mass shared by both measures
    cancels before the solve, with sources where w1 - w2 > 0 and sinks where
    it is < 0.  Both sides are scaled to unit moved mass for the solve, so
    that small node masses are not lost in the solver's feasibility
    tolerance, and the optimum is scaled back.  Identical measures give
    exactly 0.0 without an LP.

    `bases`, when given, maps (source nodes, sink nodes) to the spanning tree
    of the last optimal plan for those node sets (flat indices into the
    sources x sinks plan).  A stored tree is tried first: if its flows are
    all >= -1e-14 and its reduced costs all >= -1e-12 at unit moved mass, it
    is optimal by LP duality and its cost is returned without HiGHS.
    Otherwise HiGHS solves the LP, and its plan is stored when its positive
    flows form a spanning tree (exactly ns + nd - 1 of them, connected).

    Raises ValueError for a weight below -1e-12 or for total masses that
    differ by more than the mass tolerance; nothing is clamped or
    renormalized.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    lowest = min(w1.min(), w2.min())
    if lowest < -1e-12:
        raise ValueError(f"weights must be nonnegative, min is {lowest:.3e}")
    if abs(w1.sum() - w2.sum()) > _MASS_TOL:
        raise ValueError(f"total masses differ: {w1.sum()} against {w2.sum()}")
    diff = w1 - w2
    src = np.flatnonzero(diff > 0.0)
    dst = np.flatnonzero(diff < 0.0)
    if src.size == 0 or dst.size == 0:
        return 0.0
    a, b = diff[src], -diff[dst]
    moved = 0.5 * (a.sum() + b.sum())
    a /= a.sum()
    b /= b.sum()
    pts = np.asarray(points, dtype=float)
    cost = np.linalg.norm(pts[src][:, None, :] - pts[dst][None, :, :], axis=-1)
    key = (src.tobytes(), dst.tobytes())
    if bases is not None and key in bases:
        certified = _certified_tree_cost(cost, a, b, bases[key])
        if certified is not None:
            return certified * moved
    from scipy import sparse

    ns, nd = len(src), len(dst)
    nvar = ns * nd
    # row i sums variable block i (sources); row ns + j every nd-th variable from j (sinks)
    rows = np.concatenate([np.repeat(np.arange(ns), nd), ns + np.tile(np.arange(nd), ns)])
    cols = np.tile(np.arange(nvar), 2)
    a_eq = sparse.csr_matrix((np.ones(2 * nvar), (rows, cols)), shape=(ns + nd, nvar))
    b_eq = np.concatenate([a, b])
    # one marginal constraint is redundant; dropping it keeps HiGHS happy
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1], method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    if bases is not None:
        tree = np.flatnonzero(res.x > 0.0)
        if _tree_walk(cost.shape, tree) is not None:
            bases[key] = tree
    return float(res.fun) * moved


def _tree_walk(shape: tuple[int, int], tree: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Breadth-first order from source 0, and each node's predecessor, of the graph
    on sources 0..ns-1 and sinks ns..ns+nd-1 whose edges are the flat plan indices
    `tree`; None unless those edges form a spanning tree."""
    ns, nd = shape
    nn = ns + nd
    if tree.size != nn - 1:
        return None
    neighbours: list[list[int]] = [[] for _ in range(nn)]
    for i, j in zip(*(part.tolist() for part in np.divmod(tree, nd))):
        neighbours[i].append(ns + j)
        neighbours[ns + j].append(i)
    pred = [-1] * nn
    pred[0] = 0
    order = [0]
    for v in order:  # the loop also visits the nodes appended while it runs
        for w in neighbours[v]:
            if pred[w] < 0:
                pred[w] = v
                order.append(w)
    # nn - 1 edges reaching all nn nodes form a tree
    return (np.asarray(order), np.asarray(pred)) if len(order) == nn else None


def _certified_tree_cost(
    cost: np.ndarray, a: np.ndarray, b: np.ndarray, tree: np.ndarray
) -> float | None:
    """Cost of the basic plan on `tree` when LP duality certifies it optimal, else None.

    The flow on each tree edge is the net supply of the subtree below it, and
    the potentials satisfy f_i - g_j = cost_ij on the edges (f = 0 at source 0).
    """
    walk = _tree_walk(cost.shape, tree)
    if walk is None:
        return None
    ns = len(a)
    order, pred = walk
    child = order[1:]
    parent = pred[child]
    from_source = child < ns
    # the edge joining each non-root node to its parent, as (source, sink)
    edge_cost = cost[np.where(from_source, child, parent), np.where(from_source, parent, child) - ns]
    step = np.where(from_source, edge_cost, -edge_cost)  # f_i = g_j + c_ij, g_j = f_i - c_ij
    pot = [0.0] * (ns + len(b))  # f for the sources, then g for the sinks
    for v, p, s in zip(child.tolist(), parent.tolist(), step.tolist()):
        pot[v] = pot[p] + s
    net = np.concatenate([a, -b]).tolist()
    for v, p in zip(child[::-1].tolist(), parent[::-1].tolist()):
        net[p] += net[v]
    below = np.asarray(net)[child]
    flow = np.where(from_source, below, -below)
    reduced = cost - np.asarray(pot[:ns])[:, None]
    reduced += np.asarray(pot[ns:])[None, :]
    if flow.min() < -1e-14 or reduced.min() < -1e-12:
        return None
    return float(edge_cost @ flow)


@dataclass(frozen=True)
class HolderDiagnostic:
    exponent: float
    max_ratio: float
    separations: np.ndarray
    distances: np.ndarray
    degenerate: bool


def holder_half_diagnostic(m: DensityPath) -> HolderDiagnostic:
    """Fit d1(m(0), m(tau)) ~ tau^s over dyadic tau anchored at t = 0.

    Uses tau = T / 2^k for k = 1..5 (only those landing on grid levels);
    needs at least four of them.  A path that never moves is reported as
    degenerate with no exponent.
    """
    grid = m.grid
    ks = [k for k in range(1, _HOLDER_MAX_K + 1) if grid.nt % (2**k) == 0]
    if len(ks) < 4:
        raise ConfigError(
            f"need at least 4 dyadic separations; nt={grid.nt} admits {len(ks)}"
        )
    base = GridMeasure.from_density(grid, m.values[0])
    taus, dists = [], []
    for k in ks:
        level = grid.nt // (2**k)
        taus.append(level * grid.dt)
        dists.append(d1(base, GridMeasure.from_density(grid, m.values[level])))
    taus = np.asarray(taus)
    dists = np.asarray(dists)
    if np.all(dists < 1e-15):
        return HolderDiagnostic(
            exponent=float("nan"), max_ratio=0.0, separations=taus, distances=dists, degenerate=True
        )
    slope, _ = np.polyfit(np.log(taus), np.log(np.maximum(dists, 1e-300)), 1)
    return HolderDiagnostic(
        exponent=float(slope),
        max_ratio=float(np.max(dists / np.sqrt(taus))),
        separations=taus,
        distances=dists,
        degenerate=False,
    )
