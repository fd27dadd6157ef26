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
ROADMAP item 5 plans the switch to the torus distance.

Every distance here is one kernel, `_level_sup`, the max of d1 over a stack
of level pairs, each level checked as `GridMeasure` checks one measure:
`d1` passes one pair, `d1_path_sup` the levels of two paths and
`holder_half_diagnostic` a path against its own shift in time.

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

The transportation LP is solved exactly by the transportation (network)
simplex (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 11; Peyré &
Cuturi, Computational Optimal Transport, 2019, section 3.5), in numpy and
plain Python.  A basis is a spanning tree of the bipartite source-sink
graph: the tree fixes the flows (from the marginals) and the potentials
(f_i - g_j = c_ij on its edges).  A cold solve starts from the least-cost
(matrix-minimum) tree.  Each pivot prices every cell in one vectorized
pass, brings in the cell of most negative reduced cost c_ij - f_i + g_j,
moves flow round the tree cycle that cell closes, and drops the cycle edge
whose flow runs out first, ties by cell index; only the subtree cut off by
that edge is hung again.  Against cycling, Bland's rule (the entering cell
is the first by index with a negative reduced cost) takes over after a run
of degenerate pivots, which move no flow, until a pivot moves flow again,
and a pivot cap raises RuntimeError.  A solve returns only through the LP
duality certificate: the final tree's flows, recomputed from the
marginals, are all >= -1e-14 and its reduced costs, from potentials
recomputed from the costs, are all >= -1e-12, at unit moved mass.  The
tree is then primal and dual feasible, hence optimal, and node masses far
below any solver tolerance are transported exactly.

The 2D level sup keeps only the largest level value, so it solves the LP
only on levels that can still hold it.  The whole stack is coarsened once,
so that the bounds price the measures the LP sees.  Each level is bounded,
vectorized over levels, by one feasible plan: mass moves along the last
axis until its marginal on that axis is the sink's, then along the first
axis, each stage a 1D monotone coupling; the gluing lemma joins the two
stages into one plan, whose every composite move is priced by its
straight-line length.  On the Picard iterates of 2D model A this comes to
1.02-1.06 times the LP value.  The level with the largest remaining bound
is solved exactly by `transport_lp_cost`, and after a solve at level n
with value d_n the bound of every level still open is tightened to
min(ub_t, d_n + bound(sigma_t - sigma_n)), sigma = m1 - m2: the triangle
inequality of the Kantorovich-Rubinstein norm, priced by the same glued
plans.  The loop stops once the largest remaining bound, raised by a
relative 1e-9 for the LP's tolerance, is at most the largest value solved;
identical paths return exactly 0.0 without an LP.  On the Picard iterates
of 2D model A at 8x8x64 about one level in thirteen is solved.

`holder_half_diagnostic` fits the exponent of sup_t d1(m(t), m(t + tau))
against dyadic tau = T/2^k, k = 1..5: the paper's density is 1/2-Hölder in
time, uniformly in t.  A diffusion-dominated path shows an exponent near
1/2 with a finite sup of d1 / sqrt(tau).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .fp import DensityPath
from .grid import GridSpec

_MASS_TOL = 1e-10
_COARSE_LIMIT = 32
_HOLDER_MAX_K = 5  # the Hölder diagnostic's separations go down to T / 2^5
# transportation simplex, at unit moved mass: certificate tolerances on the
# tree's flows and reduced costs, degenerate pivots in a row before Bland's
# rule, and the pivot cap per node of the source-sink graph
_FLOW_TOL = 1e-14
_REDUCED_TOL = 1e-12
_BLAND_AFTER = 32
_PIVOTS_PER_NODE = 100
# relative slack on the level bounds of the 2D level sup, for the LP's tolerance
_LP_SLACK = 1e-9
# elements per temporary when the 2D level sup prices levels by glued plans (128 KiB)
_GLUE_BUDGET = 1 << 14


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


def d1(m1: GridMeasure, m2: GridMeasure) -> float:
    """Order-1 transport distance between two measures on the same grid."""
    if not m1.grid.same_lattice(m2.grid):
        raise ValueError("measures live on different grids")
    return _level_sup(m1.grid, m1.weights[None], m2.weights[None], 1.0)


def _d1_cdf(w1: np.ndarray, w2: np.ndarray, dx: float) -> np.ndarray:
    """Flat 1D distance sum |CDF1 - CDF2| * dx along the last axis (one level or a stack)."""
    diff = np.cumsum(w1 - w2, axis=-1)
    return np.abs(diff[..., :-1]).sum(axis=-1) * dx


def d1_path_sup(p1: DensityPath, p2: DensityPath) -> float:
    """Sup over time levels of d1 between two density paths."""
    if not p1.grid.same_lattice(p2.grid):
        raise ValueError("paths live on different grids")
    return _level_sup(p1.grid, p1.values, p2.values, p1.grid.dx**p1.grid.dim)


def _level_sup(grid: GridSpec, v1: np.ndarray, v2: np.ndarray, cell: float) -> float:
    """Max over n of d1(cell * v1[n], cell * v2[n]), levels on the leading axis.

    1D walks the levels in chunks (`GridSpec.level_chunks`) to bound its
    temporaries.  2D solves the LP only on the levels whose `_glued_plan_bound`
    can still hold the max, and tightens the bounds of those levels after
    each solve (see the module docstring).
    """
    best = 0.0
    for chunk in grid.level_chunks(0, len(v1)) if grid.dim == 1 else [slice(None)]:
        w = np.stack([v1[chunk], v2[chunk]])
        w *= cell
        mass = _check_levels(w.reshape(2 * w.shape[1], -1)).reshape(2, -1)
        if not np.all(np.abs(mass[0] - mass[1]) <= _MASS_TOL):
            raise ValueError("measures have mismatched total mass")
        if grid.dim == 1:
            best = max(best, float(np.max(_d1_cdf(w[0], w[1], grid.dx))))
    if grid.dim == 1:
        return best
    lattice, (w1, w2) = _coarsen(grid, w)
    points = lattice.coords().reshape(-1, grid.dim)
    sigma = w1 - w2
    bound = _glued_plan_bound(sigma, lattice.dx)
    while True:
        n = int(np.argmax(bound))
        if bound[n] * (1.0 + _LP_SLACK) <= best:
            return best
        value = transport_lp_cost(points, w1[n].ravel(), w2[n].ravel())
        best = max(best, value)
        bound[n] = -np.inf
        # triangle inequality of the Kantorovich-Rubinstein norm, on the levels
        # that can still hold the max
        open_ = bound * (1.0 + _LP_SLACK) > best
        rest = _glued_plan_bound(sigma[open_] - sigma[n], lattice.dx)
        bound[open_] = np.minimum(bound[open_], value + rest)


def _unit_parts(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive and negative parts of each level of `sigma`, each scaled to unit
    mass, and the mean of the two masses (0 where either part is empty), as
    `transport_lp_cost` poses a level."""
    pos = np.maximum(sigma, 0.0)
    neg = np.maximum(-sigma, 0.0)
    pos_mass = pos.sum(axis=(-2, -1))
    neg_mass = neg.sum(axis=(-2, -1))
    moved = np.where((pos_mass > 0.0) & (neg_mass > 0.0), 0.5 * (pos_mass + neg_mass), 0.0)
    pos /= np.where(pos_mass > 0.0, pos_mass, 1.0)[:, None, None]
    neg /= np.where(neg_mass > 0.0, neg_mass, 1.0)[:, None, None]
    return pos, neg, moved


def _glued_plan_bound(sigma: np.ndarray, dx: float) -> np.ndarray:
    """Upper bound on the order-1 transport cost of each 2D level of `sigma`.

    `sigma` is a stack of signed weights, levels on the leading axis.  Its
    positive part is carried onto its negative part, each scaled to unit
    mass and the cost scaled back by the mean of the two masses, as
    `transport_lp_cost` does.  The plan moves mass along the last axis, so
    that each row keeps its source mass spread like the sink's marginal on
    that axis, then along the first axis.  Its two stages are 1D monotone
    couplings: in row i, source column j goes to middle column k with mass
    R_i(j, k); in middle column k, row i goes to sink row l with mass
    C_k(i, l).  They glue into one plan of the source onto the sink (the
    gluing lemma),

        pi(i, j -> l, k) = R_i(j, k) C_k(i, l) / mid(i, k),

    and every composite move is priced by its Euclidean length
    sqrt((l - i)^2 + (k - j)^2) dx, so each level's price is at least the
    LP's.  The work is n^4 per level of n x n nodes, but no temporary holds
    more than n^3 per level, and levels are priced in blocks of at most
    `_GLUE_BUDGET` elements per temporary.
    """
    pos, neg, moved = _unit_parts(sigma)
    n = sigma.shape[-1]
    steps = np.arange(n)
    offset = np.abs(steps[:, None] - steps[None, :])
    # length[v, j, k]: a move of v rows and k - j columns, in nodes
    length = np.hypot(steps[:, None, None], offset[None, :, :])
    block = max(1, _GLUE_BUDGET // n**3)
    cost = np.empty(len(sigma))
    for start in range(0, len(sigma), block):
        part = slice(start, start + block)
        cost[part] = _glued_cost(pos[part], neg[part], length, offset)
    return cost * dx * moved


def _glued_cost(
    src: np.ndarray, dst: np.ndarray, length: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Straight-line cost, in nodes, of the glued plan that moves along the last axis first."""
    mid = src.sum(axis=-1, keepdims=True) * dst.sum(axis=-2, keepdims=True)
    rows = _monotone_coupling(src, mid)  # [b, i, j, k]
    cols = _monotone_coupling(np.swapaxes(mid, -2, -1), np.swapaxes(dst, -2, -1))  # [b, k, i, l]
    # the source column given the middle column, in each row
    rows /= np.where(mid > 0.0, mid, 1.0)[:, :, None, :]
    # reach[b, i, k, v]: mean length of the moves through (i, k) that end v rows away
    reach = np.einsum("bijk,vjk->bikv", rows, length, optimize=True)
    del rows
    reach = np.take_along_axis(reach, offset[None, :, None, :], axis=-1)  # v = |l - i|
    return np.einsum("bkil,bikl->b", cols, reach)


def _monotone_coupling(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monotone coupling of a and b along the last axis, as plan[..., j, k].

    a and b carry equal mass on each line; the plan gives source atom j and
    sink atom k the overlap of their intervals under the two CDFs.
    """
    zero = np.zeros((*a.shape[:-1], 1))
    fa = np.concatenate([zero, np.cumsum(a, axis=-1)], axis=-1)[..., :, None]
    fb = np.concatenate([zero, np.cumsum(b, axis=-1)], axis=-1)[..., None, :]
    plan = np.minimum(fa[..., 1:, :], fb[..., 1:])
    plan -= np.maximum(fa[..., :-1, :], fb[..., :-1])
    return np.maximum(plan, 0.0, out=plan)


def dual_potential_1d(m1: GridMeasure, m2: GridMeasure) -> np.ndarray:
    """A maximizing 1-Lipschitz potential for the 1D dual problem."""
    if m1.grid.dim != 1:
        raise ValueError("dual potential construction is one-dimensional")
    diff = np.cumsum(m1.weights - m2.weights)
    slopes = np.sign(diff[:-1])
    phi = np.concatenate([[0.0], np.cumsum(-slopes * m1.grid.dx)])
    return phi


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
    return replace(grid, nx=nxc), wc


def transport_lp_cost(points: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """Exact transportation LP with unit cost |x - y| between two weight vectors.

    Only the mass that moves is transported: for a metric cost
    W1(w1, w2) = W1((w1 - w2)+, (w1 - w2)-), so mass shared by both measures
    cancels before the solve, with sources where w1 - w2 > 0 and sinks where
    it is < 0.  Both sides are scaled to unit moved mass for the solve and
    the optimum is scaled back.  Identical measures give exactly 0.0 without
    a solve.  The LP is solved by the transportation simplex of `_Basis`,
    started from `_least_cost_start`.

    Raises ValueError for a weight that is NaN or below -1e-12 or for total
    masses that differ by more than the mass tolerance; nothing is clamped
    or renormalized.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    lowest = np.minimum(w1.min(), w2.min())
    if not lowest >= -1e-12:
        raise ValueError(f"weights must be nonnegative, min is {lowest:.3e}")
    if not abs(w1.sum() - w2.sum()) <= _MASS_TOL:
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
    return _Basis(cost, a, b, _least_cost_start(cost, a, b)).solve() * moved


def _least_cost_start(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat plan indices of the least-cost (matrix-minimum) start, a spanning tree.

    Cells are taken in order of cost, ties by index, while their source and
    sink are both open; each takes what it can and closes exactly one of
    the two, the source when the masses tie (so a later cell of the sink
    carries zero flow), and never the last open line of one side while the
    other side has more than one.  Each of the ns + nd - 1 cells joins the
    line it closes to a line closed later, which makes a spanning tree.
    """
    ns, nd = cost.shape
    left_a, left_b = a.tolist(), b.tolist()
    open_a, open_b = [True] * ns, [True] * nd
    rows, cols = ns, nd
    cells = []
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, nd)
        if not (open_a[i] and open_b[j]):
            continue
        cells.append(cell)
        if len(cells) == ns + nd - 1:
            break
        if cols == 1 or (rows > 1 and left_a[i] <= left_b[j]):
            left_b[j] -= left_a[i]
            open_a[i] = False
            rows -= 1
        else:
            left_a[i] -= left_b[j]
            open_b[j] = False
            cols -= 1
    return np.asarray(cells)


class _Basis:
    """A basis of the transportation LP and the simplex that improves it.

    The basis is a spanning tree of the bipartite graph on sources 0..ns-1
    and sinks ns..ns+nd-1 whose edges are plan cells (i * nd + j for source
    i, sink j).  The marginals fix the flow on each tree edge (the net
    supply of the subtree below it), and the costs fix the potentials
    (f_i - g_j = cost_ij on the tree's edges, f = 0 at source 0).  The tree
    hangs from source 0: `pred` and `depth` give each node's parent and
    distance from it, and `pot` its potential.  The starting `cells` must be
    such a tree with flows >= -1e-14, as `_least_cost_start` gives.
    """

    def __init__(self, cost: np.ndarray, a: np.ndarray, b: np.ndarray, cells: np.ndarray):
        ns, nd = cost.shape
        self.cost, self.a, self.b = cost, a, b
        self.costs = cost.tolist()
        self.adj: list[set[int]] = [set() for _ in range(ns + nd)]
        for i, j in zip(*(part.tolist() for part in np.divmod(np.asarray(cells), nd))):
            self.adj[i].add(ns + j)
            self.adj[ns + j].add(i)
        self.pred = [-1] * (ns + nd)
        self.depth = [0] * (ns + nd)
        self.pot = [0.0] * (ns + nd)
        self.flow = self._flows(self._hang(0, -1))

    def _cell(self, v: int) -> int:
        """The plan cell of the tree edge from node v up to its parent."""
        ns, nd = self.cost.shape
        p = self.pred[v]
        return v * nd + p - ns if v < ns else p * nd + v - ns

    def _hang(self, top: int, parent: int) -> list[int]:
        """Hang the nodes reachable from `top` without passing `parent` below
        `parent` (from the root when it is -1), setting their `pred`, `depth`
        and `pot`; returns them in breadth-first order.  From the root,
        neighbours are visited in index order, so that the flows summed
        along that order, and the cost, depend on the tree alone."""
        ns, costs, pred, depth, pot = self.cost.shape[0], self.costs, self.pred, self.depth, self.pot

        def hang_below(w, v):
            pred[w], depth[w] = v, depth[v] + 1
            pot[w] = pot[v] - costs[v][w - ns] if v < ns else pot[v] + costs[w][v - ns]

        if parent < 0:
            pred[top], depth[top], pot[top] = -1, 0, 0.0
        else:
            hang_below(top, parent)
        order, seen = [top], {parent, top}
        for v in order:  # the loop also visits the nodes appended while it runs
            for w in sorted(self.adj[v]) if parent < 0 else self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    hang_below(w, v)
                    order.append(w)
        return order

    def _flows(self, order: list[int]) -> dict[int, float]:
        """Flow on each tree edge, by plan cell, from the marginals; `order` is
        breadth-first from the root."""
        ns = self.cost.shape[0]
        net = np.concatenate([self.a, -self.b]).tolist()
        flow = {}
        for v in reversed(order[1:]):
            net[self.pred[v]] += net[v]
            flow[self._cell(v)] = net[v] if v < ns else -net[v]
        return flow

    def _reduced(self) -> np.ndarray:
        ns = self.cost.shape[0]
        pot = np.asarray(self.pot)
        reduced = self.cost - pot[:ns, None]
        reduced += pot[None, ns:]
        return reduced

    def solve(self) -> float:
        """Pivot to an optimal tree and return its cost, certified by LP duality.

        Each pivot brings in the cell of most negative reduced cost, or the
        first one by index under Bland's rule, which takes over after
        `_BLAND_AFTER` degenerate pivots in a row (moved flow <= 1e-14) and
        lasts until a pivot moves flow.  The leaving edge is the one of least
        flow against the cycle, ties (within 1e-14) by cell index.  The
        certificate recomputes the final tree's flows from the marginals and
        its potentials from the costs, and requires every flow >= -1e-14 and
        every reduced cost >= -1e-12: a primal and dual feasible basis.
        """
        cap = _PIVOTS_PER_NODE * sum(self.cost.shape)
        degenerate = 0
        for _ in range(cap):
            reduced = self._reduced().ravel()
            if degenerate >= _BLAND_AFTER:
                cell = int(np.argmax(reduced < -_REDUCED_TOL))
            else:
                cell = int(np.argmin(reduced))
            if reduced[cell] >= -_REDUCED_TOL:
                break
            moved = self._pivot(cell)
            degenerate = degenerate + 1 if moved <= _FLOW_TOL else 0
        else:
            raise RuntimeError(f"transport LP failed: no optimal tree after {cap} pivots")
        self.flow = self._flows(self._hang(0, -1))
        cells = np.fromiter(self.flow, dtype=np.intp, count=len(self.flow))
        flow = np.fromiter(self.flow.values(), dtype=float, count=len(self.flow))
        worst = self._reduced().min()
        if flow.min() < -_FLOW_TOL or worst < -_REDUCED_TOL:
            raise RuntimeError(
                f"transport LP failed: least flow {flow.min():.3e}, least reduced cost {worst:.3e}"
            )
        return float(self.cost.ravel()[cells] @ flow)

    def _pivot(self, cell: int) -> float:
        """Bring plan cell `cell` into the tree; returns the flow moved round the cycle."""
        ns, nd = self.cost.shape
        pred, depth, flow = self.pred, self.depth, self.flow
        source, sink = divmod(cell, nd)
        u, w = source, ns + sink
        # tree edges of the cycle, by their lower node, from the sink round to the source
        from_sink, from_source = [], []
        while u != w:
            if depth[u] >= depth[w]:
                from_source.append(u)
                u = pred[u]
            else:
                from_sink.append(w)
                w = pred[w]
        cycle = from_sink + from_source[::-1]
        edges = [self._cell(v) for v in cycle]
        # the new cell carries flow from source to sink: edges alternate -, +, ... from the sink
        moved = min(flow[e] for e in edges[0::2])
        leave = min((e, k) for k, e in enumerate(edges) if k % 2 == 0 and flow[e] <= moved + _FLOW_TOL)[1]
        for k, e in enumerate(edges):
            flow[e] += moved if k % 2 else -moved
        low = cycle[leave]
        del flow[edges[leave]]
        flow[cell] = moved
        self.adj[low].discard(pred[low])
        self.adj[pred[low]].discard(low)
        self.adj[source].add(ns + sink)
        self.adj[ns + sink].add(source)
        # the subtree cut off below the leaving edge hangs again from the new cell
        if leave < len(from_sink):
            self._hang(ns + sink, source)
        else:
            self._hang(source, ns + sink)
        return moved


@dataclass(frozen=True)
class HolderDiagnostic:
    exponent: float
    max_ratio: float
    separations: np.ndarray
    distances: np.ndarray
    degenerate: bool


def holder_half_diagnostic(m: DensityPath) -> HolderDiagnostic:
    """Fit sup_t d1(m(t), m(t + tau)) ~ tau^s over dyadic tau.

    Uses tau = T / 2^k for k = 1..5 (only those landing on grid levels);
    needs at least four of them.  A path that never moves is reported as
    degenerate with no exponent.
    """
    grid = m.grid
    shifts = [grid.nt // 2**k for k in range(1, _HOLDER_MAX_K + 1) if grid.nt % 2**k == 0]
    if len(shifts) < 4:
        raise ConfigError(f"need at least 4 dyadic separations; nt={grid.nt} admits {len(shifts)}")
    cell = grid.dx**grid.dim
    taus = np.asarray([s * grid.dt for s in shifts])
    dists = np.asarray([_level_sup(grid, m.values[:-s], m.values[s:], cell) for s in shifts])
    degenerate = bool(np.all(dists < 1e-15))
    slope, _ = np.polyfit(np.log(taus), np.log(np.maximum(dists, 1e-300)), 1)
    return HolderDiagnostic(
        exponent=float("nan") if degenerate else float(slope),
        max_ratio=0.0 if degenerate else float(np.max(dists / np.sqrt(taus))),
        separations=taus,
        distances=dists,
        degenerate=degenerate,
    )
