"""Periodic space-time lattice, scalar fields on it, and discrete calculus.

The computational domain is the flat torus [0, L)^d (d = 1 or 2) with nx
nodes per axis, crossed with nt uniform time steps on [0, T].  All explicit
marches in the package share one stability budget, stored on the grid:

    dt <= dx^2 / (2 * d * a_max + dx * theta_lf * d)

where a_max bounds every diffusion coefficient the grid will ever carry
(lambda2^2 / 2 for a control problem with diffusion bounds lambda1 < lambda2)
and theta_lf is the dissipation constant of the first-order scheme (at least
the sup of the drift Hamiltonian's gradient).  The bound makes the diagonal
coefficient of each one-step update nonnegative, which is what every
monotonicity, positivity and comparison argument below hangs on.

Every periodic neighbour in the package is read through one table
(`neighbour_table`): per spatial shape, cached and read-only, the flat
indices of each node (row 0) and of its 2 d neighbours (rows ahead_0,
behind_0, ahead_1, ...; with `transpose`, each axis's pair swapped).  One
`ndarray.take` through it reads a node's stencil, at a fraction of the cost
of numpy's roll on the small slices the marches step through.
`neighbours` gathers the neighbour rows: one take on a slice, one per row
on a run of levels.  The stencils act on the trailing spatial axes of a
slice or of a run of levels, with one gather each: `laplacian`,
`grad_central` (components on a contiguous trailing axis), and
`derivative_stack`, which writes both as the rows of one array for the
value march, reusing a march's buffers and gathering a slice inline.  The
regularity audits read their one-sided differences through the table too.

The one-step weights of both marches come from one monotone kernel,
`stencil_weights`, at the dissipation theta_k = |b_k| (upwinding, the
density march) or theta_k = theta_lf (the value march), as one array
whose row r weighs the node that row r of the table reads: the diagonal
(`stencil_diagonal`, which the density march's positivity check also
evaluates alone), then up_0, dn_0, up_1, ...

Passes over a level stack that are not a march (the scheme residual, the
transport-operator build, the linearization, the regularity audits) walk
it in chunks of consecutive levels (`GridSpec.level_chunks`), which bounds
their temporaries by a fixed node count instead of by the whole stack.
The marches check their levels once per chunk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError

# Nodes per chunk of a level-chunked pass (see GridSpec.level_chunks).
_CHUNK_NODES = 1 << 12


@dataclass(frozen=True)
class GridSpec:
    """Space-time lattice with its stability data.

    Attributes:
        dim: spatial dimension, 1 or 2.
        box_length: side length L of the periodic box.
        nx: nodes per axis (>= 8).
        nt: number of time steps (>= 1).
        horizon: final time T.
        a_max: largest diffusion coefficient the grid must support.
        theta_lf: dissipation constant of the first-order numerical flux.
    """

    dim: int
    box_length: float
    nx: int
    nt: int
    horizon: float
    a_max: float
    theta_lf: float = 0.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise StabilityError(f"dim must be 1 or 2, got {self.dim}")
        if self.nx < 8:
            raise StabilityError(f"nx must be >= 8, got {self.nx}")
        if self.nt < 1:
            raise StabilityError(f"nt must be >= 1, got {self.nt}")
        # written so that a NaN or an infinity fails them too
        for name in ("box_length", "horizon", "a_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise StabilityError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.theta_lf < math.inf:
            raise StabilityError(f"theta_lf must be nonnegative and finite, got {self.theta_lf}")
        # Allow a hair of slack so dt == bound passes despite rounding.
        if self.dt > self.cfl_bound() * (1.0 + 1e-12):
            raise StabilityError(
                f"time step dt={self.dt:.6g} violates the stability bound "
                f"{self.cfl_bound():.6g}; smallest admissible nt is "
                f"{self.min_admissible_nt()}"
            )

    @property
    def dx(self) -> float:
        return self.box_length / self.nx

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    def cfl_bound(self) -> float:
        """Largest stable time step for this grid's a_max and theta_lf."""
        dx = self.dx
        return dx * dx / (2.0 * self.dim * self.a_max + dx * self.theta_lf * self.dim)

    def min_admissible_nt(self) -> int:
        return max(1, math.ceil(self.horizon / self.cfl_bound() - 1e-12))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nx**self.dim

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    def coords(self) -> np.ndarray:
        """Node coordinates, shape grid.shape + (dim,)."""
        x = self.axis_coords()
        if self.dim == 1:
            return x[:, None]
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def level_chunks(self, start: int = 0, stop: int | None = None) -> list[slice]:
        """Consecutive runs of the time levels start..stop - 1 (default: start..nt).

        Each run holds about _CHUNK_NODES nodes (at least one level), so a
        pass that works chunk by chunk keeps its temporaries bounded.  With
        stop = nt they are the march steps n = 0..nt - 1 (from level n to
        n + 1, or back), cut where the level chunks are cut.
        """
        stop = self.nt + 1 if stop is None else stop
        size = max(1, _CHUNK_NODES // self.n_nodes)
        return [slice(lo, min(lo + size, stop)) for lo in range(start, stop, size)]

    def same_lattice(self, other: "GridSpec") -> bool:
        """Same nodes and time levels (stability data may differ)."""
        return (
            self.dim == other.dim
            and self.nx == other.nx
            and self.nt == other.nt
            and self.box_length == other.box_length
            and self.horizon == other.horizon
        )


@dataclass
class TimeField:
    """A scalar field over every time level of a grid.

    values has shape (nt + 1, nx) in 1D or (nt + 1, nx, nx) in 2D.  Level nt
    is the terminal slice for backward fields, level 0 the initial slice for
    forward ones.  Instances are treated as immutable once returned by a
    solver.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.nt + 1, *self.grid.shape)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "TimeField":
        return TimeField(self.grid, self.values.copy())

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "TimeField":
        return cls(grid, np.full((grid.nt + 1, *grid.shape), float(value)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "TimeField":
        return cls.constant(grid, 0.0)


# --------------------------------------------------------------------------
# periodic discrete calculus on the trailing spatial axes
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def neighbour_table(shape: tuple[int, ...], transpose: bool = False) -> np.ndarray:
    """Flat indices of each node and of its periodic neighbours on a spatial shape, cached.

    A read-only array of shape (1 + 2 d,) + shape: row 0 holds node i itself,
    row 1 + 2 k node i + e_k and row 2 + 2 k node i - e_k, wrapped around the
    torus.  With transpose each axis's pair is swapped (behind_0, ahead_0,
    ...): the nodes whose outflow a transposed step receives.
    """
    nodes = np.arange(math.prod(shape)).reshape(shape)
    shifts = (1, -1) if transpose else (-1, 1)
    table = np.stack([nodes] + [np.roll(nodes, s, axis=k) for k in range(len(shape)) for s in shifts])
    table.setflags(write=False)
    return table


def neighbours(values: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """The 2 d periodic neighbours of values over its trailing `dim` axes.

    Returns (or writes into out) an array of shape (2 d,) + values.shape
    with the neighbour rows of `neighbour_table`: one `take` on a slice, one
    per row on a run of levels.
    """
    table = neighbour_table(values.shape[values.ndim - dim :])[1:]
    if out is None:
        out = np.empty(table.shape[:1] + values.shape, dtype=values.dtype)
    if values.ndim == dim:
        return values.take(table, out=out, mode="clip")
    flat = values.reshape(values.shape[: values.ndim - dim] + (-1,))
    for index, row in zip(table, out):
        flat.take(index.reshape(-1), axis=-1, out=row.reshape(flat.shape), mode="clip")
    return out


def laplacian(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """3-point periodic Laplacian summed over the trailing `dim` axes (default: all)."""
    dim = values.ndim if dim is None else dim
    nbr = neighbours(values, dim)
    out = nbr[0] + nbr[1] - 2.0 * values
    for k in range(1, dim):
        out = out + (nbr[2 * k] + nbr[2 * k + 1] - 2.0 * values)
    return out / (dx * dx)


def grad_central(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """Centered periodic gradient over the trailing `dim` axes (default: all).

    Components are stacked on a new trailing axis, contiguous in memory.
    """
    dim = values.ndim if dim is None else dim
    nbr = neighbours(values, dim)
    comps = (nbr[0::2] - nbr[1::2]) / (2.0 * dx)
    # one component needs no stack, which costs more than the difference on a slice
    return np.stack(comps, axis=-1) if dim > 1 else comps[0][..., None]


def _stack_buffers(shape: tuple[int, ...], dim: int, dx: float, march: bool) -> tuple:
    """Gather index, buffers and views of `derivative_stack` for values of `shape`.

    The neighbour rows ahead_0, behind_0, ahead_1, ... of every level are
    gathered into one buffer of shape (2 d,) + shape, the layout of
    `neighbours`; `ahead` and `behind` view its rows.  A march divides the
    stack by its row divisors (dx^2, 2 dx, ..., 2 dx) at full shape, which
    pays off over its levels; a single call divides row by row (scale
    None).  The last three entries are views the stencil writes through:
    the gradient rows of the stack, the behind row that takes 2 w, and the
    rows that take ahead + behind - 2 w (in 1D, row 0 of the stack itself).
    """
    space = shape[len(shape) - dim :]
    rows = neighbour_table(space)[1:]
    gathered = np.empty((2 * dim,) + shape)
    stack = np.empty((1 + dim,) + shape)
    scale = None
    if march:
        scale = np.empty(stack.shape)
        scale[0] = dx * dx
        scale[1:] = 2.0 * dx
    ahead, behind = gathered[0::2], gathered[1::2]
    return rows, gathered, stack, scale, ahead, behind, stack[1:], behind[0], stack[:1] if dim == 1 else ahead


def derivative_stack(values: np.ndarray, dx: float, dim: int | None = None, work: dict | None = None) -> np.ndarray:
    """[Lap_h; Dc_1; ...; Dc_d] of values over its trailing `dim` axes, stacked on a new leading axis.

    values holds a slice or a run of levels; the stack has shape (1 + d,) +
    values.shape.  Row 0 equals `laplacian` and row 1 + k component k of
    `grad_central` bit for bit, the sign of every zero included.  One `take`
    gathers the 2 d neighbours of a slice (`neighbours`, one take per
    neighbour row, on a run of levels); every later operation writes into
    the stack or into the gathered copy.

    work, when given, is a dict that a march passes to every level of one
    slice shape: the first call fills it with the buffers, and each call
    overwrites the stack the previous one returned.
    """
    dim = values.ndim if dim is None else dim
    buffers = None if work is None else work.get("stack")
    if buffers is None:
        buffers = _stack_buffers(values.shape, dim, dx, work is not None)
        if work is not None:
            work["stack"] = buffers
    rows, gathered, stack, scale, ahead, behind, grad, two_w, sums = buffers
    if values.ndim == dim:  # inline: a march calls this once per level
        values.take(rows, out=gathered, mode="clip")
    else:
        neighbours(values, dim, out=gathered)
    np.subtract(ahead, behind, out=grad)
    np.add(ahead, behind, out=ahead)
    np.multiply(values, 2.0, out=two_w)
    np.subtract(ahead, two_w, out=sums)
    if dim == 2:
        np.add(sums[0], sums[1], out=stack[0])
    if scale is None:
        stack[0] /= dx * dx
        stack[1:] /= 2.0 * dx
    else:
        np.divide(stack, scale, out=stack)
    return stack


def stencil_diagonal(a: np.ndarray, theta: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """The diagonal weight of `stencil_weights`, diag = 1 - dt * (2 d a / dx^2 + sum_k theta_k / dx).

    theta has the trailing axis of length d that a lacks.
    """
    # 2 d is a power of two, so 2 d * (a / dx^2) rounds as 2 d a / dx^2 does
    return 1.0 - dt * (2.0 * theta.shape[-1] * (a / dx**2) + np.sum(theta, axis=-1) / dx)


def stencil_weights(a: np.ndarray, b: np.ndarray, theta, dx: float, dt: float) -> np.ndarray:
    """Weights of I + dt * sum_k [a D2_k + b_k Dc_k + (theta_k dx / 2) D2_k]:

        up_k = dt * (a / dx^2 + (theta_k + b_k) / (2 dx)),
        dn_k = dt * (a / dx^2 + (theta_k - b_k) / (2 dx)),

    and diag from `stencil_diagonal`, with D2_k and Dc_k the 3-point second
    and centered differences along axis k.  a holds a slice or a run of
    levels; b (and theta, unless a scalar) adds a trailing axis of length
    d.  The rows diag, up_0, dn_0, up_1, ... lie on an axis of length 1 + 2 d
    before the spatial axes: the weights of the node and of its neighbours
    ahead_0, behind_0, ..., the rows of `neighbour_table`.  The step is
    monotone where theta_k >= |b_k| under the grid's time-step bound.
    theta_k = |b_k| (local Lax-Friedrichs) turns the drift part into the
    upwind difference of the density march; theta_k = theta_lf is the value
    march's step frozen at its minimizing controls.
    """
    dim = b.shape[-1]
    theta = np.broadcast_to(theta, b.shape)
    axis = a.ndim - dim
    weights = np.empty(a.shape[:axis] + (1 + 2 * dim,) + a.shape[axis:])
    rows = np.moveaxis(weights, axis, 0)
    rows[0] = stencil_diagonal(a, theta, dx, dt)  # first: fewer chunk temporaries alive at once
    a_dx2 = a / dx**2
    for k in range(dim):
        np.multiply(a_dx2 + (theta[..., k] + b[..., k]) / (2.0 * dx), dt, out=rows[1 + 2 * k])
        np.multiply(a_dx2 + (theta[..., k] - b[..., k]) / (2.0 * dx), dt, out=rows[2 + 2 * k])
    return weights


def wrap_periodic(x: np.ndarray, length: float) -> np.ndarray:
    """Coordinates wrapped into [0, length], equal to np.mod(x, length) bit for bit.

    fmod is exact, so the only rounding is in adding `length` to a negative
    remainder, as in np.mod; a tiny negative coordinate therefore wraps to
    exactly `length`, as it does there.  Adding 0.0 turns the -0.0 that fmod
    leaves on a nonpositive multiple of `length` into np.mod's +0.0.  About
    half the cost of np.mod, which also computes the quotient.

    When every coordinate lies in [-length, 2 length), as after one Euler
    step from the box, fmod is skipped: subtracting `length` from those
    >= length is exact (Sterbenz), so it equals fmod there, and adding
    `length` to those < 0 rounds as above.  A NaN fails the range check and
    takes the fmod path.
    """
    if x.size and -length <= x.min() and x.max() < 2.0 * length:
        r = x.copy()
        r[r >= length] -= length
        r[r < 0] += length
        return r + 0.0
    r = np.fmod(x, length)
    r[r < 0] += length
    return r + 0.0


def interp_cells(grid: GridSpec, points: np.ndarray) -> tuple:
    """Locate points for multilinear periodic interpolation on one time slice.

    points has shape (n, dim) (or (n,) in 1D).  Coordinates are wrapped into
    [0, L] once; the wrap can round up to L and x / dx up to nx, so the cell
    index floor(x / dx) lies in [0, nx] and nx is the only one that wraps.
    Returns one (flat node index, weight factors) pair per cell corner: two
    corners in 1D, four in 2D in the order (0, 0), (1, 0), (0, 1), (1, 1),
    each with one factor per axis.  `interp_at` gathers any number of fields
    from the same cells.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return _corner_cells(grid, wrap_periodic(pts, grid.box_length) / grid.dx)


def wrapped_cells(grid: GridSpec, points: np.ndarray) -> tuple:
    """`interp_cells` of points already wrapped into [0, L], without wrapping them again.

    points has shape (n, dim).  Wrapping a coordinate in [0, L) leaves it as
    it is and turns L into 0, so the cells equal `interp_cells`' bit for bit
    once a coordinate of exactly L is located at node 0 with factor 0.  L / dx
    can round to either side of nx (for L = 1, above at nx = 49 and below at
    nx = 93), so that coordinate is found by comparing it with L, not by its
    cell index.
    """
    z = points / grid.dx
    z[points == grid.box_length] = 0.0
    return _corner_cells(grid, z)


def _corner_cells(grid: GridSpec, z: np.ndarray) -> tuple:
    """Cell corners of scaled coordinates z = x / dx in [0, nx], shape (n, dim); see `interp_cells`."""
    nx = grid.nx
    lower = np.floor(z)
    frac = z - lower
    i0 = lower.astype(np.intp)
    # floor(z) lies in [0, nx], so only nx wraps (to node 0)
    i0[i0 == nx] = 0
    i1 = i0 + 1
    i1[i1 == nx] = 0
    if grid.dim == 1:
        f = frac[:, 0]
        return ((i0[:, 0], (1.0 - f,)), (i1[:, 0], (f,)))
    fx, fy = frac[:, 0], frac[:, 1]
    gx, gy = 1 - fx, 1 - fy
    x0, x1 = i0[:, 0] * nx, i1[:, 0] * nx
    return (
        (x0 + i0[:, 1], (gx, gy)),
        (x1 + i0[:, 1], (fx, gy)),
        (x0 + i1[:, 1], (gx, fy)),
        (x1 + i1[:, 1], (fx, fy)),
    )


def interp_at(values: np.ndarray, cells: tuple) -> np.ndarray:
    """Interpolate one time slice at cells located by `interp_cells`.

    values has the grid's spatial shape, optionally followed by component
    axes (a gradient's trailing axis), which the result keeps after the
    point axis.  Each gathered corner value is multiplied by its factors in
    axis order and the corners are summed in order, so the result does not
    depend on how many fields share the cells.
    """
    dim = len(cells[0][1])
    table = values.reshape(-1, *values.shape[dim:])
    per_point = (slice(None),) + (None,) * (table.ndim - 1)
    out = None
    for index, factors in cells:
        term = table.take(index, axis=0)
        for w in factors:
            term = term * w[per_point]
        out = term if out is None else out + term
    return out


def interp_periodic(slice_values: np.ndarray, grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """Multilinear periodic interpolation of one time slice at arbitrary points.

    points has shape (n, dim); coordinates are wrapped onto the torus.
    """
    return interp_at(slice_values, interp_cells(grid, points))
