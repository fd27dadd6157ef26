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

Spatial derivatives are the standard periodic stencils: centered first
differences, forward/backward one-sided differences, and the 3-point
Laplacian per axis.  They act on the trailing spatial axes, so one call
takes either a single time slice or a whole (nt + 1)-level stack.
`laplacian_gradient` returns the Laplacian and the centered gradient from
one pair of neighbours per axis, for the value march.

Every periodic neighbour in the package is read from one neighbour table
(`neighbour_table`): per spatial shape, cached, the flat index of the node
one step ahead and one step behind along each axis.  A neighbour is then
one `ndarray.take` on the flattened spatial axes, which costs a fraction of
numpy's roll, or of two slices and a concatenate, on the small slices the
explicit marches step through.

Passes over a level stack that are not a march (the scheme residual, the
transport-operator build, the linearization) walk it in chunks of
consecutive levels (`GridSpec.level_chunks`), which bounds their
temporaries by a fixed node count instead of by the whole stack.  The marches check their levels once
per chunk.
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
        if not (self.box_length > 0 and self.horizon > 0):
            raise StabilityError("box_length and horizon must be positive")
        # written so that a NaN fails them too
        if not self.a_max > 0:
            raise StabilityError(f"a_max must be positive, got {self.a_max}")
        if not self.theta_lf >= 0:
            raise StabilityError(f"theta_lf must be nonnegative, got {self.theta_lf}")
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
def neighbour_table(shape: tuple[int, ...]) -> tuple:
    """Flat node indices of the periodic neighbours on a spatial shape, cached by shape.

    One (ahead, behind) pair per axis k, each an index array shaped like
    `shape`: ahead[i] is the flat index of node i + e_k and behind[i] that of
    node i - e_k, wrapped around the torus.
    """
    nodes = np.arange(math.prod(shape)).reshape(shape)
    table = tuple((np.roll(nodes, -1, axis=k), np.roll(nodes, 1, axis=k)) for k in range(len(shape)))
    for pair in table:
        for index in pair:
            index.setflags(write=False)
    return table


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values at the flat node indices `index` over its trailing spatial axes, per leading index."""
    if values.ndim == index.ndim:  # one slice
        return values.take(index)
    return values.reshape(values.shape[: values.ndim - index.ndim] + (-1,)).take(index, axis=-1)


def laplacian(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """3-point periodic Laplacian summed over the trailing `dim` axes (default: all)."""
    dim = values.ndim if dim is None else dim
    out = 0.0
    for ahead, behind in neighbour_table(values.shape[values.ndim - dim :]):
        out = out + (_gather(values, ahead) + _gather(values, behind) - 2.0 * values)
    return out / (dx * dx)


def grad_central(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """Centered periodic gradient over the trailing `dim` axes (default: all).

    Components are stacked on a new trailing axis.
    """
    dim = values.ndim if dim is None else dim
    comps = [
        (_gather(values, ahead) - _gather(values, behind)) / (2.0 * dx)
        for ahead, behind in neighbour_table(values.shape[values.ndim - dim :])
    ]
    # one component needs no stack, which costs more than the difference on a slice
    return np.stack(comps, axis=-1) if dim > 1 else comps[0][..., None]


def laplacian_gradient(values: np.ndarray, dx: float, dim: int | None = None) -> tuple:
    """(laplacian, grad_central) of values from one pair of neighbours per axis, bit for bit."""
    dim = values.ndim if dim is None else dim
    lap = 0.0
    comps = []
    for ahead, behind in neighbour_table(values.shape[values.ndim - dim :]):
        a, b = _gather(values, ahead), _gather(values, behind)
        lap = lap + (a + b - 2.0 * values)
        a -= b  # the gathered copies are this call's own
        a /= 2.0 * dx
        comps.append(a)
    lap /= dx * dx
    return lap, (np.stack(comps, axis=-1) if dim > 1 else comps[0][..., None])


def diff_forward(values: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Forward periodic difference along `axis`.

    Spatial axis k of a d-dimensional grid is axis k - d, which addresses
    the same axis on a slice and on a level stack.  The neighbour is read
    from the table of the trailing shape that starts at `axis`.
    """
    ahead = neighbour_table(values.shape[axis:])[0][0]
    return (_gather(values, ahead) - values) / dx


def diff_backward(values: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Backward periodic difference along `axis` (spatial axis k is k - d)."""
    behind = neighbour_table(values.shape[axis:])[0][1]
    return (values - _gather(values, behind)) / dx


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
