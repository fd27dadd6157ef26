"""Forward density solver: exact discrete adjoint of the transport generator.

From a solved value field u the generator of the optimally controlled
process is assembled per time level:

    (L v)_i = a_i * (Lap_h v)_i + sum_k b_{k,i} * (D_k^upwind v)_i,

with a = H2_q(t, x, Lap_h u) (diffusion coefficient, pinned to
[lambda1^2/2, lambda2^2/2] by ellipticity) and b = H1_p(t, x, Dc u)
(drift).  Upwinding picks the forward difference where b_k > 0 and the
backward difference where b_k < 0, so every off-diagonal entry of L is
nonnegative and L annihilates constants exactly.  It is the local
Lax-Friedrichs form b_k Dc_k + (|b_k| dx / 2) D2_k, dissipation sized to the
drift at each node, so the weights of I + dt * L_n are the monotone stencil
kernel `grid.stencil_weights` at theta = |b| (`TransportOperator.weights`):

    ((I + dt L) v)_i = diag_i v_i + sum_k (up_{k,i} v_{i+e_k} + dn_{k,i} v_{i-e_k}),

    up_k = dt (a / dx^2 + b_k^+ / dx),   dn_k = dt (a / dx^2 - b_k^- / dx),
    diag = 1 - dt (2 d a / dx^2 + sum_k |b_k| / dx),

and its transpose sends each node's weighted value to the neighbor that
reads it:

    ((I + dt L)^T m)_i = diag_i m_i + sum_k (up_{k,i-e_k} m_{i-e_k} + dn_{k,i+e_k} m_{i+e_k}).

The marches below take these weights for a chunk of levels at a time
(`GridSpec.level_chunks`), computed from a and b when the march reaches the
chunk, as the rows diag, up_0, dn_0, up_1, ... of one array: row r weighs
the node that row r of `grid.neighbour_table` reads (i, then i + e_k and
i - e_k per axis).  For the transpose, `TransportOperator.weights` reads
every row once per chunk, in one take through the transposed table, at
the node whose outflow it weighs: diag at i, up_k at i - e_k, dn_k at
i + e_k.  Both marches then take one step function, `_step`: one gather
of the node and its neighbours through the table, one multiply by the
weight rows, and one sum of the rows in order, into the output level.

The density is marched with the transpose:

    m^{n+1} = (I + dt * L_n^T) m^n.

Because transposition preserves both the zero column sums and (under the
grid's time-step bound) the nonnegativity of I + dt * L, the march conserves
mass exactly by telescoping and preserves positivity.  The transpose applies
the coefficient before differentiating, so the diffusion part of L^T m is the
second difference of the product a*m: the scheme realizes the
"Laplacian-of-(a m)" form of the density equation, not div(a grad m).

Duality is built in rather than checked asymptotically: for any terminal
test slice and source, the backward dual march

    phi^n = (I + dt * L_n) phi^{n+1} + dt * psi^{n+1}

satisfies the summation-by-parts identity

    <phi_T, m^{nt}> + dt * sum_n <psi^{n+1}, m^n> = <phi^0, m^0>

to round-off (right-endpoint rule in psi against the left-endpoint density),
because each step pairs a matrix with its exact transpose.  The duality
check needs only phi^0, so it marches one slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ModelSpec, h1_terms, h2_terms
from .errors import ContractError, StabilityError
from .grid import GridSpec, TimeField, grad_central, laplacian, neighbour_table, stencil_diagonal, stencil_weights

_NEG_TOL = 1e-14
_MASS_TOL = 1e-12


@dataclass
class TransportOperator:
    """Per-level generator coefficients on a grid.

    a has shape (nt+1,) + grid.shape, b has an extra trailing axis of length
    grid.dim.  Instances are immutable once built.  The marches read them only
    through `weights`; there is no per-level apply and no dense form.
    """

    grid: GridSpec
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        expected_a = (self.grid.nt + 1, *self.grid.shape)
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != expected_a:
            raise ValueError(f"a has shape {self.a.shape}, expected {expected_a}")
        if self.b.shape != expected_a + (self.grid.dim,):
            raise ValueError(
                f"b has shape {self.b.shape}, expected {expected_a + (self.grid.dim,)}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("transport coefficients contain non-finite values")

    @classmethod
    def constant(cls, grid: GridSpec, a: float, b=0.0) -> "TransportOperator":
        """Frozen-coefficient operator (testing and analytic comparisons)."""
        a_arr = np.full((grid.nt + 1, *grid.shape), float(a))
        b_vec = np.broadcast_to(np.asarray(b, dtype=float), (grid.dim,))
        b_arr = np.broadcast_to(b_vec, (grid.nt + 1, *grid.shape, grid.dim)).copy()
        return cls(grid, a_arr, b_arr)

    def weights(self, levels: slice, transpose: bool = False) -> np.ndarray:
        """Weights of I + dt * L_n on the c levels of a run, at call time.

        `grid.stencil_weights` at theta = |b|, of shape (c, 1 + 2 d) +
        grid.shape with rows diag, up_0, dn_0, up_1, ....  With transpose,
        every row is read at the node whose outflow it weighs (diag at i,
        up_k at i - e_k, dn_k at i + e_k: the rows of the transposed
        neighbour table), the layout in which `_step` applies the transpose.
        """
        grid = self.grid
        b = self.b[levels]
        weights = stencil_weights(self.a[levels], b, np.abs(b), grid.dx, grid.dt)
        if transpose:
            offsets = (grid.n_nodes * np.arange(1 + 2 * grid.dim)).reshape((-1,) + (1,) * grid.dim)
            weights = weights.reshape(len(weights), -1).take(neighbour_table(grid.shape, True) + offsets, axis=1)
        return weights

    def step_positivity_margin(self) -> float:
        """Min over nodes/levels of the diagonal entry of I + dt * L, reduced chunk by chunk."""
        dx, dt = self.grid.dx, self.grid.dt
        return float(np.min([stencil_diagonal(self.a[c], np.abs(self.b[c]), dx, dt).min()
                             for c in self.grid.level_chunks()]))


def _step(weights: np.ndarray, v: np.ndarray, transpose: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """I + dt * L_n applied to the slice v, or with transpose its transpose, into out if given.

    weights is one level of `TransportOperator.weights` with the same
    transpose.  One gather through `neighbour_table(v.shape, transpose)`
    reads the node and the neighbours the step weighs (with transpose the
    nodes that send to each node), one multiply weighs them, and one sum
    adds the rows in the order diag, up_0, dn_0, ...  The take is inline,
    not through `grid.neighbours`: the march calls this once per level.
    """
    terms = v.take(neighbour_table(v.shape, transpose))
    terms *= weights
    # from -0.0, the sum is the rows added in order, the sign of a zero included
    return np.add.reduce(terms, out=out, initial=-0.0)


@dataclass
class DensityPath:
    """Density values over all time levels with per-level mass bookkeeping."""

    grid: GridSpec
    values: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        expected = (self.grid.nt + 1, *self.grid.shape)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise ValueError(f"density shape {self.values.shape}, expected {expected}")
        self.mass = np.asarray(self.mass, dtype=float)

    @classmethod
    def from_values(cls, grid: GridSpec, values: np.ndarray) -> "DensityPath":
        """A path with its level masses, checked level by level as `solve_fp` checks its march."""
        path = cls(grid, values, np.empty(grid.nt + 1))
        _check_levels(path.values, path.mass, slice(0, grid.nt + 1), grid.dx**grid.dim)
        return path

    @classmethod
    def constant_in_time(cls, grid: GridSpec, slice_values: np.ndarray) -> "DensityPath":
        vals = np.broadcast_to(slice_values, (grid.nt + 1, *grid.shape)).copy()
        return cls.from_values(grid, vals)

    def lp_norm(self, p: int) -> float:
        """Grid-level L^p norm, sup over levels."""
        cell = self.grid.dx**self.grid.dim
        norms = (np.abs(self.values.reshape(self.grid.nt + 1, -1)) ** p).sum(axis=1) * cell
        return float(np.max(norms) ** (1.0 / p))


def build_transport_operator(u: TimeField, model: ModelSpec) -> TransportOperator:
    """Read the generator coefficients off a solved value field.

    The coefficients are filled chunk by chunk of levels, so the stencil and
    Hamiltonian temporaries stay bounded by the chunk, not the stack.
    """
    grid = u.grid
    if model.dim != grid.dim:
        raise ValueError(f"model dim {model.dim} != grid dim {grid.dim}")
    x = grid.coords()
    t = grid.times().reshape((-1,) + (1,) * grid.dim)
    a = np.empty(u.values.shape)
    b = np.empty((*u.values.shape, grid.dim))
    for c in grid.level_chunks():
        a[c] = h2_terms(model, t[c], x, laplacian(u.values[c], grid.dx, grid.dim))[1]
        b[c] = h1_terms(model, t[c], x, grad_central(u.values[c], grid.dx, grid.dim))[1]
    lo, hi = model.bounds.a_min, model.bounds.a_max
    if a.min() < lo - 1e-9 or a.max() > hi + 1e-9:
        raise ContractError(
            f"diffusion coefficient left [{lo}, {hi}]: range [{a.min()}, {a.max()}] "
            "(inconsistent Hamiltonian derivative)"
        )
    return TransportOperator(grid, a, b)


def solve_fp(op: TransportOperator, m0: np.ndarray) -> DensityPath:
    """March the initial density forward with the adjoint steps.

    Rejects the run if the actual coefficients violate the positivity bound
    dt * (2 d a / dx^2 + sum_k |b_k| / dx) <= 1; aborts (no clamping) if a
    level undershoots below -1e-14 or drifts in mass beyond 1e-12.  The
    levels are checked once per chunk, after the chunk is marched, and the
    error names the first bad level.  A NaN fails each of these checks.
    """
    grid = op.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.shape:
        raise ValueError(f"initial density shape {m0.shape} != grid shape {grid.shape}")
    cell = grid.dx**grid.dim
    if not np.all(np.isfinite(m0)):
        raise ValueError("initial density has non-finite values")
    if m0.min() < -_NEG_TOL:
        raise ValueError(f"initial density has negative values ({m0.min():.3e})")
    if abs(m0.sum() * cell - 1.0) > _MASS_TOL:
        raise ValueError(f"initial density mass {m0.sum() * cell} is not 1")
    margin = op.step_positivity_margin()
    if not (margin >= -1e-12):  # a NaN coefficient makes the margin NaN
        raise StabilityError(
            f"transport coefficients violate the positivity bound "
            f"(diagonal margin {margin:.3e}); refine the time grid"
        )

    vals = np.empty((grid.nt + 1, *grid.shape))
    mass = np.empty(grid.nt + 1)
    vals[0] = m0
    mass[0] = m0.sum() * cell
    for steps in grid.level_chunks(stop=grid.nt):
        weights = op.weights(steps, transpose=True)
        for j, n in enumerate(range(steps.start, steps.stop)):
            _step(weights[j], vals[n], True, vals[n + 1])
        _check_levels(vals, mass, slice(steps.start + 1, steps.stop + 1), cell)
    return DensityPath(grid, vals, mass)


def _check_levels(vals: np.ndarray, mass: np.ndarray, new: slice, cell: float) -> None:
    """Fill the mass of the levels `new` and abort at the first bad one.

    A level is bad when it undershoots below -_NEG_TOL or drifts in mass
    beyond _MASS_TOL; the undershoot is reported first, as a level-by-level
    check would.
    """
    block = vals[new].reshape(new.stop - new.start, -1)
    low = block.min(axis=1)
    mass[new] = block.sum(axis=1) * cell
    # written as "not within bounds" so that a NaN level is bad too
    under = ~(low >= -_NEG_TOL)
    bad = under | ~(np.abs(mass[new] - 1.0) <= _MASS_TOL)
    if bad.any():
        j = int(np.argmax(bad))
        level = new.start + j
        if under[j]:
            raise ContractError(f"density undershoot {low[j]:.3e} at level {level}; aborting")
        raise ContractError(f"mass drift {mass[level] - 1.0:.3e} at level {level}; aborting")


def check_duality(m: DensityPath, op: TransportOperator, phi_terminal: np.ndarray, psi: TimeField) -> float:
    """Absolute duality gap; zero to round-off by exact transposition.

    Computes |<phi_T, m(T)> + dt * sum_n <psi^{n+1}, m^n> - <phi^0, m^0>| * dx^d
    with phi^0 from the backward dual march
    phi^n = (I + dt L_n) phi^{n+1} + dt psi^{n+1}, which keeps one slice.
    """
    grid = m.grid
    if not (op.grid.same_lattice(grid) and psi.grid.same_lattice(grid)):
        raise ValueError("duality check needs matching lattices")
    phi_t = np.asarray(phi_terminal, dtype=float)
    if phi_t.shape != grid.shape:
        raise ValueError(f"phi_terminal shape {phi_t.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(phi_t)):
        raise ValueError("phi_terminal has non-finite values")
    phi = phi_t
    for steps in reversed(grid.level_chunks(stop=grid.nt)):
        weights = op.weights(steps)
        source = grid.dt * psi.values[steps.start + 1 : steps.stop + 1]
        for j in range(steps.stop - steps.start - 1, -1, -1):
            phi = _step(weights[j], phi)
            phi += source[j]
    cell = grid.dx**grid.dim
    terminal = float(np.vdot(phi_t, m.values[grid.nt]))
    source = float(np.vdot(psi.values[1:], m.values[:-1])) * grid.dt
    initial = float(np.vdot(phi, m.values[0]))
    return abs(terminal + source - initial) * cell
