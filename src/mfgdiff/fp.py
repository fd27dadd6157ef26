"""Forward density solver: exact discrete adjoint of the transport generator.

From a solved value field u the generator of the optimally controlled
process is assembled per time level:

    (L v)_i = a_i * (Lap_h v)_i + sum_k b_{k,i} * (D_k^upwind v)_i,

with a = H2_q(t, x, Lap_h u) (diffusion coefficient, pinned to
[lambda1^2/2, lambda2^2/2] by ellipticity) and b = H1_p(t, x, Dc u)
(drift).  Upwinding picks the forward difference where b_k > 0 and the
backward difference where b_k < 0, so every off-diagonal entry of L is
nonnegative and L annihilates constants exactly.

Per level, L is a stencil with nonnegative neighbor weights
(`TransportOperator.weights`):

    (L v)_i = diag_i v_i + sum_k (up_{k,i} v_{i+e_k} + dn_{k,i} v_{i-e_k}),

    up_k = a / dx^2 + b_k^+ / dx,   dn_k = a / dx^2 - b_k^- / dx,
    diag = -(2 d a / dx^2 + sum_k |b_k| / dx),

and its transpose sends each node's weighted value to the neighbor that
reads it:

    (L^T m)_i = diag_i m_i + sum_k (up_{k,i-e_k} m_{i-e_k} + dn_{k,i+e_k} m_{i+e_k}).

The marches below take the weights of I + dt * L_n, that is 1 + dt * diag,
dt * up and dt * dn, for a chunk of levels at a time
(`GridSpec.level_chunks`), computed from a and b when the march reaches the
chunk, so each step is diag * v plus two shifted products per axis.

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
from .grid import GridSpec, TimeField, _shift, grad_central, laplacian

_NEG_TOL = 1e-14
_MASS_TOL = 1e-12


@dataclass
class TransportOperator:
    """Per-level generator coefficients on a grid.

    a has shape (nt+1,) + grid.shape, b has an extra trailing axis of length
    grid.dim.  Instances are immutable once built.
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

    def weights(self, levels: slice, step: bool = False) -> tuple:
        """Stencil weights (diag, up, dn) of L_n, or of I + dt * L_n, on a run of levels.

        diag has shape (c,) + grid.shape for the c levels of `levels`; up and
        dn have shape (c, d) + grid.shape, and up[:, k] and dn[:, k] weigh the
        neighbor one node ahead and one node behind along spatial axis k:

            (L v)_i = diag_i v_i + sum_k up_k,i v_{i+e_k} + dn_k,i v_{i-e_k},

        with up_k = a / dx^2 + b_k^+ / dx, dn_k = a / dx^2 - b_k^- / dx and
        diag = -(2 d a / dx^2 + sum_k |b_k| / dx).  Computed from a and b at
        call time, vectorized over the run.
        """
        dx, dim = self.grid.dx, self.grid.dim
        a, b = self.a[levels], self.b[levels]
        diag = -(2.0 * dim * a / dx**2 + np.sum(np.abs(b), axis=-1) / dx)
        a_dx2 = a / dx**2
        up = np.stack([a_dx2 + np.maximum(b[..., k], 0.0) / dx for k in range(dim)], axis=1)
        dn = np.stack([a_dx2 - np.minimum(b[..., k], 0.0) / dx for k in range(dim)], axis=1)
        if step:
            dt = self.grid.dt
            # 1 + dt * (-x) is 1 - dt * x to the last bit
            return 1.0 + dt * diag, dt * up, dt * dn
        return diag, up, dn

    def apply_generator(self, level: int, v: np.ndarray) -> np.ndarray:
        """(L v) at one time level."""
        diag, up, dn = self.weights(slice(level, level + 1))
        return _generator_step(diag[0], up[0], dn[0], v)

    def apply_adjoint(self, level: int, m: np.ndarray) -> np.ndarray:
        """(L^T m) at one time level: Lap_h(a m) minus the upwind divergence of b m."""
        diag, up, dn = self.weights(slice(level, level + 1))
        return _adjoint_step(diag[0], up[0], dn[0], m)

    def to_dense(self, level: int) -> np.ndarray:
        """Dense generator matrix at one level (small grids, inspection only)."""
        n = self.grid.n_nodes
        mat = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            mat[:, j] = self.apply_generator(level, e.reshape(self.grid.shape)).ravel()
        return mat

    def step_positivity_margin(self) -> float:
        """Min over nodes/levels of the diagonal entry of I + dt * L, reduced chunk by chunk."""
        return min(float(self.weights(c, step=True)[0].min()) for c in self.grid.level_chunks())


def _generator_step(diag: np.ndarray, up: np.ndarray, dn: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One level's weights applied to v: diag * v plus each neighbor value times its weight."""
    dim = len(up)
    out = diag * v
    for k in range(dim):
        out += up[k] * _shift(v, 1, k - dim)
        out += dn[k] * _shift(v, -1, k - dim)
    return out


def _adjoint_step(diag: np.ndarray, up: np.ndarray, dn: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The transpose of `_generator_step`: each node's outflow to a neighbor lands there."""
    dim = len(up)
    out = diag * m
    for k in range(dim):
        out += _shift(up[k] * m, -1, k - dim)
        out += _shift(dn[k] * m, 1, k - dim)
    return out


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
        values = np.asarray(values, dtype=float)
        cell = grid.dx**grid.dim
        mass = values.reshape(grid.nt + 1, -1).sum(axis=1) * cell
        path = cls(grid, values, mass)
        path.validate()
        return path

    @classmethod
    def constant_in_time(cls, grid: GridSpec, slice_values: np.ndarray) -> "DensityPath":
        vals = np.broadcast_to(slice_values, (grid.nt + 1, *grid.shape)).copy()
        return cls.from_values(grid, vals)

    def validate(self) -> None:
        if self.values.min() < -_NEG_TOL:
            raise ContractError(
                f"density undershoot {self.values.min():.3e} below -{_NEG_TOL:.0e}"
            )
        drift = np.max(np.abs(self.mass - 1.0))
        if drift > _MASS_TOL:
            raise ContractError(f"mass drift {drift:.3e} exceeds {_MASS_TOL:.0e}")

    def lp_norm(self, p: int, level: int | None = None) -> float:
        """Grid-level L^p norm, sup over levels unless one is given."""
        cell = self.grid.dx**self.grid.dim
        vals = self.values if level is None else self.values[level : level + 1]
        norms = (np.abs(vals.reshape(vals.shape[0], -1)) ** p).sum(axis=1) * cell
        return float(np.max(norms) ** (1.0 / p))

    def first_moment_spread(self) -> float:
        """Sup over levels of the mean absolute deviation from the level mean.

        Coordinates are unrolled (flat-line); meaningful while the mass stays
        away from the wrap seam.
        """
        grid = self.grid
        cell = grid.dx**grid.dim
        coords = grid.coords()
        levels = grid.nt + 1
        w = self.values[..., None] * cell
        mean = (coords * w).reshape(levels, -1, grid.dim).sum(axis=1)
        dev = np.linalg.norm(coords - mean.reshape((levels,) + (1,) * grid.dim + (grid.dim,)), axis=-1)
        return float(np.max((dev * self.values).reshape(levels, -1).sum(axis=1) * cell))


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
    error names the first bad level.
    """
    grid = op.grid
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != grid.shape:
        raise ValueError(f"initial density shape {m0.shape} != grid shape {grid.shape}")
    cell = grid.dx**grid.dim
    if m0.min() < -_NEG_TOL:
        raise ValueError(f"initial density has negative values ({m0.min():.3e})")
    if abs(m0.sum() * cell - 1.0) > _MASS_TOL:
        raise ValueError(f"initial density mass {m0.sum() * cell} is not 1")
    margin = op.step_positivity_margin()
    if margin < -1e-12:
        raise StabilityError(
            f"transport coefficients violate the positivity bound "
            f"(diagonal margin {margin:.3e}); refine the time grid"
        )

    vals = np.empty((grid.nt + 1, *grid.shape))
    mass = np.empty(grid.nt + 1)
    vals[0] = m0
    mass[0] = m0.sum() * cell
    for steps in _step_chunks(grid):
        diag, up, dn = op.weights(steps, step=True)
        for j, n in enumerate(range(steps.start, steps.stop)):
            vals[n + 1] = _adjoint_step(diag[j], up[j], dn[j], vals[n])
        _check_levels(vals, mass, slice(steps.start + 1, steps.stop + 1), cell)
    return DensityPath(grid, vals, mass)


def _step_chunks(grid: GridSpec) -> list[slice]:
    """The march steps n = 0..nt-1 (from level n to n + 1), in the grid's level chunks."""
    return [slice(c.start, min(c.stop, grid.nt)) for c in grid.level_chunks() if c.start < grid.nt]


def _check_levels(vals: np.ndarray, mass: np.ndarray, new: slice, cell: float) -> None:
    """Fill the mass of the freshly marched levels and abort at the first bad one.

    A level is bad when it undershoots below -_NEG_TOL or drifts in mass
    beyond _MASS_TOL; the undershoot is reported first, as a level-by-level
    check would.
    """
    block = vals[new].reshape(new.stop - new.start, -1)
    low = block.min(axis=1)
    mass[new] = block.sum(axis=1) * cell
    under = low < -_NEG_TOL
    bad = under | (np.abs(mass[new] - 1.0) > _MASS_TOL)
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
    phi = phi_t
    for steps in reversed(_step_chunks(grid)):
        diag, up, dn = op.weights(steps, step=True)
        source = grid.dt * psi.values[steps.start + 1 : steps.stop + 1]
        for j in range(steps.stop - steps.start - 1, -1, -1):
            phi = _generator_step(diag[j], up[j], dn[j], phi) + source[j]
    cell = grid.dx**grid.dim
    terminal = float(np.vdot(phi_t, m.values[grid.nt]))
    source = float(np.vdot(psi.values[1:], m.values[:-1])) * grid.dt
    initial = float(np.vdot(phi, m.values[0]))
    return abs(terminal + source - initial) * cell
