"""Coupled equilibrium computation: the density-to-density map and its iteration.

One application of the map takes a candidate density path gamma, solves the
backward value equation with the couplings frozen at gamma,

    u_t + H2(t, x, lap u) + H1(t, x, grad u) + F(t, x, gamma(t)) = 0,
    u(T) = G(x, gamma(T)),

reads the transport coefficients off u, and pushes the initial density
forward:  Phi(gamma) = m.  Equilibria of the coupled system are exactly the
fixed points of Phi.

The iteration is damped Picard,

    m^{k+1} = (1 - theta) m^k + theta Phi(m^k),        theta in (0, 1],

with stopping rule sup over time levels of d1(m^{k+1}(t), m^k(t)) < tol:
the same metric in which the underlying compactness/continuity argument for
existence is phrased.  The gap it compares is `d1_path_sup_bound`: the
exact sup in 1D, and in 2D a certified upper bound on it, the sup over
levels of one feasible transport plan's cost (1.02-1.06 times the exact
sup on 2D model A), which needs no transport LP.  A gap below tol
certifies the exact one below tol too, so the 2D rule can only iterate
longer than the exact one, never stop earlier.  Convex combinations of
density paths are again density paths (mass and positivity are preserved
exactly), and non-convergence is a reported outcome, not an exception.

On success the returned pair is re-synchronized so both self-consistency
certificates are exact by construction: m* is the forward solve driven by
the last iterate, and u* re-solves the backward equation with the couplings
frozen at m* itself, so the scheme residual of u* against F(., ., m*)
vanishes to round-off and m*'s duality gap is zero for its own operator.
The loop does not re-check these certificates on its iterates: each value
field is the march's own output for its frozen couplings, so its scheme
residual could only read round-off.  Both are evaluated once, on the
returned pair, and each iteration records only its gap and mass drift.
The paper's 1/2-Hölder time regularity holds for the equilibrium, not for
the damped iterates, so it is checked once, on m*.

`monotonicity_gap` evaluates the integrated coupling monotonicity

    min over t of  integral (F(t, x, m1) - F(t, x, m2)) d(m1 - m2)

(and the terminal analogue), the sign condition under which two converged
runs from different initializations must agree; `uniqueness_crosscheck`
performs that two-run experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ModelSpec
from .couplings import validate_kernel
from .errors import ConfigError
from .fp import DensityPath, TransportOperator, build_transport_operator, check_duality, solve_fp
from .grid import GridSpec, TimeField
from .hjb import hjb_residual, solve_hjb
from .wasserstein import HolderDiagnostic, d1_path_sup, d1_path_sup_bound, holder_half_diagnostic

_DUALITY_SEED = 0  # seed of the three random dual test pairs of the returned pair


def coupling_fields(model: ModelSpec, grid: GridSpec, density_values: np.ndarray) -> tuple[TimeField, np.ndarray]:
    """Running-cost path F(t, x, m(t)) and terminal slice G(x, m(T)) for a path."""
    f_vals = model.coupling_f.field(grid, density_values)
    g_slice = model.terminal.slice_for(grid, density_values[grid.nt])
    return TimeField(grid, f_vals), g_slice


def _coupled_step(model: ModelSpec, grid: GridSpec, density_values: np.ndarray, m0_slice: np.ndarray):
    """(u, op, m): couplings frozen at a density path, backward solve, operator, forward solve."""
    # f_path is held to the return: freed before the operator build, it lowered the
    # traced peak but raised a 64x4160 solve's peak RSS by 0.4 MB (heap placement)
    f_path, g_slice = coupling_fields(model, grid, density_values)
    u = solve_hjb(model, f_path, g_slice, grid)
    op = build_transport_operator(u, model)
    return u, op, solve_fp(op, m0_slice)


def phi_map(gamma: DensityPath, model: ModelSpec, grid: GridSpec) -> tuple[TimeField, DensityPath]:
    """One application of the equilibrium map: backward solve, then forward solve."""
    if not gamma.grid.same_lattice(grid):
        raise ValueError("input path lives on a different lattice")
    u, _, m = _coupled_step(model, grid, gamma.values, model.m0.discretize(grid))
    return u, m


@dataclass
class FixedPointReport:
    """Per-iteration diagnostics of a damped Picard run, and the checks of the returned pair."""

    iterations: int
    gap_history: np.ndarray
    mass_drift_history: np.ndarray
    converged: bool
    final_hjb_residual: float = float("nan")
    final_duality_gap: float = float("nan")
    holder: HolderDiagnostic | None = None  # None if nt admits fewer than 4 dyadic separations

    def __post_init__(self):
        self.gap_history = np.asarray(self.gap_history, dtype=float)
        if not np.all(np.isfinite(self.gap_history)):
            raise ValueError("gap history contains non-finite entries")


@dataclass
class PicardResult:
    u: TimeField
    m: DensityPath
    report: FixedPointReport
    operator: TransportOperator


def picard_solve(
    model: ModelSpec,
    grid: GridSpec,
    theta: float = 0.5,
    tol: float = 1e-4,
    max_iter: int = 50,
    init: DensityPath | None = None,
) -> PicardResult:
    """Damped Picard iteration on density paths.

    Starts from `init` (default: the initial density frozen in time).  The
    reported duality gap is the worst over three seeded random dual test
    pairs against the operator that generated the returned density.
    """
    if not (0.0 < theta <= 1.0):
        raise ConfigError(f"damping must lie in (0, 1], got {theta}")
    if not tol > 0:  # a NaN fails it too
        raise ConfigError(f"tolerance must be positive, got {tol}")
    validate_kernel(grid, model.coupling_f.eps)
    validate_kernel(grid, model.terminal.coupling.eps)
    m0_slice = model.m0.discretize(grid)
    current = init if init is not None else DensityPath.constant_in_time(grid, m0_slice)
    if not current.grid.same_lattice(grid):
        raise ValueError("initial path lives on a different lattice")

    # Each iterate's fields are released at their last use, so at most one
    # iteration's fields are alive when the next coupled step runs.
    gaps, mass_hist = [], []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        m_new = _coupled_step(model, grid, current.values, m0_slice)[2]
        mass_hist.append(float(np.max(np.abs(m_new.mass - 1.0))))
        previous = current
        current = DensityPath.from_values(
            grid, (1.0 - theta) * previous.values + theta * m_new.values
        )
        del m_new
        gap = d1_path_sup_bound(current, previous)
        del previous
        gaps.append(gap)
        if gap < tol:
            converged = True
            break

    # Re-synchronize the returned pair (forward solve, its Hölder check while the fewest
    # level stacks are alive, backward solve) so both self-consistency certificates are exact.
    op_final, m_final = _coupled_step(model, grid, current.values, m0_slice)[1:]
    del current
    try:
        holder = holder_half_diagnostic(m_final)
    except ConfigError:
        holder = None
    f_final, g_final = coupling_fields(model, grid, m_final.values)
    u_final = solve_hjb(model, f_final, g_final, grid)

    resid = hjb_residual(u_final, model, f_final).values
    final_resid = float(np.abs(resid, out=resid).max())  # in place: no second level stack
    del resid, f_final
    rng = np.random.default_rng(_DUALITY_SEED)
    gapd = 0.0
    for _ in range(3):
        phi_t = rng.standard_normal(grid.shape)
        psi = TimeField(grid, rng.standard_normal((grid.nt + 1, *grid.shape)))
        gapd = max(gapd, check_duality(m_final, op_final, phi_t, psi))
        del psi

    report = FixedPointReport(
        iterations=iterations,
        gap_history=np.asarray(gaps),
        mass_drift_history=np.asarray(mass_hist),
        converged=converged,
        final_hjb_residual=final_resid,
        final_duality_gap=gapd,
        holder=holder,
    )
    return PicardResult(u=u_final, m=m_final, report=report, operator=op_final)


def _coupling_pairing(model: ModelSpec, m1: DensityPath, m2: DensityPath) -> np.ndarray:
    """Per-level integral of (F(m1) - F(m2)) d(m1 - m2)."""
    grid = m1.grid
    diff = m1.values - m2.values
    f_diff = model.coupling_f.field(grid, m1.values) - model.coupling_f.field(grid, m2.values)
    return (f_diff * diff).reshape(grid.nt + 1, -1).sum(axis=1) * grid.dx**grid.dim


def monotonicity_gap(model: ModelSpec, m1: DensityPath, m2: DensityPath) -> tuple[float, float]:
    """Integrated coupling monotonicity along two paths.

    Returns (gap_f, gap_g): the minimum over time levels of
    integral (F(m1) - F(m2)) d(m1 - m2), and the terminal analogue for G.
    Nonnegative values certify the monotone (uniqueness-relevant) regime;
    a sign-flipped kernel gain shows up as a negative gap.
    """
    grid = m1.grid
    if not grid.same_lattice(m2.grid):
        raise ValueError("paths live on different grids")
    diff = m1.values[grid.nt] - m2.values[grid.nt]
    g_diff = model.terminal.coupling.field(grid, m1.values[grid.nt]) - model.terminal.coupling.field(
        grid, m2.values[grid.nt]
    )
    gap_g = float((g_diff * diff).sum() * grid.dx**grid.dim)
    return float(_coupling_pairing(model, m1, m2).min()), gap_g


def lipschitz_probe(model: ModelSpec, grid: GridSpec, gamma1: DensityPath, gamma2: DensityPath) -> float:
    """Measured ratio sup_t d1(Phi(g1), Phi(g2)) / sup_t d1(g1, g2).

    A continuity instrument: the ratio is reported, not asserted, and is
    infinite only if the inputs coincide while the outputs do not.
    """
    delta = d1_path_sup(gamma1, gamma2)
    _, m1 = phi_map(gamma1, model, grid)
    _, m2 = phi_map(gamma2, model, grid)
    image_delta = d1_path_sup(m1, m2)
    if delta == 0.0:
        return 0.0 if image_delta == 0.0 else float("inf")
    return image_delta / delta


@dataclass
class UniquenessResult:
    gap_between_limits: float | None
    lasry_lions_integral: float | None
    both_converged: bool
    result1: PicardResult
    result2: PicardResult


def uniqueness_crosscheck(
    model: ModelSpec,
    grid: GridSpec,
    inits: tuple[DensityPath, DensityPath],
    theta: float = 0.5,
    tol: float = 1e-4,
    max_iter: int = 50,
) -> UniquenessResult:
    """Run the iteration from two initializations and compare the limits.

    Precondition: the couplings must be monotone on the probe pair (the two
    initializations); a negative integrated gap is rejected.  If either run
    fails to converge the comparison is skipped and reported as such.
    """
    init1, init2 = inits
    gap_f, gap_g = monotonicity_gap(model, init1, init2)
    if gap_f < -1e-12 or gap_g < -1e-12:
        raise ConfigError(
            f"couplings are not monotone on the probe pair "
            f"(gap_f={gap_f:.3e}, gap_g={gap_g:.3e})"
        )
    res1 = picard_solve(model, grid, theta=theta, tol=tol, max_iter=max_iter, init=init1)
    res2 = picard_solve(model, grid, theta=theta, tol=tol, max_iter=max_iter, init=init2)
    if not (res1.report.converged and res2.report.converged):
        return UniquenessResult(None, None, False, res1, res2)
    limit_gap = d1_path_sup(res1.m, res2.m)
    ll_integral = float(_coupling_pairing(model, res1.m, res2.m)[:-1].sum() * grid.dt)
    return UniquenessResult(limit_gap, ll_integral, True, res1, res2)
