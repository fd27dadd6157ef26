"""Monte-Carlo verification of the stochastic side of the control problem.

The agent's state follows

    dX_s = alpha_s ds + sigma_s dB_s        (wrapped onto the torus),

and the cost of a control pair is

    J = integral over [0, T] of ( L1(s, X, alpha) + L2(s, X, sigma)
                                  + F(s, X, m(s)) ) ds  +  G(X_T, m(T)).

With the feedback synthesis read off a solved value field,

    alpha* = H1_p(s, X, grad u),    sigma* = sqrt(2 H2_q(s, X, lap u)),

the sample mean of J over Euler paths must agree with u(0, x0) up to Monte
Carlo noise plus the scheme bias (the value function is the infimum of J and
the feedback controls attain it).  Running Lagrangian costs are recovered
from the envelope identities rather than evaluated separately:

    L1(alpha*) = H1 - <p, alpha*>,      L3(eta*) = H2 - eta* q,

which holds for every representation because the argmin attains the infimum.
Constant-control runs have no such identity and read the running costs at
the fixed control from `control.running_costs`.

Four instruments are provided:

  * `simulate_value`: E[J] under feedback (or overridden constant) controls;
  * `dpp_check`: the one-step programming identity
        u(0, x0) = E[ running cost over [0, h] + u(h, X_h) ];
  * `value_and_dpp`: both of the above from one sweep of feedback paths,
    the probe being a snapshot of the running costs after h / dt_mc steps
    (the two draw the same paths from the same seed, so each estimate
    equals its own instrument's bit for bit);
  * `modulus_check`: the trajectory modulus E[sup_{s <= h} |X_s - x0|],
    whose dyadic log-log slope sits near 1/2 for diffusion-dominated
    configurations (the sqrt(h) estimate; a drift bound M adds an M*h term,
    so the fit is only meaningful for h small against (lambda1/M)^2).

Spatial fields (lap u, grad u, F, G) are interpolated multilinearly and
frozen per PDE time level (piecewise constant in time).  All three path
instruments on the torus run one stepping loop (`_accumulate_costs`).
Each Euler step wraps the positions once, after the increment; the next
step locates every path's cell from those wrapped positions
(`grid.wrapped_cells`) and gathers all the fields it needs from those
cells (`grid.interp_at`), with the same values as one `interp_periodic`
call per field.  The feedback stencils (lap u, grad u) are computed one
`grid.level_chunks` chunk of time levels at a time, as the paths reach it,
so no full level stack of them is held.

Paths are advanced in one vectorized batch per step.  The Gaussian normals
of both loops (`_accumulate_costs`, `modulus_check`) come from one producer,
`_normals`: a helper thread draws them from `default_rng(seed)` into a ring
of two blocks of _BLOCK_STEPS steps, filling one block while the loop reads
the other.  It draws in the order of one (n, dim) draw per step, so a fixed
seed reproduces estimates bit-for-bit, however the threads interleave; a
row it yields is valid until the next row is requested.  Antithetic pairing
draws the first half of each step's batch and mirrors it into the second.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .control import ModelSpec, h1_terms, h2_terms, running_costs
from .errors import ConfigError, ContractError
from .fixed_point import coupling_fields
from .fp import DensityPath
from .grid import (
    TimeField,
    grad_central,
    interp_at,
    interp_periodic,
    laplacian,
    wrap_periodic,
    wrapped_cells,
)

_GUARD_SIGMAS = 10.0
# Euler steps per block of the normals' ring
_BLOCK_STEPS = 8


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run parameters."""

    num_paths: int
    dt_mc: float
    seed: int
    x0: tuple[float, ...]
    antithetic: bool = False

    def __post_init__(self):
        if self.num_paths < 100:
            raise ConfigError(f"need at least 100 paths, got {self.num_paths}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.dt_mc > 0:
            raise ConfigError(f"dt_mc must be positive, got {self.dt_mc}")
        if self.antithetic and self.num_paths % 2:
            raise ConfigError("antithetic sampling needs an even path count")
        object.__setattr__(self, "x0", tuple(float(c) for c in self.x0))
        if not np.all(np.isfinite(self.x0)):
            raise ConfigError(f"x0 must be finite, got {self.x0}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    num_paths: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


@dataclass(frozen=True)
class DppResult:
    gap: float
    std_error: float
    mc_mean: float
    reference: float


@dataclass(frozen=True)
class ModulusResult:
    slope: float
    separations: np.ndarray
    estimates: np.ndarray


def _check_increment_guard(increments: np.ndarray, bound: float, where: str) -> None:
    """Abort when per-step increments repeatedly exceed the sanity bound."""
    count = increments.size - int(np.count_nonzero(np.abs(increments) <= bound))
    if not count:
        return
    # a NaN fails the comparison too, so finiteness needs checking only now
    if not np.all(np.isfinite(increments)):
        raise ContractError(f"non-finite path increment during {where}")
    allowed = max(10, int(1e-6 * increments.size))
    if count > allowed:
        raise ContractError(
            f"{count} path increments exceeded the sanity bound {bound:.3g} "
            f"during {where} (allowed {allowed})"
        )


def _increment_bound(model: ModelSpec, dt: float) -> float:
    """Sanity bound on one Euler increment: _GUARD_SIGMAS diffusion sigmas plus the drift bound's step."""
    return _GUARD_SIGMAS * np.sqrt(model.bounds.lambda2**2 * dt) + model.bounds.drift_bound * dt


def _check_constant_controls(model: ModelSpec, alpha: np.ndarray | None, eta: float | None) -> None:
    """Reject a constant drift beyond the drift bound or a diffusion level outside [a_min, a_max]."""
    bounds = model.bounds
    if alpha is not None and not (np.max(np.abs(alpha)) <= bounds.drift_bound + 1e-12):
        raise ConfigError("constant drift control exceeds the drift bound")
    if eta is not None and not (bounds.a_min - 1e-12 <= eta <= bounds.a_max + 1e-12):
        raise ConfigError("constant diffusion control leaves the admissible interval")


def _estimate(costs: np.ndarray, antithetic: bool) -> McEstimate:
    if antithetic:
        half = costs.size // 2
        costs = 0.5 * (costs[:half] + costs[half:])
    n = costs.size
    mean = float(costs.mean())
    se = float(costs.std(ddof=1) / np.sqrt(n))
    return McEstimate(mean=mean, std_error=se, num_paths=n)


def _mc_steps(span: float, dt_mc: float, name: str) -> int:
    """Number of MC steps in `span`, which must be a finite positive multiple of dt_mc."""
    if not np.isfinite(span):
        raise ConfigError(f"{name}={span} must be finite")
    steps = span / dt_mc
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, steps):
        raise ConfigError(f"{name}={span} must be a positive multiple of dt_mc={dt_mc}")
    return int(rounded)


@contextmanager
def _normals(seed: int, n: int, dim: int, antithetic: bool, steps: int):
    """Iterator over the (n, dim) standard normal rows of `steps` >= 1 Euler steps.

    The rows are those of `np.random.default_rng(seed)` drawing (n, dim) per
    step in order; antithetic rows draw (n/2, dim) and mirror them as
    [z, -z].  One helper thread fills a ring of two (_BLOCK_STEPS, n, dim)
    blocks, one block of steps ahead of the caller, who reads the other.  A
    yielded row is valid until the next row is requested: its slot may then
    be refilled.  Leaving the context joins the helper, also on an error.
    """
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    ring = np.empty((2, _BLOCK_STEPS, n, dim))
    half = n // 2

    def fill(block):
        if not antithetic:
            rng.standard_normal(out=block)
            return
        for row in block:
            rng.standard_normal(out=row[:half])
            np.negative(row[:half], out=row[half:])

    starts = range(0, steps, _BLOCK_STEPS)
    blocks = [ring[k % 2, : min(_BLOCK_STEPS, steps - lo)] for k, lo in enumerate(starts)]

    def rows():
        ahead = pool.submit(fill, blocks[0])
        for k, block in enumerate(blocks):
            ahead.result()
            if k + 1 < len(blocks):
                ahead = pool.submit(fill, blocks[k + 1])
            yield from block

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield rows()


def _feedback_fields(u: TimeField, levels: slice):
    """Laplacian and gradient of u on the time levels of one `level_chunks` chunk."""
    grid = u.grid
    values = u.values[levels]
    return laplacian(values, grid.dx, grid.dim), grad_central(values, grid.dx, grid.dim)


def simulate_value(
    u: TimeField,
    m: DensityPath,
    model: ModelSpec,
    cfg: McConfig,
    alpha_const: np.ndarray | None = None,
    eta_const: float | None = None,
) -> McEstimate:
    """Sample mean and standard error of the control cost from x0 at t = 0.

    With no overrides the controls are the feedback synthesis from u, so the
    mean estimates u(0, x0).  Passing both `alpha_const` and `eta_const` runs
    a (generally suboptimal) constant control pair instead, whose mean can
    only sit above the value; passing one of them alone is an error.
    """
    grid = u.grid
    if (alpha_const is None) != (eta_const is None):
        missing = "alpha_const" if alpha_const is None else "eta_const"
        raise ConfigError(f"a constant control pair needs both controls; {missing} is missing")
    if alpha_const is not None:
        alpha_const = np.broadcast_to(np.asarray(alpha_const, dtype=float), (grid.dim,))
    _check_constant_controls(model, alpha_const, eta_const)

    steps = _mc_steps(grid.horizon, cfg.dt_mc, "horizon")
    (costs,) = _accumulate_costs(u, m, model, cfg, [(steps, None)], alpha_const, eta_const)
    return _estimate(costs, cfg.antithetic)


def dpp_check(u: TimeField, m: DensityPath, model: ModelSpec, cfg: McConfig, h: float) -> DppResult:
    """Gap in the one-step programming identity at horizon h from (0, x0)."""
    (costs,) = _accumulate_costs(u, m, model, cfg, [_dpp_probe(u.grid, cfg, h)])
    return _dpp_result(u, cfg, costs)


def value_and_dpp(
    u: TimeField, m: DensityPath, model: ModelSpec, cfg: McConfig, h: float
) -> tuple[McEstimate, DppResult]:
    """`simulate_value` and `dpp_check` at h, bit for bit, from one sweep of feedback paths.

    Both instruments draw the same paths from the same seed, so the probe
    is a snapshot of the value run's costs after h / dt_mc steps.
    """
    steps = _mc_steps(u.grid.horizon, cfg.dt_mc, "horizon")
    probe = _dpp_probe(u.grid, cfg, h)
    costs, probe_costs = _accumulate_costs(u, m, model, cfg, [(steps, None), probe])
    return _estimate(costs, cfg.antithetic), _dpp_result(u, cfg, probe_costs)


def _dpp_probe(grid, cfg: McConfig, h: float) -> tuple[int, int]:
    """(MC step, PDE level) of the programming-identity probe at h, which must land on both lattices."""
    steps = _mc_steps(h, cfg.dt_mc, "h")
    level = h / grid.dt
    if abs(level - round(level)) > 1e-9:
        raise ConfigError(f"h={h} must land on a grid time level (dt={grid.dt})")
    if h > grid.horizon * (1.0 + 1e-12):
        raise ConfigError("h exceeds the horizon")
    return steps, int(round(level))


def _dpp_result(u: TimeField, cfg: McConfig, costs: np.ndarray) -> DppResult:
    est = _estimate(costs, cfg.antithetic)
    x0 = np.asarray(cfg.x0)[None, :]
    ref = float(interp_periodic(u.values[0], u.grid, x0)[0])
    return DppResult(gap=abs(est.mean - ref), std_error=est.std_error, mc_mean=est.mean, reference=ref)


def _accumulate_costs(
    u: TimeField,
    m: DensityPath,
    model: ModelSpec,
    cfg: McConfig,
    ends,
    alpha_const=None,
    eta_const=None,
) -> list[np.ndarray]:
    """Euler paths from (0, x0); one cost per path at each of the `ends`.

    `ends` holds (MC step, PDE level) pairs.  After that many steps, the end
    is the running cost so far plus u at that level interpolated at the path
    (programming identity probes), or plus the terminal payoff when the
    level is None (full horizon).  The paths run to the last end and are
    shared by all of them.  Rejects a density on another lattice, an MC step
    longer than the grid step, an x0 of the wrong dimension, and constant
    controls on a model without running costs, all before any field work.
    The feedback stencils are computed only when the controls are feedback,
    one `level_chunks` chunk at a time, when the paths reach its first level.
    The normals come from `_normals`, a block of steps ahead of the loop.
    """
    grid = u.grid
    if not m.grid.same_lattice(grid):
        raise ValueError("value field and density live on different lattices")
    if cfg.dt_mc > grid.dt * (1.0 + 1e-12):
        raise ConfigError(f"dt_mc={cfg.dt_mc} exceeds the grid step {grid.dt}")
    if len(cfg.x0) != grid.dim:
        raise ConfigError(f"x0 needs {grid.dim} coordinates")
    if alpha_const is not None:
        # a spec without running costs fails here, before the coupling fields
        running_costs(model, 0.0, np.asarray(cfg.x0)[None, :], alpha_const, eta_const)
    dt, dim, length = cfg.dt_mc, grid.dim, grid.box_length
    f_path, g_slice = coupling_fields(model, grid, m.values)
    n = cfg.num_paths
    x = np.tile(np.asarray(cfg.x0, dtype=float), (n, 1))
    # every later step locates its cells from the positions the step before wrapped
    wrapped = wrap_periodic(x, length)
    cost = np.zeros(n)
    sqdt = np.sqrt(dt)
    guard = _increment_bound(model, dt)
    last = max(step for step, _ in ends)
    out = [None] * len(ends)
    chunks, levels = iter(grid.level_chunks()), slice(0, 0)
    with _normals(cfg.seed, n, dim, cfg.antithetic, last) as normals:
        for j in range(last + 1):
            cells = wrapped_cells(grid, wrapped)
            for k, (step, end_level) in enumerate(ends):
                if step == j:
                    end = g_slice if end_level is None else u.values[end_level]
                    out[k] = cost + interp_at(end, cells)
            if j == last:
                break
            s = j * dt
            level = min(int(s / grid.dt + 1e-9), grid.nt)
            if alpha_const is None:
                if level >= levels.stop:
                    levels = next(c for c in chunks if level < c.stop)
                    laps, grads = _feedback_fields(u, levels)
                p = interp_at(grads[level - levels.start], cells)
                q = interp_at(laps[level - levels.start], cells)
                h1v, alpha = h1_terms(model, s, x, p)
                h2v, eta = h2_terms(model, s, x, q)
                l1_cost = h1v - np.sum(p * alpha, axis=-1)
                l3_cost = h2v - eta * q
            else:
                alpha = np.broadcast_to(alpha_const, (n, dim))
                eta = np.full(n, float(eta_const))
                l1_cost, l3_cost = running_costs(model, s, x, alpha_const, eta_const)
            f_here = interp_at(f_path.values[level], cells)
            cost += (l1_cost + l3_cost + f_here) * dt
            sigma = np.sqrt(2.0 * eta)
            inc = alpha * dt + sigma[..., None] * sqdt * next(normals)
            _check_increment_guard(inc, guard, "cost simulation")
            x = wrap_periodic(x + inc, length)
            wrapped = x
    return out


def modulus_check(
    model: ModelSpec,
    cfg: McConfig,
    h_list,
    alpha_const=0.0,
    eta_const: float | None = None,
) -> ModulusResult:
    """Log-log slope of E[sup over [0, h] of |X - x0|] against dyadic h.

    Runs constant admissible controls on unwrapped coordinates (the modulus
    is a displacement, so no torus wrap applies) and records the running
    supremum at each requested h.  Needs at least four h values, each a
    finite positive multiple of dt_mc.
    """
    h_arr = np.sort(np.asarray(list(h_list), dtype=float))
    if h_arr.size < 4:
        raise ConfigError(f"need at least 4 separations to fit a slope, got {h_arr.size}")
    dt = cfg.dt_mc
    checkpoints = [_mc_steps(h, dt, "h") for h in h_arr]
    total = checkpoints[-1]
    dim = model.dim
    alpha = np.broadcast_to(np.asarray(alpha_const, dtype=float), (dim,))
    eta = model.bounds.a_min if eta_const is None else float(eta_const)
    _check_constant_controls(model, alpha, eta)

    n = cfg.num_paths
    x = np.zeros((n, dim))
    running_max = np.zeros(n)
    sigma = np.sqrt(2.0 * eta)
    estimates = np.empty(h_arr.size)
    guard = _increment_bound(model, dt)
    next_idx = 0
    with _normals(cfg.seed, n, dim, cfg.antithetic, total) as normals:
        for j, z in enumerate(normals, start=1):
            inc = alpha * dt + sigma * np.sqrt(dt) * z
            _check_increment_guard(inc, guard, "modulus simulation")
            x = x + inc
            running_max = np.maximum(running_max, np.linalg.norm(x, axis=-1))
            while next_idx < len(checkpoints) and checkpoints[next_idx] == j:
                estimates[next_idx] = running_max.mean()
                next_idx += 1
    slope, _ = np.polyfit(np.log(h_arr), np.log(estimates), 1)
    return ModulusResult(slope=float(slope), separations=h_arr, estimates=estimates)
