"""Backward monotone finite-difference solver for the fully nonlinear HJB flow.

The equation marched here is

    u_t + H2(t, x, lap u) + H1(t, x, grad u) + F(t, x) = 0,   u(T) = G,

on the periodic box.  One explicit Euler step backward in time reads

    u^n = u^{n+1} + dt * [ H2(t_{n+1}, x, Lap_h u^{n+1})
                         + H1(t_{n+1}, x, Dc u^{n+1})
                         + (theta_lf * dx / 2) * Lap_h u^{n+1}
                         + F^{n+1} ],

with Lap_h the 3-point periodic Laplacian per axis and Dc the centered
gradient.  The third term is the Lax-Friedrichs dissipation: writing the
one-sided differences p^+ (backward) and p^- (forward) per axis, it equals
theta_lf * sum_axes (p^+ - p^-) / 2 with the orientation that makes the
backward march monotone.  Under the grid's time-step bound every node of u^n
is nondecreasing in every node of u^{n+1}: the off-diagonal stencil weights
are

    dt * (H2_q / dx^2 + theta_lf / (2 dx) +- H1_{p_k} / (2 dx))  >=  0

because H2_q >= lambda1^2/2 > 0 and |H1_p| <= theta_lf, and the diagonal
weight 1 - dt * (2 d H2_q / dx^2 + d theta_lf / dx) stays in [0, 1].
Monotonicity gives the discrete comparison principle and the sup-norm
barrier bound for free.

Each step makes one stencil call (`grid.laplacian_gradient`: Lap_h and Dc
from one pair of neighbours per axis) and sums the bracket in place, in the
order written above.  The march checks its levels for finiteness once per
level chunk (`GridSpec.level_chunks`), as the density march does; a
non-finite value raises `ContractError` naming the first bad level in march
order and its node.

The module also provides:

  * the exponential change of variable v(t, x) = exp(-lam (T - t)) u(t, x)
    and the solver/residual for the transformed equation

        -v_t - H2_lam(t, x, lap v) - H1_lam(t, x, grad v) + lam v = F_lam,

    where H_lam(t, x, .) = exp(-lam (T-t)) H(t, x, exp(lam (T-t)) .).  The
    bracket of the step is written once, in this discounted form; both
    marches and both residuals call it, and lam = 0 (where the factor
    exp(-lam (T - t)) is exactly 1) gives the undiscounted step above bit
    for bit;
  * the scheme residual evaluator (identically zero on solver output).  It
    is not a march, so it walks the level stack in chunks of consecutive
    levels (`GridSpec.level_chunks`) through the same step bracket, with t
    and mu broadcast over the chunk's leading axis: one stencil call and one
    Hamiltonian call per chunk, with temporaries bounded by the chunk;
  * the linearization of the solved equation: coefficient fields

        V(t,x) = mean of H2_q(t, x, s * lap u) over s in [0, 1],
        Z(t,x) = mean of H1_p(t, x, s * grad u) over s in [0, 1],
        c(t,x) = H2(t, x, 0) + H1(t, x, 0),

    which satisfy V * Lap_h u + Z . Dc u + c = H2(Lap_h u) + H1(Dc u)
    exactly by the fundamental theorem of calculus.  The segment means are
    owned by `control` (`h2_segment_mean`, `h1_segment_mean`): closed form
    for the quadratic records, Gauss-Legendre quadrature on [0, 1]
    otherwise.  Like the residual, they and the identity gap walk the level
    stack in chunks (one stencil call and one Hamiltonian call per chunk),
    so their temporaries are bounded by the chunk, not by the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import (
    ModelSpec,
    h1_segment_mean,
    h1_terms,
    h1_value,
    h2_segment_mean,
    h2_terms,
    h2_value,
)
from .errors import ContractError, StabilityError
from .grid import GridSpec, TimeField, grad_central, laplacian, laplacian_gradient

_A_TOL = 1e-9
# largest lam * T for which the discount factor exp(-lam (T - t)) stays a
# normal float on every level (log(1 / smallest normal float), about 708.4)
_MAX_DISCOUNT = math.log(1.0 / np.finfo(float).tiny)


def _check_model_grid(model: ModelSpec, grid: GridSpec) -> None:
    if model.dim != grid.dim:
        raise StabilityError(f"model dim {model.dim} != grid dim {grid.dim}")
    if abs(model.horizon - grid.horizon) > 1e-12 * max(1.0, model.horizon):
        raise StabilityError(
            f"grid horizon {grid.horizon} != model horizon {model.horizon}"
        )
    if grid.a_max < model.bounds.a_max - 1e-12:
        raise StabilityError(
            f"grid stability budget a_max={grid.a_max} is below the model's "
            f"diffusion bound {model.bounds.a_max}"
        )
    if grid.theta_lf < model.bounds.drift_bound - 1e-12:
        raise StabilityError(
            f"grid dissipation theta_lf={grid.theta_lf} is below the model's "
            f"drift bound {model.bounds.drift_bound}"
        )


def grid_for(model: ModelSpec, nx: int, nt: int, box_length: float = 1.0, dim: int | None = None) -> GridSpec:
    """Grid sized for a model: stability data pulled from its control bounds."""
    return GridSpec(
        dim=model.dim if dim is None else dim,
        box_length=box_length,
        nx=nx,
        nt=nt,
        horizon=model.horizon,
        a_max=model.bounds.a_max,
        theta_lf=model.bounds.drift_bound,
    )


def _step_bracket(model: ModelSpec, grid: GridSpec, x: np.ndarray, n, w: np.ndarray,
                  f: np.ndarray, lam: float) -> np.ndarray:
    """Bracket of the explicit step, read on level n from its slice w and running cost f.

        mu H2(t, x, Lap_h w / mu) + mu H1(t, x, Dc w / mu)
            + (theta_lf dx / 2) Lap_h w + mu F - lam w,    mu = exp(-lam (T - t)),

    at t = t_n.  n is one level index with w and f single slices, or an
    integer array of shape (c,) + (1,) * dim with w and f stacks of those c
    levels.  At lam = 0, mu is exactly 1: dividing and multiplying by it
    changes no bit, and subtracting lam w = +-0 changes at most the sign of a
    zero.  So that case skips the discount arithmetic and evaluates the
    undiscounted bracket

        H2(t, x, Lap_h w) + H1(t, x, Dc w) + (theta_lf dx / 2) Lap_h w + F.

    The terms are summed left to right, in place into the fresh H2 value.
    """
    t = n * grid.dt
    dx = grid.dx
    lap, grad = laplacian_gradient(w, dx, grid.dim)
    if lam == 0.0:
        out = h2_value(model, t, x, lap)
        out += h1_value(model, t, x, grad)
        lap *= 0.5 * grid.theta_lf * dx
        out += lap
        out += f
        return out
    # math.exp level by level: a chunk gets the march's discount factors bit for bit
    if isinstance(n, int):
        mu = np.float64(math.exp(-lam * (grid.horizon - t)))
    else:
        mu = np.array([math.exp(-lam * (grid.horizon - tn)) for tn in t.ravel().tolist()]).reshape(t.shape)
    out = h2_value(model, t, x, lap / mu)
    out *= mu
    drift = h1_value(model, t, x, grad / mu[..., None])
    drift *= mu
    out += drift
    lap *= 0.5 * grid.theta_lf * dx
    out += lap
    out += mu * f
    out -= lam * w
    return out


def _march(model: ModelSpec, f_path: TimeField, g_slice: np.ndarray, grid: GridSpec, lam: float) -> TimeField:
    """March the terminal slice backward: w^n = w^{n+1} + dt * bracket(n + 1).

    Finiteness is checked once per level chunk, after the chunk is marched.
    Overflow and NaN warnings are silenced inside the chunk, so the levels
    marched past a bad one stay quiet until the check names it.
    """
    _check_model_grid(model, grid)
    if not f_path.grid.same_lattice(grid):
        raise ValueError("running-cost field lives on a different lattice")
    g = np.asarray(g_slice, dtype=float)
    if g.shape != grid.shape:
        raise ValueError(f"terminal slice shape {g.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("terminal slice contains non-finite values")

    x = grid.coords()
    dt, f = grid.dt, f_path.values
    w = np.empty((grid.nt + 1, *grid.shape))
    w[grid.nt] = g
    for steps in reversed(grid.level_chunks(stop=grid.nt)):
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(steps.stop - 1, steps.start - 1, -1):
                wn1 = w[n + 1]
                step = _step_bracket(model, grid, x, n + 1, wn1, f[n + 1], lam)
                step *= dt
                np.add(wn1, step, out=w[n])
        bad = ~np.isfinite(w[steps])
        if bad.any():
            j = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))[-1]
            node = tuple(np.argwhere(bad[j])[0].tolist())
            raise ContractError(f"non-finite value at time level {steps.start + j}, node {node}")
    return TimeField(grid, w)


def _residual(w: TimeField, model: ModelSpec, f_path: TimeField, lam: float) -> TimeField:
    """Level n holds (w^{n+1} - w^n)/dt + bracket(n + 1); the terminal level is zero.

    Evaluated chunk by chunk over the levels n + 1 = 1..nt.
    """
    grid = w.grid
    if not f_path.grid.same_lattice(grid):
        raise ValueError("running-cost field lives on a different lattice")
    x = grid.coords()
    level_shape = (-1,) + (1,) * grid.dim
    r = np.zeros_like(w.values)
    for nxt in grid.level_chunks(1):
        cur = slice(nxt.start - 1, nxt.stop - 1)
        n = np.arange(nxt.start, nxt.stop).reshape(level_shape)
        r[cur] = (w.values[nxt] - w.values[cur]) / grid.dt + _step_bracket(
            model, grid, x, n, w.values[nxt], f_path.values[nxt], lam
        )
    return TimeField(grid, r)


def solve_hjb(model: ModelSpec, f_path: TimeField, g_slice: np.ndarray, grid: GridSpec) -> TimeField:
    """March the terminal slice g backward through the monotone scheme."""
    return _march(model, f_path, g_slice, grid, 0.0)


def hjb_residual(u: TimeField, model: ModelSpec, f_path: TimeField) -> TimeField:
    """Scheme residual of a field; zero (to round-off) for solver output.

    Level n of the result holds (u^{n+1} - u^n)/dt + H2 + H1_LF + F^{n+1}
    evaluated on level n+1; the terminal level is set to zero.
    """
    return _residual(u, model, f_path, 0.0)


def lambda_transform(u: TimeField, lam: float, direction: str) -> TimeField:
    """Exponential change of variable v(t) = exp(-lam (T - t)) u(t).

    direction 'forward' applies the factor, 'inverse' removes it; the
    round trip is the identity to round-off.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    grid = u.grid
    tt = grid.times()
    expo = -lam * (grid.horizon - tt) if direction == "forward" else lam * (grid.horizon - tt)
    factors = np.exp(expo).reshape((-1,) + (1,) * grid.dim)
    return TimeField(grid, u.values * factors)


def solve_hjb_lambda(
    model: ModelSpec, f_path: TimeField, g_slice: np.ndarray, grid: GridSpec, lam: float
) -> TimeField:
    """March the discounted form of the equation; returns the transformed field v.

    The transformed Hamiltonians are evaluated through the originals:
    H_lam(t, x, w) = mu * H(t, x, w / mu) with mu = exp(-lam (T - t)), and the
    running cost is scaled the same way.  The extra +lam v term shows up as a
    (1 - lam dt) factor on the diagonal, so the march stays monotone for
    lam * dt <= 1.  The factor mu must not underflow either, so lam * T may
    not exceed log(1 / smallest normal float), about 708.4.
    """
    _check_discount(lam, grid)
    if lam * grid.dt > 1.0:
        raise StabilityError(f"discount step lam*dt={lam * grid.dt:.3g} exceeds 1")
    return _march(model, f_path, g_slice, grid, lam)


def hjb_lambda_residual(v: TimeField, model: ModelSpec, f_path: TimeField, lam: float) -> TimeField:
    """Scheme residual of a field under the discounted march."""
    _check_discount(lam, v.grid)
    return _residual(v, model, f_path, lam)


def _check_discount(lam: float, grid: GridSpec) -> None:
    """Reject a negative lam, and a lam * T at which exp(-lam (T - t)) underflows."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam * grid.horizon > _MAX_DISCOUNT:
        raise StabilityError(
            f"discount lam*T={lam * grid.horizon:.4g} exceeds {_MAX_DISCOUNT:.4g}: "
            "exp(-lam (T - t)) underflows"
        )


# --------------------------------------------------------------------------
# monotonicity certificate
# --------------------------------------------------------------------------


def monotonicity_certificate(model: ModelSpec, grid: GridSpec, u_slice: np.ndarray, t: float) -> dict:
    """Stencil weights of one backward step with argmins frozen at u_slice.

    Freezing the minimizing controls makes the step affine in the previous
    slice; the returned bounds certify the monotone structure: all neighbor
    weights nonnegative, diagonal weight in [0, 1].
    """
    _check_model_grid(model, grid)
    dx, dt = grid.dx, grid.dt
    x = grid.coords()
    lap = laplacian(np.asarray(u_slice, dtype=float), dx)
    grad = grad_central(np.asarray(u_slice, dtype=float), dx)
    _, a_coef = h2_terms(model, t, x, lap)
    _, b_coef = h1_terms(model, t, x, grad)
    theta = grid.theta_lf
    diffusive = a_coef / dx**2 + theta / (2.0 * dx)
    off_min = np.inf
    for k in range(grid.dim):
        off_min = min(
            off_min,
            float(np.min(dt * (diffusive + b_coef[..., k] / (2.0 * dx)))),
            float(np.min(dt * (diffusive - b_coef[..., k] / (2.0 * dx)))),
        )
    diag = 1.0 - dt * (2.0 * grid.dim * a_coef / dx**2 + grid.dim * theta / dx)
    return {
        "off_diagonal_min": off_min,
        "diagonal_min": float(np.min(diag)),
        "diagonal_max": float(np.max(diag)),
    }


# --------------------------------------------------------------------------
# linearization
# --------------------------------------------------------------------------


@dataclass
class LinearizedCoefficients:
    """Coefficient fields of the linearized equation -u_t - V lap u - Z.Du = c."""

    v: TimeField
    z: np.ndarray  # shape (nt+1,) + grid.shape + (dim,)
    c: TimeField


def _chunk_derivatives(u: TimeField, levels: slice):
    """(t, Lap_h u, Dc u) on a run of levels; t has shape (c, 1, ..., 1)."""
    grid = u.grid
    t = grid.times()[levels].reshape((-1,) + (1,) * grid.dim)
    lap, grad = laplacian_gradient(u.values[levels], grid.dx, grid.dim)
    return t, lap, grad


def linearize(u: TimeField, model: ModelSpec, order: int = 16) -> LinearizedCoefficients:
    """Coefficients (V, Z, c) reproducing H2 + H1 at the field's own derivatives.

    V averages H2_q along the segment [0, lap u], Z averages H1_p along
    [0, grad u], and c = H2(t, x, 0) + H1(t, x, 0), so that

        V * Lap_h u + Z . Dc u + c = H2(t, x, Lap_h u) + H1(t, x, Dc u)

    holds at every node: exactly for closed-form Hamiltonians (closed-form
    segment means), within quadrature tolerance otherwise.  The fields are
    filled chunk by chunk over the levels (`GridSpec.level_chunks`); every
    operation is per node, so they equal a whole-stack evaluation bit for
    bit while the temporaries stay bounded by the chunk.
    """
    grid = u.grid
    x = grid.coords()
    v_vals = np.empty_like(u.values)
    z_vals = np.empty(u.values.shape + (grid.dim,))
    c_vals = np.empty_like(u.values)
    for levels in grid.level_chunks():
        t, lap, grad = _chunk_derivatives(u, levels)
        v_vals[levels] = h2_segment_mean(model, t, x, lap, order)
        z_vals[levels] = h1_segment_mean(model, t, x, grad, order)
        c_vals[levels] = h2_value(model, t, x, np.zeros_like(lap)) + h1_value(
            model, t, x, np.zeros_like(grad)
        )
    lo, hi = model.bounds.a_min, model.bounds.a_max
    if v_vals.min() < lo - _A_TOL or v_vals.max() > hi + _A_TOL:
        raise ContractError(
            f"linearized diffusion coefficient left [{lo}, {hi}]: "
            f"range [{v_vals.min()}, {v_vals.max()}]"
        )
    return LinearizedCoefficients(
        v=TimeField(grid, v_vals), z=z_vals, c=TimeField(grid, c_vals)
    )


def linearization_identity_gap(u: TimeField, model: ModelSpec, coeffs: LinearizedCoefficients) -> float:
    """Sup-norm gap of V*Lap u + Z.Du + c against H2 + H1 over all nodes, chunk by chunk."""
    grid = u.grid
    x = grid.coords()
    gap = np.float64(-np.inf)
    for levels in grid.level_chunks():
        t, lap, grad = _chunk_derivatives(u, levels)
        lhs = (
            coeffs.v.values[levels] * lap
            + np.sum(coeffs.z[levels] * grad, axis=-1)
            + coeffs.c.values[levels]
        )
        rhs = h2_value(model, t, x, lap) + h1_value(model, t, x, grad)
        # np.maximum keeps a NaN, as a max over the whole stack would
        gap = np.maximum(gap, np.max(np.abs(lhs - rhs)))
    return float(gap)
