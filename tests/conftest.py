"""Shared fixtures: reference models, small grids, and oracle helpers."""

import numpy as np
import pytest

from mfgdiff import DensityPath, model_a
from mfgdiff.fixed_point import coupling_fields
from mfgdiff.hjb import grid_for, solve_hjb


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def model_a_short():
    """Model A with a short horizon for cheap unit-test solves."""
    return model_a(horizon=0.05)


@pytest.fixture(scope="session")
def grid_a_small(model_a_short):
    return grid_for(model_a_short, nx=32, nt=420)


@pytest.fixture(scope="session")
def solve_a_small(model_a_short, grid_a_small):
    """One backward solve of model A with couplings frozen at m0."""
    gamma = DensityPath.constant_in_time(
        grid_a_small, model_a_short.m0.discretize(grid_a_small)
    )
    f_path, g_slice = coupling_fields(model_a_short, grid_a_small, gamma.values)
    u = solve_hjb(model_a_short, f_path, g_slice, grid_a_small)
    return u, f_path


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_force_h1(p, step=1e-4, ctrl_max=1.0, weight=0.5):
    """Exhaustive minimization of <p, a> + w |a|^2 over an alpha grid (1D)."""
    alphas = np.arange(-ctrl_max, ctrl_max + step / 2, step)
    vals = p * alphas + weight * alphas**2
    idx = np.argmin(vals)
    return float(vals[idx]), float(alphas[idx])


def brute_force_h2(q, step=1e-4, lo=0.5, hi=2.0, vertex=1.0, weight=1.0):
    """Exhaustive minimization of e*q + w (e - v)^2 over an eta grid."""
    etas = np.arange(lo, hi + step / 2, step)
    vals = etas * q + weight * (etas - vertex) ** 2
    idx = np.argmin(vals)
    return float(vals[idx]), float(etas[idx])


def at_point(terms, model, t, x, z):
    """(value, derivative) of `h1_terms` or `h2_terms` at one point; the derivative a float in 1D."""
    value, deriv = terms(model, t, np.atleast_1d(x), np.atleast_1d(z))
    return value.item(), (deriv.item() if deriv.size == 1 else deriv)


def heat_solution(nu, box, horizon, t, x):
    """Separation-of-variables solution of the backward heat flow with
    terminal slice cos(2 pi x / L)."""
    k = 2.0 * np.pi / box
    return np.exp(-nu * k * k * (horizon - t)) * np.cos(k * x)


def random_smooth_slice(grid, rng, amplitude=1.0, modes=3):
    """Random band-limited periodic field on one slice (1D or 2D)."""
    x = grid.coords()
    out = np.zeros(grid.shape)
    for _ in range(modes):
        freq = rng.integers(1, 4, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi, size=grid.dim)
        term = np.ones(grid.shape)
        for k in range(grid.dim):
            term = term * np.cos(
                2 * np.pi * freq[k] * x[..., k] / grid.box_length + phase[k]
            )
        out += rng.normal(scale=amplitude) * term
    return out
