"""Periodic stencils: the np.roll reference, and one call over a level stack equals per-level calls."""

import numpy as np
import pytest

from mfgdiff.grid import GridSpec, diff_backward, diff_forward, grad_central, laplacian


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_stencils_match_per_level(dim, rng):
    grid = GridSpec(dim=dim, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=0.5)
    dx = grid.dx
    stack = rng.standard_normal((grid.nt + 1, *grid.shape))
    stencils = [lambda v: laplacian(v, dx, dim), lambda v: grad_central(v, dx, dim)]
    stencils += [lambda v, k=k: diff_forward(v, dx, k - dim) for k in range(dim)]
    stencils += [lambda v, k=k: diff_backward(v, dx, k - dim) for k in range(dim)]
    for stencil in stencils:
        whole = stencil(stack)
        for n in range(grid.nt + 1):
            assert np.array_equal(whole[n], stencil(stack[n]))
    # a slice needs no dim: every axis is spatial
    assert np.array_equal(laplacian(stack[0], dx), laplacian(stack[0], dx, dim))
    assert np.array_equal(grad_central(stack[0], dx), grad_central(stack[0], dx, dim))


def _roll_stencils(values, dx, dim):
    """The four stencils written with np.roll, in the same arithmetic order."""
    lap = np.zeros_like(values)
    for ax in range(-dim, 0):
        lap += np.roll(values, -1, axis=ax) + np.roll(values, 1, axis=ax) - 2.0 * values
    grad = np.stack(
        [(np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * dx) for ax in range(-dim, 0)],
        axis=-1,
    )
    fwd = [(np.roll(values, -1, axis=k - dim) - values) / dx for k in range(dim)]
    bwd = [(values - np.roll(values, 1, axis=k - dim)) / dx for k in range(dim)]
    return [lap / (dx * dx), grad, *fwd, *bwd]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stacked", [False, True])
def test_stencils_match_roll_reference(dim, stacked, rng):
    grid = GridSpec(dim=dim, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=0.5)
    dx = grid.dx
    values = rng.standard_normal((grid.nt + 1, *grid.shape) if stacked else grid.shape)
    ours = [laplacian(values, dx, dim), grad_central(values, dx, dim)]
    ours += [diff_forward(values, dx, k - dim) for k in range(dim)]
    ours += [diff_backward(values, dx, k - dim) for k in range(dim)]
    for got, ref in zip(ours, _roll_stencils(values, dx, dim), strict=True):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
