"""Periodic stencils: one call over a level stack equals per-level calls."""

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
