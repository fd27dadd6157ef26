"""Periodic stencils and interpolation against their np.roll / np.mod references, bit for bit."""

import numpy as np
import pytest

from mfgdiff.errors import StabilityError
from mfgdiff.grid import (
    GridSpec,
    derivative_stack,
    grad_central,
    interp_at,
    interp_cells,
    interp_periodic,
    laplacian,
    neighbour_table,
    neighbours,
    wrap_periodic,
    wrapped_cells,
)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_stencils_match_per_level(dim, rng):
    grid = GridSpec(dim=dim, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=0.5)
    dx = grid.dx
    stack = rng.standard_normal((grid.nt + 1, *grid.shape))
    stencils = [lambda v: laplacian(v, dx, dim), lambda v: grad_central(v, dx, dim)]
    # the neighbour rows ahead_0, behind_0, ... lead, before the level axis
    stencils += [lambda v, r=r: neighbours(v, dim)[r] for r in range(2 * dim)]
    for stencil in stencils:
        whole = stencil(stack)
        for n in range(grid.nt + 1):
            assert np.array_equal(whole[n], stencil(stack[n]))
    # a slice needs no dim: every axis is spatial
    assert np.array_equal(laplacian(stack[0], dx), laplacian(stack[0], dx, dim))
    assert np.array_equal(grad_central(stack[0], dx), grad_central(stack[0], dx, dim))


@pytest.mark.parametrize("dim", [1, 2])
def test_derivative_stack_matches_stencils(dim, rng):
    # row 0 is the Laplacian and rows 1..d the gradient components, bit for bit,
    # on a run of levels and on slices, and with buffers reused across slices
    grid = GridSpec(dim=dim, box_length=0.7, nx=8, nt=4, horizon=1e-3, a_max=0.5)
    dx = grid.dx
    values = rng.standard_normal((grid.nt + 1, *grid.shape))
    work = {}
    for v in (values, values[0], values[3]):
        for buffers in (None, work if v.ndim == dim else None):
            stack = derivative_stack(v, dx, dim, buffers)
            assert stack.shape == (1 + dim,) + v.shape
            assert np.array_equal(stack[0], laplacian(v, dx, dim))
            assert np.array_equal(np.moveaxis(stack[1:], 0, -1), grad_central(v, dx, dim))
    # a march's buffers: each call overwrites the stack the previous one returned
    assert derivative_stack(values[1], dx, dim, work) is derivative_stack(values[2], dx, dim, work)


@pytest.mark.parametrize("dim", [1, 2])
def test_derivative_stack_keeps_the_sign_of_zero(dim, rng):
    # row 0 equals the Laplacian by raw bytes on slices whose differences are
    # signed zeros: all -0.0, +0.0 and -0.0 mixed or on a checkerboard,
    # constant, and random
    grid = GridSpec(dim=dim, box_length=0.7, nx=8, nt=4, horizon=1e-3, a_max=0.5)
    dx = grid.dx
    mixed = np.where(rng.random(grid.shape) < 0.5, -0.0, 0.0)
    checker = np.where(np.indices(grid.shape).sum(axis=0) % 2, -0.0, 0.0)
    cases = (np.full(grid.shape, -0.0), mixed, checker, np.full(grid.shape, 3.0), rng.standard_normal(grid.shape))
    for v in cases:
        for work in (None, {}):
            row = derivative_stack(v, dx, dim, work)[0]
            assert row.tobytes() == laplacian(v, dx, dim).tobytes()
    # on the checkerboard every +0.0 node has two -0.0 neighbours per axis: its Laplacian is -0.0
    assert np.array_equal(np.signbit(laplacian(checker, dx, dim)), ~np.signbit(checker))


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
    nbr = neighbours(values, dim)
    ours += [(nbr[2 * k] - values) / dx for k in range(dim)]
    ours += [(values - nbr[2 * k + 1]) / dx for k in range(dim)]
    for got, ref in zip(ours, _roll_stencils(values, dx, dim), strict=True):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
    # each axis's pair: the node ahead, then the node behind; swapped in the transposed table
    flat = values.reshape(values.shape[: values.ndim - dim] + (-1,))
    swapped = np.stack([flat.take(row.reshape(-1), axis=-1).reshape(values.shape)
                        for row in neighbour_table(grid.shape, True)[1:]])
    for k in range(dim):
        ahead, behind = np.roll(values, -1, axis=k - dim), np.roll(values, 1, axis=k - dim)
        assert np.array_equal(nbr[2 * k], ahead) and np.array_equal(nbr[2 * k + 1], behind)
        assert np.array_equal(swapped[2 * k], behind) and np.array_equal(swapped[2 * k + 1], ahead)
    for transpose in (False, True):
        table = neighbour_table(grid.shape, transpose)
        assert table.shape == (1 + 2 * dim,) + grid.shape and not table.flags.writeable
        assert np.array_equal(table[0], np.arange(grid.n_nodes).reshape(grid.shape))  # the node itself


_BOX_LENGTHS = [1.0, 0.7, 2.0, 2 * np.pi]


def _seam_points(length):
    """Coordinates at and next to the seam, where the wrap rounds."""
    return np.array(
        [0.0, -0.0, -5e-324, -1e-17, length, -length, 2 * length,
         np.nextafter(length, 0), np.nextafter(0, -1)]
    )


@pytest.mark.parametrize("field", ["theta_lf", "a_max"])
def test_gridspec_rejects_nan_stability_data(field):
    spec = dict(dim=1, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=0.5, theta_lf=1.0)
    spec[field] = float("nan")
    with pytest.raises(StabilityError, match=f"{field} must be"):
        GridSpec(**spec)


@pytest.mark.parametrize("field", ["box_length", "horizon", "a_max", "theta_lf"])
def test_gridspec_rejects_infinite_inputs(field):
    # refused by name before the stability check, whose min_admissible_nt overflows on them
    spec = dict(dim=1, box_length=1.0, nx=8, nt=4, horizon=1e-3, a_max=0.5, theta_lf=1.0)
    spec[field] = float("inf")
    with pytest.raises(StabilityError, match=f"{field} must be .* and finite"):
        GridSpec(**spec)


def test_wrap_periodic_matches_np_mod(rng):
    for length in _BOX_LENGTHS:
        x = np.concatenate([rng.uniform(-5 * length, 5 * length, 10_000), _seam_points(length)])
        ref = np.mod(x, length)
        got = wrap_periodic(x, length)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))  # sign of zero included
    assert wrap_periodic(np.array([-1e-17]), 1.0)[0] == 1.0  # rounds up to L, as np.mod does


def test_wrap_periodic_in_range_matches_np_mod(rng):
    # every coordinate in [-L, 2L) takes the subtract/add path; one outside it sends
    # the whole array through fmod, so both paths are compared on the same values
    for length in _BOX_LENGTHS:
        x = np.concatenate([
            [-length, -0.0, -5e-324, -1e-17, length,
             np.nextafter(length, 0), np.nextafter(2 * length, 0)],
            rng.uniform(-length, 2 * length, 10_000),
        ])
        ref = np.mod(x, length).view(np.int64)
        in_range = wrap_periodic(x, length)
        via_fmod = wrap_periodic(np.append(x, 2 * length), length)[:-1]
        assert np.array_equal(in_range.view(np.int64), ref)
        assert np.array_equal(via_fmod.view(np.int64), ref)
    assert np.isnan(wrap_periodic(np.array([0.5, np.nan]), 1.0)[1])


def _mod_reference(slice_values, grid, pts):
    """Multilinear periodic interpolation with np.mod and np.floor, corner by corner."""
    z = np.mod(pts, grid.box_length) / grid.dx
    i0 = np.floor(z).astype(int)
    frac = z - i0
    i0 = np.mod(i0, grid.nx)
    i1 = np.mod(i0 + 1, grid.nx)
    if grid.dim == 1:
        f = frac[:, 0]
        return slice_values[i0[:, 0]] * (1.0 - f) + slice_values[i1[:, 0]] * f
    fx, fy = frac[:, 0], frac[:, 1]
    return (
        slice_values[i0[:, 0], i0[:, 1]] * (1 - fx) * (1 - fy)
        + slice_values[i1[:, 0], i0[:, 1]] * fx * (1 - fy)
        + slice_values[i0[:, 0], i1[:, 1]] * (1 - fx) * fy
        + slice_values[i1[:, 0], i1[:, 1]] * fx * fy
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_interp_matches_mod_reference(dim, rng):
    for length in _BOX_LENGTHS:
        grid = GridSpec(dim=dim, box_length=length, nx=40, nt=4, horizon=1e-5, a_max=0.5)
        seam = _seam_points(length)
        pts = rng.uniform(-3 * length, 3 * length, (2000, dim))
        pts[: seam.size, 0] = seam
        pts[seam.size : 2 * seam.size, -1] = seam
        # the wrapped coordinate is exactly L, so floor(x / dx) lands on nx
        assert np.any(np.mod(pts, length) == length)
        values = rng.standard_normal(grid.shape)
        ref = _mod_reference(values, grid, pts)
        assert np.array_equal(interp_periodic(values, grid, pts), ref)
        # a component axis: each component equals its own scalar interpolation
        stacked = np.stack([values, 2.0 * values], axis=-1)
        got = interp_at(stacked, interp_cells(grid, pts))
        assert got.shape == (pts.shape[0], 2)
        assert np.array_equal(got[:, 0], ref)
        assert np.array_equal(got[:, 1], _mod_reference(2.0 * values, grid, pts))


def _same_cells(got, ref):
    assert len(got) == len(ref)
    for (g_index, g_factors), (r_index, r_factors) in zip(got, ref):
        assert np.array_equal(g_index, r_index)
        assert len(g_factors) == len(r_factors)
        for g, r in zip(g_factors, r_factors):
            assert np.array_equal(g.view(np.int64), r.view(np.int64))  # sign of zero included


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("nx", [49, 64, 93])
def test_wrapped_cells_match_interp_cells(nx, dim, rng):
    # L / dx rounds above nx at nx = 49, below it at nx = 93, and equals it at 64
    grid = GridSpec(dim=dim, box_length=1.0, nx=nx, nt=4, horizon=1e-6, a_max=0.5)
    seam = wrap_periodic(_seam_points(1.0), 1.0)
    pts = wrap_periodic(rng.uniform(-3.0, 3.0, (2000, dim)), 1.0)
    pts[: seam.size, 0] = seam
    pts[seam.size : 2 * seam.size, -1] = seam
    assert np.any(pts == 1.0)
    _same_cells(wrapped_cells(grid, pts), interp_cells(grid, pts))
    # a position of exactly L sits at node 0 with factor 0 toward node 1
    at_length = np.ones((1, dim))
    (i0, f0), (i1, f1) = wrapped_cells(grid, at_length)[:2]
    assert i0[0] == 0 and i1[0] == (1 if dim == 1 else nx) and f1[0] == 0.0
    _same_cells(wrapped_cells(grid, at_length), interp_cells(grid, at_length))
