"""Kernel-smoothed couplings and initial densities on the periodic box.

The running and terminal couplings used throughout are of convolution type:

    F(t, x, m)  = c_F * (rho_eps * m)(x)
    G(x, m)     = g0(x) + c_G * (rho_eps * m)(x)

with rho_eps a wrapped Gaussian of width eps, sampled on the grid and
normalized to unit mass.  The sampled kernel is nonnegative by construction
and its discrete Fourier transform is strictly positive (a periodized
Gaussian), so the induced quadratic form

    (mu, K mu) = integral of (rho_eps * mu) * mu

is positive semidefinite.  With nonnegative gains this makes both couplings
nondecreasing in the density in the integrated (Lasry-Lions) sense, which is
the uniqueness-relevant structure the fixed-point module probes.

Convolutions are circular and evaluated with FFTs; a convolution of a unit
mass density with the unit mass kernel again has unit mass up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .grid import GridSpec

_KERNEL_WRAPS = 8  # images summed on each side when wrapping the Gaussian


def _wrapped_gaussian(offsets: np.ndarray, box: float, width: float) -> np.ndarray:
    """Unnormalized Gaussian of the given width at `offsets`, summed over the box images."""
    acc = np.zeros(offsets.shape)
    for j in range(-_KERNEL_WRAPS, _KERNEL_WRAPS + 1):
        acc += np.exp(-0.5 * ((offsets + j * box) / width) ** 2)
    return acc


@lru_cache(maxsize=64)
def _axis_kernel(nx: int, dx: float, eps: float) -> np.ndarray:
    """Wrapped-Gaussian kernel samples along one axis, unit mass (sum * dx = 1)."""
    if not eps > 0:
        raise ConfigError(f"kernel width must be positive, got {eps}")
    acc = _wrapped_gaussian(np.arange(nx) * dx, nx * dx, eps)
    acc /= acc.sum() * dx
    return acc


def validate_kernel(grid: GridSpec, eps: float) -> None:
    """Reject kernels that are not nonnegative, unit-mass and positive-definite."""
    k1 = _axis_kernel(grid.nx, grid.dx, eps)
    if np.any(k1 < 0):
        raise ConfigError("smoothing kernel has negative samples")
    if abs(k1.sum() * grid.dx - 1.0) > 1e-10:
        raise ConfigError("smoothing kernel does not have unit mass")
    spectrum = np.fft.rfft(k1).real
    # high frequencies underflow to round-off noise; demand positivity only
    # above that floor
    if np.any(spectrum < -1e-12 * spectrum.max()):
        raise ConfigError(
            f"smoothing kernel is not positive-definite on this grid "
            f"(eps={eps}, dx={grid.dx}); increase eps or refine the grid"
        )


def kernel_smooth(grid: GridSpec, eps: float, values: np.ndarray) -> np.ndarray:
    """Circular convolution rho_eps * values on one or many slices.

    values may have shape grid.shape or (levels,) + grid.shape; the
    convolution acts on the trailing spatial axes.
    """
    k1 = _axis_kernel(grid.nx, grid.dx, eps)
    if grid.dim == 1:
        ker_hat = np.fft.rfft(k1) * grid.dx
        out = np.fft.irfft(np.fft.rfft(values, axis=-1) * ker_hat, n=grid.nx, axis=-1)
        return out
    kern = np.multiply.outer(k1, k1)
    ker_hat = np.fft.rfft2(kern) * grid.dx**2
    out = np.fft.irfft2(np.fft.rfft2(values, axes=(-2, -1)) * ker_hat, s=grid.shape, axes=(-2, -1))
    return out


# --------------------------------------------------------------------------
# descriptors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCoupling:
    """Convolution coupling c * (rho_eps * m)(x)."""

    eps: float
    gain: float

    def __post_init__(self):
        # written so that a NaN fails them too
        if not self.eps > 0:
            raise ConfigError(f"coupling kernel width must be positive, got {self.eps}")
        if not math.isfinite(self.gain):
            raise ConfigError(f"coupling gain must be finite, got {self.gain}")

    def field(self, grid: GridSpec, density_values: np.ndarray) -> np.ndarray:
        if self.gain == 0.0:
            return np.zeros_like(density_values)
        return self.gain * kernel_smooth(grid, self.eps, density_values)


@dataclass(frozen=True)
class TerminalBase:
    """Declarative base terminal payoff g0.

    kinds:
        zero                    g0 = 0
        constant (value)        g0 = value
        cosine (amplitude)      g0 = amplitude * sum_k cos(2 pi x_k / L)
    """

    kind: str = "zero"
    value: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "cosine"):
            raise ConfigError(f"unknown terminal base kind {self.kind!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.amplitude)):
            raise ConfigError("terminal base value and amplitude must be finite")

    def values(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.shape)
        if self.kind == "constant":
            return np.full(grid.shape, float(self.value))
        x = grid.coords()
        return self.amplitude * np.cos(2.0 * np.pi * x / grid.box_length).sum(axis=-1)


@dataclass(frozen=True)
class TerminalSpec:
    base: TerminalBase
    coupling: KernelCoupling

    def slice_for(self, grid: GridSpec, terminal_density: np.ndarray) -> np.ndarray:
        return self.base.values(grid) + self.coupling.field(grid, terminal_density)


@dataclass(frozen=True)
class DensityInit:
    """Initial density descriptor.

    kinds:
        uniform                   flat density 1 / L^d
        gaussian (center, width)  wrapped Gaussian bump
        dirac (center)            all mass on the nearest node
    center is a tuple with one entry per axis.
    """

    kind: str = "uniform"
    center: tuple[float, ...] = (0.5,)
    width: float = 0.1

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "dirac"):
            raise ConfigError(f"unknown density kind {self.kind!r}")
        if self.kind == "gaussian" and not self.width > 0:
            raise ConfigError("gaussian density needs a positive width")

    def discretize(self, grid: GridSpec) -> np.ndarray:
        """Node values with total mass sum * dx^d == 1 (renormalized)."""
        if len(self.center) != grid.dim:
            raise ConfigError(
                f"density center has {len(self.center)} coordinates, grid needs {grid.dim}"
            )
        if self.kind == "uniform":
            vals = np.ones(grid.shape)
        elif self.kind == "dirac":
            vals = np.zeros(grid.shape)
            idx = tuple(int(round(c / grid.dx)) % grid.nx for c in self.center)
            vals[idx] = 1.0
        else:
            x = grid.axis_coords()
            axes = [_wrapped_gaussian(x - c, grid.box_length, self.width) for c in self.center]
            vals = axes[0] if grid.dim == 1 else np.multiply.outer(axes[0], axes[1])
        vals = vals / (vals.sum() * grid.dx**grid.dim)
        return vals
