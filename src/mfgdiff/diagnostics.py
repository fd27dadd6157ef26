"""Numerical audits of regularity estimates and structural solvability conditions.

All four instruments consume computed fields or the model itself and report
constants; none of them blocks a solve.  They use differences only, so every
one is invariant under adding a constant to the field.

  * `lipschitz_constant`: max over time levels, nodes and axes of the
    per-axis forward difference quotient |u(x + h e_k) - u(x)| / dx.  The
    space-Lipschitz estimate for the value function predicts this stays
    bounded under grid refinement.
  * `semiconcavity_constant`: signed max of the one-sided second-difference
    quotient (u(x + h) + u(x - h) - 2 u(x)) / |h|^2 with h one grid step
    (periodic neighbors).  Semiconcave fields keep it bounded above.

    Both read the neighbours through `grid.neighbour_table` (the Lipschitz
    audit gathers only the rows ahead) and reduce their max chunk by chunk
    of levels (`GridSpec.level_chunks`), so their temporaries stay bounded
    by the chunk, not by the level stack.
  * `three_point_check`: worst ratio of u(x) + u(y) - 2 u(z) against
    delta + (|x - z|^4 + |y - z|^4 + |x + y - 2 z|^2) / delta over sampled
    on-grid triples.  A finite worst ratio certifies the quantitative
    three-point form of joint Lipschitz/semiconcave regularity; the choice
    x = z + h, y = z - h, delta = |h|^2 collapses the denominator to
    3 |h|^2, recovering the plain second-difference quotient up to the
    constant factor 3.
  * `class_m_check`: audits the structural conditions under which the fully
    nonlinear flow admits classical solutions, applied to the canonical
    assembly

        M(t, x, beta, B, p, s) = beta * H2(t, x, tr(B) / beta)
                               + beta * H1(t, x, p / beta),

    namely positive one-homogeneity in (beta, B, p, s) (exact by
    construction, so the check exercises the assembly code), uniform
    ellipticity of dM/db_ii, concavity in B, the bounded-derivative
    conditions, and the (t, x)-growth bounds.  It runs on the audit kernel
    of `control`: derivatives are `central_difference`s, with step
    1e-4 * (1 + |variable|) unless a step is given, and the result is an
    `AuditReport`, the type of the structural-hypothesis audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    _FD_STEP,
    AuditReport,
    ModelSpec,
    audit_condition,
    central_difference,
    h1_value,
    h2_value,
)
from .errors import ConfigError
from .grid import TimeField, neighbour_table, neighbours

# Gathered entries (levels times triples) per chunk of `three_point_check`.
_THREE_POINT_ENTRIES = 1 << 18


# --------------------------------------------------------------------------
# field diagnostics
# --------------------------------------------------------------------------


def _second_differences(values: np.ndarray, dx: float, dim: int) -> np.ndarray:
    """Per-axis quotients (forward - backward difference) / dx, shape (dim,) + values.shape."""
    nbr = neighbours(values, dim)
    return ((nbr[0::2] - values) / dx - (values - nbr[1::2]) / dx) / dx


def lipschitz_constant(u: TimeField) -> float:
    """Max-norm discrete space-Lipschitz constant over all time levels, reduced chunk by chunk."""
    grid = u.grid
    ahead = neighbour_table(grid.shape)[1::2].reshape(grid.dim, -1)  # only the rows ahead are read
    flats = (u.values[c].reshape(c.stop - c.start, -1) for c in grid.level_chunks())
    return max(float(np.max(np.abs((f.take(ahead, axis=-1) - f[:, None]) / grid.dx))) for f in flats)


def second_difference_quotient(u: TimeField) -> np.ndarray:
    """Per-axis second-difference quotients, shape (dim,) + values.shape."""
    return _second_differences(u.values, u.grid.dx, u.grid.dim)


def semiconcavity_constant(u: TimeField) -> float:
    """Signed maximum of the second-difference quotient (upper bound audit), reduced chunk by chunk."""
    grid = u.grid
    return max(float(np.max(_second_differences(u.values[c], grid.dx, grid.dim))) for c in grid.level_chunks())


def random_triples(grid, count: int, rng) -> np.ndarray:
    """Index triples (x, y, z) sampled uniformly on the grid, shape (count, 3, dim)."""
    return rng.integers(0, grid.nx, size=(count, 3, grid.dim))


def three_point_check(u: TimeField, triples: np.ndarray, delta: float) -> float:
    """Worst ratio of the three-point inequality over triples and time levels.

    triples holds on-grid index triples with shape (n, 3, dim); coordinates
    enter the denominator unrolled (index * dx).  The max is reduced over
    chunks of levels of about _THREE_POINT_ENTRIES gathered values each, so
    the temporaries do not grow with nt.
    """
    if not 0 < delta < np.inf:  # a NaN fails it too
        raise ConfigError(f"delta must be positive and finite, got {delta}")
    grid = u.grid
    triples = np.asarray(triples, dtype=int)
    if triples.ndim != 3 or triples.shape[1] != 3 or triples.shape[2] != grid.dim:
        raise ValueError(f"triples must have shape (n, 3, {grid.dim})")
    dx = grid.dx
    xi = triples[:, 0].astype(float) * dx
    yi = triples[:, 1].astype(float) * dx
    zi = triples[:, 2].astype(float) * dx
    quart = (
        np.sum((xi - zi) ** 2, axis=1) ** 2
        + np.sum((yi - zi) ** 2, axis=1) ** 2
        + np.sum((xi + yi - 2 * zi) ** 2, axis=1)
    )
    denom = delta + quart / delta
    nodes = np.ravel_multi_index(tuple(np.moveaxis(triples, -1, 0)), grid.shape)
    ix, iy, iz = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    flat = u.values.reshape(grid.nt + 1, -1)
    rows = max(1, _THREE_POINT_ENTRIES // max(1, len(triples)))
    worst = -np.inf
    for lo in range(0, grid.nt + 1, rows):
        chunk = flat[lo : lo + rows]
        ratios = (chunk.take(ix, axis=1) + chunk.take(iy, axis=1) - 2.0 * chunk.take(iz, axis=1)) / denom
        worst = np.maximum(worst, np.max(ratios))
    return float(worst)


# --------------------------------------------------------------------------
# structural-class audit
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KrylovSample:
    """One audit point (t, x, beta, B, p, s) for the class conditions."""

    t: float
    x: np.ndarray
    beta: float
    big_b: np.ndarray
    p_under: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "big_b", np.asarray(self.big_b, dtype=float))
        object.__setattr__(self, "p_under", np.atleast_1d(np.asarray(self.p_under, dtype=float)))
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.big_b.ndim != 2 or self.big_b.shape[0] != self.big_b.shape[1]:
            raise ConfigError("B must be a square matrix")
        if not np.allclose(self.big_b, self.big_b.T, atol=1e-12):
            raise ConfigError("B must be symmetric")


def krylov_m(model: ModelSpec, t, x, beta, big_b, p_under) -> np.ndarray:
    """The canonical one-homogeneous assembly evaluated on sample batches.

    Accepts batched arguments: t (n,), x (n, d), beta (n,), big_b (n, d, d),
    p_under (n, d); s is ignored by the assembly (its homogeneity is trivial).
    """
    beta = np.asarray(beta, dtype=float)
    tr = np.trace(np.asarray(big_b, dtype=float), axis1=-2, axis2=-1)
    q = tr / beta
    p_scaled = np.asarray(p_under, dtype=float) / beta[..., None]
    return beta * h2_value(model, t, x, q) + beta * h1_value(model, t, x, p_scaled)


def class_m_check(model: ModelSpec, samples, declared_c: float = 10.0) -> AuditReport:
    """Audit the structural class conditions on a list of KrylovSample points."""
    samples = list(samples)
    if not samples:
        raise ConfigError("class audit needs a nonempty sample list")
    d = model.dim
    n = len(samples)
    t = np.array([s.t for s in samples])
    x = np.stack([s.x for s in samples])
    beta = np.array([s.beta for s in samples])
    big_b = np.stack([s.big_b for s in samples])
    p = np.stack([s.p_under for s in samples])
    s_var = np.array([s.s for s in samples])
    if x.shape[1] != d or big_b.shape[1] != d or p.shape[1] != d:
        raise ConfigError(f"samples must be {d}-dimensional for this model")
    rng = np.random.default_rng(0)  # fixed seed for the random test directions

    def m_at(tt=t, xx=x, bb=beta, bigb=big_b, pp=p):
        return krylov_m(model, tt, xx, bb, bigb, pp)

    m0 = m_at()
    conditions = []

    # homogeneity: M(lam * args) = lam * M(args), exact by construction
    worst_hom = np.zeros(n)
    for lam in (0.5, 2.0, 10.0):
        scaled = m_at(bb=lam * beta, bigb=lam * big_b, pp=lam * p)
        rel = np.abs(scaled - lam * m0) / np.maximum(np.abs(lam * m0), 1e-12)
        worst_hom = np.maximum(worst_hom, rel)
    conditions.append(audit_condition("homogeneity", worst_hom <= 1e-10, worst_hom.max(), 1e-10))

    # ellipticity: dM/db_ii >= nu along the diagonal
    nu = model.bounds.a_min
    ell_min = np.min(
        np.stack([central_difference(lambda bigb: m_at(bigb=bigb), big_b, (..., i, i)) for i in range(d)]),
        axis=0,
    )
    conditions.append(audit_condition("ellipticity", ell_min >= nu * (1.0 - 1e-6), ell_min.min(), nu))

    # concavity in B along random rank-one directions
    xi = rng.standard_normal((n, d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    direction = xi[:, :, None] * xi[:, None, :]
    h = 1e-2 * (1.0 + np.linalg.norm(big_b.reshape(n, -1), axis=1))
    hb = h[:, None, None] * direction
    second = m_at(bigb=big_b + hb) + m_at(bigb=big_b - hb) - 2.0 * m0
    conditions.append(audit_condition("concavity-in-B", second <= 1e-8, second.max(), 1e-8))

    # second directional derivative in (B, p, s) bounded by C/beta * (|p0|^2 + s0^2)
    b0 = rng.standard_normal((n, d, d))
    b0 = 0.5 * (b0 + np.transpose(b0, (0, 2, 1)))
    p0 = rng.standard_normal((n, d))
    s0 = rng.standard_normal(n)
    along = lambda e: m_at(bigb=big_b + e[:, None, None] * b0, pp=p + e[:, None] * p0)
    dir2 = central_difference(along, np.zeros(n), ..., second=True, h=1e-2)
    bound_v = declared_c / beta * (np.sum(p0**2, axis=1) + s0**2)
    conditions.append(
        audit_condition("directional-curvature", dir2 <= bound_v + 1e-8, (dir2 - bound_v).max(), 0.0)
    )

    # bounded first derivatives in (b_ij, p_i, beta) and mixed with x; b_ij moves
    # along the symmetric direction (E_ij + E_ji) / 2, whose half steps sum to a
    # full step on b_ii
    firsts = []
    for i in range(d):
        for j in range(d):
            sym = np.zeros((d, d))
            sym[i, j] += 0.5
            sym[j, i] += 0.5
            h = _FD_STEP * (1.0 + np.abs(big_b[:, i, j]))
            along = lambda e: m_at(bigb=big_b + e[:, None, None] * sym)
            firsts.append(central_difference(along, np.zeros(n), ..., h=h))
    firsts += [central_difference(lambda pp: m_at(pp=pp), p, (..., i)) for i in range(d)]
    firsts.append(central_difference(lambda bb: m_at(bb=bb), beta, ...))
    # the b_11 derivative steps by beta's step
    hbeta = _FD_STEP * (1.0 + np.abs(beta))
    d_b11 = lambda xx: central_difference(lambda bigb: m_at(xx=xx, bigb=bigb), big_b, (..., 0, 0), h=hbeta)
    d_beta = lambda xx: central_difference(lambda bb: m_at(xx=xx, bb=bb), beta, ...)
    firsts += [central_difference(fn, x, (..., k)) for fn in (d_b11, d_beta) for k in range(d)]
    worst_vi = np.max(np.abs(np.stack(firsts)), axis=0)
    conditions.append(
        audit_condition("derivative-bounds", worst_vi <= declared_c, worst_vi.max(), declared_c)
    )

    # (t, x)-growth: |M_t| + |M_xx| <= C * sqrt(beta^2 + s^2 + |p|^2 + |B|^2)
    scale = np.sqrt(
        beta**2 + s_var**2 + np.sum(p**2, axis=1) + np.sum(big_b.reshape(n, -1) ** 2, axis=1)
    )
    m_t = np.abs(central_difference(lambda tt: m_at(tt=tt), t, ...))
    m_xx = [central_difference(lambda xx: m_at(xx=xx), x, (..., k), second=True) for k in range(d)]
    growth = (m_t + np.max(np.abs(np.stack(m_xx)), axis=0)) / scale
    conditions.append(audit_condition("tx-growth", growth <= declared_c, growth.max(), declared_c))

    return AuditReport(conditions=tuple(conditions), n_samples=n)
