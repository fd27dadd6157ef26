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
    conditions, and the (t, x)-growth bounds.  Derivatives are sampled
    centered differences with per-variable step 1e-4 * (1 + |variable|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ModelSpec, h1_value, h2_value
from .errors import ConfigError
from .grid import TimeField, diff_backward, diff_forward

_FD_STEP = 1e-4


# --------------------------------------------------------------------------
# field diagnostics
# --------------------------------------------------------------------------


def lipschitz_constant(u: TimeField) -> float:
    """Max-norm discrete space-Lipschitz constant over all time levels."""
    dx, dim = u.grid.dx, u.grid.dim
    return max(float(np.max(np.abs(diff_forward(u.values, dx, k - dim)))) for k in range(dim))


def second_difference_quotient(u: TimeField) -> np.ndarray:
    """Per-axis second-difference quotients, shape (dim,) + values.shape."""
    dx, dim = u.grid.dx, u.grid.dim
    return np.stack(
        [
            (diff_forward(u.values, dx, k - dim) - diff_backward(u.values, dx, k - dim)) / dx
            for k in range(dim)
        ]
    )


def semiconcavity_constant(u: TimeField) -> float:
    """Signed maximum of the second-difference quotient (upper bound audit)."""
    return float(np.max(second_difference_quotient(u)))


def random_triples(grid, count: int, rng) -> np.ndarray:
    """Index triples (x, y, z) sampled uniformly on the grid, shape (count, 3, dim)."""
    return rng.integers(0, grid.nx, size=(count, 3, grid.dim))


def three_point_check(u: TimeField, triples: np.ndarray, delta: float) -> float:
    """Worst ratio of the three-point inequality over triples and time levels.

    triples holds on-grid index triples with shape (n, 3, dim); coordinates
    enter the denominator unrolled (index * dx).
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
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

    def node_index(ii):
        return tuple(ii[:, k] for k in range(grid.dim))

    ux = u.values[(slice(None),) + node_index(triples[:, 0])]
    uy = u.values[(slice(None),) + node_index(triples[:, 1])]
    uz = u.values[(slice(None),) + node_index(triples[:, 2])]
    ratios = (ux + uy - 2.0 * uz) / denom[None, :]
    return float(np.max(ratios))


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


@dataclass(frozen=True)
class ClassMCondition:
    name: str
    worst: float
    threshold: float
    passed: bool
    failing_samples: tuple[int, ...] = ()


@dataclass(frozen=True)
class ClassMReport:
    conditions: tuple[ClassMCondition, ...]
    n_samples: int
    note: str = (
        "smoothness is audited through sampled finite differences; the report "
        "is advisory and does not block solving"
    )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def by_name(self, name: str) -> ClassMCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "; ".join(
            f"{c.name}: {c.worst:.4g} vs {c.threshold:.4g} {'ok' if c.passed else 'FAIL'}"
            for c in self.conditions
        )


def _condition(name, per_sample_ok, worst, threshold) -> ClassMCondition:
    failing = tuple(int(i) for i in np.flatnonzero(~per_sample_ok)[:20])
    return ClassMCondition(
        name=name, worst=float(worst), threshold=float(threshold),
        passed=bool(np.all(per_sample_ok)), failing_samples=failing,
    )


def class_m_check(model: ModelSpec, samples, declared_c: float = 10.0, seed: int = 0) -> ClassMReport:
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
    rng = np.random.default_rng(seed)

    def m_at(tt=None, xx=None, bb=None, bigb=None, pp=None):
        return krylov_m(
            model,
            t if tt is None else tt,
            x if xx is None else xx,
            beta if bb is None else bb,
            big_b if bigb is None else bigb,
            p if pp is None else pp,
        )

    m0 = m_at()
    conditions = []

    # homogeneity: M(lam * args) = lam * M(args), exact by construction
    worst_hom = np.zeros(n)
    for lam in (0.5, 2.0, 10.0):
        scaled = krylov_m(model, t, x, lam * beta, lam * big_b, lam * p)
        rel = np.abs(scaled - lam * m0) / np.maximum(np.abs(lam * m0), 1e-12)
        worst_hom = np.maximum(worst_hom, rel)
    conditions.append(_condition("homogeneity", worst_hom <= 1e-10, worst_hom.max(), 1e-10))

    # ellipticity: dM/db_ii >= nu along the diagonal, by centered differences
    nu = model.bounds.a_min
    ell_min = np.full(n, np.inf)
    for i in range(d):
        h = _FD_STEP * (1.0 + np.abs(big_b[:, i, i]))
        delta = np.zeros_like(big_b)
        delta[:, i, i] = h
        fd = (m_at(bigb=big_b + delta) - m_at(bigb=big_b - delta)) / (2.0 * h)
        ell_min = np.minimum(ell_min, fd)
    conditions.append(
        _condition("ellipticity", ell_min >= nu * (1.0 - 1e-6), ell_min.min(), nu)
    )

    # concavity in B along random rank-one directions
    xi = rng.standard_normal((n, d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    direction = xi[:, :, None] * xi[:, None, :]
    h = 1e-2 * (1.0 + np.linalg.norm(big_b.reshape(n, -1), axis=1))
    hb = h[:, None, None] * direction
    second = m_at(bigb=big_b + hb) + m_at(bigb=big_b - hb) - 2.0 * m0
    conditions.append(
        _condition("concavity-in-B", second <= 1e-8, second.max(), 1e-8)
    )

    # second directional derivative in (B, p, s) bounded by C/beta * (|p0|^2 + s0^2)
    b0 = rng.standard_normal((n, d, d))
    b0 = 0.5 * (b0 + np.transpose(b0, (0, 2, 1)))
    p0 = rng.standard_normal((n, d))
    s0 = rng.standard_normal(n)
    hr = 1e-2
    plus = krylov_m(model, t, x, beta, big_b + hr * b0, p + hr * p0)
    minus = krylov_m(model, t, x, beta, big_b - hr * b0, p - hr * p0)
    dir2 = (plus + minus - 2.0 * m0) / hr**2
    bound_v = declared_c / beta * (np.sum(p0**2, axis=1) + s0**2)
    conditions.append(
        _condition(
            "directional-curvature", dir2 <= bound_v + 1e-8, (dir2 - bound_v).max(), 0.0
        )
    )

    # bounded first derivatives in (b_ij, p_i, beta) and mixed with x
    worst_first = np.zeros(n)
    for i in range(d):
        for j in range(d):
            h = _FD_STEP * (1.0 + np.abs(big_b[:, i, j]))
            delta = np.zeros_like(big_b)
            delta[:, i, j] = 0.5 * h
            delta[:, j, i] += 0.5 * h
            fd = (m_at(bigb=big_b + delta) - m_at(bigb=big_b - delta)) / (2.0 * h)
            worst_first = np.maximum(worst_first, np.abs(fd))
    for i in range(d):
        h = _FD_STEP * (1.0 + np.abs(p[:, i]))
        delta = np.zeros_like(p)
        delta[:, i] = h
        fd = (m_at(pp=p + delta) - m_at(pp=p - delta)) / (2.0 * h)
        worst_first = np.maximum(worst_first, np.abs(fd))
    hbeta = _FD_STEP * (1.0 + np.abs(beta))
    fd_beta = (m_at(bb=beta + hbeta) - m_at(bb=beta - hbeta)) / (2.0 * hbeta)
    worst_first = np.maximum(worst_first, np.abs(fd_beta))

    def mixed_with_x(shift_fn):
        worst = np.zeros(n)
        for k in range(d):
            hx = _FD_STEP * (1.0 + np.abs(x[:, k]))
            xp = x.copy()
            xm = x.copy()
            xp[:, k] += hx
            xm[:, k] -= hx
            worst = np.maximum(worst, np.abs((shift_fn(xp) - shift_fn(xm)) / (2.0 * hx)))
        return worst

    delta_b11 = np.zeros_like(big_b)
    delta_b11[:, 0, 0] = hbeta
    worst_mixed = mixed_with_x(
        lambda xx: (m_at(xx=xx, bigb=big_b + delta_b11) - m_at(xx=xx, bigb=big_b - delta_b11))
        / (2.0 * hbeta)
    )
    worst_mixed = np.maximum(
        worst_mixed,
        mixed_with_x(
            lambda xx: (m_at(xx=xx, bb=beta + hbeta) - m_at(xx=xx, bb=beta - hbeta))
            / (2.0 * hbeta)
        ),
    )
    worst_vi = np.maximum(worst_first, worst_mixed)
    conditions.append(
        _condition("derivative-bounds", worst_vi <= declared_c, worst_vi.max(), declared_c)
    )

    # (t, x)-growth: |M_t| + |M_xx| <= C * sqrt(beta^2 + s^2 + |p|^2 + |B|^2)
    scale = np.sqrt(
        beta**2 + s_var**2 + np.sum(p**2, axis=1) + np.sum(big_b.reshape(n, -1) ** 2, axis=1)
    )
    ht = _FD_STEP * (1.0 + np.abs(t))
    m_t = np.abs((m_at(tt=t + ht) - m_at(tt=t - ht)) / (2.0 * ht))
    worst_xx = np.zeros(n)
    for k in range(d):
        hx = _FD_STEP * (1.0 + np.abs(x[:, k]))
        xp = x.copy()
        xm = x.copy()
        xp[:, k] += hx
        xm[:, k] -= hx
        worst_xx = np.maximum(
            worst_xx, np.abs((m_at(xx=xp) + m_at(xx=xm) - 2.0 * m0) / hx**2)
        )
    growth = (m_t + worst_xx) / scale
    conditions.append(
        _condition("tx-growth", growth <= declared_c, growth.max(), declared_c)
    )

    return ClassMReport(conditions=tuple(conditions), n_samples=n)
