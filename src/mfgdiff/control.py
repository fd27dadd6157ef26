"""Control problem: drift/diffusion Hamiltonians, their envelopes, mollification.

The agent picks a bounded drift alpha in a compact set U of R^d and a
diffusion level through eta = sigma^2 / 2 in S' = [lambda1^2/2, lambda2^2/2].
The two Hamiltonians are infima of affine-plus-running-cost expressions,

    H1(t, x, p) = min over U  of  <p, alpha> + L1(t, x, alpha)
    H2(t, x, q) = min over S' of  eta * q    + L3(t, x, eta)

so both are concave in their last argument, H2 is nondecreasing with slope in
[lambda1^2/2, lambda2^2/2] (uniform ellipticity), and where the minimizer is
unique the envelope relation gives the derivative for free:

    H1_p = argmin alpha,     H2_q = argmin eta.

Two concrete representations are supported:

  * closed-form: quadratic running costs w1 * |alpha|^2 on the per-axis box
    [-drift_bound, drift_bound] and w3 * (eta - vertex)^2, whose argmins are
    clamped linear functions of p, q.
    The package's reference configuration ("model A": d = 1, U = [-1, 1],
    L1 = alpha^2/2, S' = [1/2, 2], L3 = (eta - 1)^2) is the default record.
  * tabulated: finite control grids with user-supplied running-cost
    callables; minimization is exhaustive over the grid, which doubles as a
    brute-force oracle for the closed forms.

A mollified variant replaces every evaluation by a discrete convolution of
the original over (t, x, last-variable) offsets inside a radius delta, using
a tensor-product quadratic bump (1 - (r/delta)^2)_+ on nine offsets per axis,
of which the seven interior ones carry weight.  Convex combinations preserve
concavity and keep the derivative inside the control interval, so the
mollified Hamiltonians satisfy the same structural bounds as the originals.

Every caller evaluates the Hamiltonians through `h1_terms` and `h2_terms`,
vectorized over nodes; there is no scalar API.  The two closed forms share
one shape, a clamped linear minimizer and a quadratic value, and one kernel
(`_clamped_quadratic`) evaluates both, with the constants of each stated
once; a tabulated spec takes one exhaustive grid minimum for both.  The
value step and its scheme residual need only the two values, on the rows
of one derivative stack [q; p_1; ...; p_d], and take them from one call
(`hamiltonian_values`): for the closed form, that kernel over the whole
stack.  No other module branches on the representation.  This one also
writes the running costs L1, L3 at an explicit control (`running_costs`; a
mollified spec has none and raises a ConfigError), and the segment means
of H2_q and H1_p along [0, q] and [0, p] (`h2_segment_mean`,
`h1_segment_mean`): exact for the closed form, whose derivatives are
clamped linear in the segment parameter, and Gauss-Legendre quadrature
otherwise.

`validate_hypotheses` audits those structural bounds on a sample cloud:
ellipticity of H2_q, boundedness of values and derivatives at zero, the
coercivity-type bound H_last * arg - H >= -C, and the (t, x)-derivative
bounds.  It runs on the audit kernel that `diagnostics.class_m_check` shares:
one condition type and one report type (`AuditCondition`, `AuditReport`:
worst value, bound, pass flag and the first failing samples), one builder
from per-sample pass flags (`audit_condition`), and one centred difference
(`central_difference`, step 1e-4 * (1 + |variable|) unless given) for every
derivative without a closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .couplings import DensityInit, KernelCoupling, TerminalBase, TerminalSpec
from .errors import ConfigError

_FD_STEP = 1e-4  # finite-difference step scale for derivative audits


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlBounds:
    """Diffusion bounds 0 < lambda1 < lambda2 and the drift bound |b| <= M.

    The one statement of the control sets: the closed-form drift box is
    [-drift_bound, drift_bound] per axis, a tabulated drift grid must lie in
    it, and the diffusion levels lie in [a_min, a_max].
    """

    lambda1: float
    lambda2: float
    drift_bound: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "drift_bound"):  # a NaN fails it too
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.lambda1 < self.lambda2):
            raise ConfigError(
                f"need 0 < lambda1 < lambda2, got ({self.lambda1}, {self.lambda2})"
            )
        if not self.drift_bound >= 0:
            raise ConfigError(f"drift bound must be nonnegative, got {self.drift_bound}")

    @property
    def a_min(self) -> float:
        return 0.5 * self.lambda1**2

    @property
    def a_max(self) -> float:
        return 0.5 * self.lambda2**2


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Coefficient record for the quadratic-cost closed forms.

    Drift controls live in [-drift_bound, drift_bound] per axis, with
    drift_bound from the model's `ControlBounds`, and running cost
    l1_weight * |alpha|^2; the diffusion running cost is
    l3_weight * (eta - l3_vertex)^2 on [lambda1^2/2, lambda2^2/2].
    The defaults are the model-A values.
    """

    l1_weight: float = 0.5
    l3_vertex: float = 1.0
    l3_weight: float = 1.0

    def __post_init__(self):
        for name in ("l1_weight", "l3_weight"):
            weight = getattr(self, name)
            if not 0 < weight < math.inf:  # a NaN fails it too
                raise ConfigError(f"{name} must be positive and finite, got {weight}")
        if not math.isfinite(self.l3_vertex):
            raise ConfigError(f"l3_vertex must be finite, got {self.l3_vertex}")


@dataclass(frozen=True)
class HamiltonianSpec:
    """One of the supported Hamiltonian representations.

    kind is 'closed-form', 'tabulated' or 'mollified'.  Tabulated control
    callables must broadcast: l1(t, x, alpha) and l3(t, x, eta) receive t as
    a scalar or array, x with shape (..., dim), a single control point
    (alpha of shape (dim,), eta scalar), and return an array matching the
    broadcast of t and x.
    """

    kind: str
    dim: int = 1
    closed_form: ClosedFormCoefficients | None = None
    control_grid_u: np.ndarray | None = None
    control_grid_eta: np.ndarray | None = None
    lagrangian_l1: Callable | None = None
    lagrangian_l3: Callable | None = None
    base: "HamiltonianSpec | None" = None
    delta: float | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"hamiltonian dim must be 1 or 2, got {self.dim}")
        if self.kind == "closed-form":
            if self.closed_form is None:
                object.__setattr__(self, "closed_form", ClosedFormCoefficients())
        elif self.kind == "tabulated":
            if self.control_grid_u is None or self.control_grid_eta is None:
                raise ConfigError("tabulated spec needs both control grids")
            gu = np.atleast_2d(np.asarray(self.control_grid_u, dtype=float))
            ge = np.asarray(self.control_grid_eta, dtype=float).ravel()
            if gu.size == 0 or ge.size == 0:
                raise ConfigError("control grids must be nonempty")
            if gu.shape[1] != self.dim:
                raise ConfigError(
                    f"drift control grid has {gu.shape[1]} components, expected {self.dim}"
                )
            if ge.size > 1 and np.any(np.diff(ge) <= 0):
                raise ConfigError("diffusion control grid must be strictly increasing")
            gu.setflags(write=False)
            ge.setflags(write=False)
            object.__setattr__(self, "control_grid_u", gu)
            object.__setattr__(self, "control_grid_eta", ge)
            if self.lagrangian_l1 is None or self.lagrangian_l3 is None:
                raise ConfigError("tabulated spec needs both running-cost callables")
        elif self.kind == "mollified":
            if self.base is None or self.delta is None:
                raise ConfigError("mollified spec needs a base spec and a radius")
            if not 0 < self.delta < math.inf:  # a NaN fails it too
                raise ConfigError(
                    f"mollification radius delta must be positive and finite, got {self.delta}"
                )
        else:
            raise ConfigError(f"unknown hamiltonian kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """The full control problem: bounds, Hamiltonians, couplings, data."""

    bounds: ControlBounds
    hamiltonians: HamiltonianSpec
    coupling_f: KernelCoupling
    terminal: TerminalSpec
    m0: DensityInit
    horizon: float
    discount: float = 0.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not math.isfinite(self.horizon):
            raise ConfigError(f"horizon must be finite, got {self.horizon}")
        if not 0 <= self.discount < math.inf:
            raise ConfigError(f"discount must be nonnegative and finite, got {self.discount}")
        ham = self.hamiltonians
        while ham.kind == "mollified":
            ham = ham.base
        if ham.kind == "tabulated":
            lo, hi = self.bounds.a_min, self.bounds.a_max
            ge = ham.control_grid_eta
            if not (np.all(ge >= lo - 1e-12) and np.all(ge <= hi + 1e-12)):  # a NaN fails it too
                raise ConfigError(
                    f"control_grid_eta must lie in [a_min, a_max] = [{lo}, {hi}], got "
                    f"range [{ge.min()}, {ge.max()}]"
                )
            # theta_lf and the time-step bound dominate the drift only up to drift_bound
            bound = self.bounds.drift_bound
            reach = np.max(np.abs(ham.control_grid_u))
            if not reach <= bound + 1e-12:
                raise ConfigError(
                    f"control_grid_u components must satisfy |alpha_k| <= drift_bound = "
                    f"{bound}, got {reach}"
                )

    @property
    def dim(self) -> int:
        return self.hamiltonians.dim


# --------------------------------------------------------------------------
# vectorized evaluation cores
# --------------------------------------------------------------------------


def _mollifier_terms(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (n, dim + 2) over (t, x_1..x_d, last-variable) and weights, in C order."""
    steps = np.arange(-3, 4) / 4.0
    w1 = 1.0 - steps**2
    n_axes = spec.dim + 2
    axes = np.meshgrid(*[steps * spec.delta] * n_axes, indexing="ij")
    offsets = np.stack([a.ravel() for a in axes], axis=1)
    weights = functools.reduce(np.multiply.outer, [w1] * n_axes).ravel()
    weights /= weights.sum()
    return offsets, weights


def _mollified_terms(base_terms: Callable, spec: HamiltonianSpec, bounds: ControlBounds, t, x, last):
    """(value, derivative) of a mollified spec.

    A convex combination of `base_terms` evaluations of the base spec,
    shifted over the (t, x, last-variable) offsets of the mollifier.
    """
    offsets, weights = _mollifier_terms(spec)
    value = 0.0
    deriv = 0.0
    for off, w in zip(offsets, weights):
        ts = np.asarray(t, dtype=float) - off[0]
        xs = np.asarray(x, dtype=float) - off[1 : 1 + spec.dim]
        v, d = base_terms(spec.base, bounds, ts, xs, last - off[-1])
        value = value + w * v
        deriv = deriv + w * d
    return value, deriv


def node_zeros(t, x) -> np.ndarray:
    """Zeros shaped like the broadcast of t against the nodes of x (shape (..., dim))."""
    return np.zeros(np.broadcast(np.asarray(t), np.asarray(x)[..., 0]).shape)


def _l1(spec: HamiltonianSpec, t, x, alpha) -> np.ndarray:
    """Drift running cost L1: per node when closed-form, at one control point when tabulated."""
    if spec.kind == "closed-form":
        return spec.closed_form.l1_weight * np.sum(alpha**2, axis=-1)
    if spec.kind == "tabulated":
        return np.asarray(spec.lagrangian_l1(t, x, alpha), dtype=float)
    raise ConfigError("running costs need a closed-form or tabulated spec, not a mollified one")


def _l3(spec: HamiltonianSpec, t, x, eta) -> np.ndarray:
    """Diffusion running cost L3, with the conventions of `_l1`."""
    if spec.kind == "closed-form":
        cf = spec.closed_form
        return cf.l3_weight * (eta - cf.l3_vertex) ** 2
    if spec.kind == "tabulated":
        return np.asarray(spec.lagrangian_l3(t, x, eta), dtype=float)
    raise ConfigError("running costs need a closed-form or tabulated spec, not a mollified one")


def _closed_form_constants(cf: ClosedFormCoefficients, bounds: ControlBounds) -> tuple:
    """The `_clamped_quadratic` constants (divisor, vertex, lo, hi, weight) of H2 and of H1.

    H1's vertex -0 changes no bit: adding it leaves s / divisor as it is, and
    subtracting it changes only the sign of a zero that is then squared.
    """
    return ((-2.0 * cf.l3_weight, cf.l3_vertex, bounds.a_min, bounds.a_max, cf.l3_weight),
            (-2.0 * cf.l1_weight, -0.0, -bounds.drift_bound, bounds.drift_bound, cf.l1_weight))


def _clamped_quadratic(s, divisor, vertex, lo, hi, weight, out=(None, None, None)):
    """(value, minimizer) of a closed form, elementwise over s, in this operation order:

        eta = clamp(vertex + s / divisor, lo, hi),  value = eta s + weight (eta - vertex)^2.

    The constants broadcast against s.  out holds the buffers (eta, value,
    cost), None for a fresh one; cost may be eta, which then ends as the cost term.
    """
    eta, value, cost = out
    eta = np.asarray(np.divide(s, divisor, out=eta))  # a 0-d s gives a 0-d eta with a buffer
    eta += vertex
    np.maximum(eta, lo, out=eta)
    np.minimum(eta, hi, out=eta)
    value = np.multiply(eta, s, out=value)
    cost = np.subtract(eta, vertex, out=cost)
    cost *= cost
    cost *= weight
    value += cost
    return value, eta


def _grid_minimum(controls: np.ndarray, objective: Callable) -> tuple:
    """(minimum, minimizing control) of objective(c) over the rows c of a control grid, per node."""
    vals = np.stack([objective(c) for c in controls])
    idx = np.argmin(vals, axis=0)
    return np.take_along_axis(vals, idx[None], axis=0)[0], controls[idx]


def _h1_terms(spec: HamiltonianSpec, bounds: ControlBounds, t, x, p):
    """(value, derivative) of H1, vectorized over nodes.

    p has shape (..., dim); value comes back with shape (...), the derivative
    with shape (..., dim).  By the envelope relation the derivative H1_p is
    the minimizing drift.
    """
    p = np.asarray(p, dtype=float)
    if spec.kind == "closed-form":
        value, alpha = _clamped_quadratic(p, *_closed_form_constants(spec.closed_form, bounds)[1])
        # a sum over one component is that component (a sum turns -0 into +0, but the
        # value is never -0: its cost term is at least +0)
        return (value[..., 0] if spec.dim == 1 else value.sum(axis=-1)), alpha
    if spec.kind == "tabulated":
        return _grid_minimum(spec.control_grid_u, lambda a: np.sum(p * a, axis=-1) + _l1(spec, t, x, a))
    return _mollified_terms(_h1_terms, spec, bounds, t, x, p)


def _h2_terms(spec: HamiltonianSpec, bounds: ControlBounds, t, x, q):
    """(value, derivative) of H2, vectorized over nodes; q shape (...); H2_q is the minimizing eta."""
    q = np.asarray(q, dtype=float)
    if spec.kind == "closed-form":
        return _clamped_quadratic(q, *_closed_form_constants(spec.closed_form, bounds)[0])
    if spec.kind == "tabulated":
        return _grid_minimum(spec.control_grid_eta, lambda e: e * q + _l3(spec, t, x, e))
    return _mollified_terms(_h2_terms, spec, bounds, t, x, q)


def h1_terms(model: ModelSpec, t, x, p):
    return _h1_terms(model.hamiltonians, model.bounds, t, x, p)


def h2_terms(model: ModelSpec, t, x, q):
    return _h2_terms(model.hamiltonians, model.bounds, t, x, q)


def h1_value(model: ModelSpec, t, x, p) -> np.ndarray:
    return h1_terms(model, t, x, p)[0]


def h2_value(model: ModelSpec, t, x, q) -> np.ndarray:
    return h2_terms(model, t, x, q)[0]


def hamiltonian_values(model: ModelSpec, t, x, stack: np.ndarray, work: dict | None = None) -> tuple:
    """(H2(t, x, stack[0]), H1(t, x, stack[1:])) of a derivative stack (`grid.derivative_stack`).

    stack has shape (1 + d,) + nodes: row 0 holds H2's last variable q and
    rows 1..d the components of H1's p.  For a closed-form model both are
    one `_clamped_quadratic` over the whole stack, the kernel `h2_terms` and
    `h1_terms` run, with H2's constants on row 0 and H1's on the drift rows;
    the cost term overwrites the minimizer, and the drift rows are summed as
    `_h1_terms` sums them.  Other specs take `_h2_terms` and `_h1_terms`.

    work is the march's dict of buffers: the first call fills it with the
    constants at full shape and two scratch stacks, and each call overwrites
    the values the previous one returned.  Without it the constants
    broadcast per row and the two stacks are fresh.
    """
    spec = model.hamiltonians
    if spec.kind != "closed-form":
        return (_h2_terms(spec, model.bounds, t, x, stack[0])[0],
                _h1_terms(spec, model.bounds, t, x, np.moveaxis(stack[1:], 0, -1))[0])
    if work is not None and "closed_form" in work:
        args, value, h2, h1 = work["closed_form"]
    else:
        shape = stack.shape if work is not None else (len(stack),) + (1,) * (stack.ndim - 1)
        constants = np.empty((5,) + shape)
        for row, h2_const, h1_const in zip(constants, *_closed_form_constants(spec.closed_form, model.bounds)):
            row[0] = h2_const
            row[1:] = h1_const
        eta, value = np.empty(stack.shape), np.empty(stack.shape)
        args, h2, h1 = (*constants, (eta, value, eta)), value[0], value[1]
        if work is not None:
            work["closed_form"] = args, value, h2, h1
    _clamped_quadratic(stack, *args)
    if len(stack) == 3:
        np.add(h1, value[2], out=h1)
    return h2, h1


def running_costs(model: ModelSpec, t, x, alpha, eta) -> tuple[np.ndarray, np.ndarray]:
    """(L1, L3) for one control pair (alpha of shape (dim,), eta scalar), shaped like the nodes."""
    spec = model.hamiltonians
    alpha = np.asarray(alpha, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeros = node_zeros(t, x)
    return _l1(spec, t, x, alpha) + zeros, _l3(spec, t, x, eta) + zeros


# --------------------------------------------------------------------------
# segment means of the envelope derivatives
# --------------------------------------------------------------------------


def _clamp_antiderivative(r: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Antiderivative A(r) of clamp(., lo, hi) with A(lo) = lo^2 (branch glue)."""
    below = lo * r
    middle = lo * lo + 0.5 * (r * r - lo * lo)
    above = lo * lo + 0.5 * (hi * hi - lo * lo) + hi * (r - hi)
    return np.where(r <= lo, below, np.where(r <= hi, middle, above))


def _mean_clamped_linear(a, b, lo: float, hi: float) -> np.ndarray:
    """Exact mean over s in [0,1] of clamp(a - b s, lo, hi), vectorized.

    Where the segment [a - b, a] lies in one branch of the clamp, the mean is
    that branch's own: lo, a - b/2 or hi, exact to round-off for any b.  Only
    a segment that crosses a kink takes (A(a) - A(a - b)) / b.  That form
    cancels as b shrinks, but a crossing segment is at least as long as the
    distance from a to the kink, so it loses digits only for an a within
    round-off of a kink.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    low, high = np.minimum(a, a - b), np.maximum(a, a - b)
    mean = np.where(high <= lo, lo, np.where(low >= hi, hi, a - 0.5 * b))
    crosses = ((low < lo) & (lo < high)) | ((low < hi) & (hi < high))
    b_crossing = np.where(crosses, b, 1.0)
    kinked = (
        _clamp_antiderivative(a, lo, hi) - _clamp_antiderivative(a - b_crossing, lo, hi)
    ) / b_crossing
    return np.where(crosses, kinked, mean)


def _quadrature_mean(terms: Callable, model: ModelSpec, t, x, end, order: int) -> np.ndarray:
    """Gauss-Legendre mean over s in [0, 1] of the derivative of `terms` at s * end."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return sum(
        w * terms(model, t, x, s * end)[1] for s, w in zip(0.5 * (nodes + 1.0), 0.5 * weights)
    )


def h1_segment_mean(model: ModelSpec, t, x, p, order: int = 16) -> np.ndarray:
    """Mean of H1_p along the segment [0, p]; p and the result have shape (..., dim)."""
    spec = model.hamiltonians
    if spec.kind == "closed-form":
        divisor, _, lo, hi, _ = _closed_form_constants(spec.closed_form, model.bounds)[1]
        # the vertex is +0, not H1's -0: a -0 would flip the sign of a zero mean at p = 0
        return _mean_clamped_linear(0.0, np.asarray(p, dtype=float) / -divisor, lo, hi)
    return _quadrature_mean(h1_terms, model, t, x, p, order)


def h2_segment_mean(model: ModelSpec, t, x, q, order: int = 16) -> np.ndarray:
    """Mean of H2_q along the segment [0, q]."""
    spec = model.hamiltonians
    if spec.kind == "closed-form":
        divisor, vertex, lo, hi, _ = _closed_form_constants(spec.closed_form, model.bounds)[0]
        return _mean_clamped_linear(vertex, np.asarray(q, dtype=float) / -divisor, lo, hi)
    return _quadrature_mean(h2_terms, model, t, x, q, order)


# --------------------------------------------------------------------------
# spec transforms and reference models
# --------------------------------------------------------------------------


def mollify_hamiltonian(spec: HamiltonianSpec, delta: float) -> HamiltonianSpec:
    """Smooth a Hamiltonian spec by discrete convolution of radius delta.

    The derivative that `h1_terms` and `h2_terms` return for a mollified spec
    is the averaged derivative: after smoothing there is no single minimizing
    control, but the average stays in the convex control set, so the
    ellipticity and drift bounds survive.
    """
    return HamiltonianSpec(kind="mollified", dim=spec.dim, base=spec, delta=delta)


def mollify_model(model: ModelSpec, delta: float) -> ModelSpec:
    return replace(model, hamiltonians=mollify_hamiltonian(model.hamiltonians, delta))


def l3_from_l2(l2: Callable) -> Callable:
    """Diffusion running cost in the eta variable from one in sigma.

    eta = sigma^2 / 2, so the cost reads l2(t, x, sqrt(2 * eta)); convexity
    plus monotone decrease of l2 in sigma makes the result convex in eta.
    """

    def l3(t, x, eta):
        return l2(t, x, np.sqrt(2.0 * np.asarray(eta, dtype=float)))

    return l3


def model_a(
    coupling_gain_f: float = 0.5,
    coupling_gain_g: float = 0.1,
    kernel_eps: float = 0.1,
    horizon: float = 0.25,
    terminal_base: TerminalBase | None = None,
    m0: DensityInit | None = None,
    dim: int = 1,
    discount: float = 0.0,
) -> ModelSpec:
    """Reference closed-form configuration used throughout the test suite.

    Drift controls in [-1, 1]^d with cost |alpha|^2 / 2, diffusion levels in
    [1/2, 2] (lambda1 = 1, lambda2 = 2) with cost (eta - 1)^2, couplings by a
    positive-definite wrapped-Gaussian kernel.  Every hypothesis audited by
    `validate_hypotheses` holds with hand-checkable constants.
    """
    bounds = ControlBounds(lambda1=1.0, lambda2=2.0, drift_bound=1.0)
    ham = HamiltonianSpec(kind="closed-form", dim=dim, closed_form=ClosedFormCoefficients())
    base = terminal_base if terminal_base is not None else TerminalBase(kind="cosine", amplitude=1.0)
    init = m0 if m0 is not None else DensityInit(kind="gaussian", center=(0.5,) * dim, width=0.12)
    return ModelSpec(
        bounds=bounds,
        hamiltonians=ham,
        coupling_f=KernelCoupling(eps=kernel_eps, gain=coupling_gain_f),
        terminal=TerminalSpec(base=base, coupling=KernelCoupling(eps=kernel_eps, gain=coupling_gain_g)),
        m0=init,
        horizon=horizon,
        discount=discount,
    )


def single_control_model(
    nu: float = 1.0,
    horizon: float = 0.05,
    terminal_base: TerminalBase | None = None,
    m0: DensityInit | None = None,
    dim: int = 1,
) -> ModelSpec:
    """Degenerate model with a single diffusion level nu and zero drift.

    Both control grids are singletons with zero running cost, so
    H2(q) = nu * q and H1(p) = 0: the value function solves the backward
    heat equation, which is the package's main analytic oracle.
    """
    lam1 = min(1.0, np.sqrt(2.0 * nu) * 0.999)
    lam2 = max(2.0, np.sqrt(2.0 * nu) * 1.001)
    bounds = ControlBounds(lambda1=lam1, lambda2=lam2, drift_bound=0.0)
    ham = HamiltonianSpec(
        kind="tabulated",
        dim=dim,
        control_grid_u=np.zeros((1, dim)),
        control_grid_eta=np.array([nu]),
        lagrangian_l1=lambda t, x, a: node_zeros(t, x),
        lagrangian_l3=lambda t, x, e: node_zeros(t, x),
    )
    base = terminal_base if terminal_base is not None else TerminalBase(kind="cosine", amplitude=1.0)
    init = m0 if m0 is not None else DensityInit(kind="gaussian", center=(0.5,) * dim, width=0.1)
    return ModelSpec(
        bounds=bounds,
        hamiltonians=ham,
        coupling_f=KernelCoupling(eps=0.1, gain=0.0),
        terminal=TerminalSpec(base=base, coupling=KernelCoupling(eps=0.1, gain=0.0)),
        m0=init,
        horizon=horizon,
    )


# --------------------------------------------------------------------------
# audit kernel: one condition type, one report type, one centred difference
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCondition:
    """One audited condition: its worst value over the samples against a bound."""

    name: str
    worst: float
    bound: float
    passed: bool
    failing_samples: tuple[int, ...] = ()


@dataclass(frozen=True)
class AuditReport:
    """The conditions of one audit; n_nonfinite counts the samples it skipped."""

    conditions: tuple[AuditCondition, ...]
    n_samples: int
    n_nonfinite: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def by_name(self, name: str) -> AuditCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        parts = [
            f"{c.name}: {c.worst:.4g} vs {c.bound:.4g} {'ok' if c.passed else 'FAIL'}"
            for c in self.conditions
        ]
        tail = f"; {self.n_nonfinite} non-finite samples skipped" if self.n_nonfinite else ""
        return "; ".join(parts) + tail


def audit_condition(name: str, per_sample_ok, worst, bound) -> AuditCondition:
    """A condition from its per-sample pass flags, keeping the first 20 failing indices."""
    failing = tuple(int(i) for i in np.flatnonzero(~per_sample_ok)[:20])
    return AuditCondition(
        name=name, worst=float(worst), bound=float(bound),
        passed=bool(np.all(per_sample_ok)), failing_samples=failing,
    )


def central_difference(fn: Callable, v: np.ndarray, index, second: bool = False, h=None) -> np.ndarray:
    """Centred difference of fn in the entries v[index] of the sample batch v.

    The step is 1e-4 * (1 + |v[index]|) unless h is given.  Returns the first
    difference (fn(v + h) - fn(v - h)) / (2 h), or with second=True the second
    difference (fn(v + h) + fn(v - h) - 2 fn(v)) / (h * h).
    """
    if h is None:
        h = _FD_STEP * (1.0 + np.abs(v[index]))
    vp = v.copy()
    vm = v.copy()
    vp[index] += h
    vm[index] -= h
    if second:
        return (fn(vp) + fn(vm) - 2.0 * fn(v)) / (h * h)
    return (fn(vp) - fn(vm)) / (2.0 * h)


# --------------------------------------------------------------------------
# structural-hypothesis audit
# --------------------------------------------------------------------------


def validate_hypotheses(model: ModelSpec, samples, declared_c: float = 10.0) -> AuditReport:
    """Audit the structural bounds on a list of (t, x, p, q) samples.

    Reported constants per named condition (worst case over finite samples):

        ellipticity      min H2_q                      (must reach a_min)
        value-at-zero    max |H1(.,.,0)| + |H2(.,.,0)|
        gradient-bound   max |H1_p|_inf + |H2_q|
        mixed-qx         max |d/dx H2_q|
        coercivity       max of -(H_last * arg - H) over both Hamiltonians
        mixed-envelope   max |d/dx (H_last * arg - H)|
        curvature-tx-h1  max (|H1_xx| + |H1_t|) / (1 + |p|)
        curvature-tx-h2  max (|H2_xx| + |H2_t|) / (1 + |q|)
        x-gradient       max (|H1_x| + |H2_x|) / (1 + |p|)

    Derivatives in t and x are `central_difference`s; the last-variable
    derivatives come from the envelope relation.  Non-finite samples are
    counted and skipped; failing sample indices refer to the list passed in.
    """
    rows = [
        (
            float(t),
            np.atleast_1d(np.asarray(x, dtype=float)),
            np.atleast_1d(np.asarray(p, dtype=float)),
            float(q),
        )
        for (t, x, p, q) in samples
    ]
    if not rows:
        raise ConfigError("hypothesis audit needs a nonempty sample list")
    t, x, p, q = (np.array(column) for column in zip(*rows))
    finite = np.isfinite(t) & np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=1) & np.isfinite(q)
    keep = np.flatnonzero(finite)
    if keep.size == 0:
        raise ConfigError("hypothesis audit received only non-finite samples")
    t, x, p, q = t[keep], x[keep], p[keep], q[keep]
    d = model.dim
    if x.shape[1] != d or p.shape[1] != d:
        raise ConfigError(f"samples must carry {d}-component x and p")

    h1v, h1p = h1_terms(model, t, x, p)
    h2v, h2q = h2_terms(model, t, x, q)
    h1v0 = h1_value(model, t, x, np.zeros_like(p))
    h2v0 = h2_value(model, t, x, np.zeros_like(q))

    def dx_max(fn, second=False):
        """Per-sample max over the axes of |x-difference of fn|."""
        diffs = [np.abs(central_difference(fn, x, (..., k), second)) for k in range(d)]
        return np.max(np.stack(diffs), axis=0)

    h1_at = lambda xx: h1_value(model, t, xx, p)
    h2_at = lambda xx: h2_value(model, t, xx, q)
    h2q_at = lambda xx: h2_terms(model, t, xx, q)[1]
    g1_at = lambda xx: np.sum(h1_terms(model, t, xx, p)[1] * p, axis=-1) - h1_value(model, t, xx, p)
    g2_at = lambda xx: h2_terms(model, t, xx, q)[1] * q - h2_value(model, t, xx, q)
    h1_t = np.abs(central_difference(lambda tt: h1_value(model, tt, x, p), t, ...))
    h2_t = np.abs(central_difference(lambda tt: h2_value(model, tt, x, q), t, ...))

    p_inf = np.max(np.abs(p), axis=1)
    coerc1 = -(np.sum(h1p * p, axis=-1) - h1v)
    coerc2 = -(h2q * q - h2v)
    per_sample = {
        "value-at-zero": np.abs(h1v0) + np.abs(h2v0),
        "gradient-bound": np.max(np.abs(h1p), axis=1) + np.abs(h2q),
        "mixed-qx": dx_max(h2q_at),
        "coercivity": np.maximum(np.maximum(coerc1, coerc2), 0.0),
        "mixed-envelope": np.maximum(dx_max(g1_at), dx_max(g2_at)),
        "curvature-tx-h1": (dx_max(h1_at, second=True) + h1_t) / (1.0 + p_inf),
        "curvature-tx-h2": (dx_max(h2_at, second=True) + h2_t) / (1.0 + np.abs(q)),
        "x-gradient": (dx_max(h1_at) + dx_max(h2_at)) / (1.0 + p_inf),
    }

    flags = np.ones(len(rows), dtype=bool)  # skipped non-finite samples do not fail

    def condition(name, ok, worst, bound):
        flags[keep] = ok
        return audit_condition(name, flags, worst, bound)

    nu = model.bounds.a_min
    conditions = [condition("ellipticity", h2q >= nu * (1.0 - 1e-6), np.min(h2q), nu)]
    for name, v in per_sample.items():
        # Python's max keeps the sign of a zero maximum, which the table writes as -0
        worst = max(np.max(coerc1), np.max(coerc2), 0.0) if name == "coercivity" else np.max(v)
        conditions.append(condition(name, v <= declared_c, worst, declared_c))
    return AuditReport(conditions=tuple(conditions), n_samples=len(rows), n_nonfinite=len(rows) - keep.size)
