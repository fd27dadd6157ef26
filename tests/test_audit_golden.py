"""Recorded bits of the structural-hypothesis audit and the class audit.

Every worst value and bound is pinned by `float.hex`, with every pass flag
and the class audit's failing sample indices, on models whose running costs
depend on (t, x) as well as on the x-independent references, at a loose and
a tight declared constant.  Conditions are read by position (name, worst,
bound, passed, failing samples), the order in which both tables are written.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from mfgdiff import HamiltonianSpec, model_a, mollify_model, single_control_model, validate_hypotheses
from mfgdiff.diagnostics import KrylovSample, class_m_check


def _tabulated(dim):
    """Model A's bounds with tabulated costs that depend on t and x."""

    def l1(t, x, a):
        return (0.5 + 0.25 * np.cos(2 * np.pi * x[..., 0])) * np.sum(a**2) + 0.3 * t * np.sum(a)

    def l3(t, x, e):
        return (1.0 + 0.5 * np.sin(2 * np.pi * np.sum(x, axis=-1)) + t) * (e - 1.0) ** 2

    axis = np.linspace(-1.0, 1.0, 5)
    grid_u = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    spec = HamiltonianSpec(
        kind="tabulated", dim=dim, control_grid_u=grid_u,
        control_grid_eta=np.linspace(0.5, 2.0, 7), lagrangian_l1=l1, lagrangian_l3=l3,
    )
    return replace(model_a(dim=dim), hamiltonians=spec)


# model builder and sample count (the mollified spec costs 343 base calls per evaluation)
_MODELS = {
    "model_a_1d": (lambda: model_a(), 40),
    "model_a_2d": (lambda: model_a(dim=2), 40),
    "single_control": (lambda: single_control_model(nu=1.0), 40),
    "tabulated_1d": (lambda: _tabulated(1), 40),
    "tabulated_2d": (lambda: _tabulated(2), 40),
    "mollified_a_1d": (lambda: mollify_model(model_a(), 0.05), 4),
}


def _samples(model, n):
    rng = np.random.default_rng(7)
    d = model.dim
    hyp = [
        (rng.uniform(0, 0.25), rng.uniform(0, 1, size=d), rng.uniform(-8, 8, size=d), rng.uniform(-10, 10))
        for _ in range(n)
    ]
    cls = []
    for _ in range(n):
        b = rng.standard_normal((d, d))
        cls.append(
            KrylovSample(
                t=rng.uniform(0, 0.25), x=rng.uniform(0, 1, size=d), beta=rng.uniform(0.2, 5.0),
                big_b=2.0 * (b + b.T), p_under=rng.uniform(-4, 4, size=d), s=rng.uniform(-2, 2),
            )
        )
    return hyp, cls


def _rows(report):
    return dataclasses.astuple(report)[0]


_RECORDED = {
    ('model_a_1d', 10.0): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '0x1.0000000000000p+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x0.0p+0', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.f1cd1478eee96p-49', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffffed23p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-50', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.2c1c335ef6c43p-3', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000000e88p+1', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x0.0p+0', '0x1.4000000000000p+3', True, ()),
        ),
    ),
    ('model_a_1d', 0.001): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '0x1.0000000000000p+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-envelope', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('x-gradient', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
        ),
        (
            ('homogeneity', '0x1.f1cd1478eee96p-49', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffffed23p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-50', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.ebb352eff76cdp-17', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000000e88p+1', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
            ('tx-growth', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True, ()),
        ),
    ),
    ('model_a_2d', 10.0): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '0x1.0000000000000p+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x0.0p+0', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.0aed8de8bfdf8p-49', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffff2928p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.3d62dd73761c8p-3', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000003128p+1', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x0.0p+0', '0x1.4000000000000p+3', True, ()),
        ),
    ),
    ('model_a_2d', 0.001): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '0x1.0000000000000p+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-envelope', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('x-gradient', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
        ),
        (
            ('homogeneity', '0x1.0aed8de8bfdf8p-49', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffff2928p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.9bc0c50de8f5fp-12', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000003128p+1', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
            ('tx-growth', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True, ()),
        ),
    ),
    ('single_control', 10.0): (
        (
            ('ellipticity', '0x1.0000000000000p+0', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.0000000000000p+0', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '-0x0.0p+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x0.0p+0', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.50d04adb8de24p-53', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffffd3cfp-1', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-51', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.2c1c335ef6c43p-3', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000000e88p+0', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x0.0p+0', '0x1.4000000000000p+3', True, ()),
        ),
    ),
    ('single_control', 0.001): (
        (
            ('ellipticity', '0x1.0000000000000p+0', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.0000000000000p+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '-0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('mixed-envelope', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('x-gradient', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
        ),
        (
            ('homogeneity', '0x1.50d04adb8de24p-53', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffffd3cfp-1', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-51', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.ebb352eff76cdp-17', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000000e88p+0', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
            ('tx-growth', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True, ()),
        ),
    ),
    ('tabulated_1d', 10.0): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '0x1.badbeaa3dd120p+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x1.92035de79f44ap+1', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x1.e3f4f3407ac4fp+2', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x1.2cdf21687ff5fp+2', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x1.7d75d2b6f9054p+1', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.1ec7445c5608fp-48', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.ffffffffff029p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-49', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.2c1c335f1dd43p-3', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.c14e5f73a4257p+1', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x1.11a9d028f96c1p+3', '0x1.4000000000000p+3', True, ()),
        ),
    ),
    ('tabulated_1d', 0.001): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '0x1.badbeaa3dd120p+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-envelope', '0x1.92035de79f44ap+1', '0x1.0624dd2f1a9fcp-10', False),
            ('curvature-tx-h1', '0x1.e3f4f3407ac4fp+2', '0x1.0624dd2f1a9fcp-10', False),
            ('curvature-tx-h2', '0x1.2cdf21687ff5fp+2', '0x1.0624dd2f1a9fcp-10', False),
            ('x-gradient', '0x1.7d75d2b6f9054p+1', '0x1.0624dd2f1a9fcp-10', False),
        ),
        (
            ('homogeneity', '0x1.1ec7445c5608fp-48', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.ffffffffff029p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-49', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.ebb35cb3f76cdp-17', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.c14e5f73a4257p+1', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
            ('tx-growth', '0x1.11a9d028f96c1p+3', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
        ),
    ),
    ('tabulated_2d', 10.0): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '0x1.b4cebcbcf4618p+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x1.921326160f0f7p+1', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x1.b7110269ed2dfp+2', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x1.14f7d548ea37dp+2', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x1.2134b8201981cp+0', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.65a4bda2376f5p-48', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffff2928p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.26d22ad26c1c8p-3', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.013f13e17d85cp+2', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x1.8ddc1e475adacp+3', '0x1.4000000000000p+3', False, (29,)),
        ),
    ),
    ('tabulated_2d', 0.001): (
        (
            ('ellipticity', '0x1.0000000000000p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.8000000000000p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '0x1.b4cebcbcf4618p+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-envelope', '0x1.921326160f0f7p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('curvature-tx-h1', '0x1.b7110269ed2dfp+2', '0x1.0624dd2f1a9fcp-10', False),
            ('curvature-tx-h2', '0x1.14f7d548ea37dp+2', '0x1.0624dd2f1a9fcp-10', False),
            ('x-gradient', '0x1.2134b8201981cp+0', '0x1.0624dd2f1a9fcp-10', False),
        ),
        (
            ('homogeneity', '0x1.65a4bda2376f5p-48', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.fffffffff2928p-2', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.e308e02b4a51fp-17', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.013f13e17d85cp+2', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
            ('tx-growth', '0x1.8ddc1e475adacp+3', '0x1.0624dd2f1a9fcp-10', False, tuple(range(20))),
        ),
    ),
    ('mollified_a_1d', 10.0): (
        (
            ('ellipticity', '0x1.0000000000003p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x1.70a3d70a3d70cp-12', '0x1.4000000000000p+3', True),
            ('gradient-bound', '0x1.8000000000004p+1', '0x1.4000000000000p+3', True),
            ('mixed-qx', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('coercivity', '0x1.000000000000cp+0', '0x1.4000000000000p+3', True),
            ('mixed-envelope', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.4000000000000p+3', True),
            ('x-gradient', '0x0.0p+0', '0x1.4000000000000p+3', True),
        ),
        (
            ('homogeneity', '0x1.e01bf2d285e08p-53', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.11e3d17fff22ep+0', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '-0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.b30407be598acp+2', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000003e39p+1', '0x1.4000000000000p+3', True, ()),
            ('tx-growth', '0x0.0p+0', '0x1.4000000000000p+3', True, ()),
        ),
    ),
    ('mollified_a_1d', 0.001): (
        (
            ('ellipticity', '0x1.0000000000003p-1', '0x1.0000000000000p-1', True),
            ('value-at-zero', '0x1.70a3d70a3d70cp-12', '0x1.0624dd2f1a9fcp-10', True),
            ('gradient-bound', '0x1.8000000000004p+1', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-qx', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('coercivity', '0x1.000000000000cp+0', '0x1.0624dd2f1a9fcp-10', False),
            ('mixed-envelope', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('curvature-tx-h2', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
            ('x-gradient', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True),
        ),
        (
            ('homogeneity', '0x1.e01bf2d285e08p-53', '0x1.b7cdfd9d7bdbbp-34', True, ()),
            ('ellipticity', '0x1.11e3d17fff22ep+0', '0x1.0000000000000p-1', True, ()),
            ('concavity-in-B', '-0x1.0000000000000p-47', '0x1.5798ee2308c3ap-27', True, ()),
            ('directional-curvature', '-0x1.4389937221ce5p-9', '0x0.0p+0', True, ()),
            ('derivative-bounds', '0x1.0000000003e39p+1', '0x1.0624dd2f1a9fcp-10', False, tuple(range(4))),
            ('tx-growth', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', True, ()),
        ),
    ),
}


@pytest.mark.parametrize("case, declared_c", list(_RECORDED))
def test_audits_match_recorded_bits(case, declared_c):
    build, n = _MODELS[case]
    model = build()
    hyp, cls = _samples(model, n)
    got_hyp = tuple(
        (name, float.hex(worst), float.hex(bound), passed)
        for name, worst, bound, passed, *_ in _rows(validate_hypotheses(model, hyp, declared_c=declared_c))
    )
    got_cls = tuple(
        (name, float.hex(worst), float.hex(bound), passed, tuple(failing))
        for name, worst, bound, passed, failing in _rows(class_m_check(model, cls, declared_c=declared_c))
    )
    assert (got_hyp, got_cls) == _RECORDED[(case, declared_c)]
