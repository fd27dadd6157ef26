"""Strict YAML configuration for runnable experiments.

A run document has five sections: model, grid, mc, fixed_point and output.
Unknown keys are rejected by name, every component invariant is re-validated
at load time, and every default the loader fills in is echoed through the
run log, so two identical documents always describe identical runs.

The model section covers the closed-form quadratic record and declaratively
tabulated control grids with zero/quadratic running costs; Hamiltonians that
need arbitrary callables are constructed in code, not from documents.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .control import (
    ClosedFormCoefficients,
    ControlBounds,
    HamiltonianSpec,
    ModelSpec,
    node_zeros,
)
from .couplings import DensityInit, KernelCoupling, TerminalBase, TerminalSpec
from .errors import ConfigError, StabilityError
from .grid import GridSpec
from .sde import McConfig

log = logging.getLogger("mfgdiff")


@dataclass(frozen=True)
class FixedPointConfig:
    theta: float = 0.5
    tol: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"fixed_point.theta must lie in (0, 1], got {self.theta}")
        if self.tol <= 0:
            raise ConfigError(f"fixed_point.tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"fixed_point.max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    write_fields: bool = True


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    grid: GridSpec
    mc: McConfig
    fixed_point: FixedPointConfig
    output: OutputConfig
    quadrature_order: int = 16
    debug_hooks: tuple[str, ...] = ()


def _take(section: dict, name: str, keys: set[str], required: set[str] | None = None) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - keys
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = (required or set()) - set(section)
    if missing:
        raise ConfigError(f"missing required keys in {name!r}: {sorted(missing)}")
    return section


def _echo_default(name: str, value):
    log.info("config default applied: %s = %r", name, value)
    return value


def _opt(section: dict, name: str, default):
    """The entry of `section` named by the last part of the dotted `name`, or the echoed default.

    An explicit null is rejected rather than read as a value: the default
    comes only from omitting the key.
    """
    key = name.rpartition(".")[2]
    if key not in section:
        return _echo_default(name, default)
    if section[key] is None:
        raise ConfigError(f"{name} is null; omit the key to use its default")
    return section[key]


def _parse_lagrangian(desc: dict, name: str, is_drift: bool):
    desc = _take(desc, name, {"kind", "weight", "vertex"})
    kind = _opt(desc, f"{name}.kind", "zero")
    if kind == "zero":
        return lambda t, x, control: node_zeros(t, x)
    if kind == "quadratic":
        w = float(_opt(desc, f"{name}.weight", 1.0))
        v = float(_opt(desc, f"{name}.vertex", 0.0))
        if is_drift:
            return lambda t, x, a: w * float(np.sum((np.asarray(a, dtype=float) - v) ** 2)) + node_zeros(t, x)
        return lambda t, x, e: w * (np.asarray(e, dtype=float) - v) ** 2 + node_zeros(t, x)
    raise ConfigError(f"unknown lagrangian kind {kind!r} in {name!r}")


def _parse_coupling(desc: dict, name: str) -> KernelCoupling:
    desc = _take(desc, name, {"eps", "gain"})
    eps = float(_opt(desc, f"{name}.eps", 0.1))
    return KernelCoupling(eps=eps, gain=float(_opt(desc, f"{name}.gain", 0.0)))


def _parse_model(section: dict) -> ModelSpec:
    section = _take(
        section,
        "model",
        {"bounds", "hamiltonians", "coupling_f", "terminal", "m0", "horizon", "discount"},
        required={"bounds", "hamiltonians", "horizon"},
    )
    b = _take(section["bounds"], "model.bounds", {"lambda1", "lambda2", "drift_bound"},
              required={"lambda1", "lambda2"})
    bounds = ControlBounds(
        lambda1=float(b["lambda1"]),
        lambda2=float(b["lambda2"]),
        drift_bound=float(_opt(b, "model.bounds.drift_bound", ControlBounds.drift_bound)),
    )
    h = section["hamiltonians"]
    _take(h, "model.hamiltonians",
          {"kind", "dim", "drift_ctrl_max", "l1_weight", "l3_vertex", "l3_weight",
           "control_grid_u", "control_grid_eta", "l1", "l3"},
          required={"kind"})
    dim = int(_opt(h, "model.hamiltonians.dim", HamiltonianSpec.dim))
    if h["kind"] == "closed-form":
        coeffs = {
            f.name: float(_opt(h, f"model.hamiltonians.{f.name}", f.default))
            for f in fields(ClosedFormCoefficients)
        }
        ham = HamiltonianSpec(kind="closed-form", dim=dim, closed_form=ClosedFormCoefficients(**coeffs))
    elif h["kind"] == "tabulated":
        if "control_grid_u" not in h or "control_grid_eta" not in h:
            raise ConfigError("tabulated hamiltonians need control_grid_u and control_grid_eta")
        ham = HamiltonianSpec(
            kind="tabulated",
            dim=dim,
            control_grid_u=np.atleast_2d(np.asarray(h["control_grid_u"], dtype=float)),
            control_grid_eta=np.asarray(h["control_grid_eta"], dtype=float),
            lagrangian_l1=_parse_lagrangian(h.get("l1", {}), "model.hamiltonians.l1", True),
            lagrangian_l3=_parse_lagrangian(h.get("l3", {}), "model.hamiltonians.l3", False),
        )
    else:
        raise ConfigError(f"config hamiltonian kind must be closed-form or tabulated, got {h['kind']!r}")

    term = _take(section.get("terminal", {}), "model.terminal", {"base", "coupling"})
    base_desc = _take(term.get("base", {}), "model.terminal.base", {"kind", "value", "amplitude"})
    base = TerminalBase(
        kind=_opt(base_desc, "model.terminal.base.kind", TerminalBase.kind),
        value=float(_opt(base_desc, "model.terminal.base.value", TerminalBase.value)),
        amplitude=float(_opt(base_desc, "model.terminal.base.amplitude", TerminalBase.amplitude)),
    )
    coupling_g = _parse_coupling(term.get("coupling", {}), "model.terminal.coupling")

    m0d = _take(section.get("m0", {}), "model.m0", {"kind", "center", "width"})
    center = _opt(m0d, "model.m0.center", [0.5] * dim)
    if isinstance(center, (int, float)):
        center = [center]
    m0 = DensityInit(
        kind=_opt(m0d, "model.m0.kind", DensityInit.kind),
        center=tuple(float(c) for c in center),
        width=float(_opt(m0d, "model.m0.width", DensityInit.width)),
    )
    return ModelSpec(
        bounds=bounds,
        hamiltonians=ham,
        coupling_f=_parse_coupling(section.get("coupling_f", {}), "model.coupling_f"),
        terminal=TerminalSpec(base=base, coupling=coupling_g),
        m0=m0,
        horizon=float(section["horizon"]),
        discount=float(_opt(section, "model.discount", ModelSpec.discount)),
    )


def load_config(path) -> RunConfig:
    """Parse and fully validate a run document; defaults are echoed to the log."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    doc = _take(doc, "<root>", {"model", "grid", "mc", "fixed_point", "output",
                                "quadrature_order", "debug"},
                required={"model", "grid"})

    model = _parse_model(doc["model"])

    g = _take(doc["grid"], "grid", {"dim", "box_length", "nx", "nt", "theta_lf"},
              required={"nx", "nt"})
    theta = g.get("theta_lf")
    if theta is None:
        theta = _echo_default("grid.theta_lf", model.bounds.drift_bound)
    try:
        grid = GridSpec(
            dim=int(_opt(g, "grid.dim", model.dim)),
            box_length=float(_opt(g, "grid.box_length", 1.0)),
            nx=int(g["nx"]),
            nt=int(g["nt"]),
            horizon=model.horizon,
            a_max=model.bounds.a_max,
            theta_lf=float(theta),
        )
    except StabilityError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if grid.dim != model.dim:
        raise ConfigError(f"grid.dim={grid.dim} does not match the model dimension {model.dim}")

    mc_sec = _take(doc.get("mc", {}), "mc", {"num_paths", "dt_mc", "seed", "x0", "antithetic"})
    x0 = _opt(mc_sec, "mc.x0", [0.5 * grid.box_length] * grid.dim)
    if isinstance(x0, (int, float)):
        x0 = [x0]
    mc = McConfig(
        num_paths=int(_opt(mc_sec, "mc.num_paths", 10000)),
        dt_mc=float(_opt(mc_sec, "mc.dt_mc", grid.dt)),
        seed=int(_opt(mc_sec, "mc.seed", 0)),
        x0=tuple(float(c) for c in x0),
        antithetic=bool(_opt(mc_sec, "mc.antithetic", McConfig.antithetic)),
    )

    fp_sec = _take(doc.get("fixed_point", {}), "fixed_point", {"theta", "tol", "max_iter"})
    fixed_point = FixedPointConfig(
        theta=float(_opt(fp_sec, "fixed_point.theta", FixedPointConfig.theta)),
        tol=float(_opt(fp_sec, "fixed_point.tol", FixedPointConfig.tol)),
        max_iter=int(_opt(fp_sec, "fixed_point.max_iter", FixedPointConfig.max_iter)),
    )

    out_sec = _take(doc.get("output", {}), "output", {"directory", "write_fields"})
    output = OutputConfig(
        directory=str(_opt(out_sec, "output.directory", OutputConfig.directory)),
        write_fields=bool(_opt(out_sec, "output.write_fields", OutputConfig.write_fields)),
    )

    order = int(_opt(doc, "quadrature_order", RunConfig.quadrature_order))
    if order < 2:
        raise ConfigError(f"quadrature_order must be >= 2, got {order}")

    hooks = doc.get("debug", {})
    hooks = _take(hooks, "debug", {"inject_negative_density"})
    debug = tuple(k for k, v in hooks.items() if v)

    return RunConfig(
        model=model, grid=grid, mc=mc, fixed_point=fixed_point, output=output,
        quadrature_order=order, debug_hooks=debug,
    )
