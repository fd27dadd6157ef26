"""Strict YAML configuration for runnable experiments.

A run document has five sections: model, grid, mc, fixed_point and output.
Unknown keys are rejected by name, a key that one mapping repeats by name and
line (a plain YAML load keeps the last), and, by its dotted key, any number
that is not finite (YAML .nan or .inf, or a quoted "nan" on a real-valued
key), an integer key that is not a YAML integer, or a flag that is not a
YAML boolean; every component invariant is re-validated at load time, and
every default the loader fills in is echoed through the run log, so two
identical documents always describe identical runs.

The model section covers the closed-form quadratic record and declaratively
tabulated control grids with zero/quadratic running costs; Hamiltonians that
need arbitrary callables are constructed in code, not from documents.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import partial
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
        if not self.tol > 0:  # a NaN fails it too
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
    debug_hooks: tuple[str, ...] = ()


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a key that one mapping repeats (`yaml.safe_load` keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # a << merge may be overridden
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # unhashable: the base constructor names it
                continue
            if repeated:
                raise ConfigError(f"key {key!r} is repeated at line {key_node.start_mark.line + 1}")
            seen.add(key)
        return super().construct_mapping(node, deep)


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


def _reject_nonfinite(node, name: str) -> None:
    """Raise ConfigError naming the dotted key of a float in `node` that is not finite.

    A NaN passes comparisons such as `tol <= 0` unnoticed and an infinity
    overflows far from the document, so both are refused before any field
    work.  List entries are named by index, e.g. mc.x0[0].
    """
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_nonfinite(value, f"{name}.{key}" if name else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_nonfinite(value, f"{name}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{name} is {node}; every number must be finite")


def _real(value, name: str):
    """`value` as a finite float, or a list of them for a list, else a ConfigError naming the key.

    Every real-valued key is coerced here.  YAML reads a quoted number such as
    "1e-3" or "nan" as a string, which float() accepts, so the finiteness
    check follows the coercion; `_reject_nonfinite` cannot make it on the
    document, where a string key such as output.directory may read "nan".
    List entries are named by index, e.g. mc.x0[0].
    """
    if isinstance(value, list):
        return [_real(entry, f"{name}[{i}]") for i, entry in enumerate(value)]
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} is {value!r}; every number must be finite")
    return number


def _point(value, name: str, dim: int) -> tuple[float, ...]:
    """A list of `dim` finite floats as a tuple; a single number is a point in 1D."""
    point = tuple(_real(value if isinstance(value, list) else [value], name))
    if len(point) != dim:
        raise ConfigError(f"{name} has {len(point)} coordinates; the model's dimension is {dim}")
    return point


def _integer(value, name: str) -> int:
    """`value` if it is a YAML integer, else a ConfigError naming the key (int() reads 8.7 as 8)."""
    if type(value) is not int:  # also refuses a bool, which isinstance counts as an int
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _boolean(value, name: str) -> bool:
    """`value` if it is a YAML boolean, else a ConfigError naming the key (bool("false") is True)."""
    if type(value) is not bool:
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _echo_default(name: str, value):
    log.info("config default applied: %s = %r", name, value)
    return value


def _opt(section: dict, name: str, default, kind=None):
    """The entry of `section` named by the last part of the dotted `name`, or the echoed default.

    An explicit null is rejected rather than read as a value: the default
    comes only from omitting the key.  `kind`, when given, coerces the value.
    """
    key = name.rpartition(".")[2]
    if key in section and section[key] is None:
        raise ConfigError(f"{name} is null; omit the key to use its default")
    value = section[key] if key in section else _echo_default(name, default)
    return value if kind is None else kind(value, name)


def _parse_lagrangian(desc: dict, name: str, is_drift: bool):
    desc = _take(desc, name, {"kind", "weight", "vertex"})
    kind = _opt(desc, f"{name}.kind", "zero")
    if kind == "zero":
        return lambda t, x, control: node_zeros(t, x)
    if kind == "quadratic":
        w = _opt(desc, f"{name}.weight", 1.0, _real)
        v = _opt(desc, f"{name}.vertex", 0.0, _real)
        if is_drift:
            return lambda t, x, a: w * float(np.sum((np.asarray(a, dtype=float) - v) ** 2)) + node_zeros(t, x)
        return lambda t, x, e: w * (np.asarray(e, dtype=float) - v) ** 2 + node_zeros(t, x)
    raise ConfigError(f"unknown lagrangian kind {kind!r} in {name!r}")


def _parse_coupling(desc: dict, name: str) -> KernelCoupling:
    desc = _take(desc, name, {"eps", "gain"})
    return KernelCoupling(
        eps=_opt(desc, f"{name}.eps", 0.1, _real),
        gain=_opt(desc, f"{name}.gain", 0.0, _real),
    )


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
        lambda1=_real(b["lambda1"], "model.bounds.lambda1"),
        lambda2=_real(b["lambda2"], "model.bounds.lambda2"),
        drift_bound=_opt(b, "model.bounds.drift_bound", ControlBounds.drift_bound, _real),
    )
    h = section["hamiltonians"]
    own_keys = {
        "closed-form": {f.name for f in fields(ClosedFormCoefficients)},
        "tabulated": {"control_grid_u", "control_grid_eta", "l1", "l3"},
    }
    _take(h, "model.hamiltonians", {"kind", "dim"}.union(*own_keys.values()), required={"kind"})
    if h["kind"] not in ("closed-form", "tabulated"):  # a tuple: a YAML list kind is unhashable
        raise ConfigError(f"config hamiltonian kind must be closed-form or tabulated, got {h['kind']!r}")
    # the keys of the other kind are refused, not dropped
    _take(h, f"model.hamiltonians of kind {h['kind']}", {"kind", "dim"} | own_keys[h["kind"]])
    dim = _opt(h, "model.hamiltonians.dim", HamiltonianSpec.dim, _integer)
    if h["kind"] == "closed-form":
        coeffs = {
            f.name: _opt(h, f"model.hamiltonians.{f.name}", f.default, _real)
            for f in fields(ClosedFormCoefficients)
        }
        ham = HamiltonianSpec(kind="closed-form", dim=dim, closed_form=ClosedFormCoefficients(**coeffs))
    else:
        if "control_grid_u" not in h or "control_grid_eta" not in h:
            raise ConfigError("tabulated hamiltonians need control_grid_u and control_grid_eta")
        ham = HamiltonianSpec(
            kind="tabulated",
            dim=dim,
            control_grid_u=np.atleast_2d(
                _real(h["control_grid_u"], "model.hamiltonians.control_grid_u")
            ),
            control_grid_eta=np.asarray(
                _real(h["control_grid_eta"], "model.hamiltonians.control_grid_eta")
            ),
            lagrangian_l1=_parse_lagrangian(h.get("l1", {}), "model.hamiltonians.l1", True),
            lagrangian_l3=_parse_lagrangian(h.get("l3", {}), "model.hamiltonians.l3", False),
        )

    term = _take(section.get("terminal", {}), "model.terminal", {"base", "coupling"})
    base_desc = _take(term.get("base", {}), "model.terminal.base", {"kind", "value", "amplitude"})
    base = TerminalBase(
        kind=_opt(base_desc, "model.terminal.base.kind", TerminalBase.kind),
        value=_opt(base_desc, "model.terminal.base.value", TerminalBase.value, _real),
        amplitude=_opt(base_desc, "model.terminal.base.amplitude", TerminalBase.amplitude, _real),
    )
    coupling_g = _parse_coupling(term.get("coupling", {}), "model.terminal.coupling")

    m0d = _take(section.get("m0", {}), "model.m0", {"kind", "center", "width"})
    m0 = DensityInit(
        kind=_opt(m0d, "model.m0.kind", DensityInit.kind),
        center=_opt(m0d, "model.m0.center", [0.5] * dim, partial(_point, dim=dim)),
        width=_opt(m0d, "model.m0.width", DensityInit.width, _real),
    )
    return ModelSpec(
        bounds=bounds,
        hamiltonians=ham,
        coupling_f=_parse_coupling(section.get("coupling_f", {}), "model.coupling_f"),
        terminal=TerminalSpec(base=base, coupling=coupling_g),
        m0=m0,
        horizon=_real(section["horizon"], "model.horizon"),
        discount=_opt(section, "model.discount", ModelSpec.discount, _real),
    )


def load_config(path) -> RunConfig:
    """Parse and fully validate a run document; defaults are echoed to the log."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = yaml.load(p.read_text(), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    _reject_nonfinite(doc, "")
    doc = _take(doc, "<root>", {"model", "grid", "mc", "fixed_point", "output", "debug"},
                required={"model", "grid"})

    model = _parse_model(doc["model"])

    g = _take(doc["grid"], "grid", {"dim", "box_length", "nx", "nt", "theta_lf"},
              required={"nx", "nt"})
    try:
        grid = GridSpec(
            dim=_opt(g, "grid.dim", model.dim, _integer),
            box_length=_opt(g, "grid.box_length", 1.0, _real),
            nx=_integer(g["nx"], "grid.nx"),
            nt=_integer(g["nt"], "grid.nt"),
            horizon=model.horizon,
            a_max=model.bounds.a_max,
            theta_lf=_opt(g, "grid.theta_lf", model.bounds.drift_bound, _real),
        )
    except StabilityError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if grid.dim != model.dim:
        raise ConfigError(f"grid.dim={grid.dim} does not match the model dimension {model.dim}")

    mc_sec = _take(doc.get("mc", {}), "mc", {"num_paths", "dt_mc", "seed", "x0", "antithetic"})
    mc = McConfig(
        num_paths=_opt(mc_sec, "mc.num_paths", 10000, _integer),
        dt_mc=_opt(mc_sec, "mc.dt_mc", grid.dt, _real),
        seed=_opt(mc_sec, "mc.seed", 0, _integer),
        x0=_opt(mc_sec, "mc.x0", [0.5 * grid.box_length] * grid.dim, partial(_point, dim=grid.dim)),
        antithetic=_opt(mc_sec, "mc.antithetic", McConfig.antithetic, _boolean),
    )

    fp_sec = _take(doc.get("fixed_point", {}), "fixed_point", {"theta", "tol", "max_iter"})
    fixed_point = FixedPointConfig(
        theta=_opt(fp_sec, "fixed_point.theta", FixedPointConfig.theta, _real),
        tol=_opt(fp_sec, "fixed_point.tol", FixedPointConfig.tol, _real),
        max_iter=_opt(fp_sec, "fixed_point.max_iter", FixedPointConfig.max_iter, _integer),
    )

    out_sec = _take(doc.get("output", {}), "output", {"directory", "write_fields"})
    output = OutputConfig(
        directory=str(_opt(out_sec, "output.directory", OutputConfig.directory)),
        write_fields=_opt(out_sec, "output.write_fields", OutputConfig.write_fields, _boolean),
    )

    hooks = doc.get("debug", {})
    hooks = _take(hooks, "debug", {"inject_negative_density"})
    debug = tuple(k for k, v in hooks.items() if _boolean(v, f"debug.{k}"))

    return RunConfig(model=model, grid=grid, mc=mc, fixed_point=fixed_point, output=output, debug_hooks=debug)
