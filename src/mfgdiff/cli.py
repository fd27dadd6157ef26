"""Command-line surface binding the solvers and diagnostics into experiments.

Subcommands (all driven by one YAML document, see `config`):

    solve-hjb     backward solve with couplings frozen at the initial
                  density; writes the value field and a residual table
    solve-mfg     damped Picard iteration; writes value field, density path,
                  the per-iteration gap and mass drift, and `wasserstein`'s
                  tables
    verify-sde    Monte-Carlo verification against a prior solve-mfg output
                  directory (--prior)
    diagnose      regularity constants, structural-hypothesis audit and the
                  solvability-class report for a fresh backward solve
    wasserstein   pairwise transport distances over dyadic separations of a
                  prior density output, with the fitted time exponent

Exit codes: 0 on success, 1 on a violated runtime contract (mass drift,
negativity, non-finite output), 2 on configuration problems.  Identical
configuration and seed produce identical output checksums.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .control import AuditReport, validate_hypotheses
from .diagnostics import (
    KrylovSample,
    class_m_check,
    lipschitz_constant,
    random_triples,
    semiconcavity_constant,
    three_point_check,
)
from .errors import ConfigError, ContractError, StabilityError
from .fieldio import read_field, read_manifest, write_field, write_table
from .fixed_point import coupling_fields, picard_solve
from .fp import DensityPath
from .hjb import (
    hjb_lambda_residual,
    hjb_residual,
    lambda_transform,
    linearization_identity_gap,
    linearize,
    solve_hjb,
    solve_hjb_lambda,
)
# `simulate_value` and `dpp_check` are not called here (`value_and_dpp` runs
# both from one sweep), but the benchmark tracer still looks them up here.
from .sde import dpp_check, modulus_check, simulate_value, value_and_dpp  # noqa: F401
# `d1` is not called here (the diagnostic returns its distances), but the
# benchmark tracer in perfbench/spans.py still looks the name up in this module.
from .wasserstein import HolderDiagnostic, d1, holder_half_diagnostic  # noqa: F401

log = logging.getLogger("mfgdiff")

_SUBCOMMANDS = ("solve-hjb", "solve-mfg", "verify-sde", "diagnose", "wasserstein")


def _hypothesis_samples(cfg: RunConfig, n: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    d = cfg.model.dim
    box = cfg.grid.box_length
    return [
        (
            rng.uniform(0, cfg.model.horizon),
            rng.uniform(0, box, size=d),
            rng.uniform(-8, 8, size=d),
            rng.uniform(-10, 10),
        )
        for _ in range(n)
    ]


def _write_audit(path: Path, header: list[str], report: AuditReport) -> None:
    """One row per audited condition: name, worst value, bound, pass flag."""
    write_table(path, header, [(c.name, c.worst, c.bound, int(c.passed)) for c in report.conditions])


def _log_hypothesis_summary(cfg: RunConfig) -> None:
    report = validate_hypotheses(cfg.model, _hypothesis_samples(cfg))
    log.info("hypothesis audit: %s", report.summary())


def _initial_coupling_solve(cfg: RunConfig):
    grid = cfg.grid
    gamma = DensityPath.constant_in_time(grid, cfg.model.m0.discretize(grid))
    f_path, g_slice = coupling_fields(cfg.model, grid, gamma.values)
    u = solve_hjb(cfg.model, f_path, g_slice, grid)
    return u, f_path


def _cmd_solve_hjb(cfg: RunConfig, out: Path) -> int:
    _log_hypothesis_summary(cfg)
    u, f_path = _initial_coupling_solve(cfg)
    resid = hjb_residual(u, cfg.model, f_path)
    if cfg.output.write_fields:
        checksum = write_field(u, out / "u")
        log.info("value field written (checksum %s)", checksum[:12])
    sup_per_level = np.max(np.abs(resid.values.reshape(cfg.grid.nt + 1, -1)), axis=1)
    write_table(
        out / "residuals.csv",
        ["level", "sup_residual"],
        [(n, float(r)) for n, r in enumerate(sup_per_level)],
    )
    log.info("residual sup over levels: %.3e", float(sup_per_level.max()))
    return 0


def _cmd_solve_mfg(cfg: RunConfig, out: Path) -> int:
    _log_hypothesis_summary(cfg)
    result = picard_solve(
        cfg.model,
        cfg.grid,
        theta=cfg.fixed_point.theta,
        tol=cfg.fixed_point.tol,
        max_iter=cfg.fixed_point.max_iter,
    )
    m = result.m
    if "inject_negative_density" in cfg.debug_hooks:
        corrupted = m.values.copy()
        corrupted[cfg.grid.nt // 2] -= 1.0
        m = DensityPath.from_values(cfg.grid, corrupted)  # raises ContractError
    if cfg.output.write_fields:
        write_field(result.u, out / "u")
        write_field(m, out / "m")
    rep = result.report
    write_table(
        out / "report.csv",
        ["iteration", "gap", "mass_drift"],
        zip(range(1, rep.iterations + 1), rep.gap_history.tolist(), rep.mass_drift_history.tolist()),
    )
    if rep.holder is None:
        log.info("no Hölder check: nt=%d admits fewer than 4 dyadic separations", cfg.grid.nt)
    else:
        _write_holder(out, rep.holder)
    log.info(
        "fixed point: converged=%s after %d iterations (last gap %.3e, "
        "self-residual %.3e, duality gap %.3e)",
        rep.converged, rep.iterations,
        rep.gap_history[-1] if rep.iterations else float("nan"),
        rep.final_hjb_residual, rep.final_duality_gap,
    )
    log.info("density grid norm: L2 %.6g (sup over levels)", m.lp_norm(2))
    return 0


def _write_holder(out: Path, diag: HolderDiagnostic) -> None:
    """distances.csv (one row per dyadic separation) and holder.csv (the fit)."""
    write_table(
        out / "distances.csv",
        ["tau", "d1"],
        zip(diag.separations.tolist(), diag.distances.tolist()),
    )
    write_table(
        out / "holder.csv",
        ["exponent", "max_ratio", "degenerate"],
        [(diag.exponent if not diag.degenerate else -1.0, diag.max_ratio, int(diag.degenerate))],
    )


def _load_prior(prior: Path):
    u_dir, m_dir = prior / "u", prior / "m"
    if not (u_dir.is_dir() and m_dir.is_dir()):
        raise ConfigError(f"prior output directory {prior} has no u/ and m/ fields")
    kinds = (read_manifest(u_dir).get("kind"), read_manifest(m_dir).get("kind"))
    if kinds != ("timefield", "density"):
        raise ConfigError(f"prior output directory {prior} holds u/ kind={kinds[0]!r} and m/ "
                          f"kind={kinds[1]!r}, expected 'timefield' and 'density'")
    u = read_field(u_dir)
    m = read_field(m_dir)
    if not u.grid.same_lattice(m.grid):
        raise ConfigError(f"prior output directory {prior} holds u/ and m/ on different lattices")
    return u, m


def _cmd_verify_sde(cfg: RunConfig, out: Path, prior: Path | None) -> int:
    if prior is None:
        raise ConfigError("verify-sde needs --prior pointing at a solve-mfg output")
    u, m = _load_prior(prior)
    if not u.grid.same_lattice(cfg.grid):
        raise ConfigError("prior fields live on a different lattice than the config grid")
    h = cfg.grid.horizon / 8.0
    est, dpp = value_and_dpp(u, m, cfg.model, cfg.mc, h)
    ref = dpp.reference
    hs = [cfg.grid.horizon / 2**k for k in range(1, 6)]
    # snap the dyadic h grid onto multiples of dt_mc
    hs = [max(1, round(h_ / cfg.mc.dt_mc)) * cfg.mc.dt_mc for h_ in hs]
    modulus = modulus_check(cfg.model, cfg.mc, sorted(set(hs)))
    write_table(
        out / "mc_value.csv",
        ["estimate", "std_error", "reference", "abs_gap"],
        [(est.mean, est.std_error, ref, abs(est.mean - ref))],
    )
    write_table(
        out / "mc_dpp.csv",
        ["h", "gap", "std_error", "mc_mean", "reference"],
        [(h, dpp.gap, dpp.std_error, dpp.mc_mean, dpp.reference)],
    )
    write_table(
        out / "mc_modulus.csv",
        ["h", "expected_sup"],
        list(zip(map(float, modulus.separations), map(float, modulus.estimates))),
    )
    log.info(
        "mc value %.6g +- %.2g vs field %.6g; programming gap %.3g; modulus slope %.3f",
        est.mean, est.std_error, ref, dpp.gap, modulus.slope,
    )
    return 0


def _cmd_diagnose(cfg: RunConfig, out: Path) -> int:
    _log_hypothesis_summary(cfg)
    u, f_path = _initial_coupling_solve(cfg)
    lip = lipschitz_constant(u)
    semi = semiconcavity_constant(u)
    rng = np.random.default_rng(cfg.mc.seed)
    worst3 = three_point_check(u, random_triples(cfg.grid, 1000, rng), delta=cfg.grid.dx)
    lin = linearize(u, cfg.model)
    lin_gap = linearization_identity_gap(u, cfg.model, lin)
    lam_ratio = float("nan")
    if cfg.model.discount > 0:
        # consistency of the discounted-form solve against the direct one
        g_slice = u.values[cfg.grid.nt]
        v = solve_hjb_lambda(cfg.model, f_path, g_slice, cfg.grid, cfg.model.discount)
        r_ind = float(np.max(np.abs(
            hjb_residual(lambda_transform(v, cfg.model.discount, "inverse"), cfg.model, f_path).values
        )))
        v_dir = lambda_transform(u, cfg.model.discount, "forward")
        r_dir = float(np.max(np.abs(
            hjb_lambda_residual(v_dir, cfg.model, f_path, cfg.model.discount).values
        )))
        lam_ratio = r_ind / r_dir if r_dir > 0 else float("nan")
    write_table(
        out / "regularity.csv",
        ["lipschitz", "semiconcavity", "three_point_worst", "linearization_gap",
         "lambda_residual_ratio"],
        [(lip, semi, worst3, lin_gap, lam_ratio if np.isfinite(lam_ratio) else -1.0)],
    )
    report = validate_hypotheses(cfg.model, _hypothesis_samples(cfg, n=500, seed=cfg.mc.seed))
    _write_audit(out / "hypotheses.csv", ["name", "constant", "bound", "passed"], report)
    d = cfg.model.dim
    samples = []
    for _ in range(500):
        b = rng.standard_normal((d, d))
        samples.append(
            KrylovSample(
                t=rng.uniform(0, cfg.model.horizon),
                x=rng.uniform(0, cfg.grid.box_length, size=d),
                beta=rng.uniform(0.2, 5.0),
                big_b=0.5 * (b + b.T) * 4.0,
                p_under=rng.uniform(-4, 4, size=d),
                s=rng.uniform(-2, 2),
            )
        )
    class_report = class_m_check(cfg.model, samples)
    _write_audit(out / "class_conditions.csv", ["name", "worst", "threshold", "passed"], class_report)
    log.info("regularity: lipschitz %.4g, semiconcavity %.4g", lip, semi)
    log.info("class audit: %s", class_report.summary())
    return 0


def _cmd_wasserstein(cfg: RunConfig, out: Path, prior: Path | None) -> int:
    if prior is None:
        raise ConfigError("wasserstein needs --prior pointing at a density output")
    m_dir = prior / "m"
    if not m_dir.is_dir():
        raise ConfigError(f"prior output directory {prior} has no m/ field")
    m = read_field(m_dir)
    if not isinstance(m, DensityPath):
        raise ConfigError("prior m/ field is not a density path")
    diag = holder_half_diagnostic(m)
    _write_holder(out, diag)
    log.info("transport distances written; fitted exponent %s",
             "degenerate" if diag.degenerate else f"{diag.exponent:.3f}")
    return 0


def run_subcommand(name: str, cfg: RunConfig, prior: Path | None = None) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    if name not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if name == "solve-hjb":
            return _cmd_solve_hjb(cfg, out)
        if name == "solve-mfg":
            return _cmd_solve_mfg(cfg, out)
        if name == "verify-sde":
            return _cmd_verify_sde(cfg, out, prior)
        if name == "diagnose":
            return _cmd_diagnose(cfg, out)
        return _cmd_wasserstein(cfg, out, prior)
    except ContractError as exc:
        log.error("contract failure: %s", exc)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgdiff",
        description="solver and verification suite for mean field games with controlled diffusion",
    )
    parser.add_argument("command", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML run document")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--prior", default=None, help="prior output directory (verify-sde, wasserstein)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
        if args.seed is not None:
            cfg = replace(cfg, mc=replace(cfg.mc, seed=args.seed))
        prior = Path(args.prior) if args.prior else None
        return run_subcommand(args.command, cfg, prior)
    except (ConfigError, StabilityError) as exc:
        log.error("configuration error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
