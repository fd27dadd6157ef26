"""Workload definitions: the generated run document, one operation, its checks.

Every workload drives the public entry point `mfgdiff.cli.run_subcommand`
with a configuration parsed by the strict `mfgdiff.config.load_config`.
The PDE inputs are fixed; the seed only feeds random draws (`mc.seed`, which
`diagnose` also uses for its audit samples).
"""

from __future__ import annotations

import copy
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mfgdiff.fieldio import read_field

# Model A as in configs/model_a.yaml, the reference coupled run (64 x 4160).
MODEL_A = {
    "model": {
        "bounds": {"lambda1": 1.0, "lambda2": 2.0, "drift_bound": 1.0},
        "hamiltonians": {"kind": "closed-form"},
        "coupling_f": {"eps": 0.1, "gain": 0.5},
        "terminal": {"base": {"kind": "cosine", "amplitude": 1.0},
                     "coupling": {"eps": 0.1, "gain": 0.1}},
        "m0": {"kind": "gaussian", "center": [0.5], "width": 0.12},
        "horizon": 0.25,
    },
    "grid": {"dim": 1, "box_length": 1.0, "nx": 64, "nt": 4160},
    "mc": {"num_paths": 10000, "x0": [0.3]},
    "fixed_point": {"theta": 0.5, "tol": 1.0e-4, "max_iter": 50},
}

# Tolerances of the correctness checks (acceptance criteria C05-C08).
MASS_TOL = 1e-12
NEG_TOL = 1e-14
SELF_RESIDUAL_TOL = 1e-10
DUALITY_TOL = 1e-10
MC_SLACK = 0.05  # |J - u(0, x0)| <= 3 SE + MC_SLACK
# Largest allowed difference of the fingerprinted field values from those
# recorded at the seed commit; round-off from reordered arithmetic stays
# far below it, any change of scheme or stopping rule lands far above it.
FINGERPRINT_TOL = 1e-9
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def _model_a_1d(smoke: bool) -> dict:
    doc = copy.deepcopy(MODEL_A)
    if smoke:
        doc["grid"].update(nx=16, nt=288)
        doc["mc"]["num_paths"] = 200
    return doc


def _model_a_2d(smoke: bool) -> dict:
    doc = copy.deepcopy(MODEL_A)
    doc["model"]["hamiltonians"]["dim"] = 2
    doc["model"]["m0"]["center"] = [0.5, 0.5]
    doc["model"]["horizon"] = 0.0625
    doc["grid"] = {"dim": 2, "box_length": 1.0, "nx": 8, "nt": 64}
    doc["mc"]["x0"] = [0.3, 0.3]
    doc["fixed_point"]["tol"] = 1.0e-3
    if smoke:
        doc["model"]["horizon"] = 0.03125
        doc["grid"]["nt"] = 32
        doc["fixed_point"]["tol"] = 1.0e-2
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_doc: object          # smoke -> run document without seed/output
    commands: tuple[str, ...]  # subcommands of one operation, in order
    needs_prior: bool         # set-up writes a solve-mfg output first
    layers: tuple[str, ...]   # layers that must record spans when traced
    solve_key: str            # fingerprint of the solve-mfg output it checks

    def doc(self, seed: int, out_dir: Path, smoke: bool, inject_negative: bool) -> dict:
        doc = self.make_doc(smoke)
        doc["mc"]["seed"] = seed
        doc["output"] = {"directory": str(out_dir), "write_fields": True}
        if inject_negative:
            doc["debug"] = {"inject_negative_density": True}
        return doc

    def fingerprint_key(self, smoke: bool) -> str:
        return self.solve_key + (".smoke" if smoke else "")


# Output subdirectory of each subcommand inside an operation with several.
SUBDIRS = {"verify-sde": "mc", "diagnose": "diag", "wasserstein": "w1"}

_SOLVE_LAYERS = ("cli", "config", "control", "grid", "couplings", "hjb", "fp",
                 "wasserstein", "fixed_point", "fieldio")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mfg_1d", "solve-mfg on model A at 64x4160: HJB and FP marches and field writes dominate",
                 _model_a_1d, ("solve-mfg",), False, _SOLVE_LAYERS, "mfg_1d"),
        Workload("mfg_2d", "solve-mfg on model A in 2D at 8x8x64: dense transport LPs dominate, marches are bypassed",
                 _model_a_2d, ("solve-mfg",), False, _SOLVE_LAYERS, "mfg_2d"),
        Workload("verify_1d", "verify-sde, diagnose and wasserstein on a model A prior: Monte-Carlo paths and field reads dominate",
                 _model_a_1d, ("verify-sde", "diagnose", "wasserstein"), True,
                 ("cli", "config", "control", "grid", "couplings", "hjb", "sde",
                  "diagnostics", "fieldio", "wasserstein"), "mfg_1d"),
    )
}


class LogCapture(logging.Handler):
    """Keeps the package's log records so checks can read the run log."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)

    def text(self) -> str:
        return "\n".join(rec.getMessage() for rec in self.records)


# The summary line solve-mfg logs at the end of the Picard loop.
_SUMMARY = re.compile(r"fixed point: converged=(\w+) after (\d+) iterations "
                      r"\(last gap \S+, self-residual (\S+), duality gap (\S+)\)")


def _table(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def fingerprint(u, m, iterations: int) -> dict:
    """A few levels of u and m, subsampled in space, plus the iteration count."""
    nt = u.grid.nt
    levels = [0, nt // 2, nt]
    step = max(1, u.grid.n_nodes // 16)
    pick = lambda f: [f.values[n].reshape(-1)[::step].tolist() for n in levels]  # noqa: E731
    return {"iterations": iterations, "levels": levels, "u": pick(u), "m": pick(m)}


def load_fingerprint(key: str) -> dict | None:
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(key)


def check_solve(out: Path, log_text: str, key: str) -> tuple[list[str], float, dict]:
    """Checks of one solve-mfg output directory and its run log.

    Returns (problems, largest field difference from the stored fingerprint
    or -1 if none was compared, fingerprint of this output).
    """
    problems = []
    found = _SUMMARY.findall(log_text)
    if not found:
        return ["no fixed-point summary in the run log"], -1.0, {}
    converged, iterations, self_resid, duality = found[-1]
    converged, iterations = converged == "True", int(iterations)
    self_resid, duality = float(self_resid), float(duality)
    if not converged:
        problems.append(f"not converged after {iterations} iterations")
    if not self_resid <= SELF_RESIDUAL_TOL:
        problems.append(f"self-residual {self_resid:.3e} > {SELF_RESIDUAL_TOL}")
    if not duality <= DUALITY_TOL:
        problems.append(f"duality gap {duality:.3e} > {DUALITY_TOL}")
    report = _table(out / "report.csv")
    if len(report) != iterations:
        problems.append(f"report.csv has {len(report)} rows for {iterations} iterations")
    drift = max(abs(float(r["mass_drift"])) for r in report)
    if not drift <= MASS_TOL:
        problems.append(f"report mass drift {drift:.3e} > {MASS_TOL}")
    u, m = read_field(out / "u"), read_field(out / "m")
    cell = m.grid.dx ** m.grid.dim
    mass = m.values.reshape(m.grid.nt + 1, -1).sum(axis=1) * cell
    if not np.max(np.abs(mass - 1.0)) <= MASS_TOL:
        problems.append(f"written density mass drift {np.max(np.abs(mass - 1.0)):.3e} > {MASS_TOL}")
    if not m.values.min() >= -NEG_TOL:
        problems.append(f"written density minimum {m.values.min():.3e} < {-NEG_TOL}")
    got = fingerprint(u, m, iterations)
    ref = load_fingerprint(key)
    if ref is None:
        problems.append(f"no stored fingerprint {key!r}")
        return problems, -1.0, got
    diff = max(float(np.max(np.abs(np.subtract(got[f], ref[f])))) for f in ("u", "m"))
    if got["iterations"] != ref["iterations"]:
        problems.append(f"{got['iterations']} iterations, fingerprint has {ref['iterations']}")
    if not diff <= FINGERPRINT_TOL:
        problems.append(f"fields differ from the fingerprint by {diff:.3e} > {FINGERPRINT_TOL}")
    return problems, diff, got


def check_verify(out: Path) -> list[str]:
    """Checks of one verify-sde / diagnose / wasserstein operation (C07, C08)."""
    problems = []
    mc, diag, w1 = (out / SUBDIRS[c] for c in ("verify-sde", "diagnose", "wasserstein"))
    for row in _table(mc / "mc_value.csv"):
        gap, se = float(row["abs_gap"]), float(row["std_error"])
        if not gap <= 3 * se + MC_SLACK:
            problems.append(f"|J - u(0,x0)| = {gap:.4f} > 3 SE + {MC_SLACK} = {3 * se + MC_SLACK:.4f}")
    for row in _table(mc / "mc_dpp.csv"):
        gap, se = float(row["gap"]), float(row["std_error"])
        if not gap <= 3 * se + MC_SLACK:
            problems.append(f"programming gap {gap:.4f} > {3 * se + MC_SLACK:.4f}")
    modulus = [float(r["expected_sup"]) for r in _table(mc / "mc_modulus.csv")]
    if len(modulus) < 4 or not np.all(np.diff(modulus) > 0):
        problems.append(f"trajectory modulus estimates not increasing: {modulus}")
    for name in ("hypotheses.csv", "class_conditions.csv"):
        failed = [r["name"] for r in _table(diag / name) if r["passed"] != "1"]
        if failed:
            problems.append(f"{name}: failed {failed}")
    reg = _table(diag / "regularity.csv")[0]
    if not all(np.isfinite(float(v)) for v in reg.values()):
        problems.append(f"non-finite regularity constants {reg}")
    if len(_table(w1 / "distances.csv")) < 4:
        problems.append("fewer than 4 dyadic transport distances")
    if _table(w1 / "holder.csv")[0]["degenerate"] != "0":
        problems.append("degenerate Hoelder diagnostic")
    return problems
