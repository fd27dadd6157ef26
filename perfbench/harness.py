"""Set-up, the closed timed loop, correctness checks and metric derivation."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy
import yaml

from spans import LAYERS, TraceError, Tracer
from workloads import SUBDIRS, WORKLOADS, LogCapture, check_solve, check_verify

_HAMILTONIANS = ("control.h1_terms", "control.h2_terms", "control.h1_value", "control.h2_value")
_SDE = ("sde.simulate_value", "sde.dpp_check", "sde.modulus_check")
_REGULARITY = ("diagnostics.lipschitz_constant", "diagnostics.semiconcavity_constant",
               "diagnostics.random_triples", "diagnostics.three_point_check")

# Every per-layer metric with its unit; `_s` metrics are self time summed
# over the operation's spans, `*_per_s` rates use inclusive span time.
PER_LAYER_UNITS = {
    "grid.stencil_calls": "count",
    "grid.stencil_s": "s",
    "control.hamiltonian_calls": "count",
    "control.hamiltonian_s": "s",
    "control.audit_s": "s",
    "hjb.solve_calls": "count",
    "hjb.solve_s": "s",
    "hjb.residual_s": "s",
    "hjb.linearize_s": "s",
    "hjb.node_updates_per_s": "1/s",
    "fp.operator_s": "s",
    "fp.solve_s": "s",
    "fp.duality_s": "s",
    "fp.node_updates_per_s": "1/s",
    "wasserstein.path_sup_s": "s",
    "wasserstein.holder_s": "s",
    "wasserstein.lp_calls": "count",
    "wasserstein.lp_s": "s",
    "fixed_point.iterations": "count",
    "fixed_point.solves_per_iter": "ratio",
    "fixed_point.self_s": "s",
    "couplings.fields_s": "s",
    "sde.simulate_s": "s",
    "sde.dpp_s": "s",
    "sde.modulus_s": "s",
    "sde.path_steps_per_s": "1/s",
    "diagnostics.regularity_s": "s",
    "diagnostics.class_s": "s",
    "fieldio.write_s": "s",
    "fieldio.files_written": "count",
    "fieldio.bytes_written": "B",
    "fieldio.read_s": "s",
    "cli.self_s": "s",
    "config.load_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer not in ("config", "couplings")},
    "trace.wall_s": "s",
    "trace.accounted_frac": "ratio",
    "check.fingerprint_diff": "abs",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STARTUP_REPEATS = 3  # cold starts timed per run; setup_s takes their median


class BenchError(RuntimeError):
    """The harness cannot produce a valid result (missing layer, failed set-up)."""


def environment(root: Path, seed: int, caps: dict) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ.get(k) for k in caps},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _startup_seconds(doc_path: Path, root: Path) -> float:
    """Cold start of the CLI: a fresh interpreter imports it and parses the document."""
    code = "import sys; from mfgdiff.cli import load_config; load_config(sys.argv[1])"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(doc_path)], cwd=root, check=True)
    return time.perf_counter() - t0


def _solve_prior(doc_path: Path, prior_dir: Path, root: Path) -> tuple[float, str]:
    """Writes the solve-mfg prior in a child process, so that the benchmark
    process's peak RSS covers only the timed operations; returns its wall
    time and its log."""
    cmd = [sys.executable, "-m", "mfgdiff.cli", "solve-mfg", "--config", str(doc_path), "--out", str(prior_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up solve-mfg exited with status {proc.returncode}: {proc.stderr[-2000:]}")
    return seconds, proc.stderr


def _run_op(cli, wl, cfg, op_dir: Path, prior: Path | None) -> str | None:
    """One operation through `cli.run_subcommand`; returns an error or None."""
    for cmd in wl.commands:
        out = op_dir if len(wl.commands) == 1 else op_dir / SUBDIRS[cmd]
        rc = cli.run_subcommand(cmd, replace(cfg, output=replace(cfg.output, directory=str(out))), prior)
        if rc != 0:
            return f"{cmd} exited with status {rc}"
    return None


def _dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _layer_metrics(tracer: Tracer, op: dict, k: int) -> dict:
    summary = tracer.op_summary(k)
    work = tracer.work[k]

    def own(*names):
        return sum(summary[n]["self_s"] for n in names if n in summary)

    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def rate(counter, *names):
        busy = sum(summary[n]["total_s"] for n in names if n in summary)
        return work.get(counter, 0.0) / busy if busy > 0 else 0.0

    iterations = op.get("iterations", 0)
    m = {
        "grid.stencil_calls": calls("grid.laplacian", "grid.grad_central"),
        "grid.stencil_s": own("grid.laplacian", "grid.grad_central"),
        "control.hamiltonian_calls": calls(*_HAMILTONIANS),
        "control.hamiltonian_s": own(*_HAMILTONIANS),
        "control.audit_s": own("control.validate_hypotheses"),
        "hjb.solve_calls": calls("hjb.solve_hjb"),
        "hjb.solve_s": own("hjb.solve_hjb"),
        "hjb.residual_s": own("hjb.hjb_residual"),
        "hjb.linearize_s": own("hjb.linearize", "hjb.linearization_identity_gap"),
        "hjb.node_updates_per_s": rate("hjb.node_updates", "hjb.solve_hjb"),
        "fp.operator_s": own("fp.build_transport_operator"),
        "fp.solve_s": own("fp.solve_fp"),
        "fp.duality_s": own("fp.check_duality"),
        "fp.node_updates_per_s": rate("fp.node_updates", "fp.solve_fp"),
        "wasserstein.path_sup_s": own("wasserstein.d1_path_sup"),
        "wasserstein.holder_s": own("wasserstein.holder_half_diagnostic"),
        "wasserstein.lp_calls": calls("wasserstein.transport_lp_cost"),
        "wasserstein.lp_s": own("wasserstein.transport_lp_cost"),
        "fixed_point.iterations": iterations,
        "fixed_point.solves_per_iter": calls("hjb.solve_hjb") / iterations if iterations else 0.0,
        "couplings.fields_s": own("couplings.coupling_fields"),
        "sde.simulate_s": own("sde.simulate_value"),
        "sde.dpp_s": own("sde.dpp_check"),
        "sde.modulus_s": own("sde.modulus_check"),
        "sde.path_steps_per_s": rate("sde.path_steps", *_SDE),
        "diagnostics.regularity_s": own(*_REGULARITY),
        "diagnostics.class_s": own("diagnostics.class_m_check"),
        "fieldio.write_s": own("fieldio.write_field", "fieldio.write_table"),
        "fieldio.files_written": op["files_written"],
        "fieldio.bytes_written": op["bytes_written"],
        "fieldio.read_s": own("fieldio.read_field", "fieldio.read_manifest"),
        "config.load_s": tracer.op_summary(-1).get("config.load_config", {"self_s": 0.0})["self_s"],
        "trace.wall_s": op["wall_s"],
        # share of the wall time spent in traced functions below the CLI dispatch
        "trace.accounted_frac": sum(row["self_s"] for name, row in summary.items()
                                    if not name.startswith("cli.")) / op["wall_s"],
        "check.fingerprint_diff": op["fingerprint_diff"],
    }
    for layer in LAYERS:
        if f"{layer}.self_s" in PER_LAYER_UNITS:
            m[f"{layer}.self_s"] = own(*(n for n in summary if n.startswith(layer + ".")))
    return m


def run_workload(args, root: Path, out_root: Path, caps: dict):
    """Returns (details, result object) for one workload run."""
    import mfgdiff

    if Path(mfgdiff.__file__).resolve().parent != (root / "src" / "mfgdiff").resolve():
        raise BenchError(f"imported mfgdiff from {mfgdiff.__file__}, not from {root / 'src'}")
    from mfgdiff import cli, config

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    key = wl.fingerprint_key(args.smoke)
    run_dir = out_root / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    op_dir, prior_dir = run_dir / "op", run_dir / "prior"
    logger = logging.getLogger("mfgdiff")
    log = LogCapture()
    logger.setLevel(logging.INFO)
    logger.addHandler(log)
    logger.propagate = False
    tracer = Tracer()
    if args.trace:
        try:
            tracer.install()
        except TraceError as exc:
            raise BenchError(str(exc)) from exc
    try:
        # ---- set-up
        doc_path = run_dir / "run.yaml"
        doc_path.write_text(yaml.safe_dump(
            wl.doc(args.seed, op_dir, args.smoke, args.inject_negative_density), sort_keys=False))
        startup = [_startup_seconds(doc_path, root) for _ in range(STARTUP_REPEATS)]
        tracer.enabled = bool(args.trace)
        cfg = config.load_config(doc_path)
        tracer.enabled = False
        prior, prior_s, prior_diff = None, 0.0, -1.0
        if wl.needs_prior:
            prior_s, prior_log = _solve_prior(doc_path, prior_dir, root)
            problems, prior_diff, _ = check_solve(prior_dir, prior_log, key)
            if problems:
                raise BenchError(f"set-up solve-mfg output fails its checks: {problems}")
            prior = prior_dir

        # ---- closed timed loop
        ops = []
        loop_start = time.perf_counter()
        while True:
            k = len(ops)
            shutil.rmtree(op_dir, ignore_errors=True)
            log.records.clear()
            op = {"error": None, "problems": [], "fingerprint_diff": prior_diff}
            tracer.current_op, tracer.enabled = k, bool(args.trace)
            t0 = time.perf_counter()
            try:
                op["error"] = _run_op(cli, wl, cfg, op_dir, prior)
            except Exception:  # an operation that raises is a failed operation
                op["error"] = traceback.format_exc(limit=-3)
            op["wall_s"] = time.perf_counter() - t0
            tracer.enabled = False
            if op["error"] is None:
                try:
                    if wl.needs_prior:
                        op["problems"] = check_verify(op_dir)
                    else:
                        op["problems"], op["fingerprint_diff"], got = check_solve(op_dir, log.text(), key)
                        op["iterations"] = got.get("iterations", 0)
                except Exception:  # unreadable output fails the operation
                    op["problems"].append(traceback.format_exc(limit=-3))
            op["files_written"], op["bytes_written"] = _dir_usage(op_dir) if op_dir.exists() else (0, 0)
            op["failed"] = bool(op["error"] or op["problems"])
            if op["failed"]:
                print(f"run.py: operation {k} failed: {op['error'] or op['problems']}", file=sys.stderr)
            ops.append(op)
            elapsed = time.perf_counter() - loop_start
            if elapsed + op["wall_s"] > args.seconds:
                break

        # ---- metrics
        failed = sum(op["failed"] for op in ops)
        wall = statistics.median(op["wall_s"] for op in ops)
        setup_s = statistics.median(startup) + prior_s
        if args.trace:
            seen = {name.split(".")[0] for name in tracer.op_summary(0)} | {
                name.split(".")[0] for name in tracer.op_summary(-1)}
            missing = [layer for layer in wl.layers if layer not in seen]
            if missing:
                raise BenchError(f"traced layers recorded no span on {wl.name}: {missing}")
            per_op = [_layer_metrics(tracer, op, k) for k, op in enumerate(ops)]
            values = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
            tracer.save(run_dir / "spans.npz")
        else:
            values = {
                "wall_s": wall,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        iterations = ops[0].get("iterations", 0)
        details = {
            "workload": wl.name,
            "why": wl.why,
            "trace": args.trace,
            "smoke": args.smoke,
            "env": environment(root, args.seed, caps),
            "load": "closed loop, 1 client, 1 operation at a time",
            "operations": len(ops),
            "failed_frac": failed / len(ops),
            "iter_s": wall / iterations if iterations else None,
            "iterations": iterations,
            "fingerprint_diff": ops[0]["fingerprint_diff"],
            "setup": {"startup_s": startup, "prior_s": prior_s},
            "ops": ops,
            "result_dir": str(run_dir.relative_to(root)),
        }
        result = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        (run_dir / "result.json").write_text(json.dumps({"details": details, "result": result}, indent=1))
        return details, result
    finally:
        tracer.uninstall()
        logger.removeHandler(log)
        shutil.rmtree(op_dir, ignore_errors=True)
        shutil.rmtree(prior_dir, ignore_errors=True)
