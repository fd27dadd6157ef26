"""Self-test of the benchmark on tiny grids (about a minute).

    python3 perfbench/selftest.py

Checks that
- each workload's smoke run emits every end-to-end metric (untraced) and
  every per-layer metric (traced) named in BENCHMARK.json, with its unit;
- counts repeat exactly across two traced smoke runs;
- a run with the debug.inject_negative_density hook is counted as a failed
  operation, and the harness still prints its result;
- tracing refuses to start when a wrapped name no longer exists;
- without the package source the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B")


def run(*extra: str):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return proc, result


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []

    for w in (entry["name"] for entry in spec["workloads"]):
        print(f"{w}:")
        proc, res = run("--workload", w, "--seed", "3", "--trace", "0", "--smoke")
        check(proc.returncode == 0 and res is not None and res["correct"] and res["failed"] == 0,
              "untraced smoke run is correct", failures)
        got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
        check(got == e2e, "end-to-end metric names and units match BENCHMARK.json", failures)
        traced = [run("--workload", w, "--seed", "3", "--trace", "1", "--smoke")[1] for _ in range(2)]
        check(all(r is not None and r["correct"] for r in traced), "traced smoke runs are correct", failures)
        if not all(traced):
            continue
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        check(got == layer, "per-layer metric names and units match BENCHMARK.json", failures)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] in COUNT_UNITS or k in ("fixed_point.solves_per_iter",)} for r in traced]
        check(counts[0] == counts[1], f"{len(counts[0])} counts repeat exactly across two runs", failures)

    print("debug.inject_negative_density:")
    proc, res = run("--workload", "mfg_1d", "--seed", "3", "--trace", "0", "--smoke",
                    "--inject-negative-density")
    check(proc.returncode == 1 and res is not None and res["failed"] == res["attempted"] >= 1
          and not res["correct"], "the failed operation is counted, and the result still printed", failures)

    print("tracing a missing name:")
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import mfgdiff.fp as fp; from spans import Tracer, TraceError\n"
            "del fp.laplacian\n"
            "try:\n    Tracer().install()\nexcept TraceError as exc:\n    print(exc); sys.exit(0)\n"
            "sys.exit(1)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True)
    check(proc.returncode == 0 and "laplacian" in proc.stdout, "install fails loudly: " + proc.stdout.strip(),
          failures)

    print("without the package source:")
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "mfg_1d", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                              env=env, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(), "exits non-zero without a result", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
