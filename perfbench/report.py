"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--smoke] [--workloads mfg_1d ...]

For each workload it runs perfbench/run.py twice in child processes, once
untraced (end-to-end metrics) and once traced (per-layer metrics), and
prints both, the tracing overhead (traced minus untraced wall_s), each
layer's share of the traced wall time, the fingerprint difference and the
environment block.  Exits non-zero if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402

WORKLOADS = {w["name"]: w["why"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a result:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def _row(name: str, value, unit: str) -> str:
    shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"    {name:30s} {shown:>14s} {unit}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = p.parse_args(argv)

    ok = True
    for name in args.workloads:
        rc0, plain_detail, plain = run(name, args.seed, args.seconds, 0, args.smoke)
        rc1, traced_detail, traced = run(name, args.seed, args.seconds, 1, args.smoke)
        ok &= rc0 == 0 and rc1 == 0 and plain["correct"] and traced["correct"]
        print(f"== {name} (seed {args.seed}{', smoke' if args.smoke else ''}): {WORKLOADS[name]}")
        print(f"  end to end, untraced ({plain['attempted']} operations, {plain_detail['load']})")
        for metric, entry in plain["metrics"].items():
            print(_row(metric, entry["value"], entry["unit"]))
        print(_row("iter_s", plain_detail["iter_s"], "s"))
        print(_row("failed_frac", plain_detail["failed_frac"], "ratio")
              + f"  ({plain['failed']} of {plain['attempted']})")
        print(f"  per layer, traced ({traced['attempted']} operations)")
        for metric, entry in traced["metrics"].items():
            print(_row(metric, entry["value"], entry["unit"]))
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        print("  tracing overhead (traced wall_s - untraced wall_s)")
        print(_row("trace.overhead_s", traced_wall - wall, "s")
              + f"  ({(traced_wall - wall) / wall:+.1%} of {wall:.3f} s)")
        # config is parsed in set-up, outside the timed operation
        shares = {layer: traced["metrics"][f"{layer}.self_s"]["value"]
                  for layer in LAYERS if f"{layer}.self_s" in traced["metrics"]}
        shares["couplings"] = traced["metrics"]["couplings.fields_s"]["value"]
        print("  layer shares of traced wall_s (self time): " + ", ".join(
            f"{layer} {value / traced_wall:.1%}" for layer, value in
            sorted(shares.items(), key=lambda kv: -kv[1]) if value))
        print(f"  fingerprint difference: {plain_detail['fingerprint_diff']!r}")
        print(f"  environment: {json.dumps(plain_detail['env'], sort_keys=True)}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
