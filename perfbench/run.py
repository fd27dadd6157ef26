"""Benchmark of mfgdiff through its CLI entry point, one workload per process.

    python3 perfbench/run.py --workload mfg_1d --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the package is imported from
./src).  Set-up writes the generated run document, times cold starts of an
interpreter that imports the CLI and parses it, and (verify_1d) writes and
checks the solve-mfg prior in a child process, which keeps it out of
peak_rss_mb.  The timed loop is closed: one operation at a time, the next
one only if it still fits in --seconds, at least one.  Every operation's
outputs are checked; one that exits non-zero, raises or fails a check counts
as failed.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
public functions (see spans.py) and reports per-layer metrics from the
spans.  The last line of standard output is the result object; the line
before it holds the environment block and the details, which are also
written with the spans under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
# BLAS/OpenMP pools capped at one thread; set before numpy is imported and
# inherited by every child process.
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny grids, for the self-test")
    p.add_argument("--inject-negative-density", action="store_true",
                   help="set the debug hook that corrupts the density (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mfgdiff" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'mfgdiff'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(ROOT / "src"))

    from harness import BenchError, run_workload

    try:
        detail, result = run_workload(args, ROOT, OUT_ROOT, THREAD_CAPS)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
