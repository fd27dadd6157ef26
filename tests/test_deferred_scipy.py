"""SciPy loads only where a transport LP is solved.

`wasserstein` imports `scipy.optimize` and `scipy.sparse` at the first HiGHS
solve.  pytest's own process has already imported `scipy.optimize` (the
`filterwarnings` entry in pyproject.toml names one of its warnings), so the
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mfgdiff.grid import GridSpec
from mfgdiff.wasserstein import GridMeasure, d1

from test_cli import _minimal_doc

_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src"

# Runs every subcommand on a 1D document, records which SciPy modules are
# loaded, then takes one 2D distance and records them again.
_SCRIPT = """
import json, sys
from mfgdiff.cli import main

config, out = sys.argv[1], sys.argv[2]
runs = [
    ["solve-hjb", "--out", out + "/hjb"],
    ["solve-mfg", "--out", out + "/mfg"],
    ["verify-sde", "--out", out + "/sde", "--prior", out + "/mfg"],
    ["diagnose", "--out", out + "/diagnose"],
    ["wasserstein", "--out", out + "/w1", "--prior", out + "/mfg"],
]
codes = [main([*run, "--config", config, "--quiet"]) for run in runs]
watched = ("scipy.optimize", "scipy.sparse")
after_1d = [name for name in watched if name in sys.modules]

from test_deferred_scipy import pair
from mfgdiff.wasserstein import d1
value = d1(*pair())
after_2d = [name for name in watched if name in sys.modules]
print(json.dumps({"codes": codes, "after_1d": after_1d, "after_2d": after_2d, "d1": value}))
"""


def pair():
    """Two 2D Gaussian measures on 8x8 whose distance needs the transport LP."""
    grid = GridSpec(dim=2, box_length=1.0, nx=8, nt=8, horizon=1e-3, a_max=0.5)
    x = grid.coords()
    measures = []
    for centre in ([0.4, 0.5], [0.6, 0.45]):
        w = np.exp(-np.sum((x - np.asarray(centre)) ** 2, axis=-1) / 0.02)
        measures.append(GridMeasure(grid, w / w.sum()))
    return measures


def test_scipy_loads_only_at_the_first_lp(tmp_path):
    # the child imports `pair` from this file, so both sides build the same measures
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), str(_TESTS), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(_minimal_doc(tmp_path)), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["codes"] == [0] * 5
    assert seen["after_1d"] == []
    assert seen["after_2d"] == ["scipy.optimize", "scipy.sparse"]
    value = d1(*pair())
    assert value > 0.05
    assert seen["d1"] == value
