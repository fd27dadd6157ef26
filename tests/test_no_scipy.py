"""The program runs without SciPy: no subcommand and no 2D distance loads it.

The 2D transport LP is solved by `wasserstein`'s own transportation simplex;
SciPy is left to the tests, whose oracle is HiGHS.  pytest's own process
has already imported `scipy.optimize` (the `filterwarnings` entry in
pyproject.toml names one of its warnings), so the check runs in a fresh
interpreter.
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
_CONFIG_2D = _TESTS.parent / "configs" / "model_a_2d.yaml"

# Runs every subcommand on a 1D document, takes one 2D distance, then runs a
# 2D coupled solve, recording after each stage which SciPy modules are loaded.
_SCRIPT = """
import json, sys
from mfgdiff.cli import main

config, config_2d, out = sys.argv[1], sys.argv[2], sys.argv[3]
runs = [
    ["solve-hjb", "--out", out + "/hjb"],
    ["solve-mfg", "--out", out + "/mfg"],
    ["verify-sde", "--out", out + "/sde", "--prior", out + "/mfg"],
    ["diagnose", "--out", out + "/diagnose"],
    ["wasserstein", "--out", out + "/w1", "--prior", out + "/mfg"],
]
codes = [main([*run, "--config", config, "--quiet"]) for run in runs]
watched = ("scipy.optimize", "scipy.sparse")
loaded = {"1d": [name for name in watched if name in sys.modules]}

from test_no_scipy import pair
from mfgdiff.wasserstein import d1
value = d1(*pair())
loaded["2d_d1"] = [name for name in watched if name in sys.modules]
codes.append(main(["solve-mfg", "--out", out + "/mfg_2d", "--config", config_2d, "--quiet"]))
loaded["2d_solve"] = [name for name in watched if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded, "d1": value}))
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


def test_scipy_never_loads(tmp_path):
    # the child imports `pair` from this file, so both sides build the same measures
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), str(_TESTS), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(_minimal_doc(tmp_path)), str(_CONFIG_2D),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["codes"] == [0] * 6
    assert seen["loaded"] == {"1d": [], "2d_d1": [], "2d_solve": []}
    value = d1(*pair())
    assert value > 0.05
    assert seen["d1"] == value
