"""Configuration loading, field serialization, and the command-line surface."""

import dataclasses
import hashlib
import importlib.util
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfgdiff import ContractError
from mfgdiff.cli import main
from mfgdiff.config import load_config
from mfgdiff.errors import ConfigError, StabilityError
from mfgdiff.fieldio import read_field, read_manifest, write_field
from mfgdiff.fp import DensityPath
from mfgdiff.grid import GridSpec, TimeField


def _minimal_doc(tmp_path, **overrides):
    doc = {
        "model": {
            "bounds": {"lambda1": 1.0, "lambda2": 2.0, "drift_bound": 1.0},
            "hamiltonians": {"kind": "closed-form"},
            "coupling_f": {"eps": 0.1, "gain": 0.5},
            "terminal": {
                "base": {"kind": "cosine", "amplitude": 1.0},
                "coupling": {"eps": 0.1, "gain": 0.1},
            },
            "m0": {"kind": "gaussian", "center": [0.5], "width": 0.12},
            "horizon": 0.02,
        },
        "grid": {"dim": 1, "box_length": 1.0, "nx": 16, "nt": 128},
        "mc": {"num_paths": 400, "seed": 7, "x0": [0.3]},
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, val in overrides.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_minimal_config_defaults(tmp_path, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="mfgdiff"):
        cfg = load_config(_minimal_doc(tmp_path))
    assert cfg.fixed_point.theta == 0.5
    assert cfg.fixed_point.tol == 1e-4
    echoed = [rec.message for rec in caplog.records if "default applied" in rec.message]
    assert any("fixed_point.theta" in m for m in echoed)
    assert any("model.hamiltonians.dim" in m for m in echoed)
    assert any("output.write_fields" in m for m in echoed)


@pytest.mark.parametrize("key", ["output.directory", "output.write_fields", "mc.antithetic", "grid.theta_lf"])
def test_explicit_null_rejected(tmp_path, key):
    with pytest.raises(ConfigError, match=f"{key} is null; omit the key"):
        load_config(_minimal_doc(tmp_path, **{key: None}))


def test_theta_lf_default_is_drift_bound(tmp_path, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="mfgdiff"):
        cfg = load_config(_minimal_doc(tmp_path, **{"model.bounds.drift_bound": 0.75}))
    assert cfg.grid.theta_lf == 0.75
    assert "config default applied: grid.theta_lf = 0.75" in caplog.text


def test_bad_bounds_named(tmp_path):
    path = _minimal_doc(tmp_path, **{"model.bounds.lambda1": 3.0})
    with pytest.raises(ConfigError, match="lambda1 < lambda2"):
        load_config(path)


def test_cfl_violation_prints_min_nt(tmp_path):
    path = _minimal_doc(tmp_path, **{"grid.nt": 8})
    with pytest.raises(ConfigError, match="smallest admissible nt"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _minimal_doc(tmp_path, **{"model.frobnicate": 1})
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config(path)
    path2 = _minimal_doc(tmp_path, **{"grid.spacing": 0.1})
    with pytest.raises(ConfigError, match="spacing"):
        load_config(path2)


# linearize keeps its own quadrature order, and the closed-form drift box is
# model.bounds.drift_bound: a run document can set neither
@pytest.mark.parametrize(
    "key, value", [("quadrature_order", 16), ("model.hamiltonians.drift_ctrl_max", 4.0)]
)
def test_deleted_key_is_unknown_exit2(tmp_path, caplog, key, value):
    path = _minimal_doc(tmp_path, **{key: value})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any("unknown keys" in msg and key.rpartition(".")[2] in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


def test_drift_grid_beyond_drift_bound_exit2(tmp_path, caplog):
    # a drift of 2 with drift_bound 0 (so theta_lf 0) would march a non-monotone scheme
    hamiltonians = {"kind": "tabulated", "control_grid_u": [[0.0], [2.0]], "control_grid_eta": [1.0]}
    path = _minimal_doc(tmp_path, **{"model.bounds.drift_bound": 0.0, "model.hamiltonians": hamiltonians})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any("control_grid_u" in msg and "drift_bound" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "after, repeat, named",
    [
        ("  nx: 16\n", "  nx: 32\n", "'nx'"),
        ("  nx: 16\n", "grid: {nx: 32, nt: 128}\n", "'grid'"),
        ("    lambda2: 2.0\n", "    lambda1: 0.5\n", "'lambda1'"),
    ],
    ids=["grid.nx", "grid", "model.bounds.lambda1"],
)
def test_repeated_key_exit2_names_key_and_line(tmp_path, caplog, after, repeat, named):
    # a plain YAML load would keep the last of the two, silently
    path = _minimal_doc(tmp_path)
    head, tail = path.read_text().split(after)
    path.write_text(head + after + repeat + tail)
    line = (head + after).count("\n") + 1
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any(f"key {named} is repeated at line {line}" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_parse_error_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unbalanced")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(bad)


def test_tabulated_config_loads(tmp_path):
    doc = {
        "model": {
            "bounds": {"lambda1": 1.0, "lambda2": 2.0, "drift_bound": 0.0},
            "hamiltonians": {
                "kind": "tabulated",
                "control_grid_u": [[0.0]],
                "control_grid_eta": [1.0],
                "l1": {"kind": "zero"},
                "l3": {"kind": "zero"},
            },
            "horizon": 0.02,
        },
        "grid": {"nx": 16, "nt": 128},
    }
    path = tmp_path / "t.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(path)
    assert cfg.model.hamiltonians.kind == "tabulated"


def test_repo_configs_load():
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("model_a.yaml", "heat.yaml"):
        cfg = load_config(root / name)
        assert cfg.grid.nx >= 8


def test_repo_2d_config_is_the_benchmark_run(tmp_path, monkeypatch):
    # CI checks the 2D run's iteration count against the benchmark's fingerprint
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    doc = workloads.WORKLOADS["mfg_2d"].make_doc(False)
    doc["mc"]["seed"] = 7
    doc["output"] = {"directory": "out/model_a_2d"}
    path = tmp_path / "mfg_2d.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert load_config(root / "configs" / "model_a_2d.yaml") == load_config(path)


# ---------------------------------------------------------------------------
# field serialization
# ---------------------------------------------------------------------------


@pytest.fixture
def small_grid():
    return GridSpec(dim=1, box_length=1.0, nx=16, nt=8, horizon=1e-4, a_max=0.5, theta_lf=0.0)


@pytest.mark.parametrize("kind", [TimeField, DensityPath])
@pytest.mark.parametrize("dim", [1, 2])
def test_write_read_roundtrip_bit_exact(tmp_path, rng, dim, kind):
    grid = GridSpec(dim=dim, box_length=1.0, nx=8, nt=5, horizon=1e-4, a_max=0.5, theta_lf=0.0)
    values = rng.uniform(0.1, 2.0, (grid.nt + 1, *grid.shape))
    # unit mass per level, so the same values also make a density path
    values /= values.sum(axis=tuple(range(1, dim + 1)), keepdims=True) * grid.dx**dim
    field = DensityPath.from_values(grid, values) if kind is DensityPath else TimeField(grid, values)
    write_field(field, tmp_path / "f")
    assert sorted(p.name for p in (tmp_path / "f").iterdir()) == ["manifest.txt", "values.f64"]
    back = read_field(tmp_path / "f")
    assert type(back) is kind
    assert np.array_equal(back.values, field.values)
    assert back.grid.same_lattice(grid)


def test_density_roundtrip_and_mass_column(small_grid, tmp_path):
    vals = np.ones((small_grid.nt + 1, small_grid.nx))
    m = DensityPath.from_values(small_grid, vals)
    write_field(m, tmp_path / "m")
    back = read_field(tmp_path / "m")
    assert isinstance(back, DensityPath)
    # the values of each level, as stored, sum to 1/dx
    data = np.fromfile(tmp_path / "m" / "values.f64", dtype="<f8").reshape(small_grid.nt + 1, small_grid.nx)
    assert data.sum(axis=1) == pytest.approx(1.0 / small_grid.dx, abs=1e-12)


def _level_span(grid, n):
    """The byte offsets of level n in `values.f64`."""
    width = grid.n_nodes * 8
    return n * width, (n + 1) * width


def test_read_rejects_corrupted_level(small_grid, tmp_path, rng):
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    write_field(TimeField(small_grid, vals), tmp_path / "f")
    raw = tmp_path / "f" / "values.f64"
    blob = bytearray(raw.read_bytes())
    lo, hi = _level_span(small_grid, 3)
    blob[lo + 8 : lo + 16] = np.float64(999.0).tobytes()
    raw.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match=r"level 3 of .*values\.f64"):
        read_field(tmp_path / "f")
    # a digest line rewritten to match the corrupted level still breaks the combined checksum
    man = tmp_path / "f" / "manifest.txt"
    digest = hashlib.sha256(bytes(blob[lo:hi])).hexdigest()
    entries = [
        f"level 3 sha256={digest}" if line.startswith("level 3 ") else line
        for line in man.read_text().splitlines()
    ]
    man.write_text("\n".join(entries) + "\n")
    with pytest.raises(ConfigError, match="checksum"):
        read_field(tmp_path / "f")


def test_read_rejects_wrong_size(small_grid, tmp_path, rng):
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    write_field(TimeField(small_grid, vals), tmp_path / "f")
    raw = tmp_path / "f" / "values.f64"
    blob = raw.read_bytes()
    expected = (small_grid.nt + 1) * small_grid.nx * 8
    # the last value cut off
    raw.write_bytes(blob[:-8])
    with pytest.raises(ConfigError, match=f"values\\.f64 holds {expected - 8} bytes, expected {expected}"):
        read_field(tmp_path / "f")
    # one byte past the last level
    raw.write_bytes(blob + b"\0")
    with pytest.raises(ConfigError, match=f"values\\.f64 holds {expected + 1} bytes, expected {expected}"):
        read_field(tmp_path / "f")
    # the file restored reads back exactly
    raw.write_bytes(blob)
    assert np.array_equal(read_field(tmp_path / "f").values, vals)


def test_read_rejects_missing_digest(small_grid, tmp_path, rng):
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    write_field(TimeField(small_grid, vals), tmp_path / "f")
    man = tmp_path / "f" / "manifest.txt"
    man.write_text("".join(line for line in man.read_text().splitlines(True) if not line.startswith("level 5 ")))
    with pytest.raises(ConfigError, match="lists no digest for level 5"):
        read_field(tmp_path / "f")


def test_read_rejects_per_level_layout(small_grid, tmp_path, rng):
    # output directories of earlier versions held one level_NNNNNN.csv per level
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    write_field(TimeField(small_grid, vals), tmp_path / "f")
    (tmp_path / "f" / "values.f64").rename(tmp_path / "f" / "level_000000.csv")
    man = tmp_path / "f" / "manifest.txt"
    man.write_text(re.sub(r"^level (\d+) ", lambda g: f"file level_{int(g[1]):06d}.csv ", man.read_text(), flags=re.M))
    with pytest.raises(ConfigError, match=r"missing .*values\.f64"):
        read_field(tmp_path / "f")


def test_read_rejects_csv_layout(small_grid, tmp_path, rng):
    # output directories of earlier versions held the levels as text in one values.csv
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    write_field(TimeField(small_grid, vals), tmp_path / "f")
    (tmp_path / "f" / "values.f64").unlink()
    rows = [f"{n},{x!r},{v!r}" for n in range(small_grid.nt + 1) for x, v in zip(small_grid.axis_coords(), vals[n])]
    (tmp_path / "f" / "values.csv").write_text("level,x,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=r"missing .*values\.f64"):
        read_field(tmp_path / "f")


@pytest.mark.parametrize("dim", [1, 2])
def test_level_bytes_match_f8_reference(tmp_path, rng, dim):
    grid = GridSpec(dim=dim, box_length=1.0, nx=8, nt=3, horizon=1e-3, a_max=0.5)
    values = rng.standard_normal((grid.nt + 1, *grid.shape))
    values.reshape(-1)[:5] = [0.0, -0.0, 1e-300, 1.0 / 3.0, -2.5e17]
    write_field(TimeField(grid, values), tmp_path / "f")
    # each value packed on its own, levels ascending and nodes in C order
    expected = b"".join(struct.pack("<d", v) for n in range(grid.nt + 1) for v in values[n].reshape(-1).tolist())
    assert (tmp_path / "f" / "values.f64").read_bytes() == expected
    back = read_field(tmp_path / "f").values.reshape(-1)
    assert back[:5].tolist() == [0.0, -0.0, 1e-300, 1.0 / 3.0, -2.5e17]
    assert np.signbit(back[1]) and back[2] == 1e-300


def test_checksum_changes_iff_values_change(small_grid, tmp_path, rng):
    vals = rng.standard_normal((small_grid.nt + 1, small_grid.nx))
    c1 = write_field(TimeField(small_grid, vals), tmp_path / "a")
    c2 = write_field(TimeField(small_grid, vals.copy()), tmp_path / "b")
    assert c1 == c2
    vals2 = vals.copy()
    vals2[3, 3] += 1e-13
    c3 = write_field(TimeField(small_grid, vals2), tmp_path / "c")
    assert c3 != c1


def test_write_rejects_nonfinite(small_grid, tmp_path):
    vals = np.zeros((small_grid.nt + 1, small_grid.nx))
    u = TimeField(small_grid, vals)
    u.values[2, 2] = np.nan  # bypasses the constructor check on purpose
    with pytest.raises(ContractError):
        write_field(u, tmp_path / "bad")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_solve_hjb_subcommand(tmp_path):
    rc = main(["solve-hjb", "--config", str(_minimal_doc(tmp_path)), "--quiet"])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "u" / "manifest.txt").is_file()
    assert (out / "residuals.csv").is_file()
    resid = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)
    assert resid[:, 1].max() <= 1e-10


def test_solve_hjb_determinism(tmp_path):
    path = _minimal_doc(tmp_path)
    main(["solve-hjb", "--config", str(path), "--out", str(tmp_path / "r1"), "--quiet"])
    main(["solve-hjb", "--config", str(path), "--out", str(tmp_path / "r2"), "--quiet"])
    man1 = read_manifest(tmp_path / "r1" / "u")["checksum"]
    man2 = read_manifest(tmp_path / "r2" / "u")["checksum"]
    assert man1 == man2


def test_solve_mfg_and_verify_sde(tmp_path):
    path = _minimal_doc(tmp_path, **{"fixed_point.tol": 1e-3, "grid.nt": 128})
    rc = main(["solve-mfg", "--config", str(path), "--quiet"])
    assert rc == 0
    out = tmp_path / "out"
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("iteration,")
    assert len(report) >= 2
    # now verify against the solve output
    rc2 = main([
        "verify-sde", "--config", str(path), "--quiet",
        "--prior", str(out), "--out", str(tmp_path / "mc"),
    ])
    assert rc2 == 0
    assert (tmp_path / "mc" / "mc_value.csv").is_file()
    assert (tmp_path / "mc" / "mc_modulus.csv").is_file()


def test_verify_sde_missing_prior_exit2(tmp_path):
    rc = main([
        "verify-sde", "--config", str(_minimal_doc(tmp_path)), "--quiet",
        "--prior", str(tmp_path / "missing"),
    ])
    assert rc == 2


def _prior_errors(path, prior, tmp_path, caplog, commands=("verify-sde", "wasserstein")):
    """Exit code and ERROR log lines of each command run on `prior`."""
    results = {}
    for command in commands:
        caplog.clear()
        rc = main([
            command, "--config", str(path), "--quiet",
            "--prior", str(prior), "--out", str(tmp_path / command),
        ])
        results[command] = rc, [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    return results


def test_corrupt_prior_exit2_names_level(tmp_path, caplog):
    path = _minimal_doc(tmp_path, **{"fixed_point.tol": 1e-2})
    assert main(["solve-mfg", "--config", str(path), "--quiet"]) == 0
    prior = tmp_path / "out"
    raw = prior / "m" / "values.f64"
    blob = bytearray(raw.read_bytes())
    lo, _ = _level_span(load_config(path).grid, 3)
    blob[lo + 16 : lo + 24] = np.float64(0.5).tobytes()
    raw.write_bytes(bytes(blob))
    for rc, errors in _prior_errors(path, prior, tmp_path, caplog).values():
        assert rc == 2
        assert any("level 3 of" in msg and "values.f64" in msg for msg in errors), errors


def _written_prior(path, prior, m_nt=None):
    """u/ and m/ fields on the config grid, m/ on `m_nt` levels if given."""
    grid = load_config(path).grid
    m_grid = grid if m_nt is None else dataclasses.replace(grid, nt=m_nt)
    write_field(TimeField(grid, np.zeros((grid.nt + 1, *grid.shape))), prior / "u")
    uniform = np.full((m_grid.nt + 1, *m_grid.shape), 1.0 / m_grid.box_length**m_grid.dim)
    write_field(DensityPath.from_values(m_grid, uniform), prior / "m")


def test_prior_on_two_lattices_exit2(tmp_path, caplog):
    path = _minimal_doc(tmp_path)
    _written_prior(path, tmp_path / "prior", m_nt=160)
    rc, errors = _prior_errors(path, tmp_path / "prior", tmp_path, caplog, ("verify-sde",))["verify-sde"]
    assert rc == 2
    assert any("different lattices" in msg for msg in errors), errors


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda text: re.sub(r"^kind=.*\n", "", text, flags=re.M), "kind="),
        (lambda text: re.sub(r"^horizon=.*\n", "", text, flags=re.M), "horizon="),
        (lambda text: re.sub(r"^nx=.*$", "nx=sixteen", text, flags=re.M), "nx="),
        (lambda text: re.sub(r"^kind=.*$", "kind=velocity", text, flags=re.M), "kind="),
    ],
    ids=["no-kind", "no-horizon", "nx-not-int", "unknown-kind"],
)
def test_malformed_prior_manifest_exit2_names_key(tmp_path, caplog, edit, named):
    path = _minimal_doc(tmp_path)
    prior = tmp_path / "prior"
    _written_prior(path, prior)
    man = prior / "m" / "manifest.txt"
    man.write_text(edit(man.read_text()))
    with pytest.raises(ConfigError, match=named):
        read_field(prior / "m")
    for rc, errors in _prior_errors(path, prior, tmp_path, caplog).values():
        assert rc == 2
        assert any(named in msg for msg in errors), errors


def test_infinite_horizon_prior_exit2_names_horizon(tmp_path, caplog):
    path = _minimal_doc(tmp_path)
    prior = tmp_path / "prior"
    _written_prior(path, prior)
    man = prior / "m" / "manifest.txt"
    man.write_text(re.sub(r"^horizon=.*$", "horizon=inf", man.read_text(), flags=re.M))
    with pytest.raises(StabilityError, match="horizon must be positive and finite"):
        read_field(prior / "m")
    rc, errors = _prior_errors(path, prior, tmp_path, caplog, ("wasserstein",))["wasserstein"]
    assert rc == 2
    assert any("horizon" in msg for msg in errors), errors


def test_negative_density_hook_exit1(tmp_path):
    path = _minimal_doc(
        tmp_path, **{"debug.inject_negative_density": True, "fixed_point.tol": 1e-2}
    )
    rc = main(["solve-mfg", "--config", str(path), "--quiet"])
    assert rc == 1


def test_diagnose_subcommand(tmp_path):
    rc = main(["diagnose", "--config", str(_minimal_doc(tmp_path)), "--quiet"])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("regularity.csv", "hypotheses.csv", "class_conditions.csv"):
        assert (out / name).is_file()
    rows = (out / "class_conditions.csv").read_text().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] == "1" for row in rows)


def test_wasserstein_subcommand(tmp_path):
    path = _minimal_doc(tmp_path, **{"fixed_point.tol": 1e-2})
    main(["solve-mfg", "--config", str(path), "--quiet"])
    rc = main([
        "wasserstein", "--config", str(path), "--quiet",
        "--prior", str(tmp_path / "out"), "--out", str(tmp_path / "w"),
    ])
    assert rc == 0
    assert (tmp_path / "w" / "distances.csv").is_file()
    assert (tmp_path / "w" / "holder.csv").is_file()


def test_bad_config_exit2(tmp_path):
    path = _minimal_doc(tmp_path, **{"grid.nt": 4})
    rc = main(["solve-hjb", "--config", str(path), "--quiet"])
    assert rc == 2


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("grid.theta_lf", float("nan"), "grid.theta_lf"),
        ("mc.dt_mc", float("nan"), "mc.dt_mc"),
        ("model.horizon", float("inf"), "model.horizon"),
        ("model.terminal.base.amplitude", float("nan"), "model.terminal.base.amplitude"),
        ("model.m0.width", float("nan"), "model.m0.width"),
        ("mc.x0", [float("nan")], "mc.x0[0]"),
        ("model.discount", float("nan"), "model.discount"),
        ("fixed_point.tol", float("nan"), "fixed_point.tol"),
    ],
)
def test_nonfinite_number_exit2_names_key(tmp_path, caplog, key, value, named):
    path = _minimal_doc(tmp_path, **{key: value})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any(f"{named} is " in msg and "must be finite" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()  # refused before any field work


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, named", [("fixed_point.tol", "fixed_point.tol"), ("mc.x0", "mc.x0[0]")])
def test_quoted_nonfinite_number_exit2_names_key(tmp_path, caplog, text, key, named):
    # YAML reads a quoted "nan" as a string, which float() would take
    path = _minimal_doc(tmp_path, **{key: [text] if key == "mc.x0" else text})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any(f"{named} is '{text}'" in msg and "must be finite" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "hamiltonians, named",
    [
        (
            {"kind": "closed-form", "control_grid_u": [[0.0]], "control_grid_eta": [1.0],
             "l1": {"kind": "quadratic", "weight": 3.0}},
            "control_grid_u",
        ),
        (
            {"kind": "tabulated", "control_grid_u": [[0.0]], "control_grid_eta": [1.0],
             "l1_weight": 7.0},
            "l1_weight",
        ),
    ],
)
def test_other_kind_hamiltonian_key_exit2_names_key(tmp_path, caplog, hamiltonians, named):
    # a key of the other Hamiltonian kind is refused, not dropped
    path = _minimal_doc(tmp_path, **{"model.hamiltonians": hamiltonians})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any("model.hamiltonians" in msg and repr(named) in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("model.m0.center", [0.5, 0.9]), ("mc.x0", [0.3, 0.3]), ("mc.x0", [])]
)
def test_point_key_of_wrong_length_exit2_names_key(tmp_path, caplog, key, value):
    # a 1D model: extra coordinates are refused, not dropped
    path = _minimal_doc(tmp_path, **{key: value})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any(f"{key} has {len(value)} coordinates" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


def test_string_key_may_read_nan(tmp_path):
    path = _minimal_doc(tmp_path, **{"output.directory": "nan"})
    assert load_config(path).output.directory == "nan"


def test_seed_override(tmp_path):
    path = _minimal_doc(tmp_path)
    cfg = load_config(path)
    assert cfg.mc.seed == 7
    # the override is applied before dispatch; exercised through verify paths
    from mfgdiff.cli import main as cli_main

    rc = cli_main(["solve-hjb", "--config", str(path), "--seed", "123", "--quiet"])
    assert rc == 0


@pytest.mark.parametrize("route", ["document", "flag"])
def test_negative_seed_exit2_before_field_work(tmp_path, caplog, route):
    # np.random.default_rng would refuse it only after the HJB solve
    path = _minimal_doc(tmp_path, **({"mc.seed": -1} if route == "document" else {}))
    flag = ["--seed", "-1"] if route == "flag" else []
    assert main(["diagnose", "--config", str(path), *flag, "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any("seed must be nonnegative" in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid.nx", "nan"),
        ("grid.nx", 8.7),
        ("grid.nt", "8"),
        ("mc.num_paths", "nan"),
        ("mc.seed", 1.5),
        ("fixed_point.max_iter", "8"),
        ("model.hamiltonians.dim", "1"),
        ("grid.dim", True),
        ("mc.antithetic", "false"),
        ("output.write_fields", "false"),
        ("output.write_fields", 0),
        ("debug.inject_negative_density", "false"),
    ],
)
def test_integer_and_boolean_keys_exit2_names_key(tmp_path, caplog, key, value):
    path = _minimal_doc(tmp_path, **{key: value})
    assert main(["solve-hjb", "--config", str(path), "--quiet"]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert any(f"{key} must be" in msg and repr(value) in msg for msg in errors), errors
    assert not (tmp_path / "out").exists()

