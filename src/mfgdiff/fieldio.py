"""Deterministic CSV serialization of fields with a checksummed manifest.

A field directory holds one CSV per time level (node coordinates followed by
the value, 17 significant digits so float64 round-trips bit-exactly) and a
manifest listing the grid metadata, a sha256 per level file, and a combined
checksum over the per-file digests.  No timestamps are recorded: identical
data produces identical bytes.

Reading checks both: each level file's bytes against its listed digest
before they are parsed, and the combined checksum over the digests.  A
mismatch raises a ConfigError that names the file.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError
from .fp import DensityPath
from .grid import GridSpec, TimeField

_FMT = "%.17g"


def _level_name(n: int) -> str:
    return f"level_{n:06d}.csv"


def _level_template(grid: GridSpec) -> str:
    """Text of one level file with every value left as a `%.17g` slot.

    The coordinate columns are the same on every level, so they are
    formatted once per grid.
    """
    coords = grid.coords().reshape(-1, grid.dim)
    header = ",".join(["x", "y"][: grid.dim] + ["value"])
    rows = "".join(",".join(_FMT % c for c in row) + "," + _FMT + "\n" for row in coords.tolist())
    return header + "\n" + rows


def write_field(field: TimeField | DensityPath, path) -> str:
    """Write all levels plus a manifest; returns the combined checksum."""
    is_density = isinstance(field, DensityPath)
    grid = field.grid
    values = field.values
    if not np.all(np.isfinite(values)):
        raise ContractError("refusing to write non-finite values")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    template = _level_template(grid)
    digests = []
    for n in range(grid.nt + 1):
        blob = (template % tuple(values[n].reshape(-1).tolist())).encode()
        (out / _level_name(n)).write_bytes(blob)
        digests.append(hashlib.sha256(blob).hexdigest())
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    meta = [
        f"kind={'density' if is_density else 'timefield'}",
        f"dim={grid.dim}",
        f"box_length={_FMT % grid.box_length}",
        f"nx={grid.nx}",
        f"nt={grid.nt}",
        f"horizon={_FMT % grid.horizon}",
        f"a_max={_FMT % grid.a_max}",
        f"theta_lf={_FMT % grid.theta_lf}",
    ]
    meta += [f"file {_level_name(n)} sha256={d}" for n, d in enumerate(digests)]
    meta.append(f"checksum={combined}")
    (out / "manifest.txt").write_text("\n".join(meta) + "\n")
    return combined


def _read_manifest(path) -> tuple[dict, list[str]]:
    """Metadata entries, and the per-file digest lines in their written order."""
    man = Path(path) / "manifest.txt"
    if not man.is_file():
        raise ConfigError(f"no manifest at {man}")
    meta, files = {}, []
    for line in man.read_text().splitlines():
        if line.startswith("file "):
            files.append(line)
            continue
        key, _, val = line.partition("=")
        meta[key] = val
    return meta, files


def read_manifest(path) -> dict:
    return _read_manifest(path)[0]


def read_field(path) -> TimeField | DensityPath:
    """Reconstruct a field from a directory written by `write_field`, checking every digest."""
    meta, files = _read_manifest(path)
    grid = GridSpec(
        dim=int(meta["dim"]),
        box_length=float(meta["box_length"]),
        nx=int(meta["nx"]),
        nt=int(meta["nt"]),
        horizon=float(meta["horizon"]),
        a_max=float(meta["a_max"]),
        theta_lf=float(meta["theta_lf"]),
    )
    if len(files) != grid.nt + 1:
        raise ConfigError(f"manifest in {path} lists {len(files)} level files, expected {grid.nt + 1}")
    values = np.empty((grid.nt + 1, *grid.shape))
    combined = hashlib.sha256()
    for n, listed in enumerate(files):
        fname = Path(path) / _level_name(n)
        if not fname.is_file():
            raise ConfigError(f"missing level file {fname}")
        blob = fname.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if listed != f"file {fname.name} sha256={digest}":
            raise ConfigError(f"level file {fname} does not match its manifest digest")
        combined.update(digest.encode())
        body = blob.decode().partition("\n")[2].rstrip("\n").replace("\n", ",")
        rows = np.fromstring(body, sep=",").reshape(-1, grid.dim + 1)
        values[n] = rows[:, grid.dim].reshape(grid.shape)
    if combined.hexdigest() != meta.get("checksum"):
        raise ConfigError(f"checksum in {path} manifest does not match its level digests")
    if meta["kind"] == "density":
        return DensityPath.from_values(grid, values)
    return TimeField(grid, values)


def write_table(path, header: list[str], rows) -> None:
    """Small CSV table writer for reports; all numbers must be finite."""
    lines = [",".join(header)]
    for row in rows:
        for v in row:
            if isinstance(v, float) and not np.isfinite(v):
                raise ContractError(f"refusing to write non-finite table entry in {path}")
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
