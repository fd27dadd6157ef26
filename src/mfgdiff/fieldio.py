"""Deterministic binary serialization of fields with a checksummed manifest.

A field directory holds `values.f64`: the field's levels as raw little-endian
float64, levels ascending and nodes in C order, with no header, so every
value reads back bit for bit.  `manifest.txt` lists the field kind and the
grid, a sha256 per level over exactly that level's bytes, and a combined
checksum over the level digests.  Identical data produces identical bytes.
Reading refuses a file whose size is not (nt + 1) * n_nodes * 8 bytes before
reading any of it, then names the first level whose bytes do not match its
digest, then checks the combined checksum.  Each refusal, a missing file or
digest, and a manifest with a missing or malformed entry raise a ConfigError.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError
from .fp import DensityPath
from .grid import GridSpec, TimeField

_FMT = "%.17g"
_VALUES = "values.f64"
_GRID_KEYS = {"dim": int, "box_length": float, "nx": int, "nt": int,
              "horizon": float, "a_max": float, "theta_lf": float}
_KINDS = {"timefield": TimeField, "density": DensityPath.from_values}


def write_field(field: TimeField | DensityPath, path) -> str:
    """Write `values.f64` level by level, then the manifest; returns the combined checksum."""
    grid, values = field.grid, field.values
    if not np.all(np.isfinite(values)):
        raise ContractError("refusing to write non-finite values")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    digests = []
    with open(out / _VALUES, "wb") as fh:
        for level in values:
            level = np.ascontiguousarray(level, dtype="<f8")  # a view unless it must be copied
            fh.write(level)
            digests.append(hashlib.sha256(level).hexdigest())
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    meta = [
        f"kind={'density' if isinstance(field, DensityPath) else 'timefield'}",
        *(f"{key}={_FMT % getattr(grid, key)}" for key in _GRID_KEYS),
        *(f"level {n} sha256={d}" for n, d in enumerate(digests)),
        f"checksum={combined}",
    ]
    (out / "manifest.txt").write_text("\n".join(meta) + "\n")
    return combined


def read_manifest(path) -> dict:
    """Every `key=value` entry of the manifest, the level digests under `level <n> sha256`."""
    man = Path(path) / "manifest.txt"
    if not man.is_file():
        raise ConfigError(f"no manifest at {man}")
    return dict(line.partition("=")[::2] for line in man.read_text().splitlines())


def _manifest_grid(meta: dict, path) -> GridSpec:
    grid = {}
    for key, cast in _GRID_KEYS.items():
        try:
            grid[key] = cast(meta[key])
        except (KeyError, ValueError):
            raise ConfigError(f"manifest in {path} has no valid {key}= entry (got {meta.get(key)!r})") from None
    return GridSpec(**grid)


def read_field(path) -> TimeField | DensityPath:
    """Reconstruct a field written by `write_field`: `values.f64` is read straight into
    the level stack, then every level's digest and the combined checksum are checked."""
    meta = read_manifest(path)
    grid = _manifest_grid(meta, path)
    if meta.get("kind") not in _KINDS:
        raise ConfigError(f"manifest in {path} has kind={meta.get('kind')!r}, expected one of {sorted(_KINDS)}")
    digests = [meta.get(f"level {n} sha256") for n in range(grid.nt + 1)]
    fname = Path(path) / _VALUES
    if not fname.is_file():
        raise ConfigError(f"missing {fname}")
    if None in digests:
        raise ConfigError(f"manifest in {path} lists no digest for level {digests.index(None)}")
    size, expected = fname.stat().st_size, (grid.nt + 1) * grid.n_nodes * 8
    if size != expected:
        raise ConfigError(f"{fname} holds {size} bytes, expected {expected} "
                          f"for {grid.nt + 1} levels of {grid.n_nodes} float64 nodes")
    values = np.empty((grid.nt + 1, *grid.shape), dtype="<f8")
    with open(fname, "rb") as fh:
        fh.readinto(values)
    combined = hashlib.sha256()
    for n, level in enumerate(values):
        digest = hashlib.sha256(level).hexdigest()
        if digest != digests[n]:
            raise ConfigError(f"level {n} of {fname} does not match its manifest digest")
        combined.update(digest.encode())
    if combined.hexdigest() != meta.get("checksum"):
        raise ConfigError(f"checksum in {path} manifest does not match its level digests")
    return _KINDS[meta["kind"]](grid, values)


def write_table(path, header: list[str], rows) -> None:
    """Small CSV table writer for reports; all numbers must be finite."""
    lines = [",".join(header)]
    for row in rows:
        for v in row:
            if isinstance(v, float) and not np.isfinite(v):
                raise ContractError(f"refusing to write non-finite table entry in {path}")
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
