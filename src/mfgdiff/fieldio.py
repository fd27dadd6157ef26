"""Deterministic CSV serialization of fields with a checksummed manifest.

A field directory holds `values.csv`: a header `level,x[,y],value`, then one
row per (level, node), levels ascending and nodes in C order, 17 significant
digits so float64 round-trips bit-exactly.  `manifest.txt` lists the grid
metadata, a sha256 per level over exactly that level's rows, and a combined
checksum over the level digests.  Identical data produces identical bytes.
A corrupt level, missing or extra rows, a row with a wrong number of
fields, or a row whose level or coordinates differ from the manifest grid
raise a ConfigError naming the first level that does not match.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError
from .fp import DensityPath
from .grid import GridSpec, TimeField

_FMT = "%.17g"
_VALUES = "values.csv"
_BLOCK = 1 << 20  # bytes per read of `values.csv`
_GRID_KEYS = {"dim": int, "box_length": float, "nx": int, "nt": int,
              "horizon": float, "a_max": float, "theta_lf": float}


def _header(grid: GridSpec) -> bytes:
    return (",".join(["level", "x", "y"][: grid.dim + 1] + ["value"]) + "\n").encode()


def _level_template(grid: GridSpec) -> list[str]:
    """Rows of one level without their level column, each value a `%.17g` slot;
    the coordinates are the same on every level, so they are formatted once per grid."""
    coords = grid.coords().reshape(-1, grid.dim)
    return [",".join(_FMT % c for c in row) + "," + _FMT + "\n" for row in coords.tolist()]


def write_field(field: TimeField | DensityPath, path) -> str:
    """Stream `values.csv` level by level, then write the manifest; returns the combined checksum."""
    grid, values = field.grid, field.values
    if not np.all(np.isfinite(values)):
        raise ContractError("refusing to write non-finite values")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    rows = _level_template(grid)
    digests = []
    with open(out / _VALUES, "wb") as fh:
        fh.write(_header(grid))
        for n in range(grid.nt + 1):
            lead = f"{n},"
            blob = ((lead + lead.join(rows)) % tuple(values[n].reshape(-1).tolist())).encode()
            fh.write(blob)
            digests.append(hashlib.sha256(blob).hexdigest())
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


def _runs(fh, sizes):
    """Read `fh` a block at a time; yield runs of `sizes` rows, with the offset past
    each row (fewer if the file ends first), then whatever follows."""
    buf, ends = b"", np.empty(0, dtype=np.int64)
    for want in sizes:
        while len(ends) < want and (block := fh.read(_BLOCK)):
            ends = np.append(ends, len(buf) + 1 + np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10))
            buf += block
        cut = int(ends[want - 1]) if len(ends) >= want else len(buf)
        yield buf[:cut], ends[:want]
        buf, ends = buf[cut:], ends[want:] - cut
    yield buf + fh.read(), None


def read_field(path) -> TimeField | DensityPath:
    """Reconstruct a field written by `write_field`, reading `values.csv` once, a run of
    levels at a time; each level's digest is checked before that level is parsed."""
    meta = read_manifest(path)
    grid = GridSpec(**{key: cast(meta[key]) for key, cast in _GRID_KEYS.items()})
    digests = [meta.get(f"level {n} sha256") for n in range(grid.nt + 1)]
    fname = Path(path) / _VALUES
    if not fname.is_file():
        raise ConfigError(f"missing {fname}")
    if None in digests:
        raise ConfigError(f"manifest in {path} lists no digest for level {digests.index(None)}")
    per, chunks, width = grid.n_nodes, grid.level_chunks(), grid.dim + 2
    coords = grid.coords().reshape(per, grid.dim)
    values, combined = np.empty((grid.nt + 1, *grid.shape)), hashlib.sha256()
    with open(fname, "rb") as fh:
        if fh.readline() != _header(grid):
            raise ConfigError(f"{fname} does not start with the header {_header(grid)!r}")
        runs = _runs(fh, [(c.stop - c.start) * per for c in chunks])
        for c, (text, ends) in zip(chunks, runs):
            bounds = [0] + ends[per - 1 :: per].tolist()  # where each complete level of the run ends
            for k, n in enumerate(range(c.start, c.stop)):
                if k + 1 >= len(bounds):
                    raise ConfigError(f"level {n} of {fname} has {len(ends) - k * per} rows, expected {per}")
                digest = hashlib.sha256(text[bounds[k] : bounds[k + 1]]).hexdigest()
                if digest != digests[n]:
                    raise ConfigError(f"level {n} of {fname} does not match its manifest digest")
                if text.count(b",", bounds[k], bounds[k + 1]) != per * (width - 1):
                    raise ConfigError(f"level {n} of {fname} has rows with a wrong number of fields")
                combined.update(digest.encode())
            try:
                rows = np.fromstring(text[:-1].replace(b"\n", b","), sep=",").reshape(-1, per, width)
            except ValueError as exc:
                raise ConfigError(f"levels {c.start}-{c.stop - 1} of {fname} do not parse: {exc}") from None
            # the level and coordinate columns are written %.17g, so they read back exactly
            misplaced = (rows[..., 0] != np.arange(c.start, c.stop)[:, None]) | np.any(
                rows[..., 1:-1] != coords, axis=-1
            )
            if misplaced.any():
                n = c.start + int(np.flatnonzero(misplaced.any(axis=1))[0])
                raise ConfigError(f"level {n} of {fname} has rows off their level or grid coordinates")
            values[c] = rows[..., -1].reshape(-1, *grid.shape)
        rest = next(runs)[0]
    if rest:
        raise ConfigError(f"{fname} has {len(rest.splitlines())} rows after its last level {grid.nt}")
    if combined.hexdigest() != meta.get("checksum"):
        raise ConfigError(f"checksum in {path} manifest does not match its level digests")
    return (DensityPath.from_values if meta["kind"] == "density" else TimeField)(grid, values)


def write_table(path, header: list[str], rows) -> None:
    """Small CSV table writer for reports; all numbers must be finite."""
    lines = [",".join(header)]
    for row in rows:
        for v in row:
            if isinstance(v, float) and not np.isfinite(v):
                raise ContractError(f"refusing to write non-finite table entry in {path}")
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
