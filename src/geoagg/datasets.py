"""Columnar geospatial datasets: synthetic generators and CSV round-tripping.

A :class:`GeoDataset` holds its rows once, as read-only columns that the
generators and :func:`load_csv` fill directly; :class:`PointRecord` rows are
a derived view, and :meth:`GeoDataset.from_records` the one way back.

Two generators are provided.  ``generate_gwr`` lays points on a regular grid
and combines two covariates with smoothly varying coefficient surfaces (a
linear ramp and a Gaussian bump), which plants real spatial heterogeneity in
the target.  ``generate_sl`` draws points uniformly and mixes the target
through a spatial-lag process ``y = (I - rho*W)^-1 (X beta + eps)`` over
row-standardised 8-nearest-neighbour weights, which plants spatial
autocorrelation.

All randomness comes from numpy's default PCG64 generator seeded explicitly,
and the draw order is fixed (covariates first, then noise), so a dataset is a
pure function of ``(generator, n, seed, params)``.

CSV files are written and read a whole column at a time.  :func:`write_csv`
formats every row of a file in one ``%`` over a flat tuple of values, floats
with 17 significant digits, which round-trips float64 exactly; the result
files of :mod:`geoagg.pipeline` and :mod:`geoagg.explain` go through it too.
:func:`load_csv` converts each column in one pass; only when a conversion
fails does it read the file again line by line, to name the first bad line
and column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .autodiff import ContractError
from .kdtree import KdTree

__all__ = [
    "PointRecord",
    "GeoDataset",
    "CsvFormatError",
    "generate_gwr",
    "generate_sl",
    "gwr_beta1",
    "gwr_beta2",
    "save_csv",
    "load_csv",
    "read_text",
    "read_json",
    "write_csv",
]

GWR_NOISE_SD = 0.25
SL_NOISE_SD = 0.5
SL_BETA = (2.0, 3.0)
SL_N_NEIGHBORS = 8


class CsvFormatError(ValueError):
    """A dataset CSV violates the ``id,u,v,x1..xp,y`` schema."""


@dataclass(frozen=True)
class PointRecord:
    """One row of geospatial tabular data: id, planar coords, covariates, target."""

    id: int
    u: float
    v: float
    x: np.ndarray
    y: float | None = None


class GeoDataset:
    """Id-keyed rows held once, as read-only columns.

    ``ids()`` ``(n,)`` int64, ``coords()`` ``(n, 2)``, ``covariates()``
    ``(n, p)`` and ``targets()`` ``(n,)`` float64 return the stored columns.
    ``observed`` marks the known targets (by default those not given as
    None); the others read NaN.
    """

    def __init__(self, ids, coords, x, y, observed=None, meta=None):
        observed = [t is not None for t in y] if observed is None else observed
        self.observed = np.array(observed, dtype=bool)
        self._ids = np.array(ids, dtype=np.int64)
        self._coords = np.array(coords, dtype=np.float64).reshape(len(self._ids), 2)
        self._x = np.array(x, dtype=np.float64)
        self._y = np.where(self.observed, np.array(y, dtype=np.float64), np.nan)
        for col in (self.observed, self._ids, self._coords, self._x, self._y):
            col.flags.writeable = False
        self.meta = {} if meta is None else meta

    @classmethod
    def from_records(cls, records, meta=None) -> "GeoDataset":
        """Columns of a list of :class:`PointRecord` rows; ``y=None`` is unobserved."""
        p = len(records[0].x) if records else 0
        bad = [r for r in records if len(r.x) != p]
        if bad:
            raise ContractError(f"point id {bad[0].id} carries {len(bad[0].x)} covariates, "
                                f"point id {records[0].id} carries {p}")
        return cls([r.id for r in records], [(r.u, r.v) for r in records],
                   np.array([r.x for r in records]).reshape(len(records), p),
                   [r.y for r in records], meta=meta)

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def p(self) -> int:
        return self._x.shape[1]

    def ids(self) -> np.ndarray:
        return self._ids

    def coords(self) -> np.ndarray:
        return self._coords

    def covariates(self) -> np.ndarray:
        return self._x

    def targets(self) -> np.ndarray:
        return self._y

    @cached_property
    def points(self) -> list[PointRecord]:
        """The rows as records, built on first use; each ``x`` is a read-only view."""
        rows = zip(self._ids.tolist(), *self._coords.T.tolist(), self._x,
                   self._y.tolist(), self.observed.tolist())
        return [PointRecord(pid, u, v, x, y if seen else None)
                for pid, u, v, x, y, seen in rows]

    def take(self, rows) -> "GeoDataset":
        """The rows at positions ``rows``, in that order, as a new dataset."""
        return GeoDataset(self._ids[rows], self._coords[rows], self._x[rows],
                          self._y[rows], self.observed[rows], dict(self.meta))


def gwr_beta1(u, v):
    """Linear-ramp coefficient surface: 0 at the origin, 3 at (1, 1)."""
    return 1.5 * (np.asarray(u) + np.asarray(v))


def gwr_beta2(u, v):
    """Gaussian-bump coefficient surface peaking at 3.0 in the square's centre."""
    r2 = (np.asarray(u) - 0.5) ** 2 + (np.asarray(v) - 0.5) ** 2
    return 1.0 + 2.0 * np.exp(-r2 / 0.1)


def generate_gwr(n: int, seed: int) -> GeoDataset:
    """Grid dataset whose target mixes x1, x2 with spatially varying slopes."""
    if n < 100:
        raise ContractError(f"need n >= 100, got {n}")
    side = math.isqrt(n)
    if side * side != n:
        raise ContractError(f"n must be a perfect square for the grid layout, got {n}")

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    eps = GWR_NOISE_SD * rng.standard_normal(n)

    centers = (np.arange(side) + 0.5) / side
    uu, vv = np.meshgrid(centers, centers, indexing="ij")
    u = uu.ravel()
    v = vv.ravel()
    y = gwr_beta1(u, v) * x[:, 0] + gwr_beta2(u, v) * x[:, 1] + eps

    meta = {
        "generator": "gwr-r",
        "seed": int(seed),
        "params": {"n": int(n), "noise_sd": GWR_NOISE_SD},
    }
    return GeoDataset(np.arange(n), np.column_stack([u, v]), x, y, meta=meta)


def _sl_weights(coords: np.ndarray):
    """Row-standardised directed 8-nearest-neighbour adjacency.

    scipy is imported here and in :func:`generate_sl` only, so that no other
    code path loads it.
    """
    import scipy.sparse as sp

    n = coords.shape[0]
    hits, _ = KdTree(coords, np.arange(n)).search(coords, SL_N_NEIGHBORS + 1)
    # each point's own row, else its farthest hit, leaves its 8 neighbours
    keep = hits != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    cols = hits[keep]
    rows = np.repeat(np.arange(n), SL_N_NEIGHBORS)
    vals = np.full(len(rows), 1.0 / SL_N_NEIGHBORS)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def generate_sl(n: int, seed: int, rho: float = 0.6) -> GeoDataset:
    """Uniform-coordinate dataset with a spatial-lag (autocorrelated) target."""
    if n < 100:
        raise ContractError(f"need n >= 100, got {n}")
    if not abs(rho) < 1:
        raise ContractError(f"need |rho| < 1, got {rho}")

    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    x = rng.standard_normal((n, 2))
    eps = SL_NOISE_SD * rng.standard_normal(n)

    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    b = x @ np.asarray(SL_BETA) + eps
    w = _sl_weights(coords)
    a = sp.identity(n, format="csr") - rho * w
    y = spsolve(a.tocsc(), b)
    resid = np.abs(a @ y - b).max()
    if not resid <= 1e-10:
        raise ContractError(f"spatial-lag solve residual {resid:.3e} exceeds 1e-10")

    meta = {
        "generator": "sl-r",
        "seed": int(seed),
        "params": {"n": int(n), "rho": float(rho), "noise_sd": SL_NOISE_SD,
                   "beta": list(SL_BETA), "k_neighbors": SL_N_NEIGHBORS},
    }
    return GeoDataset(np.arange(n), coords, x, y, meta=meta)


# ---------------------------------------------------------------------------
# CSV schema: id,u,v,x1,...,xp,y   (y optional for pure-query files)
# ---------------------------------------------------------------------------


def write_csv(path, header, columns, blank=None) -> None:
    """Write ``header`` and the rows of whole ``columns``, one line each.

    Integer columns print with ``%d``, exact at any int64; float columns with
    ``%.17g`` (``nan``, ``inf`` and ``-0`` as Python prints them); any other
    column with ``%s``.  A cell where the ``(n, len(columns))`` mask ``blank``
    is True prints empty.  The body is one ``%`` format, each cell's format or
    nothing where blank, applied to one flat tuple of the values.
    """
    columns = [np.asarray(col) for col in columns]
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, col in enumerate(columns):
        table[:, j] = col  # numpy ints and floats become Python ints and floats
    if blank is None:
        blank = np.zeros(table.shape, dtype=bool)
    ends = np.array([","] * (len(columns) - 1) + ["\n"], dtype=object)
    cells = np.array([{"i": "%d", "u": "%d", "f": "%.17g"}.get(col.dtype.kind, "%s")
                      for col in columns], dtype=object) + ends
    body = "".join(np.where(blank, ends, cells).ravel().tolist()) % tuple(table[~blank].tolist())
    Path(path).write_text(",".join(header) + "\n" + body, encoding="utf-8")


def save_csv(ds: GeoDataset, path) -> None:
    """Write ``id,u,v,x1..xp,y`` plus a ``.meta.json`` sidecar; unobserved ``y`` is blank."""
    path = Path(path)
    header = ["id", "u", "v"] + [f"x{j + 1}" for j in range(ds.p)] + ["y"]
    blank = np.zeros((ds.n, len(header)), dtype=bool)
    blank[:, -1] = ~ds.observed
    write_csv(path, header, [ds.ids(), *ds.coords().T, *ds.covariates().T, ds.targets()],
              blank)
    if ds.meta:
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        sidecar.write_text(json.dumps(ds.meta, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")


def read_text(path, error=CsvFormatError) -> str:
    """A UTF-8 file's text; other bytes raise ``error`` naming the file and the byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error=CsvFormatError):
    """A UTF-8 JSON file's value; bad bytes or bad JSON raise ``error`` naming the file."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno} "
                    f"column {exc.colno})") from None


def _columns(rows: list[str], width: int, has_y: bool):
    """Ids, ``(n, width - 1 - has_y)`` u, v and x values, y and its observed mask.

    Raises ValueError or OverflowError when a row holds other than ``width``
    cells or a cell does not parse; a blank (all-whitespace) y cell is
    unobserved and reads NaN.
    """
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        raise ValueError("ragged rows")
    cells = ",".join(rows).split(",") if rows else []
    ids = np.array(list(map(int, cells[0::width])), dtype=np.int64)
    n_values = width - 1 - has_y
    values = np.column_stack([np.array(list(map(float, cells[j::width])), dtype=np.float64)
                              for j in range(1, 1 + n_values)])
    y_cells = cells[width - 1::width] if has_y else [""] * len(rows)
    observed = np.array(list(map(bool, map(str.strip, y_cells))), dtype=bool)
    y = np.full(len(rows), np.nan)
    y[observed] = list(map(float, compress(y_cells, observed)))
    return ids, values, y, observed


def _first_bad_line(path: Path, header: list[str], text: str, has_y: bool):
    """The error of the first bad row of ``text``, read one line at a time."""
    casters = [np.int64] + [float] * (len(header) - 1)
    numbered = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
                if line.strip()]
    for lineno, line in numbered[1:]:  # past the header
        cells = line.split(",")
        if len(cells) != len(header):
            return CsvFormatError(
                f"{path}: line {lineno}: expected {len(header)} cells, found {len(cells)}"
            )
        if has_y and not cells[-1].strip():
            cells = cells[:-1]
        for name, cell, caster in zip(header, cells, casters):
            try:
                caster(cell.strip())
            except (ValueError, OverflowError):  # ids must fit int64
                return CsvFormatError(
                    f"{path}: line {lineno}, column '{name}': could not parse {cell!r}"
                )
    raise AssertionError(f"{path}: a column failed to parse but no line does")


def load_csv(path) -> GeoDataset:
    """Parse a dataset CSV, inferring p from the ``x1..xp`` columns.

    Blank lines are skipped; line numbers in errors count them too.
    """
    path = Path(path)
    lines = list(filter(str.strip, read_text(path).splitlines()))
    if not lines:
        raise CsvFormatError(f"{path}: empty file")

    header = [h.strip() for h in lines[0].split(",")]
    has_y = header[-1] == "y"
    x_names = header[3:-1] if has_y else header[3:]
    expected = ["id", "u", "v"] + [f"x{j + 1}" for j in range(len(x_names))]
    actual = header[:-1] if has_y else header
    if actual != expected:
        for want, got in zip(expected, actual + ["<missing>"] * len(expected)):
            if want != got:
                raise CsvFormatError(f"{path}: expected column '{want}', found '{got}'")
        raise CsvFormatError(f"{path}: malformed header {header}")

    try:
        ids, values, y, observed = _columns(lines[1:], len(header), has_y)
    except (ValueError, OverflowError):
        raise _first_bad_line(path, header, read_text(path), has_y) from None

    meta = {}
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        meta = read_json(sidecar)
        if not isinstance(meta, dict):
            raise CsvFormatError(f"{sidecar}: must hold a JSON object, found {type(meta).__name__}")
    return GeoDataset(ids, values[:, :2], values[:, 2:], y, observed, meta)
