"""Readers and writers for every external format.

Formats: CSV point tables and result tables (RFC 4180), a GeoJSON subset
(Point / LineString / Polygon feature collections), ESRI ASCII grid rasters,
and the PartitionSet JSON schema. Floats are serialized with Python's
shortest round-trip representation so byte comparison doubles as a
determinism check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridchopError, LoadError
from .geom import BBox, Geometry, Point, Polygon, Polyline, bbox_of, make_polygon
from .raster import Raster

_INT_RE = re.compile(r"^[+-]?\d+$")


def format_value(v) -> str:
    """Serialize one table value; round-trip exact for floats."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        # not repr(v): under NumPy 2 that reads "np.float64(0.5)" for a NumPy float
        return repr(float(v))
    return str(v)


def parse_scalar(s: str):
    """Parse a CSV/JSON attribute: int or float when lossless, else str."""
    if _INT_RE.match(s):
        return int(s)
    try:
        f = float(s)
    except ValueError:
        return s
    return f


@dataclass
class Feature:
    id: str
    geometry: Geometry
    attributes: dict = field(default_factory=dict)


MISSING = object()  # the attribute value of a feature that lacks the key
_KINDS = ((Point, "point"), (Polyline, "line"), (Polygon, "polygon"))


def _float(value, column: str) -> float:
    if value is MISSING:
        raise KeyError(column)
    return float(value)


class FeatureSet:
    """Features stored by column, in file order.

    Ids are one list of str. A point set keeps its coordinates as one
    (n, 2) float64 array `xy` (and `geometries` is None); lines and polygons
    keep one geometry object per feature in `geometries` (and `xy` is None).
    Attributes are one list of values per column in `attributes`, with
    MISSING where a feature lacks the key. `columns` lists the attribute
    columns as read (a repeated CSV header name appears twice).

    A list of Features is converted once; `features` builds them back on
    each access, as a read-only view.
    """

    def __init__(self, features: list[Feature] = (), columns: list[str] | None = None):
        features = list(features)
        geoms = [f.geometry for f in features]
        keys = dict.fromkeys(k for f in features for k in f.attributes)
        xy = None
        if all(isinstance(g, Point) for g in geoms):
            xy, geoms = np.array([(g.x, g.y) for g in geoms], dtype=np.float64), None
        self._fill(
            [f.id for f in features],
            xy,
            geoms,
            {k: [f.attributes.get(k, MISSING) for f in features] for k in keys},
            columns,
        )

    @classmethod
    def from_columns(
        cls,
        ids: list[str],
        xy: np.ndarray | None = None,
        geometries: list[Geometry] | None = None,
        attributes: dict[str, list] | None = None,
        columns: list[str] | None = None,
    ) -> "FeatureSet":
        """A set over columns as they are: points by `xy`, else `geometries`."""
        fs = cls.__new__(cls)
        fs._fill(ids, xy, geometries, attributes or {}, columns)
        return fs

    def _fill(self, ids, xy, geometries, attributes, columns):
        if not ids:  # every empty set is an empty point set
            xy, geometries = np.zeros((0, 2)), None
        self._ids = ids
        self.xy = xy
        self.geometries = geometries
        self.attributes = attributes
        self.columns = list(columns or [])
        self._bounds = None
        self._segments = None

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        return self._ids

    @property
    def features(self) -> list[Feature]:
        geoms = self.geometries
        if geoms is None:
            geoms = [Point(x, y) for x, y in self.xy.tolist()]
        cols = list(self.attributes.items())
        return [
            Feature(fid, g, {k: col[i] for k, col in cols if col[i] is not MISSING})
            for i, (fid, g) in enumerate(zip(self._ids, geoms))
        ]

    def geometry_kind(self) -> str:
        """"empty", "point", "line" or "polygon", from every geometry; a set
        that mixes kinds joins them with "+" in that order, e.g. "point+polygon"."""
        if not self._ids:
            return "empty"
        if self.geometries is None:
            return "point"
        types = set(map(type, self.geometries))
        return "+".join(kind for t, kind in _KINDS if t in types)

    def floats(self, column: str, rows: list[int] | None = None) -> np.ndarray:
        """float() of each value of an attribute column (of `rows` only, if
        given). The first bad value raises what a per-feature lookup would:
        KeyError(column) where the feature lacks the key, else float()'s error."""
        values = self.attributes.get(column)
        if values is None:
            if len(self) if rows is None else len(rows):
                raise KeyError(column)
            return np.zeros(0)
        if rows is not None:
            values = [values[i] for i in rows]
        try:
            return np.fromiter(map(float, values), np.float64, len(values))
        except (TypeError, ValueError, OverflowError):
            pass
        return np.array([_float(v, column) for v in values], dtype=np.float64)

    def subset(self, indices) -> "FeatureSet":
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        sub = FeatureSet.from_columns(
            [self._ids[i] for i in rows],
            None if self.xy is None else self.xy[idx],
            None if self.geometries is None else [self.geometries[i] for i in rows],
            {k: [col[i] for i in rows] for k, col in self.attributes.items()},
            self.columns,
        )
        if self._bounds is not None:
            sub._bounds = self._bounds[idx]  # a clipped context keeps its boxes
        return sub

    def bounds(self) -> np.ndarray:
        """(n, 4) xmin, ymin, xmax, ymax of each feature's bbox, cached on first
        use. Built in the parent before forking, workers clip by bbox with one
        vectorized mask."""
        if self._bounds is None:
            if self.xy is not None:
                self._bounds = np.concatenate([self.xy, self.xy], axis=1)
            else:
                boxes = [bbox_of(g) for g in self.geometries]
                self._bounds = np.array(
                    [(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes], dtype=np.float64
                ).reshape(-1, 4)
        return self._bounds

    def segments(self) -> tuple[np.ndarray, list[str]]:
        """(S, 4) x0, y0, x1, y1 of every segment and the id of each one's
        feature, cached on first use: a chunk that falls back to the whole
        context reuses them. A point is one zero-length segment."""
        if self._segments is None:
            if self.xy is not None:
                self._segments = self.bounds(), self._ids
            else:
                segs, owners = [], []
                for fid, g in zip(self._ids, self.geometries):
                    if isinstance(g, Point):
                        segs.append((g.x, g.y, g.x, g.y))
                        owners.append(fid)
                    else:
                        verts = g.vertices if not isinstance(g, Polygon) else g.outer.vertices
                        for a, b in zip(verts, verts[1:]):
                            segs.append((a.x, a.y, b.x, b.y))
                            owners.append(fid)
                self._segments = np.array(segs, dtype=np.float64).reshape(-1, 4), owners
        return self._segments


@dataclass
class ResultTable:
    """A result table stored by column: `data` maps each column name, in
    output order, to one list of Python values. None writes an empty field.

    `rows` builds one dict per row on each access, as a read-only view.
    """

    data: dict[str, list]

    @property
    def columns(self) -> list[str]:
        return list(self.data)

    @property
    def had_errors(self) -> bool:
        return "error" in self.data

    @property
    def rows(self) -> list[dict]:
        names = list(self.data)
        return [dict(zip(names, values)) for values in zip(*self.data.values())]

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(self.data)
        writer.writerows(zip(*[map(format_value, col) for col in self.data.values()]))
        return buf.getvalue().encode("utf-8")


def _check_ids(ids: list[str], where: str):
    if all(ids) and len(set(ids)) == len(ids):
        return
    seen = set()
    for i, fid in enumerate(ids):
        if not fid:
            raise LoadError(f"{where}: empty id at row {i + 1}")
        if fid in seen:
            raise LoadError(f"{where}: duplicate id {fid!r} at row {i + 1}")
        seen.add(fid)


def _xy(position) -> tuple[float, float]:
    """x and y of a GeoJSON position; its altitude, if any, is dropped."""
    if isinstance(position, (str, dict)):  # indexing would read characters or keys
        raise TypeError(f"position {position!r} is not an array")
    return float(position[0]), float(position[1])


def _geojson_geometry(gtype: str, coords) -> tuple[float, float] | Geometry:
    """A Point as an (x, y) tuple, a LineString or Polygon as its object."""
    if gtype == "Point":
        x, y = _xy(coords)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise LoadError(f"non-finite coordinates ({x}, {y})")
        return x, y
    if gtype == "LineString":
        return Polyline([Point(*_xy(p)) for p in coords])
    if gtype == "Polygon":
        rings = []
        for raw in coords:
            pts = [Point(*_xy(p)) for p in raw]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]
            rings.append(pts)
        return make_polygon(rings)
    raise LoadError(f"unsupported GeoJSON geometry type {gtype!r}")


def _raise_row_error(path: str, rows: list[list], xi: int, yi: int, attr_index):
    """Raise the LoadError of the first bad row. Inside a row a bad coordinate
    comes first, then a missing attribute value, then a non-finite coordinate."""
    for i, row in enumerate(rows):
        try:
            x, y = float(row[xi]), float(row[yi])
        except (TypeError, ValueError):
            raise LoadError(f"{path}: bad coordinates at row {i + 2}")
        for c, j in attr_index:
            if row[j] is None:
                raise LoadError(f"{path}: missing value for column {c!r} at row {i + 2}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise LoadError(f"{path}: non-finite coordinates ({x}, {y}) at row {i + 2}")
    raise AssertionError("no bad row")


def _load_csv(path: str, id_column: str, x_column: str, y_column: str) -> FeatureSet:
    """A point set from CSV, column by column: no object per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        # a repeated header name reads its last column
        index = {c: j for j, c in enumerate(header)}
        for col in (id_column, x_column, y_column):
            if col not in index:
                raise LoadError(f"{path}: missing column {col!r}")
        rows = [r for r in reader if r]  # blank lines are skipped
    attr_cols = [c for c in header if c not in (id_column, x_column, y_column)]
    width, n = len(header), len(rows)
    if rows and min(map(len, rows)) < width:  # missing trailing fields read as None
        rows = [r + [None] * (width - len(r)) for r in rows]
    cols = list(zip(*rows)) if rows else [()] * width
    xi, yi = index[x_column], index[y_column]
    xy = np.empty((n, 2))
    try:
        xy[:, 0] = np.fromiter(map(float, cols[xi]), np.float64, n)
        xy[:, 1] = np.fromiter(map(float, cols[yi]), np.float64, n)
        attributes = {c: list(map(parse_scalar, cols[index[c]])) for c in dict.fromkeys(attr_cols)}
        ok = bool(np.isfinite(xy).all())
    except (TypeError, ValueError):  # float() of a bad token or None, parse_scalar(None)
        ok = False
    if not ok:
        _raise_row_error(path, rows, xi, yi, [(c, index[c]) for c in attr_cols])
    ids = list(cols[index[id_column]])
    _check_ids(ids, path)
    return FeatureSet.from_columns(ids, xy, None, attributes, attr_cols)


def _load_geojson(path: str, id_column: str) -> FeatureSet:
    """Points go to one coordinate array; lines and polygons stay objects."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise LoadError(f"{path}: not a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise LoadError(f"{path}: features is not an array")
    ids, geoms, props = [], [], []
    attr_cols: dict[str, None] = {}
    for i, f in enumerate(features):
        if not isinstance(f, dict):
            raise LoadError(f"{path}: feature {i}: not an object")
        geom = f.get("geometry") or {}
        p = f.get("properties") or {}
        for key, value in (("geometry", geom), ("properties", p)):
            if not isinstance(value, dict):
                raise LoadError(f"{path}: feature {i}: {key} is not an object")
        gtype, coords = geom.get("type"), geom.get("coordinates")
        try:
            g = _geojson_geometry(gtype, coords)
        except (TypeError, ValueError, IndexError) as e:  # a position that is not numbers
            raise LoadError(f"{path}: feature {i}: bad {gtype} coordinates: {e}")
        except GridchopError as e:  # non-finite, duplicate or too few vertices
            raise LoadError(f"{path}: feature {i}: {e}")
        p = dict(p)
        if id_column not in p:
            raise LoadError(f"{path}: feature {i}: missing property {id_column!r}")
        ids.append(str(p.pop(id_column)))
        attr_cols.update(dict.fromkeys(p))
        geoms.append(g)
        props.append(p)
    _check_ids(ids, path)
    attributes = {c: [p.get(c, MISSING) for p in props] for c in attr_cols}
    if all(isinstance(g, tuple) for g in geoms):
        xy = np.array(geoms, dtype=np.float64).reshape(-1, 2)
        return FeatureSet.from_columns(ids, xy, None, attributes, list(attr_cols))
    geoms = [Point(*g) if isinstance(g, tuple) else g for g in geoms]
    return FeatureSet.from_columns(ids, None, geoms, attributes, list(attr_cols))


def load_features(
    path: str,
    format: str = "csv",
    id_column: str = "id",
    x_column: str = "x",
    y_column: str = "y",
) -> FeatureSet:
    """Load features in file order; numeric attributes parsed when lossless."""
    if format == "csv":
        return _load_csv(path, id_column, x_column, y_column)
    if format == "geojson":
        return _load_geojson(path, id_column)
    raise LoadError(f"unknown feature format {format!r}")


def save_table(t: ResultTable, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(t.to_csv_bytes())


_ASC_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def load_raster(path: str, kind: str = "continuous") -> Raster:
    """Read an ESRI ASCII grid; raster kind comes from the caller."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header: dict[str, float] = {}
    idx = 0
    while idx < len(lines) and len(header) < 6:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0].lower() not in _ASC_HEADER:
            break
        header[parts[0].lower()] = float(parts[1])
        idx += 1
    missing = [k for k in _ASC_HEADER if k not in header]
    if missing:
        raise LoadError(f"{path}: missing header keys {missing} (line {idx + 1})")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    values = None
    if nrows > 0 and ncols > 0 and idx + nrows <= len(lines):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns about an empty body
                # max_rows: the result is allocated once, not grown
                values = np.loadtxt(
                    lines[idx : idx + nrows], dtype=np.float64, comments=None, ndmin=2,
                    max_rows=nrows,
                )
        except ValueError:
            pass
    if values is None or values.shape != (nrows, ncols):
        # one line at a time, for the error message (loadtxt also skips blank lines)
        values = np.empty((nrows, ncols), dtype=np.float64)
        for r in range(nrows):
            lineno = idx + r + 1
            if idx + r >= len(lines):
                raise LoadError(f"{path}: missing data line {lineno}")
            parts = lines[idx + r].split()
            if len(parts) != ncols:
                raise LoadError(
                    f"{path}: line {lineno}: expected {ncols} values, got {len(parts)}"
                )
            try:
                values[r, :] = [float(p) for p in parts]
            except ValueError:
                raise LoadError(f"{path}: line {lineno}: non-numeric value")
    return Raster(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=values,
        kind=kind,
    )


def write_raster(r: Raster, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"ncols {r.ncols}\n")
        fh.write(f"nrows {r.nrows}\n")
        fh.write(f"xllcorner {repr(r.xll)}\n")
        fh.write(f"yllcorner {repr(r.yll)}\n")
        fh.write(f"cellsize {repr(r.cellsize)}\n")
        fh.write(f"nodata_value {repr(r.nodata)}\n")
        for row in r.values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _bbox_to_list(b: BBox) -> list[float]:
    return [b.xmin, b.ymin, b.xmax, b.ymax]


def save_partitions(p, path: str) -> None:
    from .partition import PartitionSet  # local import avoids a cycle

    assert isinstance(p, PartitionSet)
    doc = {
        "mode": p.mode,
        "chunks": [
            {
                "chunk_id": c.chunk_id,
                "core": _bbox_to_list(c.core),
                "member_ids": list(c.member_ids),
            }
            for c in sorted(p.chunks, key=lambda c: c.chunk_id)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_partitions(path: str):
    """Read a file of save_partitions; keys it does not know are ignored."""
    from .partition import Chunk, PartitionSet

    with open(path) as fh:
        doc = json.load(fh)
    for key in ("mode", "chunks"):
        if key not in doc:
            raise LoadError(f"{path}: $.{key} missing")
    chunks = []
    for i, c in enumerate(doc["chunks"]):
        where = f"{path}: $.chunks[{i}]"
        for key in ("chunk_id", "core", "member_ids"):
            if key not in c:
                raise LoadError(f"{where}.{key} missing")
        try:
            core = BBox(*[float(v) for v in c["core"]])
        except (TypeError, ValueError) as e:
            raise LoadError(f"{where}: bad bbox: {e}")
        chunks.append(Chunk(int(c["chunk_id"]), core, [str(m) for m in c["member_ids"]]))
    chunks.sort(key=lambda c: c.chunk_id)
    return PartitionSet(str(doc["mode"]), chunks)
