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
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import LoadError
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


@dataclass
class FeatureSet:
    features: list[Feature]
    columns: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.features)

    def ids(self) -> list[str]:
        return [f.id for f in self.features]

    def geometry_kind(self) -> str:
        if not self.features:
            return "empty"
        g = self.features[0].geometry
        if isinstance(g, Point):
            return "point"
        if isinstance(g, Polyline):
            return "line"
        return "polygon"

    def subset(self, indices: list[int]) -> "FeatureSet":
        sub = FeatureSet([self.features[i] for i in indices], list(self.columns))
        cached = self.__dict__.get("_bounds")
        if cached is not None and len(cached) == len(self.features):
            sub.__dict__["_bounds"] = cached[indices]  # a clipped context keeps its boxes
        return sub

    def bounds(self) -> "np.ndarray":
        """(n, 4) xmin, ymin, xmax, ymax of each feature's bbox, cached on first
        use. Built in the parent before forking, workers clip by bbox with one
        vectorized mask, without touching every Feature."""
        cached = self.__dict__.get("_bounds")
        if cached is None or len(cached) != len(self.features):
            rows = []
            for f in self.features:
                g = f.geometry
                if isinstance(g, Point):
                    rows.append((g.x, g.y, g.x, g.y))
                else:
                    b = bbox_of(g)
                    rows.append((b.xmin, b.ymin, b.xmax, b.ymax))
            cached = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
            self.__dict__["_bounds"] = cached
        return cached


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[dict]
    had_errors: bool = False

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_value(row.get(c)) for c in self.columns])
        return buf.getvalue().encode("utf-8")


def _check_ids(ids: list[str], where: str):
    seen = set()
    for i, fid in enumerate(ids):
        if not fid:
            raise LoadError(f"{where}: empty id at row {i + 1}")
        if fid in seen:
            raise LoadError(f"{where}: duplicate id {fid!r} at row {i + 1}")
        seen.add(fid)


def _geojson_geometry(gtype: str, coords) -> Geometry:
    if gtype == "Point":
        return Point(float(coords[0]), float(coords[1]))
    if gtype == "LineString":
        return Polyline([Point(float(x), float(y)) for x, y in coords])
    if gtype == "Polygon":
        rings = []
        for raw in coords:
            pts = [Point(float(x), float(y)) for x, y in raw]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]
            rings.append(pts)
        return make_polygon(rings)
    raise LoadError(f"unsupported GeoJSON geometry type {gtype!r}")


def load_features(
    path: str,
    format: str = "csv",
    id_column: str = "id",
    x_column: str = "x",
    y_column: str = "y",
) -> FeatureSet:
    """Load features in file order; numeric attributes parsed when lossless."""
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # a repeated header name reads its last column
            index = {c: j for j, c in enumerate(header)}
            for col in (id_column, x_column, y_column):
                if col not in index:
                    raise LoadError(f"{path}: missing column {col!r}")
            attr_cols = [c for c in header if c not in (id_column, x_column, y_column)]
            ii, xi, yi = index[id_column], index[x_column], index[y_column]
            feats = []
            for i, row in enumerate(r for r in reader if r):  # blank lines are skipped
                if len(row) < len(header):  # missing trailing fields read as None
                    row += [None] * (len(header) - len(row))
                try:
                    x = float(row[xi])
                    y = float(row[yi])
                except (TypeError, ValueError):
                    raise LoadError(f"{path}: bad coordinates at row {i + 2}")
                try:
                    attrs = {c: parse_scalar(row[index[c]]) for c in attr_cols}
                except TypeError:  # a short row: None for a value (a missing id: _check_ids)
                    c = next(c for c in attr_cols if row[index[c]] is None)
                    raise LoadError(f"{path}: missing value for column {c!r} at row {i + 2}")
                feats.append(Feature(row[ii], Point(x, y), attrs))
        _check_ids([f.id for f in feats], path)
        return FeatureSet(feats, attr_cols)
    if format == "geojson":
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("type") != "FeatureCollection":
            raise LoadError(f"{path}: not a FeatureCollection")
        feats = []
        attr_cols: list[str] = []
        for i, f in enumerate(doc.get("features", [])):
            geom = f.get("geometry") or {}
            gtype = geom.get("type")
            try:
                g = _geojson_geometry(gtype, geom.get("coordinates"))
            except LoadError as e:
                raise LoadError(f"{path}: feature {i}: {e}")
            props = dict(f.get("properties") or {})
            if id_column not in props:
                raise LoadError(f"{path}: feature {i}: missing property {id_column!r}")
            fid = str(props.pop(id_column))
            for k in props:
                if k not in attr_cols:
                    attr_cols.append(k)
            feats.append(Feature(fid, g, props))
        _check_ids([f.id for f in feats], path)
        return FeatureSet(feats, attr_cols)
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
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r in range(nrows):
        lineno = idx + r + 1
        if idx + r >= len(lines):
            raise LoadError(f"{path}: missing data line {lineno}")
        parts = lines[idx + r].split()
        if len(parts) != ncols:
            raise LoadError(f"{path}: line {lineno}: expected {ncols} values, got {len(parts)}")
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
        "padding": p.padding,
        "chunks": [
            {
                "chunk_id": c.chunk_id,
                "core": _bbox_to_list(c.core),
                "padded": _bbox_to_list(c.padded),
                "member_ids": list(c.member_ids),
            }
            for c in sorted(p.chunks, key=lambda c: c.chunk_id)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_partitions(path: str):
    from .partition import Chunk, PartitionSet

    with open(path) as fh:
        doc = json.load(fh)
    for key in ("mode", "padding", "chunks"):
        if key not in doc:
            raise LoadError(f"{path}: $.{key} missing")
    chunks = []
    for i, c in enumerate(doc["chunks"]):
        where = f"{path}: $.chunks[{i}]"
        for key in ("chunk_id", "core", "padded", "member_ids"):
            if key not in c:
                raise LoadError(f"{where}.{key} missing")
        try:
            core = BBox(*[float(v) for v in c["core"]])
            padded = BBox(*[float(v) for v in c["padded"]])
        except (TypeError, ValueError) as e:
            raise LoadError(f"{where}: bad bbox: {e}")
        if not padded.contains(core):
            raise LoadError(f"{where}.padded does not contain core")
        chunks.append(
            Chunk(int(c["chunk_id"]), core, padded, [str(m) for m in c["member_ids"]])
        )
    chunks.sort(key=lambda c: c.chunk_id)
    return PartitionSet(str(doc["mode"]), float(doc["padding"]), chunks)
