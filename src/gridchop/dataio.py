"""Readers and writers for every external format.

Formats: CSV point tables and result tables (RFC 4180), a GeoJSON subset
(Point / LineString / Polygon feature collections), ESRI ASCII grid rasters,
and the PartitionSet JSON schema. Floats are serialized with Python's
shortest round-trip representation so byte comparison doubles as a
determinism check.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import GridchopError, InvalidParameterError, LoadError
from .geom import BBox, Geometry, Point, Polygon, Polyline, Ring
from .raster import Raster, ragged_runs, ring_neighbour, run_offsets, signed_ring_areas


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


@dataclass
class Feature:
    id: str
    geometry: Geometry
    attributes: dict = field(default_factory=dict)


MISSING = object()  # the attribute value of a feature that lacks the key
KINDS = ("point", "line", "polygon")  # the geometry kind of each kind code
POINT, LINE, POLYGON = range(3)
_CLASSES = (Point, Polyline, Polygon)  # the geometry class of each kind code


class FeatureSet:
    """Features stored by column, in file order.

    Ids are one list of str. Every geometry kind shares one flat layout, the
    one of GeoArrow: `coords` holds every vertex as one (V, 2) float64 array;
    part p is vertices part_offsets[p] up to part_offsets[p + 1]; feature i
    is parts feature_offsets[i] up to feature_offsets[i + 1], of kind code
    kinds[i] (an index into KINDS). A point is one part of one vertex, so a
    point set's `coords` is its (n, 2) coordinates; a line is one part; a
    polygon is its outer ring (counterclockwise), then its holes (clockwise),
    each ring stored open.

    Attributes are one list of values per column in `attributes`, each
    value as read: a CSV field's text, a GeoJSON property's JSON value, and
    MISSING where a feature lacks the key. Nothing is converted on load:
    geoops.check_inputs reads a value column with float(), and a hierarchy
    key is the text as written.

    A list of Features is converted once; `features` builds them back on
    each access, as a read-only view. A set is read-only once built: its
    bounds(), segments() and geometry kind are cached on first use, and so
    is, in `value_arrays`, each value column that geoops.check_inputs
    converts to float64. A subset starts with no cached value column.
    """

    def __init__(self, features: list[Feature] = ()):
        features = list(features)
        geoms = [f.geometry for f in features]
        parts = [part for g in geoms for part in g.parts]
        keys = dict.fromkeys(k for f in features for k in f.attributes)
        self._fill(
            [f.id for f in features],
            np.array([(v.x, v.y) for part in parts for v in part], dtype=np.float64),
            run_offsets([len(part) for part in parts]),
            run_offsets([len(g.parts) for g in geoms]),
            np.array([_CLASSES.index(type(g)) for g in geoms], dtype=np.int8),
            {k: [f.attributes.get(k, MISSING) for f in features] for k in keys},
        )

    @classmethod
    def from_columns(
        cls,
        ids: list[str],
        coords: np.ndarray,
        part_offsets: np.ndarray | None = None,
        feature_offsets: np.ndarray | None = None,
        kinds: np.ndarray | None = None,
        attributes: dict[str, list] | None = None,
        bounds: np.ndarray | None = None,
    ) -> "FeatureSet":
        """A set over its columns as they are; without offsets and kinds,
        each vertex of `coords` is one point. `bounds`, if given, is taken
        as the set's bounds() cache."""
        n = len(ids)
        fs = cls.__new__(cls)
        fs._fill(
            ids,
            coords,
            np.arange(n + 1) if part_offsets is None else part_offsets,
            np.arange(n + 1) if feature_offsets is None else feature_offsets,
            np.full(n, POINT, dtype=np.int8) if kinds is None else kinds,
            attributes or {},
        )
        fs._bounds = bounds
        return fs

    def _fill(self, ids, coords, part_offsets, feature_offsets, kinds, attributes):
        self._ids = ids
        self.coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        self.part_offsets = np.asarray(part_offsets, dtype=np.intp)
        self.feature_offsets = np.asarray(feature_offsets, dtype=np.intp)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.attributes = attributes
        self._bounds = None
        self._segments = None
        self._kind = None
        self.value_arrays: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        return self._ids

    @property
    def features(self) -> list[Feature]:
        xy = self.coords.tolist()
        po, fo = self.part_offsets.tolist(), self.feature_offsets.tolist()
        cols = list(self.attributes.items())
        out = []
        for i, (fid, kind) in enumerate(zip(self._ids, self.kinds.tolist())):
            parts = [[Point(x, y) for x, y in xy[po[p] : po[p + 1]]]
                     for p in range(fo[i], fo[i + 1])]
            if kind == POINT:
                g = parts[0][0]
            elif kind == LINE:
                g = Polyline(parts[0])
            else:
                g = Polygon(Ring(parts[0]), [Ring(h) for h in parts[1:]])
            out.append(Feature(fid, g, {k: col[i] for k, col in cols if col[i] is not MISSING}))
        return out

    def geometry_kind(self) -> str:
        """"empty", "point", "line" or "polygon", from every kind code; a set
        that mixes kinds joins them with "+" in that order, e.g. "point+polygon".
        Cached on first use."""
        if self._kind is None:
            present = np.bincount(self.kinds, minlength=len(KINDS)) > 0
            kinds = [kind for kind, here in zip(KINDS, present.tolist()) if here]
            self._kind = "+".join(kinds) if self._ids else "empty"
        return self._kind

    def gather(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """coords, part offsets and feature offsets of the features at
        `indices`, in that order: one ragged gather of parts, then of vertices."""
        idx = np.asarray(indices, dtype=np.intp)
        if len(self.coords) == len(self):  # points only: one part of one vertex each
            offsets = np.arange(idx.size + 1)
            return self.coords[idx], offsets, offsets
        fo, po = self.feature_offsets, self.part_offsets
        part, feature_offsets = ragged_runs(fo[idx], fo[idx + 1] - fo[idx])
        vert, part_offsets = ragged_runs(po[part], po[part + 1] - po[part])
        return self.coords[vert], part_offsets, feature_offsets

    def subset(self, indices) -> "FeatureSet":
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        return FeatureSet.from_columns(
            [self._ids[i] for i in rows],
            *self.gather(idx),
            self.kinds[idx],
            {k: [col[i] for i in rows] for k, col in self.attributes.items()},
            None if self._bounds is None else self._bounds[idx],  # a subset keeps its boxes
        )

    def bounds(self) -> np.ndarray:
        """(n, 4) xmin, ymin, xmax, ymax of each feature's first part (a
        polygon's outer ring), cached on first use. Built in the parent before
        forking, so each op prunes a shared context with one vectorized mask;
        stored column by column (Fortran order), which makes that mask about
        three times faster than over rows of four."""
        if self._bounds is None:
            self._bounds = np.zeros((0, 4), order="F")
            if len(self):
                starts = self.part_offsets[:-1]
                first = self.feature_offsets[:-1]
                lo = np.minimum.reduceat(self.coords, starts, axis=0)[first]
                hi = np.maximum.reduceat(self.coords, starts, axis=0)[first]
                self._bounds = np.asfortranarray(np.concatenate([lo, hi], axis=1))
        return self._bounds

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, 4) x0, y0, x1, y1 of every segment of points and lines, and the
        index of each one's feature, cached on first use: built in the parent
        before forking, every nearest chunk masks them. A point is one
        zero-length segment, a line one segment per pair of consecutive
        vertices."""
        if self._segments is None:
            starts, nverts = self.part_offsets[:-1], np.diff(self.part_offsets)
            nsegs = np.maximum(nverts - 1, 1)
            a, _ = ragged_runs(starts, nsegs)
            b = a + np.repeat(nverts > 1, nsegs)
            part_owner = np.repeat(np.arange(len(self)), np.diff(self.feature_offsets))
            self._segments = (
                np.concatenate([self.coords[a], self.coords[b]], axis=1),
                np.repeat(part_owner, nsegs),
            )
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
        _column_length(self.data)
        names = list(self.data)
        return [dict(zip(names, values)) for values in zip(*self.data.values())]

    def to_csv_bytes(self) -> bytes:
        return "".join(_csv_blocks(self)).encode("utf-8")


# rows formatted at a time: bounds the field strings a large table holds at
# once. At 1024 an 8k-row, 4-column table peaks at about a third of the
# memory csv.writer's whole-table buffer took; larger blocks are no faster.
_BLOCK_ROWS = 1024


def _needs_quotes(text: str) -> bool:
    """Whether csv.writer's QUOTE_MINIMAL, with the CRLF line terminator,
    quotes a field holding `text`: it holds a comma, a quote or a line break.
    Four substring tests, each far faster than one regex search."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _fields(values: list) -> list[str]:
    """format_value of each value. A column of exact floats, ints or strs
    takes one map call of the method format_value reaches for that type."""
    types = set(map(type, values))
    if len(types) == 1:
        kind = types.pop()
        if kind is float:
            return list(map(float.__repr__, values))
        if kind is int:
            return list(map(int.__repr__, values))
        if kind is str:
            return values
    return list(map(format_value, values))


def _quoted(fields: list[str]) -> list[str]:
    """The fields as csv.writer's QUOTE_MINIMAL writes them: one holding a
    comma, a quote or a line break is quoted, its quotes doubled. One test
    of the joined text clears a column that needs none."""
    if not _needs_quotes("".join(fields)):
        return fields
    return ['"' + f.replace('"', '""') + '"' if _needs_quotes(f) else f for f in fields]


def _lines(columns: list[list[str]]) -> str:
    """The rows of columns of quoted fields, each ended by CRLF. As in
    csv.writer, a row whose only field is empty is written as a quoted one."""
    if len(columns) == 1:
        rows = [f or '""' for f in columns[0]]
    else:
        rows = list(map(",".join, zip(*columns)))
    rows.append("")
    return "\r\n".join(rows)


def _column_length(data: dict[str, list]) -> int:
    """The length all columns share; columns of different lengths raise
    GridchopError."""
    lengths = set(map(len, data.values()))
    if len(lengths) > 1:
        sizes = ", ".join(f"{name!r} {len(col)}" for name, col in data.items())
        raise GridchopError(f"result columns differ in length: {sizes}")
    return max(lengths, default=0)


def _csv_blocks(t: ResultTable) -> Iterator[str]:
    """The CSV text of `t`, the text csv.writer writes for it with CRLF line
    ends: the header line, then blocks of up to _BLOCK_ROWS rows, formatted
    a column at a time. Columns of different lengths raise GridchopError at
    once, before any text."""
    n = _column_length(t.data)
    columns = list(t.data.values())
    names = _quoted(list(t.data))
    header = ",".join(names) if names != [""] else '""'
    blocks = (
        _lines([_quoted(_fields(col[lo : lo + _BLOCK_ROWS])) for col in columns])
        for lo in range(0, n, _BLOCK_ROWS)
    )
    return chain([header + "\r\n"], blocks)


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
    x, y = float(position[0]), float(position[1])
    # a JSON number loads as int or float; a bool or a numeric string is not one
    if any(type(v) not in (int, float) for v in position):
        raise TypeError(f"position {position!r} is not an array of numbers")
    return x, y


def _check_part(positions, kind: str, least: int, closed: bool) -> None:
    """Check a polyline's or a ring's GeoJSON positions in order; then, with
    a ring's closing vertex dropped, that it has at least `least` vertices,
    none equal to the one before it (in a ring, the last precedes the first)."""
    vertices = []
    for p in positions:
        x, y = _xy(p)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise LoadError(f"non-finite point coordinates ({x}, {y})")
        vertices.append((x, y))
    if closed and len(vertices) > 1 and vertices[0] == vertices[-1]:
        vertices.pop()
    if len(vertices) < least:
        raise LoadError(f"{kind} needs at least {least} vertices")
    nxt = vertices[1:] + vertices[:1] if closed else vertices[1:]
    if any(a == b for a, b in zip(vertices, nxt)):
        raise LoadError(f"consecutive duplicate {kind} vertices")


def _check_geometry(gtype: str, coords) -> None:
    """Check one feature's coordinates, a vertex at a time, and raise the
    error of the first fault: the per-feature path behind a failed bulk
    check. Each ring is checked in full before the next one."""
    if gtype == "Point":
        x, y = _xy(coords)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise LoadError(f"non-finite coordinates ({x}, {y})")
    elif gtype == "LineString":
        _check_part(coords, "polyline", 2, closed=False)
    elif gtype == "Polygon":
        for raw in coords:
            _check_part(raw, "ring", 3, closed=True)
        if not coords:  # a polygon needs its outer ring
            raise IndexError("list index out of range")
    else:
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
    """A point set from CSV, column by column: no object per row. Each
    attribute is its field's text as csv.reader gave it; nothing else is
    converted."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = [r for r in reader if r]  # blank lines are skipped
        except UnicodeDecodeError as e:
            raise LoadError(f"{path}: not valid UTF-8: {e}")
    # a repeated header name reads its last column
    index = {c: j for j, c in enumerate(header)}
    for col in (id_column, x_column, y_column):
        if col not in index:
            raise LoadError(f"{path}: missing column {col!r}")
    attr_cols = [c for c in index if c not in (id_column, x_column, y_column)]
    width, n = len(header), len(rows)
    shortest = min(map(len, rows), default=width)
    if shortest < width:  # missing trailing fields read as None
        rows = [r + [None] * (width - len(r)) for r in rows]
    # a row too short to reach an attribute column lacks its value: a row error
    ok = shortest > max(map(index.get, attr_cols), default=-1)
    cols = list(zip(*rows)) if rows else [()] * width
    xi, yi = index[x_column], index[y_column]
    xy = np.empty((n, 2))
    try:
        xy[:, 0] = np.fromiter(map(float, cols[xi]), np.float64, n)
        xy[:, 1] = np.fromiter(map(float, cols[yi]), np.float64, n)
        ok = ok and bool(np.isfinite(xy).all())
    except (TypeError, ValueError):  # float() of a bad token or None
        ok = False
    if not ok:
        _raise_row_error(path, rows, xi, yi, [(c, index[c]) for c in attr_cols])
    ids = list(cols[index[id_column]])
    _check_ids(ids, path)
    attributes = {c: list(cols[index[c]]) for c in attr_cols}
    return FeatureSet.from_columns(ids, xy, attributes=attributes)


def _raise_feature_error(path: str, features: list, id_column: str):
    """Raise the LoadError of the first bad feature. Inside a feature a bad
    structure comes first, then a bad geometry, then a missing id."""
    for i, f in enumerate(features):
        if not isinstance(f, dict):
            raise LoadError(f"{path}: feature {i}: not an object")
        geom = f.get("geometry") or {}
        p = f.get("properties") or {}
        for key, value in (("geometry", geom), ("properties", p)):
            if not isinstance(value, dict):
                raise LoadError(f"{path}: feature {i}: {key} is not an object")
        gtype = geom.get("type")
        try:
            _check_geometry(gtype, geom.get("coordinates"))
        except (TypeError, ValueError, IndexError, OverflowError) as e:  # not a position of numbers
            raise LoadError(f"{path}: feature {i}: bad {gtype} coordinates: {e}")
        except GridchopError as e:  # non-finite, duplicate or too few vertices
            raise LoadError(f"{path}: feature {i}: {e}")
        if id_column not in p:
            raise LoadError(f"{path}: feature {i}: missing property {id_column!r}")
    raise AssertionError("no bad feature")


_GEOJSON_KINDS = {"Point": POINT, "LineString": LINE, "Polygon": POLYGON}


def _geojson_columns(features: list, id_column: str) -> FeatureSet | None:
    """The set of a GeoJSON feature list, every position read into one flat
    array and checked in bulk; None if any feature is bad."""
    ids, props, kinds, parts, nparts = [], [], [], [], []
    for f in features:
        if not isinstance(f, dict):
            return None
        geom = f.get("geometry") or {}
        p = f.get("properties") or {}
        if not (isinstance(geom, dict) and isinstance(p, dict)) or id_column not in p:
            return None
        kind = _GEOJSON_KINDS.get(geom.get("type"))
        if kind is None:
            return None
        coords = geom.get("coordinates")
        if kind == POLYGON:
            parts += coords
            nparts.append(len(coords))
        else:
            parts.append([coords] if kind == POINT else coords)
            nparts.append(1)
        p = dict(p)
        ids.append(str(p.pop(id_column)))
        props.append(p)
        kinds.append(kind)
    positions = [pos for part in parts for pos in part]
    if not set(map(type, chain.from_iterable(positions))) <= {int, float}:
        return None
    widths = set(map(len, positions))
    if widths and min(widths) < 2:
        return None
    if widths - {2}:  # drop the altitudes
        positions = [pos[:2] for pos in positions]
    xy = np.fromiter(chain.from_iterable(positions), np.float64, 2 * len(positions)).reshape(-1, 2)
    nverts = np.fromiter(map(len, parts), np.intp, len(parts))
    nparts = np.array(nparts, dtype=np.intp)
    kinds = np.array(kinds, dtype=np.int8)
    part_kind = np.repeat(kinds, nparts)
    ring = part_kind == POLYGON
    if not (nparts.all() and nverts.all() and np.isfinite(xy).all()):
        return None
    # a ring's closing vertex, equal to its first one, is dropped
    ends = run_offsets(nverts)
    closed = ring & (nverts > 1) & (xy[ends[:-1]] == xy[ends[1:] - 1]).all(axis=1)
    keep = np.ones(len(xy), dtype=bool)
    keep[ends[1:][closed] - 1] = False
    xy, nverts = xy[keep], nverts - closed
    if (nverts < np.where(ring, 3, np.where(part_kind == LINE, 2, 1))).any():
        return None
    # no vertex may equal the one before it, in a ring also the first the last
    part_offsets = run_offsets(nverts)
    part = np.repeat(np.arange(len(nverts)), nverts)
    prev = ring_neighbour(part, len(nverts), -1)
    first = np.zeros(len(xy), dtype=bool)
    first[part_offsets[:-1]] = True
    if ((xy == xy[prev]).all(axis=1) & (ring[part] | ~first)).any():
        return None
    # outer rings counterclockwise, holes clockwise: reverse the others
    outer = np.zeros(len(nverts), dtype=bool)
    outer[run_offsets(nparts)[:-1]] = True
    flip = (ring & ((signed_ring_areas(xy, part_offsets) > 0) != outer))[part]
    at = np.arange(len(xy))
    at[flip] = (part_offsets[:-1] + part_offsets[1:] - 1)[part[flip]] - at[flip]
    attr_cols = dict.fromkeys(k for p in props for k in p)
    return FeatureSet.from_columns(
        ids, xy[at], part_offsets, run_offsets(nparts), kinds,
        {c: [p.get(c, MISSING) for p in props] for c in attr_cols},
    )


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError
            raise LoadError(f"{path}: not valid JSON: {e}")


def _load_geojson(path: str, id_column: str) -> FeatureSet:
    """Every geometry kind into the flat layout, with no object per vertex; a
    bad feature is found again one feature at a time, for its error message."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise LoadError(f"{path}: not a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise LoadError(f"{path}: features is not an array")
    try:
        fs = _geojson_columns(features, id_column)
    except (TypeError, ValueError, OverflowError):  # coordinates of a wrong shape or type
        fs = None
    if fs is None:
        _raise_feature_error(path, features, id_column)
    _check_ids(fs.ids(), path)
    return fs


def load_features(
    path: str,
    format: str = "csv",
    id_column: str = "id",
    x_column: str = "x",
    y_column: str = "y",
) -> FeatureSet:
    """Load features in file order; attributes as read (see FeatureSet)."""
    if format == "csv":
        return _load_csv(path, id_column, x_column, y_column)
    if format == "geojson":
        return _load_geojson(path, id_column)
    raise LoadError(f"unknown feature format {format!r}")


def save_table(t: ResultTable, path: str) -> None:
    """Write `t` as CSV (to_csv_bytes), each block of rows as it is formatted."""
    blocks = _csv_blocks(t)
    with open(path, "wb") as fh:
        for text in blocks:
            fh.write(text.encode("utf-8"))


_WHOLE = (lambda v: v.is_integer() and v >= 1, "a whole number >= 1")
_FINITE = (math.isfinite, "a finite number")
# each header key's rule on its float() value, and what it asks for; else a LoadError
_ASC_HEADER = {"ncols": _WHOLE, "nrows": _WHOLE, "xllcorner": _FINITE, "yllcorner": _FINITE,
               "cellsize": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
               "nodata_value": (lambda v: True, "a number")}


def load_raster(path: str, kind: str = "continuous") -> Raster:
    """Read an ESRI ASCII grid; raster kind comes from the caller."""
    with open(path) as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise LoadError(f"{path}: not valid UTF-8: {e}")
    header: dict[str, float] = {}
    idx = 0
    while idx < len(lines) and len(header) < 6:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0].lower() not in _ASC_HEADER:
            break
        key = parts[0].lower()
        rule, want = _ASC_HEADER[key]
        try:
            header[key] = float(parts[1])
            if not rule(header[key]):
                raise ValueError
        except ValueError:
            raise LoadError(f"{path}: {key} must be {want}, got {parts[1]!r}")
        idx += 1
    missing = [k for k in _ASC_HEADER if k not in header]
    if missing:
        raise LoadError(f"{path}: missing header keys {missing} (line {idx + 1})")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    values = None
    if idx + nrows <= len(lines):
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
        rows = []
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
                rows.append([float(p) for p in parts])
            except ValueError:
                raise LoadError(f"{path}: line {lineno}: non-numeric value")
        values = np.array(rows, dtype=np.float64)
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

    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: $ is not an object")
    for key in ("mode", "chunks"):
        if key not in doc:
            raise LoadError(f"{path}: $.{key} missing")
    if not isinstance(doc["chunks"], list):
        raise LoadError(f"{path}: $.chunks is not an array")
    chunks = []
    for i, c in enumerate(doc["chunks"]):
        where = f"{path}: $.chunks[{i}]"
        if not isinstance(c, dict):
            raise LoadError(f"{where} is not an object")
        for key in ("chunk_id", "core", "member_ids"):
            if key not in c:
                raise LoadError(f"{where}.{key} missing")
        if type(c["chunk_id"]) is not int:  # a bool is an int, a float may round
            raise LoadError(f"{where}.chunk_id is not an integer: {json.dumps(c['chunk_id'])}")
        if not isinstance(c["member_ids"], list):
            raise LoadError(f"{where}.member_ids is not an array")
        core = c["core"]
        if not (isinstance(core, list) and len(core) == 4
                and all(type(v) in (int, float) for v in core)):  # a bool is an int
            raise LoadError(f"{where}.core is not an array of four numbers: {json.dumps(core)}")
        try:
            core = BBox(*map(float, core))
        except InvalidParameterError as e:  # non-finite or inverted
            raise LoadError(f"{where}.core: bad bbox: {e}")
        chunks.append(Chunk(c["chunk_id"], core, [str(m) for m in c["member_ids"]]))
    chunks.sort(key=lambda c: c.chunk_id)
    return PartitionSet(str(doc["mode"]), chunks)
