"""Readers/writers: CSV, GeoJSON subset, ESRI ASCII grid, PartitionSet JSON."""

import csv
import io
import json
import random
import re
import sys

import pytest

from gridchop import dataio
from gridchop.cli import main
from gridchop.dataio import (
    MISSING,
    Feature,
    FeatureSet,
    ResultTable,
    format_value,
    load_features,
    load_partitions,
    load_raster,
    save_partitions,
    save_table,
    write_raster,
)
from gridchop.errors import GridchopError, InvalidInputError, LoadError
from gridchop.geom import BBox, Point, Polygon, Polyline, Ring, bbox_of
from gridchop.partition import Chunk, PartitionSet
from gridchop.raster import Raster

import numpy as np


def csv_writer_bytes(data):
    """The bytes csv.writer writes for a table's columns, the writer's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(data)
    writer.writerows(zip(*[map(format_value, col) for col in data.values()]))
    return buf.getvalue().encode("utf-8")


def table(columns, rows):
    """A ResultTable of these columns from row dicts; a missing key writes empty."""
    return ResultTable({c: [r.get(c) for r in rows] for c in columns})


class TestFormatValue:
    def test_float_round_trip(self):
        assert format_value(0.1 + 0.2) == "0.30000000000000004"
        assert float(format_value(1 / 3)) == 1 / 3

    def test_none_is_empty(self):
        assert format_value(None) == ""

    def test_bool_and_int(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(7) == "7"

    def test_numpy_float(self):
        # shortest round-trip text under NumPy 1 and 2 alike, not np.float64(...)
        assert format_value(np.float64(0.1)) == "0.1"
        t = ResultTable({"id": ["t"], "v": [np.float64(2.0)], "w": [np.float64(0.5)]})
        assert t.to_csv_bytes() == b"id,v,w\r\nt,2.0,0.5\r\n"


class TestLoadFeaturesCsv:
    def test_single_point(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("pid,x,y,v\na,0,0,1\n")
        fs = load_features(str(p), id_column="pid")
        assert len(fs) == 1
        assert fs.features[0].id == "a"
        assert fs.features[0].geometry == Point(0.0, 0.0)
        assert fs.features[0].attributes == {"v": "1"}
        assert list(fs.attributes) == ["v"]

    def test_duplicate_id_error_names_id(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y\na,0,0\na,1,1\n")
        with pytest.raises(LoadError, match="'a'"):
            load_features(str(p))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x\na,0\n")
        with pytest.raises(LoadError, match="'y'"):
            load_features(str(p))

    def test_bad_coordinate_row_number(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y\na,0,0\nb,oops,1\n")
        with pytest.raises(LoadError, match="row 3"):
            load_features(str(p))


    def test_short_row_missing_coordinate(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\na,0,0,1\nb,1\n")
        with pytest.raises(LoadError, match=r"bad coordinates at row 3$"):
            load_features(str(p))

    def test_short_row_missing_id(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,id\n0,0,a\n1,1\n")
        with pytest.raises(LoadError, match="empty id at row 2"):
            load_features(str(p))

    def test_short_row_missing_attribute(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v,w\na,0,0,1,2\nb,1,1,3\n")
        with pytest.raises(LoadError, match=r"missing value for column 'w' at row 3$"):
            load_features(str(p))

    def test_extra_fields_ignored(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\na,0,0,1,extra,more\n")
        fs = load_features(str(p))
        assert fs.features[0].attributes == {"v": "1"} and list(fs.attributes) == ["v"]

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text('id,x,y,v\n"a,1","0.5",0,"7"\n"b ""q""",1,1,"x,y"\n')
        fs = load_features(str(p))
        assert fs.ids() == ["a,1", 'b "q"']
        assert fs.features[0].geometry == Point(0.5, 0.0)
        assert [f.attributes["v"] for f in fs.features] == ["7", "x,y"]

    def test_repeated_header_reads_last_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v,v\na,0,0,1,2\n")
        fs = load_features(str(p))
        assert fs.features[0].attributes == {"v": "2"} and list(fs.attributes) == ["v"]

    @pytest.mark.parametrize("text,col", [("", "'id'"), ("x,y\n0,0\n", "'id'"),
                                          ("id,y\na,0\n", "'x'")])
    def test_missing_column_named(self, tmp_path, text, col):
        p = tmp_path / "pts.csv"
        p.write_text(text)
        with pytest.raises(LoadError, match=f"missing column {col}"):
            load_features(str(p))

    @pytest.mark.parametrize("row", ["b,,1", "b,1,", "b,1,inf!", "b,0x1,1"])
    def test_bad_coordinates(self, tmp_path, row):
        # a blank line is skipped and not counted in the row number
        p = tmp_path / "pts.csv"
        p.write_text(f"id,x,y\na,0,0\n\n{row}\n")
        with pytest.raises(LoadError, match=r"bad coordinates at row 3$"):
            load_features(str(p))


    @pytest.mark.parametrize("rows,message", [
        # the first row with any error wins; ids are checked after every row
        ("a,0,0,1\nb,1,1\nc,x,1,2\n", r"missing value for column 'v' at row 3$"),
        ("a,0,0,1\nb,q,1,2\nc,1,1\n", r"bad coordinates at row 3$"),
        ("a,0,0,1\na,1,1,2\nc,q,1,2\n", r"bad coordinates at row 4$"),
        ("a,0,0,1\n,1,1,2\nc,1,1\n", r"missing value for column 'v' at row 4$"),
        ("a,0,0,1\nb,nan,1,2\nc,q,1,2\n", "non-finite"),
        ("a,0,0,1\na,inf,1,2\n", "non-finite"),
        # inside a row: a bad coordinate, then a missing value, then non-finite
        ("a,0,0,1\nb,q\n", r"bad coordinates at row 3$"),
        ("a,0,0,1\nb,nan,1\n", r"missing value for column 'v' at row 3$"),
    ])
    def test_error_precedence(self, tmp_path, rows, message):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\n" + rows)
        with pytest.raises(GridchopError, match=message):
            load_features(str(p))

    @pytest.mark.parametrize("row,xy", [("b,nan,2", "(nan, 2.0)"), ("b,1,inf", "(1.0, inf)"),
                                        ("b,-Infinity,NaN", "(-inf, nan)")])
    def test_non_finite_coordinates(self, tmp_path, row, xy):
        # a load error that names the file and the row, after a skipped blank line
        p = tmp_path / "pts.csv"
        p.write_text(f"id,x,y\na,0,0\n\n{row}\nc,q,1\n")
        want = f"{p}: non-finite coordinates {xy} at row 3"
        with pytest.raises(LoadError, match=f"^{re.escape(want)}$"):
            load_features(str(p))

    def test_short_row_names_first_missing_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v,w\na,0,0,1,2\nb,1,1\n")
        with pytest.raises(LoadError, match=r"missing value for column 'v' at row 3$"):
            load_features(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\n\na,0,0,1\n\n\nb,1,2,x\n\n")
        fs = load_features(str(p))
        assert fs.ids() == ["a", "b"]
        assert [f.attributes for f in fs.features] == [{"v": "1"}, {"v": "x"}]
        assert fs.bounds().tolist() == [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 1.0, 2.0]]

    def test_repeated_coordinate_header_reads_last_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,x\na,1,2,3\n")
        fs = load_features(str(p))
        assert fs.features[0].geometry == Point(3.0, 2.0) and fs.attributes == {}

    def test_coordinates_parse_as_float_and_attributes_stay_text(self, tmp_path):
        # coordinates go through float(); an attribute is its field's text
        p = tmp_path / "pts.csv"
        tokens = ["7", "+3", "-0", "1_0", " 5", "nan", "", "0x1", "-inf", "1e2", "12.0", ".5"]
        coords = [" 1.5", "1_0", "-0.0", "1e3", "+2", "4.9e-324", ".5", "1.", "-7 ", "0",
                  "1E-2", "123456789012345678901234567890"]
        lines = [f"p{i},{c},{c},{t}" for i, (c, t) in enumerate(zip(coords, tokens))]
        p.write_text("id,x,y,v\n" + "\n".join(lines) + "\n")
        fs = load_features(str(p))
        assert [repr(f.geometry.x) for f in fs.features] == [repr(float(c)) for c in coords]
        assert [repr(f.geometry.y) for f in fs.features] == [repr(float(c)) for c in coords]
        assert fs.attributes == {"v": tokens}

    def test_value_column_reads_as_float_of_its_text(self, tmp_path):
        # check_inputs reads a value column's text with float(): "-0" is -0.0,
        # and a 400-digit integer is inf, as 1e400 is. Parsed to int on load,
        # they once read 0.0 and raised an OverflowError
        from gridchop.geoops import check_inputs

        tokens = ["7", "+3", "-0", "1_0", " 5", "nan", "-inf", "1e2", "12.0", ".5", "1" * 400,
                  "1e400", "-" + "9" * 400]
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\n" + "".join(f"p{i},0,0,{t}\n" for i, t in enumerate(tokens)))
        fs = load_features(str(p))
        _, _, columns = check_inputs("summarize_sedc", fs, fs,
                                     {"bandwidth": 1.0, "value_columns": ["v"]})
        assert list(map(repr, columns["v"].tolist())) == [repr(float(t)) for t in tokens]

    def test_no_rows(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,v\n")
        fs = load_features(str(p))
        assert len(fs) == 0 and fs.attributes == {"v": []} and fs.geometry_kind() == "empty"
        assert fs.bounds().shape == (0, 4)


class TestLoadFeaturesGeoJSON:
    def test_points_with_different_property_keys(self, tmp_path):
        from gridchop.geoops import summarize_sedc

        feats = [({"id": "a", "k": 1}, [0, 0]), ({"id": 5, "m": "x"}, [1.5, 2]),
                 ({"id": "c", "k": None, "m": 2.5}, [3, -1, 9])]
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": props,
             "geometry": {"type": "Point", "coordinates": xy}} for props, xy in feats]}
        p = tmp_path / "f.geojson"
        p.write_text(json.dumps(doc))
        fs = load_features(str(p), format="geojson")
        assert fs.geometry_kind() == "point" and fs.ids() == ["a", "5", "c"]
        assert list(fs.attributes) == ["k", "m"]
        assert [f.attributes for f in fs.features] == [{"k": 1}, {"m": "x"},
                                                       {"k": None, "m": 2.5}]
        assert [f.geometry for f in fs.features] == [Point(0.0, 0.0), Point(1.5, 2.0),
                                                     Point(3.0, -1.0)]
        assert fs.bounds().tolist() == [[0, 0, 0, 0], [1.5, 2, 1.5, 2], [3, -1, 3, -1]]
        # a value column some features lack is an input error naming the first
        with pytest.raises(InvalidInputError, match="feature '5' lacks value column 'k'"):
            summarize_sedc(fs, fs, bandwidth=1.0, value_columns=("k",))
        with pytest.raises(InvalidInputError, match="feature 'a' lacks value column 'm'"):
            summarize_sedc(fs, fs, bandwidth=1.0, value_columns=("m",))
        # and so is a value float() rejects, naming the feature, the column and the value
        with pytest.raises(InvalidInputError, match="feature 'c' has value None in column 'k'"):
            summarize_sedc(fs, fs.subset([2]), bandwidth=1.0, value_columns=("k",))
        with pytest.raises(InvalidInputError, match="feature '5' has value 'x' in column 'm'"):
            summarize_sedc(fs, fs.subset([1, 2]), bandwidth=1.0, value_columns=("m",))

    @pytest.mark.parametrize("xy,shown", [("[NaN, 2]", "(nan, 2.0)"),
                                          ("[1, Infinity]", "(1.0, inf)"),
                                          ("[-Infinity, NaN]", "(-inf, nan)")])
    def test_non_finite_point(self, tmp_path, xy, shown):
        # json.load accepts these literals; the load error names the file and the feature
        p = tmp_path / "f.geojson"
        feats = [f'{{"type": "Feature", "properties": {{"id": "{fid}"}}, '
                 f'"geometry": {{"type": "Point", "coordinates": {c}}}}}'
                 for fid, c in (("a", "[0, 0]"), ("b", xy))]
        p.write_text('{"type": "FeatureCollection", "features": [' + ", ".join(feats) + "]}")
        want = f"{p}: feature 1: non-finite coordinates {shown}"
        with pytest.raises(LoadError, match=f"^{re.escape(want)}$"):
            load_features(str(p), format="geojson")

    @pytest.mark.parametrize("geometry,want", [
        ('{"type": "Point", "coordinates": ["x", 2]}',
         "bad Point coordinates: could not convert string to float: 'x'"),
        ('{"type": "Point", "coordinates": null}',
         "bad Point coordinates: 'NoneType' object is not subscriptable"),
        ('{"type": "LineString", "coordinates": [[0, 0], [1, "2"], ["x", 2]]}',
         "bad LineString coordinates: position [1, '2'] is not an array of numbers"),
        # a position member must be a JSON number: not a numeric string, not a bool
        ('{"type": "Point", "coordinates": [1, "2"]}',
         "bad Point coordinates: position [1, '2'] is not an array of numbers"),
        ('{"type": "Point", "coordinates": [true, 2]}',
         "bad Point coordinates: position [True, 2] is not an array of numbers"),
        ('{"type": "Polygon", "coordinates": null}',
         "bad Polygon coordinates: 'NoneType' object is not iterable"),
        # a string position is not read character by character
        ('{"type": "Point", "coordinates": "12"}',
         "bad Point coordinates: position '12' is not an array"),
        ('{"type": "LineString", "coordinates": ["12", "34"]}',
         "bad LineString coordinates: position '12' is not an array"),
        ('{"type": "Polygon", "coordinates": [["00", "10", "11"]]}',
         "bad Polygon coordinates: position '00' is not an array"),
        ('{"type": "LineString", "coordinates": [[0, 0], [NaN, 2]]}',
         "non-finite point coordinates (nan, 2.0)"),
        ('{"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 0], [1, 1], [0, 0]]]}',
         "consecutive duplicate ring vertices"),
        # RFC 7946 allows an altitude; x and y are read
        ('{"type": "LineString", "coordinates": [[0, 0, 5], [1, 2, 6]]}',
         Polyline([Point(0, 0), Point(1, 2)])),
        ('{"type": "Polygon", "coordinates": [[[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]]]}',
         Polygon(Ring([Point(0, 0), Point(1, 0), Point(1, 1)]))),
        # the closing vertex is dropped; the outer ring is turned counterclockwise
        # and each hole clockwise by reversing its vertices
        ('{"type": "Polygon", "coordinates": [[[0, 0], [0, 1], [1, 1], [1, 0], [0, 0]]]}',
         Polygon(Ring([Point(1, 0), Point(1, 1), Point(0, 1), Point(0, 0)]))),
        ('{"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], '
         '[[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]]}',
         Polygon(Ring([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]),
                 [Ring([Point(1, 2), Point(2, 2), Point(2, 1), Point(1, 1)])])),
        ('{"type": "Polygon", "coordinates": [[[0, 0], [0, 4], [4, 4], [4, 0]], '
         '[[1, 1], [1, 2], [2, 2], [2, 1]], [[3, 3], [3.5, 3], [3.5, 3.5]]]}',
         Polygon(Ring([Point(4, 0), Point(4, 4), Point(0, 4), Point(0, 0)]),
                 [Ring([Point(1, 1), Point(1, 2), Point(2, 2), Point(2, 1)]),
                  Ring([Point(3.5, 3.5), Point(3.5, 3), Point(3, 3)])])),
        ('{"type": "Polygon", "coordinates": [[[0, 0, 9], [0, 4, 9], [4, 4, 9], [4, 0, 9], '
         '[0, 0, 9]], [[1, 1, 8], [2, 1, 8], [2, 2, 8], [1, 1, 8]]]}',
         Polygon(Ring([Point(4, 0), Point(4, 4), Point(0, 4), Point(0, 0)]),
                 [Ring([Point(2, 2), Point(2, 1), Point(1, 1)])])),
    ], ids=["text_point", "null_point", "text_line", "numeric_string_point", "bool_point",
            "null_polygon", "string_point",
            "string_line", "string_polygon", "nan_line",
            "duplicate_ring_vertex", "altitude_line", "altitude_polygon",
            "clockwise_outer", "counterclockwise_hole", "open_rings",
            "altitude_clockwise_with_hole"])
    def test_bad_geometry_names_file_and_feature(self, tmp_path, geometry, want):
        p = tmp_path / "f.geojson"
        p.write_text('{"type": "FeatureCollection", "features": ['
                     '{"type": "Feature", "properties": {"id": "a"}, '
                     '"geometry": {"type": "Point", "coordinates": [0, 0]}}, '
                     '{"type": "Feature", "properties": {"id": "b"}, "geometry": '
                     + geometry + "}]}")
        if not isinstance(want, str):
            fs = load_features(str(p), format="geojson")
            assert fs.features[1].geometry == want
            assert fs.bounds()[1].tolist() == list(vars(bbox_of(want)).values())
            return
        with pytest.raises(LoadError, match=f"^{re.escape(f'{p}: feature 1: {want}')}$"):
            load_features(str(p), format="geojson")
        # chop exits 3 with that message, not with a traceback
        assert main(["partition", "--input", str(p), "--out", str(tmp_path / "o.json")]) == 3

    def test_polygon_feature(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "sq", "v": 2},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                }
            ],
        }
        p = tmp_path / "f.geojson"
        p.write_text(json.dumps(doc))
        fs = load_features(str(p), format="geojson")
        assert len(fs) == 1
        assert isinstance(fs.features[0].geometry, Polygon)
        assert fs.features[0].attributes == {"v": 2}

    @pytest.mark.parametrize("text,want", [
        ("[1, 2]", "not a FeatureCollection"),
        ('{"type": "FeatureCollection", "features": 5}', "features is not an array"),
        ('{"type": "FeatureCollection", "features": [1]}', "feature 0: not an object"),
        ('{"type": "FeatureCollection", "features": [{"type": "Feature", '
         '"properties": "x", "geometry": {"type": "Point", "coordinates": [0, 0]}}]}',
         "feature 0: properties is not an object"),
        ('{"type": "FeatureCollection", "features": [{"type": "Feature", '
         '"properties": {"id": "a"}, "geometry": [0, 0]}]}',
         "feature 0: geometry is not an object"),
    ], ids=["array_document", "features_number", "feature_number", "properties_string",
            "geometry_array"])
    def test_bad_structure_names_file_and_feature(self, tmp_path, text, want):
        p = tmp_path / "f.geojson"
        p.write_text(text)
        with pytest.raises(LoadError, match=f"^{re.escape(f'{p}: {want}')}$"):
            load_features(str(p), format="geojson")
        # chop exits 3 with that message, not with a traceback
        assert main(["partition", "--input", str(p), "--out", str(tmp_path / "o.json")]) == 3

    def test_not_a_collection(self, tmp_path):
        p = tmp_path / "f.geojson"
        p.write_text('{"type": "Feature"}')
        with pytest.raises(LoadError):
            load_features(str(p), format="geojson")

    def test_missing_id_property(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Point", "coordinates": [0, 0]},
                }
            ],
        }
        p = tmp_path / "f.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="feature 0"):
            load_features(str(p), format="geojson")


class TestSaveTable:
    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        save_table(table(["id", "value"], []), str(p))
        assert p.read_bytes() == b"id,value\r\n"

    def test_error_row_leaves_values_empty(self, tmp_path):
        t = table(["id", "mean", "error"], [{"id": "a", "mean": 1.5}, {"id": "b", "error": "boom"}])
        assert t.had_errors
        p = tmp_path / "t.csv"
        save_table(t, str(p))
        lines = p.read_bytes().split(b"\r\n")
        assert lines[1] == b"a,1.5,"
        assert lines[2] == b"b,,boom"

    def test_quoting_of_special_fields(self):
        # RFC 4180: a field holding the delimiter, a quote or a line break is quoted
        ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", ""]
        t = table(["id", "v,w"], [{"id": fid, "v,w": 1} for fid in ids])
        assert t.to_csv_bytes() == (
            b'id,"v,w"\r\nplain,1\r\n"a,b",1\r\n"say ""hi""",1\r\n'
            b'"two\nlines",1\r\n"cr\rhere",1\r\n,1\r\n'
        )

    @pytest.mark.parametrize("value,text", [
        (None, b""), (True, b"1"), (False, b"0"), (7, b"7"), (-3, b"-3"),
        (np.int64(12), b"12"), (np.float64(0.1), b"0.1"), (np.float64(2.0), b"2.0"),
        (1e22, b"1e+22"), (float("nan"), b"nan"), (float("-inf"), b"-inf"), ("s p", b"s p"),
        ("a\0b", b"a\0b"), ("\t", b"\t"), ("\u2028", "\u2028".encode()), (" s ", b" s "),
        (np.float32(0.25), b"0.25"), (np.bool_(True), b"True"),
    ])
    def test_field_formats(self, value, text):
        t = table(["id", "v"], [{"id": "a", "v": value}])
        assert t.to_csv_bytes() == b"id,v\r\na," + text + b"\r\n"

    @pytest.mark.parametrize("columns,want", [
        (["id"], b"id\r\n"), (["id", "mean", "count"], b"id,mean,count\r\n"),
        (["id", 'a"b'], b'id,"a""b"\r\n'), ([""], b'""\r\n'), ([], b"\r\n"),
    ])
    def test_header_only(self, columns, want):
        assert table(columns, []).to_csv_bytes() == want

    def test_float_serialization(self, tmp_path):
        t = table(["v"], [{"v": 0.1 + 0.2}])
        p = tmp_path / "t.csv"
        save_table(t, str(p))
        assert b"0.30000000000000004" in p.read_bytes()

    @pytest.mark.parametrize("data", [
        {"": ["", None, "x"]},  # one column: an empty field alone on its row is quoted
        {"v": [""]},
        {"a": [""], "b": [None]},  # two empty fields are not
        {"id": ["a", "b", "c", "d", "e", "f", "g"],
         "mixed": [1, 1.5, "a,b", None, True, np.float64(0.1), np.int64(3)]},
        {"id": [" lead", "trail ", "tab\there", "\u2028", "é,"], "n": [np.int32(-1), 2, 3, 4, 5],
         "f": [np.float64(2.0), 0.5, -0.0, float("inf"), np.float32(0.1)]},
        {"b": [True, False], "s": ['"', "\r\n"]},
    ])
    def test_bytes_equal_csv_writer(self, data):
        assert ResultTable(data).to_csv_bytes() == csv_writer_bytes(data)

    def test_table_longer_than_one_block(self, tmp_path):
        n = dataio._BLOCK_ROWS + 3
        data = {"id": [f"p{i}" for i in range(n)], "v": [i / 7 for i in range(n)],
                "k": list(range(n)), "note": [""] * (n - 1) + ['last, "quoted"']}
        p = tmp_path / "t.csv"
        save_table(ResultTable(data), str(p))
        assert p.read_bytes() == ResultTable(data).to_csv_bytes() == csv_writer_bytes(data)

    def test_ragged_table_raises(self, tmp_path):
        # zip would cut the table to its shortest column
        t = ResultTable({"id": ["a", "b", "c"], "v": [1.0]})
        want = "^result columns differ in length: 'id' 3, 'v' 1$"
        with pytest.raises(GridchopError, match=want):
            t.to_csv_bytes()
        with pytest.raises(GridchopError, match=want):
            t.rows
        p = tmp_path / "t.csv"
        with pytest.raises(GridchopError):
            save_table(t, str(p))
        assert not p.exists()

    def test_fuzz_bytes_equal_csv_writer(self):
        # before Python 3.11, csv.writer refuses a field holding NUL
        atoms = [",", '"', "\r", "\n", "\t", " ", "\u2028", "é", "a", "x y",
                 *(["\0"] * (sys.version_info >= (3, 11)))]
        rng = random.Random(20261018)

        def text():
            return "".join(rng.choice(atoms) for _ in range(rng.randrange(4)))

        scalars = [None, True, False, 0.1, 1e22, -0.0, float("nan"), 2.0, 7, -3,
                   np.float64(0.5), np.int64(9), np.float32(1.5), np.bool_(False)]
        makers = [text, rng.random, lambda: rng.randrange(-5, 100),
                  lambda: rng.choice(scalars) if rng.random() < 0.5 else text()]
        for _ in range(3000):
            nrows = rng.randrange(6)
            data = {}
            for j in range(rng.randrange(4)):
                make = rng.choice(makers)
                data[text() + str(j) * rng.randrange(2)] = [make() for _ in range(nrows)]
            assert ResultTable(data).to_csv_bytes() == csv_writer_bytes(data), data


class TestRasterIO:
    def test_one_cell_grid(self, tmp_path):
        p = tmp_path / "r.asc"
        p.write_text(
            "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n7\n"
        )
        r = load_raster(str(p))
        assert r.ncols == r.nrows == 1
        assert r.values[0, 0] == 7.0
        assert r.nodata == -9999.0

    def test_round_trip(self, tmp_path):
        r = Raster(3, 2, -1.0, 2.5, 0.5, -9999.0, np.arange(6, dtype=float).reshape(2, 3))
        p = tmp_path / "r.asc"
        write_raster(r, str(p))
        r2 = load_raster(str(p))
        assert (r2.ncols, r2.nrows, r2.xll, r2.yll, r2.cellsize, r2.nodata) == (
            3, 2, -1.0, 2.5, 0.5, -9999.0)
        assert np.array_equal(r2.values, r.values)
        # a second write is byte-identical
        p2 = tmp_path / "r2.asc"
        write_raster(r2, str(p2))
        assert p.read_bytes() == p2.read_bytes()

    def test_header_lowercase_canonical_order(self, tmp_path):
        r = Raster(1, 1, 0.0, 0.0, 1.0, -9999.0, np.zeros((1, 1)))
        p = tmp_path / "r.asc"
        write_raster(r, str(p))
        keys = [line.split()[0] for line in p.read_text().splitlines()[:6]]
        assert keys == ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"]

    def test_nodata_written_as_literal(self, tmp_path):
        vals = np.array([[1.0, -9999.0]])
        p = tmp_path / "r.asc"
        write_raster(Raster(2, 1, 0.0, 0.0, 1.0, -9999.0, vals), str(p))
        assert p.read_text().splitlines()[-1] == "1.0 -9999.0"

    def test_short_data_line_reports_line_number(self, tmp_path):
        p = tmp_path / "r.asc"
        p.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
            "1 2\n3\n"
        )
        with pytest.raises(LoadError, match="line 8"):
            load_raster(str(p))

    def test_missing_header_key(self, tmp_path):
        p = tmp_path / "r.asc"
        p.write_text("ncols 1\nnrows 1\n7\n")
        with pytest.raises(LoadError, match="cellsize"):
            load_raster(str(p))

    _HEADER = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"

    @pytest.mark.parametrize("body,message", [
        ("1 2\n\n3 4\n", r"line 8: expected 2 values, got 0$"),
        ("\n1 2\n3 4\n", r"line 7: expected 2 values, got 0$"),
        ("1 2\n3\n", r"line 8: expected 2 values, got 1$"),
        ("1 2\n3 4 5\n", r"line 8: expected 2 values, got 3$"),
        ("1 2\n3 x\n", r"line 8: non-numeric value$"),
        ("1 2\n# 4\n", r"line 8: non-numeric value$"),
        ("1 2 # note\n3 4\n", r"line 7: expected 2 values, got 4$"),
        ("1 2\n3 4,\n", r"line 8: non-numeric value$"),
        ("1 2\n", r"missing data line 8$"),
        ("", r"missing data line 7$"),
    ])
    def test_body_errors(self, tmp_path, body, message):
        p = tmp_path / "r.asc"
        p.write_text(self._HEADER + body)
        with pytest.raises(LoadError, match=message):
            load_raster(str(p))

    @pytest.mark.parametrize("key,value,want", [
        ("ncols", "abc", "a whole number >= 1"),
        ("ncols", "1e400", "a whole number >= 1"),
        ("ncols", "nan", "a whole number >= 1"),
        ("ncols", "-2", "a whole number >= 1"),
        ("ncols", "2.5", "a whole number >= 1"),
        ("nrows", "0", "a whole number >= 1"),
        ("cellsize", "abc", "a finite number > 0"),
        ("cellsize", "nan", "a finite number > 0"),
        ("cellsize", "0", "a finite number > 0"),
        ("xllcorner", "inf", "a finite number"),
        ("yllcorner", "-inf", "a finite number"),
        ("nodata_value", "x", "a number"),
    ])
    def test_header_errors(self, tmp_path, key, value, want):
        # each once escaped as a traceback, read as a raster of empty values,
        # or failed without naming the file
        header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "1", "nodata_value": "-9999", key: value}
        p = tmp_path / "r.asc"
        p.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n")
        with pytest.raises(LoadError) as e:
            load_raster(str(p))
        assert str(e.value) == f"{p}: {key} must be {want}, got {value!r}"

    def test_whole_float_header_count(self, tmp_path):
        p = tmp_path / "r.asc"
        p.write_text(self._HEADER.replace("ncols 2", "ncols 2.0") + "1 2\n3 4\n")
        r = load_raster(str(p))
        assert (r.ncols, r.values.tolist()) == (2, [[1.0, 2.0], [3.0, 4.0]])

    def test_huge_whole_ncols_is_a_load_error(self, tmp_path):
        # once a ValueError from allocating the 2 x 1e300 values up front
        p = tmp_path / "r.asc"
        p.write_text(self._HEADER.replace("ncols 2", "ncols 1e300") + "1 2\n3 4\n")
        with pytest.raises(LoadError, match=r"line 7: expected \d+ values, got 2$"):
            load_raster(str(p))

    @pytest.mark.parametrize("body,want", [
        ("1_0 2\n3 4\n", [[10.0, 2.0], [3.0, 4.0]]),
        ("1\t2\n3\t \t4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("   1 2  \n 3 4 \n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1 2\n3 4\n5 6\nnot data\n\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1 2\r\n3 4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ])
    def test_body_values(self, tmp_path, body, want):
        p = tmp_path / "r.asc"
        p.write_text(self._HEADER + body)
        assert load_raster(str(p)).values.tolist() == want

    def test_values_bit_equal_to_float(self, tmp_path):
        tokens = ["nan", "-0.0", "4.9e-324", ".5", "1.", "1e308", "-inf", "0.1",
                  "2.2250738585072014e-308", "9007199254740993", "1E5", "+3"]
        rng = np.random.default_rng(3)
        rows = [tokens] + [[repr(v) for v in (rng.standard_normal(12) * 10.0 ** k).tolist()]
                           for k in range(-5, 6)]
        p = tmp_path / "r.asc"
        p.write_text(f"ncols 12\nnrows {len(rows)}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                     "nodata_value -9999\n" + "\n".join(" ".join(r) for r in rows) + "\n")
        got = load_raster(str(p)).values
        want = np.array([[float(t) for t in r] for r in rows])
        assert got.shape == (len(rows), 12) and got.tobytes() == want.tobytes()


class TestPartitionIO:
    def _one(self):
        return PartitionSet("grid", [Chunk(0, BBox(0.0, 0.0, 10.0, 5.0), ["a", "b"])])

    def test_round_trip(self, tmp_path):
        p = tmp_path / "parts.json"
        save_partitions(self._one(), str(p))
        assert load_partitions(str(p)) == self._one()
        doc = json.loads(p.read_text())
        assert set(doc) == {"mode", "chunks"}
        assert set(doc["chunks"][0]) == {"chunk_id", "core", "member_ids"}

    def test_serialized_in_chunk_id_order(self, tmp_path):
        core = BBox(0.0, 0.0, 1.0, 1.0)
        parts = PartitionSet("grid", [Chunk(1, core), Chunk(0, core)])
        p = tmp_path / "parts.json"
        save_partitions(parts, str(p))
        doc = json.loads(p.read_text())
        assert [c["chunk_id"] for c in doc["chunks"]] == [0, 1]

    def test_earlier_format_loads(self, tmp_path):
        # earlier versions also wrote `padding` and a `padded` box per chunk;
        # they are ignored like any unknown key, whatever their values
        p = tmp_path / "parts.json"
        p.write_text('{"mode": "grid", "padding": 1.0, "chunks": [{"chunk_id": 0, '
                     '"core": [0, 0, 10, 5], "padded": [0, 0, 1, 1], "member_ids": ["a", "b"]}]}')
        assert load_partitions(str(p)) == self._one()

    def test_missing_key_path_in_error(self, tmp_path):
        p = tmp_path / "parts.json"
        p.write_text('{"mode": "grid", "padding": 0.0}')
        with pytest.raises(LoadError, match=r"\$\.chunks"):
            load_partitions(str(p))


class TestFeatureSet:
    def test_geometry_kind(self):
        from gridchop.dataio import Feature

        assert FeatureSet([]).geometry_kind() == "empty"
        assert FeatureSet([Feature("a", Point(0, 0))]).geometry_kind() == "point"
        # decided from every geometry, not the first one
        square = Polygon(Ring([Point(0, 0), Point(1, 0), Point(1, 1)]))
        line = Polyline([Point(0, 0), Point(1, 1)])
        for geoms, kind in (([square, square], "polygon"), ([line], "line"),
                            ([square, Point(0, 0)], "point+polygon"),
                            ([line, Point(0, 0), line], "point+line"),
                            ([square, line, Point(2, 2)], "point+line+polygon")):
            fs = FeatureSet([Feature(f"f{i}", g) for i, g in enumerate(geoms)])
            assert fs.geometry_kind() == kind

    def test_subset_keeps_columns(self):
        from gridchop.dataio import Feature

        # a column no kept feature has stays, every value MISSING
        fs = FeatureSet([Feature("a", Point(0, 0), {"v": "1"}), Feature("b", Point(1, 1))])
        sub = fs.subset([1])
        assert sub.ids() == ["b"] and sub.attributes == {"v": [MISSING]}

    def _points(self):
        from gridchop.dataio import Feature

        return FeatureSet([Feature("a", Point(0.5, -1.0), {"v": 1}),
                           Feature("b", Point(2.0, 3.0), {"v": "x", "w": 2.5}),
                           Feature("c", Point(-0.0, 1e-300), {"v": 3.0})])

    def test_point_bounds(self):
        b = self._points().bounds()
        assert b.dtype == np.float64 and b.shape == (3, 4)
        assert b.tolist() == [[0.5, -1.0, 0.5, -1.0], [2.0, 3.0, 2.0, 3.0],
                              [-0.0, 1e-300, -0.0, 1e-300]]
        assert FeatureSet([]).bounds().shape == (0, 4)

    @pytest.mark.parametrize("index", [[2, 0], np.array([2, 0]), [1], [], np.array([], int)])
    @pytest.mark.parametrize("bounds_first", [False, True])
    def test_point_subset(self, index, bounds_first):
        fs = self._points()
        if bounds_first:
            fs.bounds()
        sub = fs.subset(index)
        want = [fs.features[i] for i in list(index)]
        assert sub.ids() == [f.id for f in want] and list(sub.attributes) == ["v", "w"]
        assert [f.geometry for f in sub.features] == [f.geometry for f in want]
        assert [f.attributes for f in sub.features] == [f.attributes for f in want]
        assert sub.bounds().tolist() == fs.bounds()[list(index)].tolist()
        assert sub.geometry_kind() == ("point" if len(want) else "empty")


def _view_sets(tmp_path):
    """{name: (set, its features as built)} for every geometry kind."""
    pts = [Feature("a", Point(0.5, -1.0), {"v": 1}), Feature("b", Point(2.0, 3.0), {"v": "x"}),
           Feature("c", Point(-0.0, 1e-300), {"v": 3.0, "w": 2.5})]
    lines = [Feature("l0", Polyline([Point(0, 0), Point(1, 2)]), {"v": 1}),
             Feature("l1", Polyline([Point(5, 5), Point(4, 7), Point(-1, 6), Point(0, 0)])),
             Feature("l2", Polyline([Point(0.25, 0.5), Point(0.75, 0.5), Point(1, 1)]),
                     {"w": None})]
    polys = [Feature("g0", Polygon(Ring([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]),
                                   [Ring([Point(1, 1), Point(1, 2), Point(2, 2), Point(2, 1)]),
                                    Ring([Point(3, 3), Point(3, 3.5), Point(3.5, 3.5)])]),
                     {"v": 2}),
             Feature("g1", Polygon(Ring([Point(5, 1), Point(6, 0), Point(7, 2)]))),
             Feature("g2", Polygon(Ring([Point(-2, -2), Point(-1, -2), Point(-1, -1),
                                         Point(-2, -1)]),
                                   [Ring([Point(-1.5, -1.5), Point(-1.5, -1.25),
                                          Point(-1.25, -1.25)])]), {"w": "s"})]
    mixed = [Feature("m0", Point(1.0, 2.0), {"k": 1}),
             Feature("m1", Polyline([Point(0, 0), Point(3, 1), Point(2, 5)])),
             Feature("m2", Point(-4.0, 0.5), {"k": "z"}),
             Feature("m3", Polyline([Point(1, 1), Point(2, 2)]), {"k": 2.5})]
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": f.id, **f.attributes},
         "geometry": {"type": "Point", "coordinates": [f.geometry.x, f.geometry.y]}
         if isinstance(f.geometry, Point) else
         {"type": "LineString", "coordinates": [[v.x, v.y] for v in f.geometry.vertices]}}
        for f in mixed]}
    path = tmp_path / "mixed.geojson"
    path.write_text(json.dumps(doc))
    return {
        "points": (FeatureSet(pts), pts),
        "lines": (FeatureSet(lines), lines),
        "polygons": (FeatureSet(polys), polys),
        "mixed_geojson": (load_features(str(path), format="geojson"), mixed),
    }


def _kind_of(features):
    names = {Point: "point", Polyline: "line", Polygon: "polygon"}
    kinds = {names[type(f.geometry)] for f in features}
    return "+".join(k for k in ("point", "line", "polygon") if k in kinds) or "empty"


def _segments_of(features):
    """(x0, y0, x1, y1) of every segment, and its feature's id: a point is
    one zero-length segment, a line one segment per pair of vertices."""
    segs, owners = [], []
    for f in features:
        g = f.geometry
        verts = [g, g] if isinstance(g, Point) else g.vertices
        for a, b in zip(verts, verts[1:]):
            segs.append([a.x, a.y, b.x, b.y])
            owners.append(f.id)
    return segs, owners


class TestFeatureSetViews:
    """The features view, subset, bounds and segments of every geometry kind."""

    @pytest.mark.parametrize("index", [[2, 0], np.array([1, 2]), [1], [0, 1, 2], []])
    @pytest.mark.parametrize("bounds_first", [False, True])
    @pytest.mark.parametrize("name", ["points", "lines", "polygons", "mixed_geojson"])
    def test_views(self, tmp_path, name, bounds_first, index):
        fs, feats = _view_sets(tmp_path)[name]
        assert fs.features == feats
        boxes = [list(vars(bbox_of(f.geometry)).values()) for f in feats]
        if bounds_first:
            assert fs.bounds().tolist() == boxes
        sub = fs.subset(index)
        want = [feats[i] for i in list(index)]
        assert sub.ids() == [f.id for f in want] and list(sub.attributes) == list(fs.attributes)
        assert sub.features == want
        assert sub.bounds().tolist() == [boxes[i] for i in list(index)]
        assert sub.bounds().dtype == np.float64 and sub.bounds().shape == (len(want), 4)
        assert fs.bounds().tolist() == boxes
        assert fs.geometry_kind() == _kind_of(feats)
        assert sub.geometry_kind() == _kind_of(want)
        if name != "polygons":
            for s, w in ((fs, feats), (sub, want)):
                segs, owners = s.segments()
                want_segs, want_owners = _segments_of(w)
                assert segs.tolist() == want_segs
                assert [s.ids()[i] for i in owners.tolist()] == want_owners
