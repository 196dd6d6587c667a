"""The package's public names: `__all__` lists every one, each resolves,
and the one-at-a-time helpers that the batch kernels and the flat geometry
layout replaced stay gone."""

import dataclasses
import importlib
import inspect

import pytest

import gridchop
from gridchop import executor, partition
from gridchop.dataio import FeatureSet
from gridchop.geom import BBox
from gridchop.partition import Chunk, GridSpec, PartitionSet

REMOVED = [
    ("gridchop.raster", "value_at_point"),
    ("gridchop.raster", "coverage_fractions"),
    ("gridchop.raster", "CoverageCell"),
    ("gridchop.raster", "zonal_stat"),
    ("gridchop.geoops", "polygon_intersection_area"),
    ("gridchop.geom", "buffer_point"),
    ("gridchop.geom", "point_segment_distance"),
    # scalar one-object-at-a-time code the flat geometry layout replaced
    ("gridchop.geom", "point_in_polygon"),
    ("gridchop.geom", "polygon_area"),
    ("gridchop.geom", "signed_ring_area"),
    ("gridchop.geom", "make_polygon"),
    ("gridchop.raster", "ring_arrays"),
    ("gridchop.geoops", "_same_polygon"),
    ("gridchop.partition", "representative_point"),
    ("gridchop.partition", "_representative_xy"),
    # one cell rule labels the points of every grid mode
    ("gridchop.partition", "assign_to_partition"),
    # one reducer, raster.zonal_stats, for buffered points and polygons, and
    # polygon windows as int arrays (raster.cell_windows)
    ("gridchop.raster", "StatSpec"),
    ("gridchop.raster", "StatResult"),
    ("gridchop.raster", "cell_stat"),
    ("gridchop.raster", "CellWindow"),
    ("gridchop.raster", "EMPTY_WINDOW"),
    ("gridchop.raster", "window_for_bbox"),
    ("gridchop.geoops", "_buffered_point_stats"),
    # each op prunes the whole context itself: the executor clips nothing
    ("gridchop.executor", "_apply_clipped"),
    ("gridchop.executor", "_subset_by_bbox"),
    ("gridchop.executor", "interaction_radius"),
    # frequency as arrays: one dense category reducer, raster.category_sums,
    # and geoops.freq_columns the one test of a frequency column's name
    ("gridchop.raster", "category_weights"),
    ("gridchop.geoops", "_freq_columns"),
    ("gridchop.geoops", "freq_sort_key"),
    # geoops.check_inputs owns every rule about an op's inputs: sedc takes
    # keyword arguments as the other ops do, and the executor no longer
    # checks the anchors' type itself
    ("gridchop.geoops", "SedcParams"),
    ("gridchop.executor", "_anchors"),
    # a CSV attribute is its field's text: check_inputs converts value columns
    ("gridchop.dataio", "parse_scalar"),
]


def test_all_lists_every_public_name():
    assert len(set(gridchop.__all__)) == len(gridchop.__all__)
    public = {
        name for name, value in vars(gridchop).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(gridchop.__all__)
    namespace = {}
    exec("from gridchop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gridchop.__all__)


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_names_are_gone(module, name):
    assert name not in gridchop.__all__
    assert not hasattr(gridchop, name)
    assert not hasattr(importlib.import_module(module), name)


def test_no_leftovers():
    assert not hasattr(executor, "group_by_hierarchy")  # the partition module exports it
    assert not hasattr(partition, "_LAST_SSQ_TRACE")
    assert not {"contains", "center", "union"} & set(vars(BBox))
    assert not hasattr(PartitionSet, "global_extent")
    # one geometry layout: no geometry list and no point-only coordinate array
    assert not {"geometries", "xy"} & set(vars(FeatureSet([])))
    for cls in (GridSpec, Chunk, PartitionSet):
        assert not {"padding", "padded"} & {f.name for f in dataclasses.fields(cls)}, cls
