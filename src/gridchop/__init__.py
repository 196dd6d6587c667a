"""Parallel geospatial partition-and-compute engine.

Splits raster/vector workloads into independent spatial chunks (regular,
quantile, or adaptively merged grids; balanced point clusters; data
hierarchies; raster-file lists) and executes zonal/overlay summarizers
across a worker pool with results identical to sequential execution.
"""

from .bench import BenchMetrics, SynthSpec, efficiency, run_benchmark, synth_dataset
from .dataio import (
    Feature,
    FeatureSet,
    ResultTable,
    load_features,
    load_partitions,
    load_raster,
    save_partitions,
    save_table,
    write_raster,
)
from .errors import (
    GridchopError,
    InvalidInputError,
    InvalidParameterError,
    LoadError,
    UnsupportedGeometryError,
)
from .executor import (
    ChunkResult,
    RunConfig,
    TaskSpec,
    merge_chunks,
    run_grid,
    run_hierarchy,
    run_multirasters,
)
from .geom import (
    BBox,
    Point,
    Polygon,
    Polyline,
    Ring,
    bbox_of,
)
from .geoops import (
    extract_at,
    nearest_distance,
    summarize_aw,
    summarize_sedc,
)
from .partition import (
    Chunk,
    GridSpec,
    PartitionSet,
    build_partition,
    group_by_hierarchy,
    make_balanced_groups,
    make_merged_grid,
    make_quantile_grid,
    make_regular_grid,
)
from .raster import Raster

__all__ = [
    "BenchMetrics", "SynthSpec", "efficiency", "run_benchmark", "synth_dataset",
    "Feature", "FeatureSet", "ResultTable", "load_features", "load_partitions", "load_raster",
    "save_partitions", "save_table", "write_raster",
    "GridchopError", "InvalidInputError", "InvalidParameterError", "LoadError",
    "UnsupportedGeometryError",
    "ChunkResult", "RunConfig", "TaskSpec", "merge_chunks", "run_grid", "run_hierarchy",
    "run_multirasters",
    "BBox", "Point", "Polygon", "Polyline", "Ring", "bbox_of",
    "extract_at", "nearest_distance", "summarize_aw", "summarize_sedc",
    "Chunk", "GridSpec", "PartitionSet", "build_partition",
    "group_by_hierarchy", "make_balanced_groups", "make_merged_grid", "make_quantile_grid",
    "make_regular_grid",
    "Raster",
]

__version__ = "0.1.0"
