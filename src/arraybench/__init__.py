"""Chunked multi-dimensional array engine with a mergeable user-aggregate
executor and a scientific benchmark workload."""

from .algebra import (
    AggregateFn,
    Array,
    BitPattern,
    NeighborhoodShape,
    Predicate,
    apply,
    apply_plus,
    combine,
    dense_array,
    fill,
    filter,
    gather_region,
    inner_djoin,
    materialize,
    rebox,
    rebox_stored,
    reduce,
    shift,
)
from .errors import (
    CatalogError,
    ConfigError,
    DependencyError,
    DomainError,
    EngineError,
    FormatError,
    PlanError,
    SchemaError,
    ShapeError,
)
from .gla import (
    GLA,
    AggregationTree,
    AvgGLA,
    CellBatch,
    CountDistinctGLA,
    CountGLA,
    GLARun,
    MaxGLA,
    MinGLA,
    SumGLA,
    cell_batch,
    run_gla,
    run_gla_chunks,
)
from .meter import Meter, metered
from .model import (
    ArraySchema,
    AttributeSpec,
    Box,
    Chunk,
    DimensionSpec,
    box_intersect,
    make_dense_chunk,
    make_sparse_chunk,
)
from .plans import (
    PlanNode,
    PlanScript,
    RunReport,
    execute_plan,
    parse_plan,
    print_plan,
    result_digest,
)
from .storage import (
    Catalog,
    chunk_array,
    read_chunk,
    tile_box,
    write_chunk,
)
from .workload import (
    BenchConfig,
    Observation,
    ObservationGroup,
    Workload,
    boundary_polygon,
    group_cycle,
)

__version__ = "0.1.0"
