"""Aurora: the centralized stream processor (paper Section 2).

This package implements the single-node system the distributed designs
build on: the stream data model, the operator set, query networks
(boxes and arrows), and the run-time of Figure 3 — scheduler with train
scheduling, storage manager, QoS monitor and load shedder.
"""

from repro.core.adhoc import (
    AdHocError,
    AttachedQuery,
    attach_adhoc,
    detach_adhoc,
    run_adhoc,
)
from repro.core.aggregates import (
    AggregateFunction,
    available_aggregates,
    get_aggregate,
    register_aggregate,
)
from repro.core.builder import BuildError, Cursor, QueryBuilder
from repro.core.catalog import CatalogError, LocalCatalog
from repro.core.engine import AuroraEngine
from repro.core.fusion import FusedChain, FusionOverlay, find_runs
from repro.core.operators import (
    CaseFilter,
    Filter,
    Join,
    Map,
    Operator,
    Resample,
    Slide,
    Tumble,
    Union,
    WSort,
    XSection,
    value_router,
)
from repro.core.optimizer import (
    Rewrite,
    estimated_chain_cost,
    filter_rank,
    mark_commutes_with_map,
    reoptimize,
)
from repro.core.precision import (
    DeviationReport,
    measure_deviation,
    precision_qos,
    precision_utility,
)
from repro.core.qos import (
    PiecewiseLinear,
    QoSMonitor,
    QoSSpec,
    latency_qos,
    loss_qos,
)
from repro.core.query import (
    Arc,
    Box,
    ConnectionPoint,
    QueryError,
    QueryNetwork,
    execute,
)
from repro.core.scheduler import (
    LongestQueueScheduler,
    QoSScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
)
from repro.core.shedder import LoadShedder
from repro.core.spill import SpillError, SpillFile
from repro.core.stats import EWMA, RateEstimator, summarize_network
from repro.core.storage import StorageManager
from repro.core.tuples import FIGURE_2_STREAM, Schema, SchemaError, StreamTuple, make_stream
from repro.core.viz import describe, to_dot

__all__ = [
    "AdHocError",
    "AggregateFunction",
    "AttachedQuery",
    "BuildError",
    "CaseFilter",
    "value_router",
    "Cursor",
    "QueryBuilder",
    "DeviationReport",
    "EWMA",
    "RateEstimator",
    "SpillError",
    "SpillFile",
    "describe",
    "summarize_network",
    "to_dot",
    "Rewrite",
    "measure_deviation",
    "precision_qos",
    "precision_utility",
    "attach_adhoc",
    "detach_adhoc",
    "estimated_chain_cost",
    "filter_rank",
    "mark_commutes_with_map",
    "reoptimize",
    "run_adhoc",
    "Arc",
    "AuroraEngine",
    "Box",
    "CatalogError",
    "ConnectionPoint",
    "FIGURE_2_STREAM",
    "Filter",
    "FusedChain",
    "FusionOverlay",
    "find_runs",
    "Join",
    "LoadShedder",
    "LocalCatalog",
    "LongestQueueScheduler",
    "Map",
    "Operator",
    "PiecewiseLinear",
    "QoSMonitor",
    "QoSScheduler",
    "QoSSpec",
    "QueryError",
    "QueryNetwork",
    "Resample",
    "RoundRobinScheduler",
    "Scheduler",
    "Schema",
    "SchemaError",
    "Slide",
    "StorageManager",
    "StreamTuple",
    "Tumble",
    "Union",
    "WSort",
    "XSection",
    "available_aggregates",
    "execute",
    "get_aggregate",
    "latency_qos",
    "loss_qos",
    "make_scheduler",
    "make_stream",
    "register_aggregate",
]
