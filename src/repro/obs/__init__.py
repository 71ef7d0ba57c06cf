"""repro.obs — observability for the simulated replication stack.

Three layers, each usable alone:

* :mod:`repro.obs.metrics` — a Prometheus-flavoured metrics registry
  (counters, gauges, histograms with labeled series; text + JSON
  exposition).  Every count the runtime keeps — messages sent, updates
  replayed, entries collected — lives here and nowhere else.
* :mod:`repro.obs.tracer` — a virtual-time tracer (no-op by default)
  emitting structured records for the message lifecycle, operations,
  crashes/recoveries and anti-entropy; exportable as a Chrome trace-event
  file that loads in Perfetto.
* :mod:`repro.obs.report` — folds a finished cluster (trace + registry +
  tracer) into one machine-readable JSON run report; also the
  ``python -m repro.obs`` CLI.

Only the leaf modules are imported here: ``repro.sim.cluster`` imports
this package at module load, so pulling :mod:`repro.obs.report` (which
imports the cluster) back in would create a cycle.  Import the report
layer explicitly: ``from repro.obs.report import run_report``.
"""

from repro.obs.log import StructLogger, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.tracer import (
    CLUSTER_TRACK,
    NULL_TRACER,
    NullTracer,
    SimTracer,
    TraceRecord,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.wall import (
    TraceContext,
    WallTracer,
    merge_chrome_traces,
    trace_ids,
    wall_chrome_trace,
    wall_now,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "CLUSTER_TRACK",
    "NULL_TRACER",
    "NullTracer",
    "SimTracer",
    "TraceRecord",
    "to_chrome_trace",
    "write_chrome_trace",
    "StructLogger",
    "get_logger",
    "TraceContext",
    "WallTracer",
    "merge_chrome_traces",
    "trace_ids",
    "wall_chrome_trace",
    "wall_now",
]
