"""Parallel experiment execution, result caching, chunked evaluation.

The scaling layer of the reproduction, three parts:

* :mod:`~repro.parallel.engine` — fans independent experiments out over
  a ``concurrent.futures`` process pool (``runner run-all --jobs N``)
  with per-experiment timeouts, retry-once-on-crash, and a merged
  telemetry/metrics :class:`~repro.parallel.engine.RunReport`;
* :mod:`~repro.parallel.cache` — a content-addressed on-disk cache for
  :class:`~repro.experiments.base.ExperimentResult` payloads and
  :class:`~repro.sim.trace.WorkloadTrace` arrays, keyed by experiment
  name + config + the source fingerprint of the packages the numbers
  depend on (:mod:`~repro.parallel.fingerprint`), so unchanged
  experiments are skipped and *any* relevant source edit silently
  invalidates stale entries;
* :mod:`~repro.parallel.chunking` — thread-pool sharding of one large
  ray batch (used by ``repro.pipeline.renderer`` / ``sampling``) under a
  bit-identical chunk-ordering contract.

Every future scaling PR (multi-backend, distributed sweeps) plugs into
this layer: the engine owns "what runs where", the cache owns "what can
be skipped", chunking owns "how one big job splits".
"""

from .cache import ResultCache, activate, cache_key, deactivate, default_cache_root, get_active
from .chunking import chunk_spans, parallel_map_chunks
from .engine import (
    MAX_POOL_REBUILDS,
    ExperimentTimeout,
    JobOutcome,
    PoolRebuildLimitError,
    RunReport,
    execute_job,
    merge_metric_snapshots,
    merge_span_aggregates,
    resolve_names,
    result_cache_key,
    run_experiments,
)
from .fingerprint import (
    RESULT_PACKAGES,
    TRACE_PACKAGES,
    clear_fingerprint_cache,
    fingerprint_files,
    package_source_files,
    source_fingerprint,
)

__all__ = [
    "ExperimentTimeout",
    "JobOutcome",
    "MAX_POOL_REBUILDS",
    "PoolRebuildLimitError",
    "RESULT_PACKAGES",
    "ResultCache",
    "RunReport",
    "TRACE_PACKAGES",
    "activate",
    "cache_key",
    "chunk_spans",
    "clear_fingerprint_cache",
    "deactivate",
    "default_cache_root",
    "execute_job",
    "fingerprint_files",
    "get_active",
    "merge_metric_snapshots",
    "merge_span_aggregates",
    "package_source_files",
    "parallel_map_chunks",
    "resolve_names",
    "result_cache_key",
    "run_experiments",
    "source_fingerprint",
]
