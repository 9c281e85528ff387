"""Parallel experiment execution and result caching.

The scaling layer of the reproduction, two parts:

* :mod:`~repro.parallel.engine` — fans independent experiments out over
  a ``concurrent.futures`` process pool (``runner run-all --jobs N``)
  with per-experiment timeouts, retry-once-on-crash, and a merged
  telemetry/metrics :class:`~repro.parallel.engine.RunReport`;
* :mod:`~repro.parallel.cache` — a content-addressed on-disk cache for
  :class:`~repro.experiments.base.ExperimentResult` payloads, keyed by
  experiment name + config + the source fingerprint of the packages the
  numbers depend on (:mod:`~repro.parallel.fingerprint`), so unchanged
  experiments are skipped and *any* relevant source edit silently
  invalidates stale entries.  Nothing below the result level is cached:
  an experiment that runs rebuilds its workload traces.

Host parallelism is the engine's worker processes, never threads inside
one.  One experiment runs in one process on one thread, BLAS included:
importing :mod:`repro` sets the OpenBLAS NumPy loaded to one thread
(:mod:`repro.blas`), so a worker forked or spawned by ``run-all`` does
not split its small matrix products over cores the other workers need,
and a serial ``runner run`` computes exactly as a worker does.  The
paper's on-chip parallelism (sampling cores, chips fused by an adder)
is modelled by :mod:`repro.sim`, not by host threads.  Future scaling
work (multi-backend, distributed sweeps) plugs into this layer: the
engine owns "what runs where", the cache owns "what can be skipped".
"""

from .cache import ResultCache, cache_key, default_cache_root
from .engine import (
    MAX_POOL_REBUILDS,
    ExperimentTimeout,
    JobOutcome,
    PoolRebuildLimitError,
    RunReport,
    execute_job,
    merge_metric_snapshots,
    resolve_names,
    result_cache_key,
    run_experiments,
)
from .fingerprint import (
    RESULT_PACKAGES,
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
    "cache_key",
    "clear_fingerprint_cache",
    "default_cache_root",
    "execute_job",
    "fingerprint_files",
    "merge_metric_snapshots",
    "package_source_files",
    "resolve_names",
    "result_cache_key",
    "run_experiments",
    "source_fingerprint",
]
