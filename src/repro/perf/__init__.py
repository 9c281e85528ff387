"""Performance harness: frozen references, paired benches, CI gate.

The hot-path kernel overhaul (fused hash lookups, bincount scatters,
sorted-segment occupancy maxima, float32 buffer discipline) is only
trustworthy if its speedups are *recorded* and *defended*.  This package
does both:

* :mod:`repro.perf.reference` — the pre-overhaul kernels, frozen
  verbatim, so equivalence tests and benches always have the original to
  compare against;
* :mod:`repro.perf.timing` — paired best-of-N wall-clock measurement;
* :mod:`repro.perf.kernels` — the bench registry: each hot kernel in
  isolation against its frozen reference;
* :mod:`repro.perf.bench` — the driver behind ``runner bench``: emits
  ``BENCH_nerf.json`` and gates CI on >20% speedup regressions against
  the committed baseline.

End-to-end speed (a rendered frame, a train step, a served request) is
measured by the ``bench/`` harness, absolute and per layer, not here.
Run ``python -m repro.experiments.runner bench`` to refresh the ratios,
``... bench --smoke --check`` to reproduce the CI gate locally.
"""

from .bench import (
    DEFAULT_BASELINE,
    DEFAULT_TOLERANCE,
    compare_to_baseline,
    format_report,
    load_baseline,
    merge_into_baseline,
    run_benches,
    write_payload,
)
from .timing import PairedTiming, time_callable, time_pair

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "PairedTiming",
    "compare_to_baseline",
    "format_report",
    "load_baseline",
    "merge_into_baseline",
    "run_benches",
    "time_callable",
    "time_pair",
    "write_payload",
]
