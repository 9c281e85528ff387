"""Fusion-3D reproduction: end-to-end NeRF acceleration in simulation.

A full-system reproduction of *Fusion-3D: Integrated Acceleration for
Instant 3D Reconstruction and Real-Time Rendering* (MICRO 2024):

* :mod:`repro.nerf` — the NeRF algorithms (Instant-NGP in pure NumPy with
  hand-written gradients, MoE decomposition, quantized training);
* :mod:`repro.datasets` — procedural stand-ins for NeRF-Synthetic and
  NeRF-360;
* :mod:`repro.hw` — 28 nm technology, FIEM arithmetic, SRAM/NoC/link and
  area/energy/yield models;
* :mod:`repro.sim` — the cycle-level chip and multi-chip simulators;
* :mod:`repro.baselines` — published-spec models of the compared GPUs and
  accelerators;
* :mod:`repro.core` — the :class:`~repro.core.Fusion3D` facade, bandwidth
  accounting, and reporting helpers;
* :mod:`repro.experiments` — one runner per paper table/figure;
* :mod:`repro.telemetry` — structured tracing (Chrome-trace export) and
  a metrics registry, disabled (zero-overhead) by default.

Importing the package sets the OpenBLAS that NumPy loaded to one thread
(:mod:`repro.blas`): host parallelism is worker processes, never BLAS
threads inside one.
"""

import logging as _logging

import numpy as _numpy  # noqa: F401  (maps the BLAS library the cap finds)

from .blas import use_one_blas_thread as _use_one_blas_thread

# Library-friendly logging default: emit nothing unless the embedding
# application (or the CLI in experiments.runner) attaches a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

_use_one_blas_thread()

from .core import Fusion3D, Fusion3DConfig, ReconstructionResult, RenderingResult

__version__ = "1.0.0"

__all__ = [
    "Fusion3D",
    "Fusion3DConfig",
    "ReconstructionResult",
    "RenderingResult",
    "__version__",
]
