"""Chunked evaluation: shard one large batch across worker threads.

The NeRF hot loops (ray marching, MLP forward, compositing) are NumPy
array programs whose heavy kernels release the GIL, so *threads* give
real parallel speedup on large batches without pickling models across
process boundaries.  The contract that keeps results bit-identical to
serial execution: work is split into **fixed, index-ordered chunks**,
each chunk is computed independently, and outputs are written to (or
concatenated in) chunk order — never completion order.  Scheduling
nondeterminism therefore cannot reach the numbers.

These helpers are deliberately tiny; the policy (chunk size, when to
engage threads) lives at the call sites in
:mod:`repro.pipeline.renderer` and :mod:`repro.nerf.sampling`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def chunk_spans(n_items: int, chunk: int) -> list:
    """Split ``range(n_items)`` into ``(start, stop)`` spans of ``chunk``.

    The final span is short when ``chunk`` does not divide ``n_items``;
    zero items yields no spans.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    return [
        (start, min(start + chunk, n_items)) for start in range(0, n_items, chunk)
    ]


def parallel_map_chunks(fn, n_items: int, chunk: int, jobs: int = 1) -> list:
    """Apply ``fn(start, stop)`` to every chunk span; results in span order.

    With ``jobs <= 1`` (or a single span) this is a plain loop — no
    executor, no overhead, identical code path to the historical serial
    behaviour.  With more, spans are fanned out over a thread pool and
    the result list is still assembled in span order, so callers can
    concatenate without sorting.
    """
    spans = chunk_spans(n_items, chunk)
    if jobs <= 1 or len(spans) <= 1:
        return [fn(start, stop) for start, stop in spans]
    with ThreadPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
        futures = [pool.submit(fn, start, stop) for start, stop in spans]
        return [future.result() for future in futures]
