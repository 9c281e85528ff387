"""End-to-end and per-layer benchmark of the repro package.

Run it from the repository root with ``python -m bench run``; see
``bench/README.md`` for the workloads, the metrics and how to compare two
sets of runs.
"""
