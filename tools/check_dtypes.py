#!/usr/bin/env python
"""Dtype-discipline lint for the numeric hot paths.

Usage::

    python tools/check_dtypes.py          # lint the default hot-path modules
    python tools/check_dtypes.py FILE...  # lint specific files

Two rules, enforced by AST inspection (nothing is imported):

1. **Explicit-dtype rule** — in hot-path modules, every fresh array
   allocation (``np.empty``/``zeros``/``ones``/``full``) must pass an
   explicit ``dtype=``.  NumPy's silent float64 default is exactly how
   the serving pipeline grew a float64 frame buffer: the allocation
   *looks* innocent and every downstream store upcasts.  ``*_like``
   variants are exempt (they inherit their prototype's dtype, which is
   the disciplined behavior).

2. **No-float64 zone** — modules listed in ``NO_FLOAT64`` (the serving
   frame path) must not mention ``np.float64`` at all; frames are
   float32 end to end.

The hot-module list is deliberately short: discipline is enforced where
profiling says dtype mistakes cost real memory bandwidth, not
repo-wide (parameters and accumulators elsewhere are float64 *on
purpose* — finite-difference gradient checks need the headroom).

Exit status: 0 clean, 1 with one ``path:line: message`` per offender —
used as a CI gate and enforced in-tree by ``tests/test_dtype_check.py``.
"""

from __future__ import annotations

import ast
import os
import sys

#: Allocation calls whose dtype defaults to float64 when omitted.
ALLOCATORS = ("empty", "zeros", "ones", "full")

#: Names the lint treats as the NumPy module.
NUMPY_ALIASES = ("np", "numpy")

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Hot-path modules where rule 1 (explicit dtype) applies.
HOT_MODULES = (
    "src/repro/nerf/hash_encoding.py",
    "src/repro/nerf/sampling.py",
    "src/repro/nerf/volume_rendering.py",
    "src/repro/nerf/early_termination.py",
    "src/repro/nerf/occupancy.py",
    "src/repro/nerf/precision.py",
    "src/repro/sim/trace.py",
    "src/repro/pipeline/renderer.py",
    "src/repro/pipeline/stages.py",
    "src/repro/serve/batching.py",
)

#: Modules where rule 2 (no np.float64 at all) additionally applies.
NO_FLOAT64 = ("src/repro/serve/batching.py",)


def _is_numpy_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id in NUMPY_ALIASES
    )


def check_file(path: str, no_float64: bool = False) -> list:
    """Lint one file; returns ``(line, message)`` offender tuples."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for allocator in ALLOCATORS:
                if _is_numpy_attr(node.func, allocator):
                    if not any(kw.arg == "dtype" for kw in node.keywords):
                        offenders.append(
                            (
                                node.lineno,
                                f"np.{allocator}(...) without explicit dtype "
                                "(silent float64)",
                            )
                        )
        if no_float64 and _is_numpy_attr(node, "float64"):
            offenders.append(
                (node.lineno, "np.float64 in a float32-only module")
            )
    return sorted(offenders)


def check_files(paths: list) -> list:
    """Lint many files; returns ``(path, line, message)`` tuples."""
    no64 = {os.path.normpath(os.path.join(_REPO, p)) for p in NO_FLOAT64}
    results = []
    for path in paths:
        normalized = os.path.normpath(os.path.abspath(path))
        for line, message in check_file(path, no_float64=normalized in no64):
            results.append((path, line, message))
    return results


def main(argv: list = None) -> int:
    """CLI entry point; prints offenders and returns the exit code."""
    argv = argv if argv is not None else sys.argv[1:]
    paths = argv or [os.path.join(_REPO, p) for p in HOT_MODULES]
    offenders = check_files(paths)
    for path, line, message in offenders:
        print(f"{os.path.relpath(path, _REPO)}:{line}: {message}")
    if offenders:
        print(f"dtype check: {len(offenders)} offender(s)")
        return 1
    print("dtype check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
