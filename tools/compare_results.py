"""Compare the experiment results of two ``runner run-all --json`` outputs.

Usage::

    python -m repro.experiments.runner run-all fig13a --json --no-cache --jobs 1 > a.json
    python -m repro.experiments.runner run-all fig13a --json --no-cache --jobs 2 > b.json
    python tools/compare_results.py a.json b.json

Every leaf of every experiment's result payload must be equal, except
wall-clock keys (``ms_per_frame``, ``speedup`` and any key containing
``wall``), which measure the host rather than the computation.  The run
report (wall time, job count) is not compared.  Prints each differing
leaf and exits 1 if there is one.
"""

from __future__ import annotations

import json
import sys

WALL_KEYS = ("ms_per_frame", "speedup")


def is_wall_key(key) -> bool:
    """Whether a payload key holds a wall-clock measurement."""
    return isinstance(key, str) and (key in WALL_KEYS or "wall" in key)


def leaves(node, path=""):
    """``(path, value)`` for every leaf under ``node``, wall keys skipped."""
    if isinstance(node, dict):
        for key in sorted(node):
            if not is_wall_key(key):
                yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, node


def differing_leaves(a: dict, b: dict) -> list:
    """``(path, a value, b value)`` for every leaf that differs."""
    left, right = dict(leaves(a)), dict(leaves(b))
    return [
        (path, left.get(path), right.get(path))
        for path in sorted(set(left) | set(right))
        if path not in left or path not in right or left[path] != right[path]
    ]


def load_results(path: str) -> dict:
    """The ``results`` mapping of a ``run-all --json`` output file."""
    with open(path) as fh:
        return json.load(fh)["results"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (load_results(path) for path in args)
    if not a:
        print("no experiment results to compare", file=sys.stderr)
        return 1
    diffs = differing_leaves(a, b)
    for path, left, right in diffs:
        print(f"{path}: {left!r} != {right!r}")
    print(f"{len(diffs)} differing leaves across {sorted(set(a) | set(b))}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
