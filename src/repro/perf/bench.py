"""Benchmark driver: run the benches, persist ``BENCH_nerf.json``, gate CI.

The committed ``BENCH_nerf.json`` is the repo's perf trajectory: each
bench records the frozen pre-overhaul reference and the current
optimized kernel side by side, and the *speedup ratio* is the number the
regression gate defends.  Ratios are machine-portable (both sides run in
the same process on the same machine), so CI can compare a laptop-
recorded baseline against a CI runner without chasing absolute
milliseconds.

Gate rule: a bench regresses when its current speedup falls more than
``tolerance`` (default 20%) below the baseline speedup, and a baseline
row the run did not produce fails as ``PERF MISSING`` (every registered
bench runs in both modes, so a missing row means a gated bench was
renamed or deleted).  Output is greppable — one ``PERF OK``/
``PERF REGRESSION``/``PERF MISSING`` line per baseline row and a final
``bench: PASS``/``bench: FAIL`` verdict.
"""

from __future__ import annotations

import json

import numpy as np

from .kernels import KERNEL_BENCHES

#: Payload schema version, bumped on incompatible layout changes.
SCHEMA_VERSION = 1

#: Default relative slack before a speedup drop counts as a regression.
DEFAULT_TOLERANCE = 0.2

#: Default location of the committed baseline.
DEFAULT_BASELINE = "BENCH_nerf.json"


def run_benches(smoke: bool = False) -> dict:
    """Run every registered bench and return the JSON-ready payload.

    ``smoke`` shrinks each kernel's workload; the bench set is the same
    in both modes.
    """
    return {
        "schema": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "numpy": np.__version__,
        "benches": {
            name: builder(smoke) for name, builder in KERNEL_BENCHES.items()
        },
    }


def merge_into_baseline(payload: dict, baseline: dict = None) -> dict:
    """Fold one run into the on-disk baseline document.

    The baseline keeps one bench table *per mode* (``full`` and
    ``smoke``): speedup ratios depend on workload size, so a smoke run
    in CI must gate against smoke-recorded ratios, never full ones.
    """
    doc = baseline if baseline is not None else {}
    doc["schema"] = SCHEMA_VERSION
    doc["numpy"] = payload["numpy"]
    doc.setdefault("modes", {})[payload["mode"]] = payload["benches"]
    return doc


def format_report(payload: dict) -> str:
    """Human-readable table of one bench payload."""
    lines = [
        f"perf bench ({payload['mode']} mode, numpy {payload['numpy']})",
        f"{'bench':<24} {'renderer':<9} {'ref ms':>10} {'opt ms':>10} "
        f"{'speedup':>9}",
    ]
    for name, record in payload["benches"].items():
        lines.append(
            f"{name:<24} {record.get('renderer', '-'):<9} "
            f"{record['ref_ms']:>10.2f} {record['opt_ms']:>10.2f} "
            f"{record['speedup']:>8.2f}x"
        )
    return "\n".join(lines)


def compare_to_baseline(
    payload: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple:
    """Gate ``payload`` against ``baseline``: ``(passed, report_lines)``.

    The payload's mode selects the matching per-mode table in the
    baseline (ratios from different workload sizes are not comparable).
    A baseline row the run did not produce fails as ``PERF MISSING``.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    lines, passed = [], True
    baseline_benches = baseline.get("modes", {}).get(payload["mode"])
    if baseline_benches is None:
        return False, [
            f"PERF REGRESSION: baseline has no '{payload['mode']}'-mode "
            "table (refresh it with `runner bench --out`)",
            "bench: FAIL",
        ]
    for name, base in baseline_benches.items():
        current = payload["benches"].get(name)
        if current is None:
            lines.append(f"PERF MISSING {name}: baseline row was not run")
            passed = False
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if current["speedup"] < floor:
            lines.append(
                f"PERF REGRESSION {name}: speedup {current['speedup']:.2f}x "
                f"< {floor:.2f}x (baseline {base['speedup']:.2f}x - "
                f"{tolerance:.0%})"
            )
            passed = False
        else:
            lines.append(
                f"PERF OK {name}: speedup {current['speedup']:.2f}x "
                f"(baseline {base['speedup']:.2f}x)"
            )
    lines.append("bench: PASS" if passed else "bench: FAIL")
    return passed, lines


def load_baseline(path: str) -> dict:
    """Read a committed baseline payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return payload


def write_payload(payload: dict, path: str) -> None:
    """Merge a run into the baseline file at ``path`` (diff-friendly JSON).

    An existing compatible baseline keeps its other mode's table; an
    unreadable or schema-incompatible file is overwritten.
    """
    try:
        existing = load_baseline(path)
    except (OSError, ValueError):
        existing = None
    doc = merge_into_baseline(payload, existing)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
