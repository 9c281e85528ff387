"""Bench-history log and speedup trends over ``BENCH_nerf.json`` runs.

The perf harness (:mod:`repro.perf`) gates each change against one
committed baseline, but a single baseline cannot answer "has
``render_frame`` been eroding for five PRs?".  This module keeps an
**append-only JSONL log** of bench payloads (one line per recorded run:
timestamp, revision, and the payload's per-mode speedups) and renders a
trend table — first/latest/best speedup per bench with an ASCII
sparkline — consumed by the ops dashboard (``runner top``) and the
``tools/bench_history.py`` CLI.

The log is append-only by construction: :func:`append_entry` only ever
opens the file in ``"a"`` mode, and entries carry everything needed to
re-render trends without consulting git.
"""

from __future__ import annotations

import json
import os

#: Default history log, committed at the repo root next to the baseline.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Glyphs used for the trend sparkline (low -> high).
_SPARK = "▁▂▃▄▅▆▇█"

#: Kernels shared by every renderer (compositing scatter, occupancy,
#: trace accounting) — grouped separately from renderer-owned benches.
#: ``occupancy_init`` is no longer benched but stays in older log entries.
_COMMON_BENCHES = frozenset(
    {"scatter_add", "occupancy_init", "trace_pair_durations"}
)


def renderer_of_bench(bench: str) -> str:
    """Renderer family a bench name belongs to.

    History entries predating renderer tags only carry bench names, so
    grouping works off the naming convention: ``tensorf_*`` benches
    belong to the ``tensorf`` renderer, the shared kernels to
    ``common``, everything else (hash encoding, the original e2e pair)
    to ``ngp``.
    """
    if bench.startswith("tensorf_"):
        return "tensorf"
    if bench in _COMMON_BENCHES:
        return "common"
    return "ngp"


def entry_from_payload(payload: dict, rev: str = None, timestamp: str = None) -> dict:
    """Build one history entry from a bench payload (``BENCH_nerf.json``).

    Keeps only the per-mode ``speedup`` ratios (the machine-portable
    quantity the regression gate also compares) plus provenance.
    """
    modes = {}
    for mode, benches in payload.get("modes", {}).items():
        modes[mode] = {
            name: float(entry["speedup"])
            for name, entry in sorted(benches.items())
            if "speedup" in entry
        }
    return {
        "timestamp": timestamp,
        "rev": rev,
        "numpy": payload.get("numpy"),
        "modes": modes,
    }


def _speedup_keys(entry: dict) -> set:
    """The ``(mode, bench)`` pairs an entry carries speedups for."""
    return {
        (mode, bench)
        for mode, benches in entry.get("modes", {}).items()
        for bench in benches
    }


def is_duplicate(history_path: str, entry: dict) -> bool:
    """Whether the log already covers this entry's revision and benches.

    True when some logged entry has the same ``rev`` and its
    ``(mode, bench)`` speedup keys are a superset of the new entry's —
    re-running the recorder on the same commit would then only repeat
    rows the trend table already has.  Entries without a revision are
    never duplicates (there is nothing safe to match on), and a same-rev
    entry carrying *new* benches (e.g. after a renderer gained kernels)
    still appends.
    """
    rev = entry.get("rev")
    if not rev:
        return False
    new_keys = _speedup_keys(entry)
    if not new_keys:
        return False
    for existing in load_history(history_path):
        if existing.get("rev") == rev and new_keys <= _speedup_keys(existing):
            return True
    return False


def append_entry(history_path: str, entry: dict, dedupe: bool = True) -> bool:
    """Append one entry to the JSONL log (append-only: mode ``"a"``).

    With ``dedupe`` (the default), an entry whose revision and benches
    the log already covers is skipped — double-recording one commit
    (a re-run CI job, a manual append after the hook) would otherwise
    repeat every sparkline point.  Returns whether the entry was
    written.
    """
    if dedupe and is_duplicate(history_path, entry):
        return False
    with open(history_path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return True


def load_history(history_path: str) -> list:
    """All logged entries, oldest first; missing file -> empty list.

    Corrupt lines (a crashed writer, a merge artifact) are skipped
    rather than poisoning the whole log.
    """
    if not os.path.exists(history_path):
        return []
    entries = []
    with open(history_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and "modes" in entry:
                entries.append(entry)
    return entries


def trend_rows(entries, mode: str = "full") -> list:
    """Per-bench trend over the history, for one bench mode.

    Each row: ``{"bench", "runs", "first", "latest", "best",
    "delta_pct", "history"}`` where ``delta_pct`` is the latest speedup
    relative to the best ever seen (0 when at the high-water mark,
    negative when eroded) and ``history`` is the raw speedup series.
    """
    series = {}
    for entry in entries:
        for bench, speedup in entry.get("modes", {}).get(mode, {}).items():
            series.setdefault(bench, []).append(float(speedup))
    rows = []
    for bench in sorted(series):
        values = series[bench]
        best = max(values)
        rows.append(
            {
                "bench": bench,
                "renderer": renderer_of_bench(bench),
                "runs": len(values),
                "first": values[0],
                "latest": values[-1],
                "best": best,
                "delta_pct": (
                    (values[-1] - best) / best * 100.0 if best else 0.0
                ),
                "history": values,
            }
        )
    return rows


def sparkline(values, width: int = 12) -> str:
    """ASCII sparkline of a speedup series (most recent ``width`` runs)."""
    values = list(values)[-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[3] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def format_trend_table(rows, mode: str = "full") -> str:
    """Aligned text trend table (what ``runner top`` and the CLI print).

    Rows are grouped by renderer family (``ngp`` / ``tensorf`` /
    ``common``), one subheader per group, so per-renderer erosion is
    visible at a glance.
    """
    if not rows:
        return f"bench trends ({mode}): no history recorded"
    header = (
        f"{'bench':24s} {'runs':>4s} {'first':>7s} {'latest':>7s} "
        f"{'best':>7s} {'vs best':>8s}  trend"
    )
    lines = [f"bench trends ({mode} mode)", header, "-" * len(header)]
    groups = {}
    for row in rows:
        renderer = row.get("renderer", renderer_of_bench(row["bench"]))
        groups.setdefault(renderer, []).append(row)
    for renderer in sorted(groups):
        lines.append(f"renderer: {renderer}")
        for row in groups[renderer]:
            lines.append(
                f"  {row['bench']:22s} {row['runs']:>4d} "
                f"{row['first']:>6.2f}x {row['latest']:>6.2f}x "
                f"{row['best']:>6.2f}x {row['delta_pct']:>+7.1f}%  "
                f"{sparkline(row['history'])}"
            )
    return "\n".join(lines)
