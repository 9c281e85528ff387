"""Content-addressed on-disk cache for experiment results.

Layout (under :func:`default_cache_root`, overridable via the
``FUSION3D_CACHE_DIR`` environment variable or ``--cache-dir``)::

    <root>/results/<sha256>.json   # ExperimentResult payload + metadata

Entries are *content addressed*: the filename is the SHA-256 of the
canonicalized key, and the key includes a source fingerprint
(:mod:`repro.parallel.fingerprint`), so editing ``repro.sim`` or
``repro.nerf`` makes every stale entry unreachable without any explicit
invalidation step.  Corrupted entries (truncated writes, bit rot,
hand-edited JSON) are treated as misses and deleted on first touch —
the cache is always allowed to forget, never to lie.

Writes are atomic (temp file + ``os.replace``) so a crashed or killed
worker can not leave a half-written entry behind, and concurrent
writers of the same key simply race to an identical file.

Only the parent process of ``run-all`` reads and writes the cache;
workloads inside an experiment (scene traces included) are rebuilt
on every run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile

logger = logging.getLogger("repro.parallel.cache")

#: Schema version folded into every key; bump when the payload layout
#: changes so old entries become unreachable instead of mis-parsed.
CACHE_VERSION = 1


def default_cache_root() -> str:
    """``$FUSION3D_CACHE_DIR`` if set, else ``~/.cache/fusion3d``."""
    env = os.environ.get("FUSION3D_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "fusion3d")


def cache_key(kind: str, **fields) -> str:
    """SHA-256 of the canonical JSON encoding of ``kind`` + ``fields``.

    ``kind`` namespaces the key; fields must be JSON-serializable
    (strings, numbers, bools, lists).  Key order is canonicalized by
    ``sort_keys`` so call sites never coordinate.
    """
    payload = {"kind": kind, "version": CACHE_VERSION, **fields}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of experiment results."""

    def __init__(self, root: str = None):
        self.root = root if root is not None else default_cache_root()
        self.results_dir = os.path.join(self.root, "results")

    # -- result entries ------------------------------------------------

    def _result_path(self, key: str) -> str:
        return os.path.join(self.results_dir, f"{key}.json")

    def get_result(self, key: str) -> dict:
        """Stored payload for ``key``, or ``None`` on miss.

        A corrupted entry (unparseable JSON, wrong shape) is deleted and
        reported as a miss, so one bad file never wedges the engine.
        """
        path = self._result_path(key)
        try:
            with open(path, "r") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            logger.warning("dropping corrupted cache entry %s", path)
            self._remove(path)
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            logger.warning("dropping malformed cache entry %s", path)
            self._remove(path)
            return None
        return entry

    def put_result(self, key: str, result_payload: dict, meta: dict = None) -> str:
        """Atomically store ``result_payload`` (plus ``meta``) under ``key``."""
        entry = {"meta": dict(meta or {}), "result": result_payload}
        path = self._result_path(key)
        self._atomic_write(path, json.dumps(entry, sort_keys=True).encode("utf-8"))
        return path

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        removed = 0
        if os.path.isdir(self.results_dir):
            for name in os.listdir(self.results_dir):
                self._remove(os.path.join(self.results_dir, name))
                removed += 1
        return removed

    def stats(self) -> dict:
        """Result entry count and byte total, for ``cache info``."""
        entries = 0
        size = 0
        if os.path.isdir(self.results_dir):
            for name in os.listdir(self.results_dir):
                try:
                    size += os.path.getsize(os.path.join(self.results_dir, name))
                except OSError:
                    continue
                entries += 1
        return {"root": self.root, "results": {"entries": entries, "bytes": size}}

    # -- helpers -------------------------------------------------------

    def _atomic_write(self, path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            self._remove(tmp)
            raise

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

