"""Source fingerprints: content hashes that key the result cache.

A cached experiment result is only valid while the code that produced it
is unchanged.  Rather than tracking imports precisely, the cache keys on
a *fingerprint* — one SHA-256 digest over the source text of every
module in a declared set of packages.  Any edit anywhere in those
packages changes the digest and silently invalidates every entry keyed
on it; stale entries are never deleted eagerly, they simply stop being
found (content addressing).

The scope is :data:`RESULT_PACKAGES`: everything an experiment's
numbers can depend on (algorithms, simulator, hardware models, datasets,
the experiment code itself).  It keys
:class:`~repro.parallel.cache.ResultCache` entries.

Fingerprints are memoized per process: hashing ~90 small files costs a
few milliseconds, but the engine asks for the same digest once per job.
"""

from __future__ import annotations

import hashlib
import importlib
import os

#: Packages whose source an ExperimentResult may depend on.  Telemetry
#: and the parallel engine itself are deliberately excluded: they must
#: not perturb results (PR 1's bit-identity guarantee), so editing them
#: should not cold the cache.  :mod:`repro.blas` is listed because the
#: BLAS thread count it sets moves training sums at the ulp level.
RESULT_PACKAGES = (
    "repro.blas",
    "repro.core",
    "repro.nerf",
    "repro.sim",
    "repro.hw",
    "repro.baselines",
    "repro.datasets",
    "repro.experiments",
)

_memo: dict = {}


def package_source_files(package: str) -> list:
    """All ``.py`` files of an importable package, sorted by relative path.

    Returns ``(relative_path, absolute_path)`` pairs; the relative path
    (with ``/`` separators) is what enters the digest, so fingerprints
    are stable across machines and checkout locations.
    """
    module = importlib.import_module(package)
    paths = getattr(module, "__path__", None)
    if paths is None:  # plain module, not a package
        filename = module.__file__
        return [(os.path.basename(filename), filename)]
    files = []
    for root in paths:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                absolute = os.path.join(dirpath, name)
                relative = os.path.relpath(absolute, root).replace(os.sep, "/")
                files.append((relative, absolute))
    return sorted(files)


def fingerprint_files(files) -> str:
    """SHA-256 over ``(relative_path, content)`` pairs, hex-encoded.

    ``files`` is an iterable of ``(relative_path, absolute_path)`` pairs
    (the :func:`package_source_files` output format).  Exposed separately
    from :func:`source_fingerprint` so tests can fingerprint arbitrary
    temporary trees without importing them as packages.
    """
    digest = hashlib.sha256()
    for relative, absolute in files:
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        with open(absolute, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def source_fingerprint(packages=RESULT_PACKAGES) -> str:
    """Combined content digest of every module in ``packages``.

    Memoized per process (source files do not change under a running
    engine); call :func:`clear_fingerprint_cache` in tests that rewrite
    source trees mid-process.
    """
    key = tuple(packages)
    cached = _memo.get(key)
    if cached is None:
        files = []
        for package in key:
            for relative, absolute in package_source_files(package):
                files.append((f"{package}/{relative}", absolute))
        cached = _memo[key] = fingerprint_files(files)
    return cached


def clear_fingerprint_cache() -> None:
    """Drop the per-process fingerprint memo (test hook)."""
    _memo.clear()
