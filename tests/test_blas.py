"""One BLAS thread per process: set when :mod:`repro` is imported."""

import ctypes
import os
import subprocess
import sys

import pytest

from repro import blas, parallel
from repro.experiments import runner
from repro.experiments.base import ExperimentResult

SRC = os.path.dirname(os.path.dirname(os.path.abspath(blas.__file__)))

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="no OpenBLAS mapped in this process"
)


@needs_openblas
def test_importing_repro_sets_one_blas_thread():
    # A fresh interpreter with two OpenBLAS threads requested: NumPy alone
    # keeps them (read through a copy of repro.blas loaded from its file,
    # which does not import repro), and importing repro sets one.
    code = (
        "import importlib.util, numpy\n"
        f"spec = importlib.util.spec_from_file_location('b', {blas.__file__!r})\n"
        "b = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(b)\n"
        "before = b.blas_threads()\n"
        "import repro\n"
        "print(before, b.blas_threads())\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    before, after = out.stdout.split()
    assert after == "1"
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS caps at the core count
        assert before == "2"


class _NoSymbols:
    """A shared library that exports none of the thread-count symbols."""


def test_library_without_thread_symbols_changes_nothing(monkeypatch, tmp_path):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f01 r--p 00000000 fe:00 1  /usr/lib/libopenblas.so.0\n"
        "7f02-7f03 rw-p 00000000 00:00 0\n"
    )
    opened = []

    def fake_cdll(path, *args, **kwargs):
        opened.append(path)
        return _NoSymbols()

    monkeypatch.setattr(blas, "MAPS_PATH", str(maps))
    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    assert blas.use_one_blas_thread() is False
    assert blas.blas_threads() is None
    assert opened == ["/usr/lib/libopenblas.so.0"] * 2


@pytest.mark.parametrize("kind", ["missing", "directory", "no openblas"])
def test_unreadable_maps_change_nothing(monkeypatch, tmp_path, kind):
    maps = tmp_path / "maps"
    if kind == "directory":
        maps.mkdir()
    elif kind == "no openblas":
        maps.write_text("7f00-7f01 r--p 00000000 fe:00 1  /usr/lib/libc.so.6\n")

    def fail(*args, **kwargs):
        raise AssertionError("no library should be opened")

    monkeypatch.setattr(blas, "MAPS_PATH", str(maps))
    monkeypatch.setattr(ctypes, "CDLL", fail)
    assert blas.use_one_blas_thread() is False
    assert blas.blas_threads() is None


class _ReportThreads:
    @staticmethod
    def run(quick=True):
        """Report the worker's pid and its BLAS thread count."""
        return ExperimentResult(
            experiment="blas_threads", paper_ref="test",
            rows=[{"pid": os.getpid(), "threads": blas.blas_threads()}],
        )


@needs_openblas
def test_run_all_worker_uses_one_blas_thread(monkeypatch):
    registry = dict(runner.REGISTRY)
    registry["_threads_a"] = (_ReportThreads, "test")
    registry["_threads_b"] = (_ReportThreads, "test")
    monkeypatch.setattr(runner, "REGISTRY", registry)
    report = parallel.run_experiments(["_threads_a", "_threads_b"], jobs=2)
    rows = [o.result.rows[0] for o in report.outcomes]
    assert all(row["pid"] != os.getpid() for row in rows)
    assert [row["threads"] for row in rows] == [1, 1]
