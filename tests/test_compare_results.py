"""The ``run-all --json`` result comparison behind CI's ``--jobs`` check."""

import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_results", TOOLS / "compare_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, results, wall_s):
    path.write_text(json.dumps({"report": {"wall_s": wall_s}, "results": results}))
    return str(path)


def test_equal_results_pass_whatever_the_wall_clock(compare, tmp_path, capsys):
    a = {"fig": {"rows": [{"psnr": 30.5, "ms_per_frame": 4.0, "wall_s": 1.0}]}}
    b = {"fig": {"rows": [{"psnr": 30.5, "ms_per_frame": 9.0, "wall_s": 2.0}]}}
    assert compare.main([_write(tmp_path / "a.json", a, 1.0),
                         _write(tmp_path / "b.json", b, 7.0)]) == 0
    assert "0 differing leaves" in capsys.readouterr().out


def test_moved_and_missing_leaves_fail(compare, tmp_path, capsys):
    a = {"fig": {"rows": [{"psnr": 30.5, "loss": 0.1}], "notes": ["x"]}}
    b = {"fig": {"rows": [{"psnr": 30.500001}], "notes": ["x"]}}
    assert compare.main([_write(tmp_path / "a.json", a, 1.0),
                         _write(tmp_path / "b.json", b, 1.0)]) == 1
    out = capsys.readouterr().out
    assert "fig.rows[0].psnr: 30.5 != 30.500001" in out
    assert "fig.rows[0].loss: 0.1 != None" in out
    assert "2 differing leaves" in out


def test_no_results_fail(compare, tmp_path):
    empty = _write(tmp_path / "a.json", {}, 1.0)
    assert compare.main([empty, empty]) == 1
