"""In-tree enforcement of the docstring-coverage lint (tools/).

Public functions, classes, and methods of every package in the lint's
``DEFAULT_PACKAGES`` must carry docstrings; the same check gates CI via
``python tools/lint_docstrings.py``.
"""

import importlib.util
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_docstrings", TOOLS / "lint_docstrings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parallel_and_experiments_fully_documented(lint):
    offenders = lint.lint_packages(lint.DEFAULT_PACKAGES)
    formatted = "\n".join(f"{p}:{l}: {n}" for p, l, n in offenders)
    assert not offenders, f"undocumented public API:\n{formatted}"


def test_lint_detects_missing_docstrings(lint):
    source = (
        '"""Module doc."""\n'
        "def documented():\n"
        '    """Has one."""\n'
        "def undocumented():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Thing:\n"
        '    """Doc."""\n'
        "    def method(self):\n"
        "        pass\n"
        "    def __init__(self):\n"
        "        pass\n"
    )
    names = {name for _line, name in lint.missing_docstrings(source)}
    assert names == {"undocumented", "Thing.method"}


def test_lint_cli_exit_codes(lint, capsys):
    assert lint.main(["repro.parallel", "repro.experiments", "repro.serve"]) == 0
    assert "OK" in capsys.readouterr().out


def test_lint_cli_fails_on_undocumented_package(lint, tmp_path, capsys, monkeypatch):
    package = tmp_path / "naked_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("def exposed():\n    pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert lint.main(["naked_pkg"]) == 1
    assert "exposed" in capsys.readouterr().out
