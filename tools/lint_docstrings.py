#!/usr/bin/env python
"""Docstring-coverage lint: fail when public API lacks docstrings.

Usage::

    python tools/lint_docstrings.py [package ...]   # default: DEFAULT_PACKAGES below

Walks every ``.py`` file of the named packages (via the AST — nothing is
imported, so the lint is safe on broken code) and reports each *public*
module-level function, class, or method without a docstring.  Public
means the name (and, for methods, the enclosing class) does not start
with ``_``; ``__init__`` methods are exempt (the class docstring covers
construction).

Exit status: 0 when fully covered, 1 with one ``path:line: name`` report
per offender otherwise — suitable as a CI gate (see
``.github/workflows/ci.yml``) and enforced in-tree by
``tests/test_docstring_coverage.py``.
"""

from __future__ import annotations

import ast
import importlib
import os
import sys

DEFAULT_PACKAGES = (
    "repro.parallel",
    "repro.experiments",
    "repro.serve",
    "repro.perf",
    "repro.obs",
    "repro.pipeline",
    "repro.fleet",
    "repro.online",
    "repro.nerf.precision",
    "repro.nerf.sampling",
    "repro.nerf.aabb",
    "repro.nerf.occupancy",
    "repro.nerf.volume_rendering",
    "repro.datasets",
    "repro.sim.trace_traversal",
    "repro.blas",
)

# Runnable straight from a checkout: the in-tree `src/` layout sits next
# to this tools/ directory.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def iter_package_files(package: str):
    """Yield the absolute path of every ``.py`` file in ``package``."""
    try:
        module = importlib.import_module(package)
    except ModuleNotFoundError:
        if os.path.isdir(_SRC) and _SRC not in sys.path:
            sys.path.insert(0, _SRC)
            module = importlib.import_module(package)
        else:
            raise
    roots = getattr(module, "__path__", None)
    if roots is None:
        yield module.__file__
        return
    for root in roots:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def missing_docstrings(source: str, filename: str = "<string>") -> list:
    """``(line, qualified_name)`` for each undocumented public def/class."""
    tree = ast.parse(source, filename=filename)
    offenders = []

    def check(node, prefix=""):
        public = not node.name.startswith("_")
        if public and ast.get_docstring(node) is None:
            offenders.append((node.lineno, prefix + node.name))
        if isinstance(node, ast.ClassDef) and public:
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    check(sub, prefix=f"{node.name}.")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            check(node)
    return offenders


def lint_packages(packages) -> list:
    """All offenders across ``packages`` as ``(path, line, name)`` tuples."""
    offenders = []
    for package in packages:
        for path in iter_package_files(package):
            with open(path, "r") as fh:
                source = fh.read()
            for line, name in missing_docstrings(source, filename=path):
                offenders.append((path, line, name))
    return offenders


def main(argv=None) -> int:
    """CLI entry point; prints offenders and returns the exit status."""
    packages = (argv if argv is not None else sys.argv[1:]) or list(DEFAULT_PACKAGES)
    offenders = lint_packages(packages)
    for path, line, name in offenders:
        print(f"{path}:{line}: public `{name}` has no docstring")
    if offenders:
        print(f"docstring lint: {len(offenders)} offender(s) in {packages}")
        return 1
    print(f"docstring lint: OK ({', '.join(packages)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
