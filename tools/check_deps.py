"""Lint gate: every third-party import in ``src/repro`` is declared in ``setup.py``.

A module that imports a package missing from ``install_requires`` works on a
developer machine that happens to have it and breaks on a clean install.
This AST-based check walks the given paths and fails (exit 1), listing every
``import``/``from ... import`` whose top-level package is neither in the
standard library (``sys.stdlib_module_names``), nor ``repro`` itself, nor a
requirement in ``setup.py``'s ``install_requires``.  Relative imports are
always allowed.  Requirement names are compared to import names after
lowercasing and mapping ``-`` to ``_``.

Usage::

    python tools/check_deps.py            # scans src/repro
    python tools/check_deps.py path/to/pkg   # scans the given files/directories
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

__all__ = ["declared_requirements", "find_undeclared", "main"]

_REPO = Path(__file__).resolve().parent.parent


def declared_requirements(setup_path: Path) -> set[str]:
    """Import names of the ``install_requires`` entries in ``setup_path``."""
    tree = ast.parse(setup_path.read_text(encoding="utf-8"), filename=str(setup_path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            for entry in ast.literal_eval(node.value):
                project = re.split(r"[\s<>=!~;\[]", entry, maxsplit=1)[0]
                names.add(project.lower().replace("-", "_"))
    return names


def _top_level_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def find_undeclared(path: Path, allowed: set[str]) -> list[tuple[int, str]]:
    """Return (line, package) for every import in one file outside ``allowed``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (line, package)
        for line, package in _top_level_imports(tree)
        if package not in allowed and package not in sys.stdlib_module_names
    ]


def main(argv: list[str] | None = None) -> int:
    """Scan the given paths; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=[str(_REPO / "src" / "repro")],
        help="files or directories to scan (default: src/repro)",
    )
    args = parser.parse_args(argv)

    allowed = declared_requirements(_REPO / "setup.py") | {"repro"}
    failures = 0
    for root in args.paths:
        root_path = Path(root)
        files = sorted(root_path.rglob("*.py")) if root_path.is_dir() else [root_path]
        for path in files:
            for line, package in find_undeclared(path, allowed):
                sys.stderr.write(f"{path}:{line}: undeclared import {package!r}\n")
                failures += 1
    if failures:
        sys.stderr.write(
            f"{failures} undeclared import(s); add the package to "
            "install_requires in setup.py or drop the import\n"
        )
        return 1
    sys.stdout.write(f"all imports declared ({', '.join(sorted(allowed))} + stdlib)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
