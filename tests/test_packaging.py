"""The package declares every third-party module it imports.

``import repro`` loads numpy, scipy and networkx (the batch fast paths
and the analysis helpers the package imports at load), so an install
from ``pyproject.toml`` must pull them in.  This scans every absolute
import under ``src/repro`` and checks each top-level module outside the
standard library against ``[project] dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(package: Path) -> dict[str, str]:
    """Top-level module -> the first source file that imports it."""
    found: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path.relative_to(ROOT)))
    return found


def _declared(pyproject: Path) -> set[str]:
    specs = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in specs
    }


def test_every_third_party_import_is_a_declared_dependency():
    imported = _imported_modules(ROOT / "src" / "repro")
    third_party = {
        name: where
        for name, where in imported.items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert third_party  # the scan found the package's imports
    declared = _declared(ROOT / "pyproject.toml")
    missing = {name: where for name, where in third_party.items() if name not in declared}
    assert not missing, f"imported but not in [project] dependencies: {missing}"
