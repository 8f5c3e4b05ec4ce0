"""The package declares every third-party module it imports, and
serving loads only numpy.

numpy loads with the package: it runs every batch fast path.  scipy and
networkx load when an analysis helper, baseline, app or overlay graph is
first called, so ``import repro`` (and the CLI, the service and the
scenario runner) stays lean.  All three are required: an install from
``pyproject.toml`` must pull them in.  The scan below reads every
absolute import under ``src/repro``, those inside functions and under
``TYPE_CHECKING`` included, and checks each top-level module outside
the standard library against ``[project] dependencies``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
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


_LEAN_IMPORT = """
import json, random, sys
import repro, repro.cli, repro.service, repro.scenarios
loaded = sorted(m for m in ("scipy", "networkx") if m in sys.modules)
from repro.analysis.stats import chi_square_uniform
from repro.dht.chord import ChordNetwork
chi = chi_square_uniform([5, 5])
graph = ChordNetwork.build(8, m=8, rng=random.Random(1)).overlay_graph()
print(json.dumps({"loaded": loaded, "p_value": chi.p_value, "nodes": graph.number_of_nodes()}))
"""


def test_import_repro_loads_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", _LEAN_IMPORT], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["loaded"] == []
    # ... and both still load when a helper that needs them is called.
    assert out["p_value"] == 1.0
    assert out["nodes"] == 8
