"""Every name a module of the package or of the tests imports is used, and
importing the command line loads no process pool, dataclasses or signal."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "majpat").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The imported names never referenced in source, except those listed in
    a literal __all__; __future__ imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "from m import *" binds nothing to check.
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import json as j\nfrom a import b, c\n__all__ = ['c']\nos.sep\nb()\n")
    assert unused_imports(source) == ["j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_pool_dataclasses_or_signal():
    # Every command pays for what `import majpat.cli` loads: the table's
    # split forks its processes itself, the records are NamedTuples (the
    # dataclasses module loads inspect, ast, dis and tokenize), and the
    # split's kill on failure names SIGKILL by its number.
    heavy = {"multiprocessing", "concurrent.futures", "dataclasses", "inspect", "signal"}
    script = f"import sys, majpat.cli\nprint(sorted({heavy!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
