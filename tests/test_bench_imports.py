"""Every package name the benchmark scripts use still resolves.

The benchmark's own tests run its scripts end to end and are slow, so a
change to `src/` could break them unseen.  This reads the scripts'
syntax trees, without running or changing them, and resolves each
`from tokalign... import X` and each `<module>.X` on a package module.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("cli", "ibm1", "metrics", "stats", "tokenizers", "corpus", "synth")


def _references(path):
    """(module, name) for each package name the script imports or reads."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tokalign"):
            refs.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        ):
            refs.add((f"tokalign.{node.value.id}", node.attr))
    return sorted(refs)


def _resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", ["replay.py", "workloads.py"])
def test_bench_script_names_resolve(script):
    refs = _references(BENCH / script)
    assert refs
    assert [f"{m}.{n}" for m, n in refs if not _resolves(m, n)] == []
