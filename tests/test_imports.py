"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tpmine"

# Imported only so the benchmark's tracer can patch them; they go when the tracer's
# patch table drops them (ROADMAP item 1).
ALLOWED = {("miner.py", "temporal_subgraph_test"), ("pruning.py", "temporal_subgraph_test")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module (every module postpones annotations, so they are names too)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text())
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used and (module, name) not in ALLOWED)
    assert not unused, f"{module}: unused imports {unused}"


def test_allowlist_names_real_imports():
    # An allowlisted import that is gone or now used should leave the list too.
    for module, name in ALLOWED:
        tree = ast.parse((SRC / module).read_text())
        assert name in _imported(tree) and name not in _used(tree), (module, name)
