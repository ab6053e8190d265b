"""The benchmark's tracer wraps program names by attribute; each one must exist.

``bench/tracing.py`` swaps names that the ``tpmine`` modules import for
timing wrappers, so a renamed or dropped import makes ``bench/run.py
--trace 1`` fail with ``AttributeError``.  The file is read and executed in
a fresh namespace, so nothing is written under ``bench/``.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_patch_point_resolves():
    names = ("cli", "datakit", "graphs", "matcher", "miner", "oracle", "pruning")
    tp = types.SimpleNamespace(**{n: importlib.import_module(f"tpmine.{n}") for n in names})
    table = load_tracing()._patch_table(tp)
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(module, attr, None))]
    assert not missing, missing
