"""Every function the benchmark tracer wraps must exist in ``disctag``.

``perfbench/run.py --trace 1`` fails at start-up when a name in the tracer's
``FUNCTIONS`` no longer resolves; this test makes such a rename or deletion
fail the test suite instead.  The tracer module is only imported, never run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


def _resolves(name: str) -> bool:
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"disctag.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    # methods are patched on the class that defines them
    attr = vars(owner).get(path[-1]) if path[:-1] else getattr(owner, path[-1], None)
    return callable(getattr(attr, "__func__", attr))


def test_traced_functions_resolve():
    names = _traced_names()
    assert names
    assert [name for name in names if not _resolves(name)] == []
