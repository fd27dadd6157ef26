"""The benchmark tracer's wrap list names functions that exist in the package.

`perfbench/spans.py` wraps each (module, name) pair at its call site; a
refactor that drops or renames one of them should fail here, in the unit
suite, and not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_traced_name_is_callable():
    missing = [
        f"mfgdiff.{caller}.{name}"
        for caller, name, _ in _wraps()
        if not callable(getattr(importlib.import_module(f"mfgdiff.{caller}"), name, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"
