"""The benchmark's traced names must exist in the package.

bench/spans.py looks each (module, function) pair up with getattr and no
default, so a renamed or deleted function would break a traced run of
bench/run.py.  The file is loaded from its path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("pair", [*spans.TRACED, spans.KERNEL], ids=".".join)
def test_traced_name_resolves(pair):
    module, name = pair
    assert callable(getattr(importlib.import_module(f"circwords.{module}"), name))
