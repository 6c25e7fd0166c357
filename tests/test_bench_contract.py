"""The benchmark's traced names must exist in the package, and its runs stay correct.

bench/spans.py looks each (module, function) pair up with getattr and no
default, so a renamed or deleted function would break a traced run of
bench/run.py.  Its wrappers also read what the package returns, so each
workload is run once at its tiny size, untraced and traced, and its
outputs checked by bench/oracle.py.  The bench files are loaded from
their paths and only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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


@pytest.fixture
def bench(monkeypatch):
    """bench/workload.py and bench/oracle.py, which import their siblings by name."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workload"), importlib.import_module("oracle")


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_the_oracle_untraced_and_traced(bench, name):
    workload, oracle = bench
    record = workload.run(name, 3, 0.0, True, "tiny")
    untraced = [o for p in record["passes"] for o in p["outputs"]]
    for outputs in (untraced, record["traced_pass"]["outputs"]):
        attempted, failures = oracle.check(name, 3, "tiny", {"outputs": outputs})
        assert attempted >= 1 and failures == []
