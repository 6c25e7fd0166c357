"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

It checks the output contract of run.py, and that the oracles catch a
wrong program: a grandsart_report with shifted winding numbers and a
span_dimension with a wrong rank each give a nonzero error rate.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workload  # noqa: E402
from circwords import invariants, span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def error_rate(name: str, trace: bool = False, seed: int = 3) -> float:
    record = workload.run(name, seed, 0.1, trace, "tiny")
    outputs = [o for p in record["passes"] for o in p["outputs"]]
    if trace:
        outputs += record["traced_pass"]["outputs"]
    attempted, failures = oracle.check(name, seed, "tiny", {"outputs": outputs})
    return len(failures) / attempted


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_no_failures(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


@pytest.mark.parametrize("name", ["sweep", "long", "rank"])
def test_clean_program_has_zero_error_rate(name):
    assert error_rate(name, trace=True) == 0


def _shifted_report(original):
    """A report still self-consistent, but with every winding number off by one."""

    def wrong(w):
        r = original(w)
        return dataclasses.replace(
            r, diffs=tuple(d + 1 for d in r.diffs), k_graph=r.k_graph + 1,
            k_decomposition=r.k_decomposition + 1,
        )

    return wrong


def test_wrong_grandsart_report_is_counted(monkeypatch):
    monkeypatch.setattr(invariants, "grandsart_report", _shifted_report(invariants.grandsart_report))
    assert error_rate("long") > 0
    # verify still prints "0 violations" (the report is consistent); the
    # traced run's k histogram catches it
    assert error_rate("sweep", trace=False) == 0
    assert error_rate("sweep", trace=True) > 0


def test_wrong_rank_is_counted(monkeypatch):
    original = span.span_dimension

    def wrong(*args, **kwargs):
        r = original(*args, **kwargs)
        return dataclasses.replace(r, rank=r.rank - 1, relations=r.relations + 1)

    monkeypatch.setattr(span, "span_dimension", wrong)
    assert error_rate("rank") > 0


def test_committed_histogram_matches_oracle():
    committed = json.loads(oracle.HISTOGRAM_FILE.read_text())
    assert len(committed) == oracle.HISTOGRAM_MAX_LEN
    fresh = oracle.k_histogram(10)
    assert {n: committed[n] for n in fresh} == fresh


def test_full_rank_cases_expect_9_33_19():
    from inputs import SIZES, rank_case

    ranks = [(d - 1) * d ** (l - 1) + 1 for d, l, _ in map(rank_case, SIZES["full"]["rank_cases"])]
    assert ranks == [9, 33, 19]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
