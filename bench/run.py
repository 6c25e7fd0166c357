"""Run one workload of the circwords benchmark and print its metrics.

    python3 bench/run.py --workload {sweep,long,rank} --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from src/.
It measures set-up in fresh interpreters, runs the workload in one more
fresh process, checks every output with bench/oracle.py (which does not
use the package) and prints two lines: a JSON detail record (machine,
seed, latency percentiles, error rate, per-layer bases, tracing
overhead), then the result {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import oracle
from inputs import SIZES, WORKLOADS, work_per_pass
from reference import REF_SECONDS, SPEED_EXPONENT, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "circwords"

#: Fresh interpreters whose set-up time gives the median setup_s: half
#: run before the workload and half after, so they sample two moments.
SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 30
#: The workload process gets what is left of the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 150

#: Per-layer timings: metric -> (span name, denominator).  Self time of
#: the span, per word or letter handled by its calls, or in seconds per
#: traced pass.
LAYER_TIMES = {
    "words.enumerate_words.ns_per_word": ("words.enumerate_words", "word"),
    "words.parse_circular.ns_per_letter": ("words.parse_circular", "letter"),
    "words.decompose_blocks.ns_per_word": ("words.decompose_blocks", "word"),
    "words.decompose_blocks.ns_per_letter": ("words.decompose_blocks", "letter"),
    "words.occurrence_vector.ns_per_word": ("words.occurrence_vector", "word"),
    **{
        f"invariants.{fn}.ns_per_{unit}": (f"invariants.{fn}", unit)
        for fn in (
            "grandsart_report",
            "grandsart_differences",
            "project_to_square",
            "winding_number_decomposition",
        )
        for unit in ("word", "letter")
    },
    "debruijn.verify_kirchhoff.ns_per_word": ("debruijn.verify_kirchhoff", "word"),
    "debruijn.verify_kirchhoff.ns_per_letter": ("debruijn.verify_kirchhoff", "letter"),
    "span.span_dimension.d2l4.s": ("span.span_dimension.d2l4", "pass"),
    "span.span_dimension.d2l6.s": ("span.span_dimension.d2l6", "pass"),
    "span.span_dimension.d3l3.s": ("span.span_dimension.d3l3", "pass"),
    "span.occurrence_matrix.s": ("span.occurrence_matrix", "pass"),
    "span.exact_rank.s": ("span.exact_rank", "pass"),
}

#: Exact counts per traced pass (the probe phase for square edges).
LAYER_COUNTS = (
    "words.letters_scanned",
    "debruijn.vertices_checked",
    "invariants.square_edges_retained",
    "span.rows_sampled",
    "span.rows_distinct",
    "span.rows_eliminated",
)


def fail(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, repeats: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference unit seconds) per fresh interpreter.

    Set-up is importing circwords and making one warm call; the reference
    unit is timed right after it in the same interpreter.
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        setup, unit = map(float, proc.stdout.split())
        samples.append((setup, unit))
    return samples


def run_workload(args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def latency_summary(latencies_ns: list[int]) -> dict:
    """p50 and the highest percentile with at least 10 samples beyond it."""
    ms = sorted(x / 1e6 for x in latencies_ns)
    n = len(ms)
    out = {"samples": n, "p50_ms": statistics.median(ms), "p_high": None, "p_high_ms": None}
    if n > 10:
        out["p_high"] = round(100 * (n - 10) / n, 3)
        out["p_high_ms"] = ms[n - 11]
    return out


def end_to_end(args, record: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the detail behind them.

    Times are in reference seconds (reference.py): each op's latency is
    scaled by the mean of the reference units timed while it ran, plus the
    last one before and the first one after it, and a pass is the sum over
    ops of each op's median scaled latency across passes, so one slow pass
    of one op does not move it.
    """
    passes = record["passes"]
    per_op = zip(*(
        [
            ns / 1e9 * scale(statistics.fmean(p["ref_unit_s"][i : j + 1]))
            for ns, (i, j) in zip(p["latencies_ns"], p["ref_span"])
        ]
        for p in passes
    ))
    pass_norm = sum(statistics.median(op) for op in per_op)
    pass_s = [sum(p["latencies_ns"]) / 1e9 for p in passes]
    setup_norm = [t * scale(unit) for t, unit in setup]
    words, letters = work_per_pass(args.workload, args.size)
    latency = latency_summary([x for p in passes for x in p["latencies_ns"]])
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "wall_s_norm": (pass_norm, "s"),
        "words_per_s_norm": (words / pass_norm, "1/s"),
        "letters_per_s_norm": (letters / pass_norm, "1/s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024, "MB"),
    }
    detail = {
        "pass_s": pass_s,
        "raw": {
            "wall_s": statistics.median(pass_s),
            "words_per_s": words * len(pass_s) / sum(pass_s),
            "letters_per_s": letters * len(pass_s) / sum(pass_s),
            "setup_s": statistics.median(t for t, _ in setup),
        },
        "setup_samples": [{"setup_s": t, "ref_unit_s": unit} for t, unit in setup],
        "ref_seconds": REF_SECONDS,
        "speed_exponent": SPEED_EXPONENT,
        "work_per_pass": {"words": words, "letters": letters},
        "op_latency": latency,
    }
    return metrics, detail


def per_layer(record: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and their bases."""
    layers = record["layers"]
    times, units, counters = layers["times_ns"], layers["units"], layers["counters"]
    metrics = {}
    for metric, (span, per) in LAYER_TIMES.items():
        ns = times.get(span, (0, 0))[1]
        if per == "pass":
            metrics[metric] = (ns / 1e9, "s")
        else:
            base = units.get(span, [0, 0, 0])[1 if per == "word" else 2]
            metrics[metric] = (ns / base if base else 0.0, "ns")
    for name in LAYER_COUNTS:
        metrics[name] = (counters.get(name, 0), "count")
    gen2 = [p["gc_gen2_collections"] for p in record["passes"]]
    metrics["py.gc_gen2_collections"] = (statistics.median(gen2), "count")
    untraced = statistics.median(sum(p["latencies_ns"]) for p in record["passes"]) / 1e9
    traced = sum(record["traced_pass"]["latencies_ns"]) / 1e9
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    detail = {
        "tracing": {
            "untraced_wall_s": untraced,
            "traced_wall_s": traced,
            "overhead_s": traced - untraced,
            "overhead_ratio": (traced - untraced) / untraced,
            "overhead_ratio_base": "untraced_wall_s",
            "spans_recorded": layers["spans"],
            "ops": layers["ops"],
        },
        "spans": {
            span: {
                "inclusive_ns": inclusive,
                "self_ns": own,
                **dict(zip(("calls", "words", "letters"), units.get(span, (0, 0, 0)))),
            }
            for span, (inclusive, own) in times.items()
        },
    }
    return metrics, detail


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain export of the tree has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="circwords benchmark: one workload run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"no circwords package under {PACKAGE.relative_to(ROOT)}; run from a checkout of the repo")

    setup = measure_setup(args.workload, SETUP_REPEATS // 2)
    record = run_workload(args)
    setup += measure_setup(args.workload, SETUP_REPEATS - SETUP_REPEATS // 2)
    outputs = [o for p in record["passes"] for o in p["outputs"]]
    if args.trace:
        outputs += record["traced_pass"]["outputs"]
    attempted, failures = oracle.check(args.workload, args.seed, args.size, {"outputs": outputs})

    metrics, detail = end_to_end(args, record, setup)
    if args.trace:
        detail["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        metrics, layer_detail = per_layer(record)
        detail.update(layer_detail)
    detail.update({
        "environment": environment(args),
        "error_rate": len(failures) / attempted,
        "error_rate_base": {"attempted": attempted, "failed": len(failures)},
        "failures": failures[:20],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
