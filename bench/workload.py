"""One workload run, in its own fresh process: timed passes over the inputs.

A pass runs every op of the workload once; only the ops are timed, and
outputs are turned into plain records after each op's timer stops.  The
run repeats passes while they fit in --seconds (at least one).  During an
untraced pass a unit of the reference loop (reference.py) is timed every
0.2 s, also in the middle of an op, so that each op's latency can be
scaled by the machine's speed while it ran.  With --trace 1 the run
instead spends about half the time on untraced passes, then runs one
pass with spans around the circwords calls, then a probe phase for the
public invariants functions that the CLI path does not call.
The record goes to stdout as one JSON line; run.py checks it.

    python3 bench/workload.py --workload W --seed S --seconds T --trace 0|1 --size full|tiny
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from itertools import product
from pathlib import Path
from typing import Any, Callable, NamedTuple

from inputs import EXPRESS_L, EXPRESS_TARGET, SIZES, WORKLOADS, long_words
from reference import unit_seconds
from setup_probe import warm
from spans import Instrumentation, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent

#: Wall time between two timed units of the reference loop in a pass.
REF_EVERY_S = 0.2


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from circwords import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Op(NamedTuple):
    """One timed call; describe() turns its result into a record afterwards."""

    tag: dict
    run: Callable[[], Any]
    describe: Callable[[Any], dict]


def sweep_ops(seed: int, size: str) -> list[Op]:
    argv = ["verify", "--max-len", str(SIZES[size]["sweep_max_len"])]
    return [Op({}, lambda: _cli(argv), lambda r: {"exit": r[0], "stdout": r[1]})]


def long_ops(seed: int, size: str) -> list[Op]:
    from circwords import debruijn, invariants, words

    def check(text):
        # Module attributes are read at call time, so instrumentation and
        # test patches apply.
        w = words.parse_circular(text, 2)
        return invariants.grandsart_report(w), debruijn.verify_kirchhoff(w, 3)

    def describe(result):
        report, kirchhoff = result
        return {
            "diffs": list(report.diffs),
            "k_graph": report.k_graph,
            "k_decomposition": report.k_decomposition,
            "consistent": report.consistent,
            "kirchhoff": {
                "ok": kirchhoff.ok,
                "vertices": len(kirchhoff.out_residuals),
                "violations": len(kirchhoff.violations()),
            },
        }

    return [
        Op({"index": j}, lambda text=text: check(text), describe)
        for j, text in enumerate(long_words(seed, size))
    ]


def rank_ops(seed: int, size: str) -> list[Op]:
    from circwords import span

    sz = SIZES[size]

    def describe_rank(result):
        code, out, err = result
        return {"kind": "rank", "exit": code, "stdout": out, "stderr": err}

    ops = [
        Op({"kind": "rank", "case": c}, lambda args=args: _cli(["rank", *args, "--format", "json"]), describe_rank)
        for c, args in enumerate(sz["rank_cases"])
    ]
    target = tuple(int(ch) for ch in EXPRESS_TARGET)

    def express():
        return span.express_in_span(target, span.cks_family(2, EXPRESS_L), sz["express_max_len"])

    def describe_express(coefficients):
        labels = span.cks_family(2, EXPRESS_L).column_labels()
        return {"kind": "express", "labels": list(labels), "coefficients": [str(c) for c in coefficients]}

    ops.append(Op({"kind": "express"}, express, describe_express))
    return ops


OPS = {"sweep": sweep_ops, "long": long_ops, "rank": rank_ops}


class SpeedSampler:
    """Times a unit of the reference loop every REF_EVERY_S, from SIGALRM.

    The handler runs in the main thread between bytecodes, so it also
    samples the machine's speed in the middle of a long op; the time it
    takes is counted in `stolen_ns` and taken out of the op's latency.
    """

    def __init__(self) -> None:
        self.unit_s: list[float] = []
        self.stolen_ns = 0

    def sample(self, *_) -> None:
        start = time.perf_counter_ns()
        self.unit_s += unit_seconds(1)
        self.stolen_ns += time.perf_counter_ns() - start

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def run_pass(workload: str, ops: list[Op], rec: SpanRecorder | None = None) -> dict:
    """Each op once; returns the op latencies in ns and the output records.

    An untraced pass also samples the reference loop (SpeedSampler): op j
    ran between the units ref_span[j][0] and ref_span[j][1], both included.
    """
    latencies, outputs, ref_span = [], [], []
    op_name = rec.name_id(f"op.{workload}") if rec else None
    with contextlib.nullcontext() if rec else SpeedSampler() as sampler:
        for op in ops:
            if rec:
                rec.op_id += 1
                span_index = rec.open(op_name)
            else:
                first, stolen = len(sampler.unit_s) - 1, sampler.stolen_ns
            error = result = None
            start = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            elapsed = time.perf_counter_ns() - start
            if rec:
                rec.close(span_index)
            else:
                elapsed -= sampler.stolen_ns - stolen
                ref_span.append((first, len(sampler.unit_s)))
            latencies.append(elapsed)
            outputs.append({**op.tag, **({"error": error} if error else op.describe(result))})
            del result
    record = {"latencies_ns": latencies, "outputs": outputs}
    if not rec:
        record.update(ref_unit_s=sampler.unit_s, ref_span=ref_span)
    return record


def probe_words(workload: str, seed: int, size: str):
    """The words of one pass, for the probe phase (none for rank)."""
    from circwords import words

    if workload == "sweep":
        for n in range(1, SIZES[size]["sweep_max_len"] + 1):
            for letters in product((0, 1), repeat=n):
                yield words.CircularWord(letters, 2)
    elif workload == "long":
        for text in long_words(seed, size):
            yield words.CircularWord(tuple(map(int, text)), 2)


def probe(workload: str, seed: int, size: str, rec: SpanRecorder) -> None:
    """Spans for grandsart_differences and project_to_square on the pass's words."""
    from circwords import invariants

    name = rec.name_id("op.probe")
    for w in probe_words(workload, seed, size):
        rec.op_id += 1
        i = rec.open(name)
        invariants.grandsart_differences(w)
        invariants.project_to_square(w)
        rec.close(i)


def _gen2() -> int:
    return gc.get_stats()[2]["collections"]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """The whole timed phase of one run; returns the record run.py checks."""
    warm(workload)
    unit_seconds(2)
    ops = OPS[workload](seed, size)
    # Another pass only when the last one says it will end within the
    # budget, so a run never takes much more than --seconds.
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    passes = []
    last = 0.0
    while not passes or time.perf_counter() + last <= deadline:
        gc.collect()
        gen2 = _gen2()
        started = time.perf_counter()
        passes.append(run_pass(workload, ops))
        last = time.perf_counter() - started
        passes[-1]["gc_gen2_collections"] = _gen2() - gen2
    record = {"passes": passes}
    if trace:
        rec = SpanRecorder()
        instrumentation = Instrumentation(rec)
        gc.collect()
        with instrumentation:
            traced = run_pass(workload, ops, rec)
        with instrumentation:
            probe(workload, seed, size, rec)
        record["traced_pass"] = traced
        if workload == "sweep":
            hist: dict[str, dict[str, int]] = {}
            for (n, k), c in sorted(rec.k_histogram.items()):
                hist.setdefault(str(n), {})[str(k)] = c
            traced["outputs"][0]["k_histogram"] = hist
        record["layers"] = {
            "times_ns": rec.times(),
            "units": dict(rec.units),
            "counters": dict(rec.counters),
            "spans": len(rec.start),
            "ops": rec.op_id + 1,
        }
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
