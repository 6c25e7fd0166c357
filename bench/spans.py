"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent span, operation id), kept in
parallel integer arrays until the run ends.  Spans are recorded from
here, around calls into the public functions of circwords.words,
circwords.debruijn, circwords.invariants and circwords.span: the wrappers
replace every binding of those functions in the circwords modules (the
modules import each other's functions by name), and are removed again
after each traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

#: (module, function) pairs that get a span.  grandsart_differences and
#: project_to_square are not on the CLI's path (grandsart_report uses
#: private helpers); the workload times them in a separate probe phase.
TRACED = (
    ("words", "enumerate_words"),
    ("words", "parse_circular"),
    ("words", "decompose_blocks"),
    ("words", "occurrence_vector"),
    ("invariants", "grandsart_report"),
    ("invariants", "grandsart_differences"),
    ("invariants", "project_to_square"),
    ("invariants", "winding_number_decomposition"),
    ("debruijn", "verify_kirchhoff"),
    ("span", "span_dimension"),
    ("span", "occurrence_matrix"),
    ("span", "exact_rank"),
    ("span", "express_in_span"),
    ("span", "verify_cks_basis"),
    ("span", "verify_spanning_set"),
)

#: span_dimension and exact_rank both run this kernel; it gets no span,
#: only the row counter, because it is private.
KERNEL = ("span", "_bareiss_rank")

NO_PARENT = -1


class SpanRecorder:
    """Spans of one run, plus the exact counters read at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [NO_PARENT]
        self.op_id = NO_PARENT
        self.counters: Counter = Counter()
        # name -> [calls, words, letters]: the bases of the per-word and
        # per-letter ratios
        self.units: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        # (word length, k_graph) of every grandsart_report result
        self.k_histogram: Counter = Counter()
        # rows of the latest elimination kernel call, read by span_dimension
        self.kernel_last_rows = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def current_name(self) -> str | None:
        top = self._stack[-1]
        return None if top == NO_PARENT else self.names[self.name[top]]

    def count(self, name: str, words: int, letters: int) -> None:
        u = self.units[name]
        u[0] += 1
        u[1] += words
        u[2] += letters

    def times(self) -> dict[str, tuple[int, int]]:
        """(inclusive, self) time in ns per span name, summed over its spans.

        Self time is a span's duration minus that of its direct
        children; in one thread the children never overlap.
        """
        n = len(self.start)
        child = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                child[p] += end[i] - start[i]
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        name = self.name
        for i in range(n):
            d = end[i] - start[i]
            total[name[i]] += d
            own[name[i]] += d - child[i]
        return {k: (total[j], own[j]) for j, k in enumerate(self.names)}


def _span_wrapper(rec: SpanRecorder, qualname: str, fn, after):
    nid = rec.name_id(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        after(args, result)
        return result

    return wrapper


def _generator_wrapper(rec: SpanRecorder, qualname: str, fn):
    """Times each step of a generator, so the span covers building each item."""
    nid = rec.name_id(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = rec.open(nid)
            try:
                w = next(it)
            except StopIteration:
                return
            finally:
                rec.close(i)
            rec.count(qualname, 1, w.n)
            rec.counters["words.letters_scanned"] += w.n
            if (rec.current_name() or "").startswith("span.span_dimension"):
                rec.counters["span.rows_sampled"] += 1
            yield w

    return wrapper


def _after_hooks(rec: SpanRecorder):
    """Per-function counting, run after the call returns (outside its span)."""
    c = rec.counters

    def word_arg(name, scans_letters=True):
        def after(args, result):
            n = args[0].n
            rec.count(name, 1, n)
            if scans_letters:
                c["words.letters_scanned"] += n
        return after

    def parse(args, result):
        rec.count("words.parse_circular", 1, len(args[0]))
        c["words.letters_scanned"] += len(args[0])

    def report(args, result):
        rec.count("invariants.grandsart_report", 1, args[0].n)
        rec.k_histogram[args[0].n, result.k_graph] += 1

    def projection(args, result):
        rec.count("invariants.project_to_square", 1, args[0].n)
        c["invariants.square_edges_retained"] += len(result.retained_edges)

    def kirchhoff(args, result):
        rec.count("debruijn.verify_kirchhoff", 1, args[0].n)
        c["debruijn.vertices_checked"] += len(result.out_residuals)

    def matrix(args, result):
        rec.count("span.occurrence_matrix", result.nrows, 0)
        c["span.rows_sampled"] += result.nrows

    def calls(name):
        return lambda args, result: rec.count(name, 0, 0)

    return {
        "words.parse_circular": parse,
        "words.decompose_blocks": word_arg("words.decompose_blocks"),
        "words.occurrence_vector": word_arg("words.occurrence_vector"),
        "invariants.grandsart_report": report,
        "invariants.grandsart_differences": word_arg(
            "invariants.grandsart_differences", scans_letters=False
        ),
        "invariants.project_to_square": projection,
        "invariants.winding_number_decomposition": word_arg(
            "invariants.winding_number_decomposition", scans_letters=False
        ),
        "debruijn.verify_kirchhoff": kirchhoff,
        "span.occurrence_matrix": matrix,
        "span.exact_rank": calls("span.exact_rank"),
        "span.express_in_span": calls("span.express_in_span"),
        "span.verify_cks_basis": calls("span.verify_cks_basis"),
        "span.verify_spanning_set": calls("span.verify_spanning_set"),
    }


def _span_dimension_wrapper(rec: SpanRecorder, fn):
    """One span name per (d, l) case; collects the kernel's last row count."""

    @functools.wraps(fn)
    def wrapper(d, l, *args, **kwargs):
        nid = rec.name_id(f"span.span_dimension.d{d}l{l}")
        rec.kernel_last_rows = 0
        i = rec.open(nid)
        try:
            result = fn(d, l, *args, **kwargs)
        finally:
            rec.close(i)
        rec.count(f"span.span_dimension.d{d}l{l}", 0, 0)
        rec.counters["span.rows_distinct"] += rec.kernel_last_rows
        return result

    return wrapper


def _kernel_wrapper(rec: SpanRecorder, fn):
    @functools.wraps(fn)
    def wrapper(rows, *args, **kwargs):
        rec.counters["span.rows_eliminated"] += len(rows)
        rec.kernel_last_rows = len(rows)
        return fn(rows, *args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs the wrappers into the loaded circwords modules, and removes them."""

    def __init__(self, rec: SpanRecorder) -> None:
        self._modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "circwords"]
        hooks = _after_hooks(rec)
        self._replacements = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"circwords.{mod_name}"], fn_name)
            qualname = f"{mod_name}.{fn_name}"
            if fn_name == "enumerate_words":
                wrapped = _generator_wrapper(rec, qualname, fn)
            elif fn_name == "span_dimension":
                wrapped = _span_dimension_wrapper(rec, fn)
            else:
                wrapped = _span_wrapper(rec, qualname, fn, hooks[qualname])
            self._replacements[id(fn)] = (fn, wrapped)
        kernel = getattr(sys.modules[f"circwords.{KERNEL[0]}"], KERNEL[1], None)
        if kernel is not None:
            self._replacements[id(kernel)] = (kernel, _kernel_wrapper(rec, kernel))
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                hit = self._replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()
