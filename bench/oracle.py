"""Checks of the workload outputs that do not use the circwords package.

Factor counts come from regex lookaheads on the word unrolled to n+l-1
letters; ranks come from the dimension formula (d-1)d^(l-1)+1; the sweep
histogram and the express_in_span coefficients are committed data.
Each check returns the number of ops attempted and a list of failures,
one per failed op.

Run this file to print the committed k histogram:
    python3 bench/oracle.py > bench/k_histogram.json
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

from inputs import EXPRESS_TARGET, SIZES, long_words, rank_case

HISTOGRAM_FILE = Path(__file__).with_name("k_histogram.json")
HISTOGRAM_MAX_LEN = 16

#: The four mirror pairs, positive edge first, in the difference order.
PAIRS = (("0011", "1100"), ("1101", "1011"), ("1010", "0101"), ("0100", "0010"))

#: |W|_0011 over the nonzero-ends basis of l = 4, column by column.
EXPRESS_LABELS = ("length", "1", "11", "101", "111", "1001", "1011", "1101", "1111")
EXPRESS_COEFFICIENTS = ("0", "0", "1", "0", "-1", "0", "-1", "0", "0")


def count(word: str, factor: str) -> int:
    """Occurrences of factor in the circular word, overlaps included."""
    n, l = len(word), len(factor)
    unrolled = (word * (1 + (l - 1) // n + 1))[: n + l - 1]
    return len(re.findall(f"(?={factor})", unrolled))


def differences(word: str) -> tuple[int, int, int, int]:
    return tuple(count(word, p) - count(word, m) for p, m in PAIRS)


def k_histogram(max_len: int) -> dict[str, dict[str, int]]:
    """{length: {k: words}} over all binary words of length 1..max_len."""
    out = {}
    for n in range(1, max_len + 1):
        hist: dict[int, int] = {}
        for letters in product("01", repeat=n):
            k = differences("".join(letters))[0]
            hist[k] = hist.get(k, 0) + 1
        out[str(n)] = {str(k): hist[k] for k in sorted(hist)}
    return out


def check_sweep(size: str, record: dict) -> tuple[int, list[str]]:
    n = SIZES[size]["sweep_max_len"]
    expected = f"{2 ** (n + 1) - 2} words checked, 0 violations\n"
    committed = json.loads(HISTOGRAM_FILE.read_text())
    failures = []
    for i, op in enumerate(record["outputs"]):
        if "error" in op:
            failures.append(f"op {i}: {op['error']}")
        elif op["exit"] != 0 or op["stdout"] != expected:
            failures.append(f"op {i}: exit {op['exit']}, output {op['stdout']!r}")
        elif "k_histogram" in op:
            wrong = [m for m in range(1, n + 1) if op["k_histogram"].get(str(m)) != committed[str(m)]]
            if wrong:
                failures.append(f"op {i}: k histogram differs at lengths {wrong}")
    return len(record["outputs"]), failures


def check_long(seed: int, size: str, record: dict) -> tuple[int, list[str]]:
    words = long_words(seed, size)
    expected = []
    for word in words:
        diffs = differences(word)
        if len(set(diffs)) != 1:
            raise AssertionError(f"oracle: unequal differences {diffs}")
        expected.append(diffs)
    failures = []
    for i, op in enumerate(record["outputs"]):
        j = op["index"]
        if "error" in op:
            failures.append(f"op {i} (word {j}): {op['error']}")
            continue
        diffs = expected[j]
        got = (tuple(op["diffs"]), op["k_graph"], op["k_decomposition"], op["consistent"])
        if got != (diffs, diffs[0], diffs[0], True):
            failures.append(f"op {i} (word {j}): report {got}, expected k={diffs[0]}")
        elif op["kirchhoff"] != {"ok": True, "vertices": 8, "violations": 0}:
            failures.append(f"op {i} (word {j}): Kirchhoff {op['kirchhoff']}")
    return len(record["outputs"]), failures


def _express_holds(coefficients: list[Fraction], max_len: int) -> bool:
    """The coefficients reproduce |W|_target on every word up to max_len."""
    for n in range(1, max_len + 1):
        for letters in product("01", repeat=n):
            w = "".join(letters)
            value = coefficients[0] * n + sum(
                c * count(w, u) for c, u in zip(coefficients[1:], EXPRESS_LABELS[1:])
            )
            if value != count(w, EXPRESS_TARGET):
                return False
    return True


def check_rank(size: str, record: dict) -> tuple[int, list[str]]:
    sz = SIZES[size]
    cases = sz["rank_cases"]
    failures = []
    express_ok = None
    for i, op in enumerate(record["outputs"]):
        if "error" in op:
            failures.append(f"op {i}: {op['error']}")
            continue
        if op["kind"] == "express":
            expected = (list(EXPRESS_LABELS), list(EXPRESS_COEFFICIENTS))
            if (op["labels"], op["coefficients"]) != expected:
                failures.append(f"op {i}: express_in_span gave {op['coefficients']}")
            else:
                if express_ok is None:
                    coefficients = [Fraction(c) for c in EXPRESS_COEFFICIENTS]
                    express_ok = _express_holds(coefficients, sz["express_max_len"])
                if not express_ok:
                    failures.append(f"op {i}: committed coefficients fail the oracle")
            continue
        args = cases[op["case"]]
        d, l, _ = rank_case(args)
        rank = (d - 1) * d ** (l - 1) + 1
        want = {"rank": rank, "predicted": rank, "relations": d**l - rank}
        want.update({k: True for k in ("cks_basis", "spanning_set") if f"--{k.replace('_', '-')}" in args})
        try:
            payload = json.loads(op["stdout"])
        except ValueError:
            payload = {}
        got = {k: payload.get(k) for k in want}
        if op["exit"] != 0 or got != want or op["stderr"]:
            failures.append(f"op {i} (d={d}, l={l}): exit {op['exit']}, {got}, stderr {op['stderr']!r}")
    return len(record["outputs"]), failures


def check(workload: str, seed: int, size: str, record: dict) -> tuple[int, list[str]]:
    """(ops attempted, failure messages) for one workload run's record."""
    if workload == "sweep":
        return check_sweep(size, record)
    if workload == "long":
        return check_long(seed, size, record)
    if workload == "rank":
        return check_rank(size, record)
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    print(json.dumps(k_histogram(HISTOGRAM_MAX_LEN), indent=1))
