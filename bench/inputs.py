"""Workload sizes and seeded inputs of the circwords benchmark.

Nothing here imports circwords: the oracle regenerates the same inputs
from the seed to check the program's outputs, and the program only ever
receives what these functions build.
"""

from __future__ import annotations

from random import Random

WORKLOADS = ("sweep", "long", "rank")

#: Workload sizes.  "full" is what the benchmark measures; "tiny" keeps
#: the smoke test to a few seconds.
SIZES = {
    "full": {
        "sweep_max_len": 11,
        # length -> words per run structure (uniform, long-run, near-alternating)
        "long_lengths": {10: 20, 100: 20, 1_000: 10, 10_000: 4, 100_000: 1},
        # one word mixing the three structures, the ROADMAP's 10^6 case
        "long_mixed_len": 1_000_000,
        "rank_cases": (
            ("--d", "2", "--l", "4", "--cks", "--spanning-set"),
            ("--d", "2", "--l", "6"),
            ("--d", "3", "--l", "3", "--max-len", "10"),
        ),
        "express_max_len": 10,
    },
    "tiny": {
        "sweep_max_len": 8,
        "long_lengths": {10: 3, 100: 2, 1_000: 1},
        "long_mixed_len": 3_000,
        "rank_cases": (
            ("--d", "2", "--l", "4", "--max-len", "8", "--cks", "--spanning-set"),
            ("--d", "2", "--l", "6", "--max-len", "10"),
            ("--d", "3", "--l", "3", "--max-len", "6"),
        ),
        "express_max_len": 6,
    },
}

#: express_in_span target: |W|_0011 over the nonzero-ends basis of l = 4.
EXPRESS_TARGET = "0011"
EXPRESS_L = 4


def rank_case(args: tuple[str, ...]) -> tuple[int, int, int]:
    """(d, l, max_len) of one rank case, with the CLI's default max_len 2l+2."""
    opts = dict(zip(args[::2], args[1::2]))
    d, l = int(opts["--d"]), int(opts["--l"])
    return d, l, int(opts.get("--max-len", 2 * l + 2))


def _uniform(rng: Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _runs(rng: Random, n: int, run_length) -> str:
    """Alternating runs of 0s and 1s whose lengths come from run_length(rng)."""
    letter = rng.randrange(2)
    parts = []
    total = 0
    while total < n:
        m = run_length(rng)
        parts.append("01"[letter] * m)
        total += m
        letter ^= 1
    return "".join(parts)[:n]


def _long_run(rng: Random, n: int) -> str:
    # Mostly runs of length >= 2 (mean about 8), with some isolated letters.
    return _runs(rng, n, lambda r: 1 if r.random() < 0.1 else 2 + int(r.expovariate(1 / 6)))


def _near_alternating(rng: Random, n: int) -> str:
    # Alternating stretches (mean length about 50) joined by a doubled letter,
    # so the word is a few long isolated blocks between length-2 runs.
    segments = []
    total = 0
    last = rng.randrange(2)
    while total < n:
        m = 1 + int(rng.expovariate(1 / 50))
        seg = "".join("01"[(last + j) % 2] for j in range(m))
        segments.append(seg)
        total += m
        last = int(seg[-1])
    return "".join(segments)[:n]


STRUCTURES = (_uniform, _long_run, _near_alternating)


def long_words(seed: int, size: str = "full") -> list[str]:
    """The digit strings of the long workload, in run order.

    Lengths are fixed by the size, so every seed does the same amount of
    work; the seed only changes the letters.  Each length class is spread
    evenly over the pass, so the short words, which set the median
    latency, are timed all through the run rather than in one burst.
    """
    sz = SIZES[size]
    rng = Random(seed)
    classes = []
    for n, count in sz["long_lengths"].items():
        by_structure = [[make(rng, n) for _ in range(count)] for make in STRUCTURES]
        classes.append([word for same_index in zip(*by_structure) for word in same_index])
    n = sz["long_mixed_len"]
    third = n // 3
    mixed = _uniform(rng, third) + _long_run(rng, third) + _near_alternating(rng, n - 2 * third)
    classes.append([mixed])
    keyed = [((i + 0.5) / len(c), word) for c in classes for i, word in enumerate(c)]
    return [word for _, word in sorted(keyed, key=lambda kw: kw[0])]


def work_per_pass(workload: str, size: str = "full") -> tuple[int, int]:
    """(words, letters) one pass of the workload checks.

    For rank these are the sample words each CLI call and the
    express_in_span call cover: all words of length 1..max_len.
    """
    sz = SIZES[size]
    if workload == "sweep":
        n = sz["sweep_max_len"]
        return 2 ** (n + 1) - 2, sum(m * 2**m for m in range(1, n + 1))
    if workload == "long":
        lengths = [n for n, c in sz["long_lengths"].items() for _ in range(c * len(STRUCTURES))]
        lengths.append(sz["long_mixed_len"])
        return len(lengths), sum(lengths)
    if workload == "rank":
        samples = [rank_case(args)[::2] for args in sz["rank_cases"]]
        samples.append((2, sz["express_max_len"]))
        return (
            sum(d**m for d, top in samples for m in range(1, top + 1)),
            sum(m * d**m for d, top in samples for m in range(1, top + 1)),
        )
    raise ValueError(f"unknown workload {workload!r}")
