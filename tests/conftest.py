"""Shared shortcuts and independent oracles for the test suite.

The oracles recompute quantities by a different route than the library
(modular index scans, periodic unrolling, rational or prime-field
elimination) so that each check has two independent sides.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st

import circwords
from circwords import CircularWord, parse_circular, parse_word

# The CLI tests run `python -m circwords.cli` in subprocesses: they get
# the package this process imported, from src/ or from an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(circwords.__file__).parent.parent), os.environ.get("PYTHONPATH")])
)


def cw(text: str, d: int | None = None) -> CircularWord:
    return parse_circular(text, d)


def u(text: str) -> tuple[int, ...]:
    return parse_word(text)


def scan_count(w: CircularWord, factor) -> int:
    """Occurrence count via explicit modular indexing (no slicing)."""
    factor, letters, n = tuple(factor), w.letters, w.n
    return sum(
        1
        for i in range(n)
        if all(factor[j] == letters[(i + j) % n] for j in range(len(factor)))
    )


def unrolled_count(letters, factor) -> int:
    """Occurrence count by unrolling the word to length n + |factor|."""
    letters, factor = tuple(letters), tuple(factor)
    n, k = len(letters), len(factor)
    ext = (letters * ((n + k) // n + 1))[: n + k]
    return sum(1 for i in range(n) if ext[i : i + k] == factor)


def rank_fraction(entries) -> int:
    """Rank by plain Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in r] for r in entries]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_mod_p(entries, p: int = 2**31 - 1) -> int:
    """Rank over the prime field F_p (cross-check for the exact rank)."""
    rows = [[x % p for x in r] for r in entries]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def binary_circular_words(max_n: int = 40):
    """hypothesis strategy: binary circular words up to length max_n."""
    return st.lists(st.integers(0, 1), min_size=1, max_size=max_n).map(
        lambda ls: CircularWord(tuple(ls), 2)
    )


@st.composite
def circular_words_any_alphabet(draw, max_d: int = 4, max_n: int = 24):
    d = draw(st.integers(2, max_d))
    letters = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=max_n))
    return CircularWord(tuple(letters), d)


#: Binary words up to length 300, with the constant and alternating
#: families (no isolated letter, or nothing but isolated letters) drawn often.
words_and_families = st.one_of(
    binary_circular_words(max_n=300),
    st.integers(1, 300).flatmap(
        lambda n: st.sampled_from(
            [cw("0" * n), cw("1" * n), cw(("01" * n)[:n]), cw(("10" * n)[:n])]
        )
    ),
)
