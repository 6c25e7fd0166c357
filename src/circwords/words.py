"""Circular words over a d-letter alphabet and their occurrence combinatorics.

A circular word is a non-empty letter sequence indexed modulo its length,
equivalently a periodic infinite word.  Factors are read with indices
reduced mod n, so counting stays total even when the factor is longer
than the word itself.

Plain (non-circular) words are represented as bare tuples of ints; only
the circular object carries the alphabet.  Everything here is an
immutable value and safe to share between workers.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache
from random import Random
from typing import Iterator, Mapping, Union

from .errors import (
    BadLetterError,
    BadParameterError,
    EmptyFactorError,
    EmptyWordError,
    SizeLimitError,
)

Letters = tuple[int, ...]

#: Anything the parsing helpers accept as a word.
WordLike = Union["Letters", str]

#: The one cap on d^n wherever a loop visits all d^n words of one length.
DEFAULT_SIZE_LIMIT = 1 << 20


def check_size(d: int, n: int, what: str) -> None:
    """The one size-cap policy: refuse a loop over d^n items above the cap.

    The cap is DEFAULT_SIZE_LIMIT, read at each call.  With |d| >= 2,
    |d^n| >= 2^n, so an n at least 64 past the bit length of the cap is
    refused without building d^n: written out it could take more memory
    than the loop, or more digits than str() allows.  A negative d is
    refused later as an alphabet, but its power must not be built first.
    """
    limit = DEFAULT_SIZE_LIMIT
    if abs(d) >= 2 and n >= limit.bit_length() + 64:
        raise SizeLimitError(f"{d}^{n} {what} exceed the cap of {limit}")
    if d**n > limit:
        raise SizeLimitError(f"{d}^{n} = {d ** n} {what} exceed the cap of {limit}")


@dataclass(frozen=True)
class Alphabet:
    """The alphabet 0..d-1."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise BadLetterError(f"alphabet needs at least 2 letters, got d={self.d}")

    def validate(self, letters: Letters) -> None:
        allowed = range(self.d)
        if set(letters).issubset(allowed):
            return
        bad = next(a for a in letters if a not in allowed)
        raise BadLetterError(f"letter {bad} outside alphabet 0..{self.d - 1}")

    def words(self, l: int) -> Iterator[Letters]:
        """All d^l words of length l, lexicographically."""
        return itertools.product(range(self.d), repeat=l)


BINARY = Alphabet(2)


@dataclass(frozen=True)
class CircularWord:
    """Non-empty letter sequence indexed modulo its length."""

    letters: Letters
    d: int = 2

    def __post_init__(self) -> None:
        if len(self.letters) == 0:
            raise EmptyWordError("circular word must have length >= 1")
        Alphabet(self.d).validate(self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    def letter(self, i: int) -> int:
        return self.letters[i % self.n]

    def factor(self, i: int, l: int) -> Letters:
        """The length-l factor starting at position i, read periodically."""
        n = self.n
        i %= n
        if i + l <= n:
            return self.letters[i : i + l]
        reps = (i + l + n - 1) // n
        return (self.letters * reps)[i : i + l]

    def factors(self, l: int) -> list[Letters]:
        """All n factors of length l in position order (one per position)."""
        return list(_windows(self.letters, l))

    def rotate(self, s: int) -> "CircularWord":
        """Shift indices by s: position i of the result reads position i+s."""
        s %= self.n
        return CircularWord(self.letters[s:] + self.letters[:s], self.d)

    def reverse(self) -> "CircularWord":
        return CircularWord(self.letters[::-1], self.d)

    def complement(self) -> "CircularWord":
        """Exchange 0 and 1 (binary words only)."""
        if self.d != 2:
            raise BadParameterError("complement is defined for binary words")
        return CircularWord(tuple(1 - a for a in self.letters), 2)

    def __str__(self) -> str:
        return word_string(self.letters)

    def __repr__(self) -> str:
        return f"CircularWord({self}, d={self.d})"


def _windows(letters: Letters, l: int) -> Iterator[Letters]:
    """The n circular factors of length l, in position order, one at a time.

    The letters are extended by their first l-1 (wrapping as often as
    needed), and l shifted slices of the extension are zipped, so each
    factor is built in C and none is kept unless the caller keeps it.
    For l < 1 every factor is empty.
    """
    n = len(letters)
    if l < 1:
        return itertools.repeat((), n)
    reps, extra = divmod(l - 1, n)
    ext = letters * (reps + 1) + letters[:extra]
    return zip(*(ext[j : j + n] for j in range(l)))


def _codes(letters: Letters, d: int, l: int) -> bytes:
    """The code of each circular factor of length l, one byte per position.

    Byte i is sum_k a[i+k]·d^(l-1-k), the index of the factor at
    position i in lexicographic order (see _factor_table); d^l must be
    at most 256.  The letters, extended circularly by their first l-1,
    sit one per byte in one integer x, and y = sum_j d^j·(x >> 8j),
    taken by Horner's rule, adds to each byte its l-1 predecessors,
    weighted, in a few C-level big-integer operations.  No byte carries
    into the next, because every field is at most d^l - 1 <= 255; the
    first l-1 bytes hold partial sums and are dropped.
    """
    n = len(letters)
    raw = bytes(letters)
    reps, extra = divmod(l - 1, n)
    ext = raw * (reps + 1) + raw[:extra]
    x = int.from_bytes(ext, "big")
    y = x >> 8 * (l - 1)
    for j in range(l - 2, -1, -1):
        y = y * d + (x >> 8 * j)
    return y.to_bytes(len(ext), "big")[l - 1 :]


def _fits_a_byte(d: int, l: int) -> bool:
    """Whether every length-l factor code fits in one byte (d^l <= 256)."""
    return l <= 8 and d**l <= 256


@cache
def _factor_table(d: int, l: int) -> tuple[Letters, ...]:
    """The d^l words of length l in code order, so table[code] is the factor.

    Only called with d^l <= 256, so the cache stays small.
    """
    return tuple(itertools.product(range(d), repeat=l))


def _dense_counts(letters: Letters, d: int, l: int) -> list[int]:
    """The count of every length-l factor, all d^l of them, lexicographically.

    Entry c counts the factor with code c: one bytes.count per code
    when d^l <= 256, a Counter over _windows looked up in lexicographic
    order otherwise.  The caller bounds d^l (check_size).
    """
    if _fits_a_byte(d, l):
        return list(map(_codes(letters, d, l).count, range(d**l)))
    counts = Counter(_windows(letters, l))
    factors = itertools.product(range(d), repeat=l)
    return list(map(counts.get, factors, itertools.repeat(0)))


#: The letters a word's text may hold: the ASCII digits only.
_DIGITS = {str(i): i for i in range(10)}


def _digits(text: str) -> Letters:
    try:
        return tuple(map(_DIGITS.__getitem__, text))
    except KeyError as exc:
        raise BadLetterError(f"letter {exc.args[0]!r} is not a digit") from None


def parse_word(text: str, d: int | None = None) -> Letters:
    """Parse a string of ASCII digits into a letter tuple.

    The letters are checked against the alphabet 0..d-1 when d is given.
    """
    letters = _digits(text)
    if d is not None:
        Alphabet(d).validate(letters)
    return letters


def parse_circular(text: str, d: int | None = None) -> CircularWord:
    """Parse a digit string into a circular word over 0..d-1.

    The alphabet size is max digit + 1 (at least 2) unless d is given;
    CircularWord checks the letters against it.
    """
    letters = _digits(text)
    if d is None:
        d = max(2, max(letters, default=0) + 1)
    return CircularWord(letters, d)


def word_string(u: Letters) -> str:
    return "".join(str(a) for a in u)


def _as_letters(u: WordLike) -> Letters:
    return parse_word(u) if isinstance(u, str) else tuple(u)


def count_occurrences(w: CircularWord, u: Letters) -> int:
    """Number of positions i in 0..n-1 at which u occurs in w (mod n)."""
    u = tuple(u)
    if len(u) == 0:
        raise EmptyFactorError("occurrence counting needs a non-empty factor")
    Alphabet(w.d).validate(u)
    return operator.countOf(_windows(w.letters, len(u)), u)


def occurrence_positions(w: CircularWord, u: Letters) -> tuple[int, ...]:
    """The positions counted by count_occurrences, in increasing order."""
    u = tuple(u)
    if len(u) == 0:
        raise EmptyFactorError("occurrence counting needs a non-empty factor")
    Alphabet(w.d).validate(u)
    hits = map(u.__eq__, _windows(w.letters, len(u)))
    return tuple(itertools.compress(range(w.n), hits))


@dataclass(frozen=True)
class OccurrenceVector:
    """Counts of every length-l factor in a circular word.

    Only factors that actually occur are stored; lookups of absent words
    return 0.  The counts always sum to the word length, since each of
    the n positions starts exactly one factor.
    """

    l: int
    d: int
    total: int
    counts: Mapping[Letters, int]

    def __getitem__(self, u: WordLike) -> int:
        u = _as_letters(u)
        if len(u) != self.l:
            raise BadParameterError(f"expected a factor of length {self.l}, got {u}")
        return self.counts.get(u, 0)

    def nonzero(self) -> dict[Letters, int]:
        return dict(self.counts)

    def dense_items(self) -> Iterator[tuple[Letters, int]]:
        """(factor, count) for all d^l factors, lexicographically.

        Refuses, before the first item, a d^l above DEFAULT_SIZE_LIMIT.
        """
        check_size(self.d, self.l, "factors")
        counts = self.counts
        return ((u, counts.get(u, 0)) for u in Alphabet(self.d).words(self.l))


def occurrence_vector(w: CircularWord, l: int) -> OccurrenceVector:
    """Count every length-l factor of w in one scan.

    The factors are counted as byte codes when d^l <= 256, and as letter
    tuples from _windows otherwise.
    """
    if l < 1:
        raise BadParameterError(f"factor length must be >= 1, got {l}")
    d = w.d
    if _fits_a_byte(d, l):
        # One byte per factor code; the keys are decoded in first-occurrence order.
        table = _factor_table(d, l)
        counts = {table[c]: k for c, k in Counter(_codes(w.letters, d, l)).items()}
    else:
        counts = dict(Counter(_windows(w.letters, l)))
    return OccurrenceVector(l=l, d=d, total=w.n, counts=counts)


def mirror(u: Letters) -> Letters:
    """The reversal of u."""
    return tuple(u)[::-1]


def is_palindrome(u: Letters) -> bool:
    u = tuple(u)
    return u == u[::-1]


@dataclass(frozen=True)
class Run:
    """A circularly maximal block of one repeated letter."""

    letter: int
    start: int
    length: int


def _run_starts(letters: Letters) -> list[int]:
    """Start positions of the maximal runs, increasing; [0] for a constant word.

    Position i starts a run when its letter differs from the one before
    it, circularly: one C-level pass comparing the letters with their
    rotation by one.
    """
    changed = map(operator.ne, letters, letters[-1:] + letters[:-1])
    return list(itertools.compress(range(len(letters)), changed)) or [0]


def _run_lengths(starts: list[int], n: int) -> list[int]:
    """The length of each run, from the run starts of a word of length n."""
    return list(map(operator.sub, starts[1:] + [starts[0] + n], starts))


def _run_blocks(lengths: list[int]) -> list[tuple[int, int, bool]]:
    """Group the runs into maximal circular arcs of one kind.

    A run of length 1 is isolated, a longer one long.  Each block is
    (first, end, isolated): runs first..end-1, run indices taken modulo
    the number of runs m.  Blocks start at the first run whose kind
    differs from the run before it and follow the circle from there; when
    every run has the same kind the result is the one block (0, m, kind).
    """
    m = len(lengths)
    isolated = list(map((1).__eq__, lengths))
    changed = map(operator.ne, isolated, isolated[-1:] + isolated[:-1])
    firsts = list(itertools.compress(range(m), changed))
    if not firsts:
        return [(0, m, isolated[0])]
    ends = firsts[1:] + [firsts[0] + m]
    return list(zip(firsts, ends, map(isolated.__getitem__, firsts)))


def runs(w: CircularWord) -> tuple[Run, ...]:
    """Maximal-run decomposition in order of start position.

    A constant word yields the single run covering the whole word.
    """
    starts = _run_starts(w.letters)
    lengths = _run_lengths(starts, w.n)
    return tuple(map(Run, map(w.letters.__getitem__, starts), starts, lengths))


@dataclass(frozen=True)
class IsolatedBlock:
    """A maximal circular arc of length-1 runs (...abab... letters).

    `start` is the position of the first isolated letter after the
    preceding long-run block; it is None only in the degenerate case
    where the whole word alternates and no anchor exists.
    """

    letters: Letters
    start: int | None

    @property
    def start_letter(self) -> int:
        return self.letters[0]

    @property
    def length(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class LongRunBlock:
    """A maximal circular arc of runs of length >= 2."""

    runs: tuple[Run, ...]

    @property
    def start(self) -> int:
        return self.runs[0].start

    @property
    def length(self) -> int:
        return sum(r.length for r in self.runs)


Block = Union[IsolatedBlock, LongRunBlock]


@dataclass(frozen=True)
class BlockDecomposition:
    """Circular split into alternating isolated and long-run blocks."""

    n: int
    blocks: tuple[Block, ...]
    whole_word_alternating: bool

    def isolated_blocks(self) -> list[IsolatedBlock]:
        return [b for b in self.blocks if isinstance(b, IsolatedBlock)]

    def reconstruct(self) -> CircularWord:
        """Reassemble the word from the blocks (inverse of decompose_blocks)."""
        out: list[int | None] = [None] * self.n
        for b in self.blocks:
            start = 0 if b.start is None else b.start
            if isinstance(b, IsolatedBlock):
                for j, a in enumerate(b.letters):
                    out[(start + j) % self.n] = a
            else:
                for r in b.runs:
                    for j in range(r.length):
                        out[(r.start + j) % self.n] = r.letter
        if any(a is None for a in out):
            raise BadParameterError("blocks do not cover the word")
        return CircularWord(tuple(out), 2)


def decompose_blocks(w: CircularWord) -> BlockDecomposition:
    """Split a binary circular word into isolated-letter and long-run blocks.

    Runs of length 1 group into IsolatedBlocks, runs of length >= 2 into
    LongRunBlocks, alternating around the circle.  When no run reaches
    length 2 there is no anchor for the grouping and the whole word is a
    single unanchored IsolatedBlock with the alternating flag set.
    """
    if w.d != 2:
        raise BadParameterError("block decomposition is defined for binary words")
    rs = runs(w)
    grouped = _run_blocks([r.length for r in rs])
    if len(grouped) == 1:
        if grouped[0][2]:
            return BlockDecomposition(
                n=w.n,
                blocks=(IsolatedBlock(letters=w.letters, start=None),),
                whole_word_alternating=True,
            )
        return BlockDecomposition(
            n=w.n, blocks=(LongRunBlock(rs),), whole_word_alternating=False
        )
    m = len(rs)
    blocks: list[Block] = []
    for first, end, isolated in grouped:
        group = [rs[j % m] for j in range(first, end)]
        if isolated:
            letters = tuple(r.letter for r in group)
            blocks.append(IsolatedBlock(letters=letters, start=group[0].start))
        else:
            blocks.append(LongRunBlock(tuple(group)))
    return BlockDecomposition(n=w.n, blocks=tuple(blocks), whole_word_alternating=False)


def canonical_rotation(w: CircularWord) -> CircularWord:
    """The lexicographically least rotation (conjugacy-class representative)."""
    return w.rotate(_least_rotation(w.letters))


def _least_rotation(letters: Letters) -> int:
    """The start of the least rotation, in O(n) comparisons.

    Duval's Lyndon factorisation of the doubled word: each pass over i
    finds the next Lyndon factor, and the least rotation starts at the
    last factor that begins before n.
    """
    n = len(letters)
    s = letters + letters
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def enumerate_words(d: int, n: int) -> Iterator[CircularWord]:
    """All d^n circular words of length n, lexicographically."""
    if n < 1:
        raise BadParameterError(f"word length must be >= 1, got {n}")
    for letters in Alphabet(d).words(n):
        yield CircularWord(letters, d)


def enumerate_necklaces(d: int, n: int) -> Iterator[CircularWord]:
    """The least rotation of each class of rotations of length n, increasing.

    One word per conjugacy class: d^n/n of them, roughly, instead of d^n.
    The prenecklace successor of Fredricksen, Kessler and Maiorana
    (Ruskey, Savage and Wang, J. Algorithms 1992) steps through the
    prenecklaces in lexicographic order: bump the last letter below d-1
    at index p-1, then repeat the first p letters to length n.  p is
    the period of the new prenecklace, and it is a necklace exactly
    when p divides n.
    """
    if n < 1:
        raise BadParameterError(f"word length must be >= 1, got {n}")
    a = [0] * n
    p = 1
    top = d - 1
    while True:
        if n % p == 0:
            yield CircularWord(tuple(a), d)
        p = n
        while p and a[p - 1] == top:
            p -= 1
        if not p:
            return
        a[p - 1] += 1
        a = (a[:p] * (n // p + 1))[:n]


def random_word(rng: Random, n: int, d: int = 2) -> CircularWord:
    """A uniformly random circular word of length n (for seeded sweeps)."""
    return CircularWord(tuple(rng.randrange(d) for _ in range(n)), d)
