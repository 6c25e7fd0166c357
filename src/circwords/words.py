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
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
    if not isinstance(d, int):
        raise BadParameterError(f"{what} need an integer base, got {d!r}^{n!r}")
    if not isinstance(n, int) or n < 0:
        raise BadParameterError(f"{what} need an integer exponent >= 0, got {d}^{n!r}")
    limit = DEFAULT_SIZE_LIMIT
    if abs(d) >= 2 and n >= limit.bit_length() + 64:
        raise SizeLimitError(f"{d}^{n} {what} exceed the cap of {limit}")
    if d**n > limit:
        raise SizeLimitError(f"{d}^{n} = {d ** n} {what} exceed the cap of {limit}")


def check_length(n: int, what: str) -> None:
    """Refuse a length, named by what, that is not an integer >= 1."""
    if not isinstance(n, int):
        raise BadParameterError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise BadParameterError(f"{what} must be >= 1, got {n}")


def check_word(w: CircularWord, what: str) -> None:
    """The one word guard: refuse w, given to what, unless it is a CircularWord."""
    if not isinstance(w, CircularWord):
        raise BadParameterError(f"{what} needs a CircularWord, got {w!r}")


def _check_type(value: object, cls: type, what: str) -> None:
    """The guard of every other argument: refuse value, given to what, unless it is a cls."""
    if not isinstance(value, cls):
        name = cls.__name__
        raise BadParameterError(f"{what} needs an argument of type {name}, got {value!r}")


def _require_binary(d: int, what: str) -> None:
    """Refuse an alphabet other than 0..1 for what, which only binary words have."""
    if d != 2:
        raise BadParameterError(f"{what} is defined for binary words")


@dataclass(frozen=True)
class Alphabet:
    """The alphabet 0..d-1."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int):
            raise BadParameterError(f"alphabet size must be an integer, got d={self.d!r}")
        if self.d < 2:
            raise BadParameterError(f"alphabet needs at least 2 letters, got d={self.d}")

    def validate(self, letters: Letters) -> None:
        _check_type(letters, tuple, "Alphabet.validate")
        self._held(letters)

    def _held(self, letters: Letters | bytes) -> bytes | Letters:
        """The letters, checked, as a word over this alphabet holds them.

        One bytes value, a letter a byte, when d <= 256; a tuple past it.
        One C pass checks them: as bytes, less every byte below d, they
        are empty.  Else (a float, a letter past 255 or d) each is looked
        at, and the first outside 0..d-1 is refused.
        """
        d = self.d
        try:
            data = bytes(letters)
            if not data.translate(None, bytes(range(min(d, 256)))):
                return data if d <= 256 else tuple(letters)
        except (TypeError, ValueError):
            pass
        for a in letters:
            if not (isinstance(a, int) and 0 <= a < d):
                raise BadLetterError(f"letter {a} outside alphabet 0..{d - 1}")
        return tuple(letters)

    def words(self, l: int) -> Iterator[Letters]:
        """All d^l words of length l >= 0, lexicographically."""
        if not isinstance(l, int) or l < 0:
            raise BadParameterError(f"word length must be an integer >= 0, got {l!r}")
        return itertools.product(range(self.d), repeat=l)


def _word_data(letters: Letters | bytes, d: int) -> bytes | Letters:
    """The one word check: refuse no letters, then a bad d, then a letter outside 0..d-1.

    Returns the letters as the word holds them (Alphabet._held).
    """
    if len(letters) == 0:
        raise EmptyWordError("circular word must have length >= 1")
    return Alphabet(d)._held(letters)


#: bytes.translate tables: complement a binary word's bytes, and write
#: the letters 0..9 as their ASCII digits.
_COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


@dataclass(frozen=True)
class CircularWord:
    """Non-empty letter sequence indexed modulo its length.

    The letters are held as one bytes value, a letter a byte, when
    d <= 256, and as a tuple past it.  Equality and hashing read that
    value and d, so a word is the same by every route that builds it.
    """

    _data: bytes | Letters
    d: int

    def __init__(self, letters: Letters, d: int = 2) -> None:
        if not isinstance(letters, tuple):
            what = type(letters).__name__
            raise BadParameterError(f"a word's letters must be a tuple, got a {what}")
        # What a frozen __init__ stores, written straight to the instance dict.
        self.__dict__.update(_data=_word_data(letters, d), d=d)

    @classmethod
    def _unchecked(
        cls, data: bytes | Letters, d: int, memo: dict[int, bytes] | None = None
    ) -> "CircularWord":
        """A word whose letters the caller made valid: no length or letter check.

        data is held as is, so it must be bytes when d <= 256 and a
        tuple past it.  memo, when given, becomes the word's code memo
        (see codes), so it must hold the code strings _codes would make
        for its lengths.
        """
        w = object.__new__(cls)
        w.__dict__.update(_data=data, d=d)
        if memo is not None:
            w.__dict__["_code_memo"] = memo
        return w

    @property
    def letters(self) -> Letters:
        """The letters as a tuple of ints, made on each read."""
        return tuple(self._data)

    @property
    def n(self) -> int:
        return len(self._data)

    def codes(self, l: int) -> bytes:
        """The code of each circular factor of length l, one byte per position.

        The string of _codes, made on the first call for each l and kept
        with the word, so the report and the flow check share it.
        Raises BadParameterError unless 1 <= l and d^l <= 256.
        """
        # Not a field: kept in the instance dict, out of ==, hash and repr.
        memo = self.__dict__.setdefault("_code_memo", {})
        codes = memo.get(l)
        if codes is None:
            _check_type(l, int, "CircularWord.codes")
            if l < 1 or not _fits_a_byte(self.d, l):
                raise BadParameterError(
                    f"factor codes need 1 <= l and {self.d}^l <= 256, got l={l}"
                )
            codes = memo[l] = _codes(self._data, self.d, l)
        return codes

    def factors(self, l: int) -> list[Letters]:
        """All n factors of length l in position order (one per position)."""
        check_length(l, "factor length")
        return list(_windows(self._data, l))

    def rotate(self, s: int) -> "CircularWord":
        """Shift indices by s: position i of the result reads position i+s."""
        _check_type(s, int, "rotate")
        s %= self.n
        return CircularWord._unchecked(self._data[s:] + self._data[:s], self.d)

    def reverse(self) -> "CircularWord":
        return CircularWord._unchecked(self._data[::-1], self.d)

    def complement(self) -> "CircularWord":
        """Exchange 0 and 1 (binary words only)."""
        _require_binary(self.d, "complement")
        return CircularWord._unchecked(self._data.translate(_COMPLEMENT), 2)

    def __str__(self) -> str:
        if self.d <= 10:
            return self._data.translate(_TO_DIGITS).decode()
        return word_string(self._data)

    def __repr__(self) -> str:
        return f"CircularWord({self}, d={self.d})"


def _circular(seq: Letters | bytes, t: int) -> Letters | bytes:
    """seq (non-empty tuple or bytes), then its next t letters read circularly, wrapping."""
    n = len(seq)
    return seq * (t // n + 1) + seq[: t % n]


def _windows(letters: Letters | bytes, l: int) -> Iterator[Letters]:
    """The n circular factors of length l >= 1, in position order, one at a time.

    l shifted islices of _circular(letters, l-1) are zipped, so each factor
    is built in C and only the extension, n + l - 1 letters, is buffered.
    """
    n = len(letters)
    ext = _circular(letters, l - 1)
    return zip(*(itertools.islice(ext, j, j + n) for j in range(l)))


def _codes(letters: Letters | bytes, d: int, l: int) -> bytes:
    """The code of each circular factor of length l, one byte per position.

    Byte i is sum_k a[i+k]·d^(l-1-k), the index of the factor at
    position i in lexicographic order (see _factor_table); d^l must be
    at most 256.  The letters' circular extension by l-1 (_circular)
    sits one letter per byte in one integer x, and y = sum_j d^j·(x >> 8j),
    taken by Horner's rule, adds to each byte its l-1 predecessors,
    weighted, in a few C-level big-integer operations.  No byte carries
    into the next, because every field is at most d^l - 1 <= 255; the
    first l-1 bytes hold partial sums and are dropped.  On a long word
    at most four buffers of its length are alive at once: each is freed
    as soon as the next step no longer needs it.  A word's own bytes
    are read as they are, since bytes(b) is b.
    """
    n = len(letters)
    x = int.from_bytes(_circular(bytes(letters), l - 1), "big")
    y = x >> 8 * (l - 1)
    for j in range(l - 2, -1, -1):
        y *= d
        y += x >> 8 * j
    return y.to_bytes(n + l - 1, "big")[l - 1 :]


def _fits_a_byte(d: int, l: int) -> bool:
    """Whether every length-l factor code fits in one byte (d^l <= 256)."""
    return l <= 8 and d**l <= 256


@cache
def _factor_table(d: int, l: int) -> tuple[Letters, ...]:
    """The d^l words of length l in code order, so table[code] is the factor.

    Only called with d^l <= 256, so the cache stays small.
    """
    return tuple(itertools.product(range(d), repeat=l))


def _dense_counts(letters: Letters | bytes, d: int, l: int) -> list[int]:
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


#: A bytes.translate table taking each ASCII digit to its letter, 0..9,
#: and every other byte to 255: the letters a word's text may hold are
#: the ASCII digits only.
_FROM_DIGITS = bytes(b - 48 if 48 <= b <= 57 else 255 for b in range(256))


def _digits(text: str) -> bytes:
    """A string of ASCII digits as bytes, one letter a byte, by one bytes.translate."""
    if not isinstance(text, str):
        raise BadParameterError(f"a word must be a digit string, got {text!r}")
    # each non-ASCII character becomes one "?", so positions still match
    data = text.encode("ascii", "replace").translate(_FROM_DIGITS)
    bad = data.find(255)
    if bad >= 0:
        raise BadLetterError(f"letter {text[bad]!r} is not a digit")
    return data


def parse_word(text: str) -> Letters:
    """Parse a string of ASCII digits into a letter tuple."""
    return tuple(_digits(text))


def parse_circular(text: str, d: int | None = None) -> CircularWord:
    """Parse a digit string into a circular word over 0..d-1.

    The alphabet size is max digit + 1 (at least 2) unless d is given.
    The text becomes the word's bytes by one translate, and _word_data
    checks them against the alphabet: a non-digit is refused first,
    then the empty word, then d, then a letter outside 0..d-1.
    """
    data = _digits(text)
    if d is None:
        # max digit + 1, by one C-level search per digit, not a step per letter
        d = max(2, max(filter(data.__contains__, range(10)), default=0) + 1)
    return CircularWord._unchecked(_word_data(data, d), d)


def word_string(u: Letters | bytes) -> str:
    return "".join(str(a) for a in u)


def _as_letters(u: WordLike) -> Letters:
    """The one label parser: a digit string, or an iterable of ints, as letters."""
    if isinstance(u, str):
        return parse_word(u)
    letters = tuple(u) if isinstance(u, Iterable) else None
    if letters is None or not all(isinstance(a, int) for a in letters):
        raise BadParameterError(f"a word must be a digit string or integer letters, got {u!r}")
    return letters


def _occurrences(w: CircularWord, u: WordLike) -> tuple[bytes, bytes, int]:
    """The text and the factor that count_occurrences and occurrence_positions search.

    The one factor guard: w must be a CircularWord (check_word), and u
    is read by _as_letters and must be non-empty and over w's alphabet.
    When d^|u| <= 256 the text is w.codes(|u|) and the factor is u's
    code, one byte (its index in _factor_table).  Otherwise the text is
    the circular extension of w's letters by |u|-1 (_circular), and it
    and u are written as bytes, each letter as the same number of
    big-endian bytes (one when d <= 256).  Either text holds memory
    linear in n + |u|, not n·|u|.  Returns (text, factor, width), width
    the bytes per letter; a hit of the factor in the text is an
    occurrence exactly when it starts at a multiple of width.
    """
    check_word(w, "occurrence counting")
    u = _as_letters(u)
    if len(u) == 0:
        raise EmptyFactorError("occurrence counting needs a non-empty factor")
    Alphabet(w.d).validate(u)
    l = len(u)
    if _fits_a_byte(w.d, l):
        return w.codes(l), bytes([_factor_table(w.d, l).index(u)]), 1
    width = ((w.d - 1).bit_length() + 7) // 8
    ext = _circular(w._data, l - 1)
    if width == 1:
        return ext, bytes(u), 1
    text, factor = (b"".join(a.to_bytes(width, "big") for a in s) for s in (ext, u))
    return text, factor, width


def _hits(text: bytes, factor: bytes, width: int) -> Iterator[int]:
    """The occurrences in _occurrences' text, as letter positions, increasing.

    bytes.find steps from one hit to the next; a hit that starts inside
    a letter is skipped, so the positions are exact for every d.
    """
    i = text.find(factor)
    while i >= 0:
        if i % width == 0:
            yield i // width
        i = text.find(factor, i + 1)


def count_occurrences(w: CircularWord, u: WordLike) -> int:
    """Number of positions i in 0..n-1 at which u occurs in w (mod n).

    When u's code fits a byte, the factor is that one byte, which cannot
    overlap itself, so one bytes.count of w.codes(|u|) counts it.  The
    hits of a longer factor are stepped through one at a time.
    """
    text, factor, width = _occurrences(w, u)
    if len(factor) == 1:
        return text.count(factor)
    return sum(1 for _ in _hits(text, factor, width))


def occurrence_positions(w: CircularWord, u: WordLike) -> tuple[int, ...]:
    """The positions counted by count_occurrences, in increasing order."""
    return tuple(_hits(*_occurrences(w, u)))


@dataclass(frozen=True)
class OccurrenceVector:
    """Counts of every length-l factor in a circular word.

    Only factors that actually occur are stored; lookups of absent words
    return 0.  The counts always sum to the word length, since each of
    the n positions starts exactly one factor.
    """

    l: int
    counts: Mapping[Letters, int]

    def __getitem__(self, u: WordLike) -> int:
        u = _as_letters(u)
        if len(u) != self.l:
            raise BadParameterError(f"expected a factor of length {self.l}, got {u}")
        return self.counts.get(u, 0)


def occurrence_vector(w: CircularWord, l: int) -> OccurrenceVector:
    """Count every length-l factor of w in one scan, in first-occurrence order."""
    check_word(w, "occurrence_vector")
    check_length(l, "factor length")
    counts = dict(Counter(_windows(w._data, l)))
    return OccurrenceVector(l=l, counts=counts)


def mirror(u: WordLike) -> Letters:
    """The reversal of u, read by _as_letters."""
    return _as_letters(u)[::-1]


#: A bytes.translate table taking a length-3 factor code to 1 when its
#: middle letter is isolated (010 or 101), to 0 otherwise.
_ISOLATED = bytes(c in (0b010, 0b101) for c in range(256))

#: The maximal arcs of isolated letters in a string of isolated flags.
_ISOLATED_BLOCK = re.compile(rb"\x01+")


def _isolated_blocks(w: CircularWord) -> tuple[int, Iterator[re.Match[bytes]]]:
    """The anchor and the isolated blocks of a binary circular word, as matches.

    The isolated flags come from the length-3 factor codes in one
    bytes.translate and are rotated to start at the anchor, a letter
    that is not isolated; a match (first, end) of a run of flags is then
    the block of end - first letters from (anchor + first + 1) mod n.
    A word with no isolated letter, or with nothing else, gives none.
    """
    # flags[i] is the flag of letter i+1, the middle of the factor at i
    flags = w.codes(3).translate(_ISOLATED)
    anchor = flags.find(0)
    if anchor < 0 or 1 not in flags:
        return 0, iter(())
    return anchor, _ISOLATED_BLOCK.finditer(flags[anchor:] + flags[:anchor])


def decompose_blocks(w: CircularWord) -> tuple[tuple[int, Letters], ...]:
    """The anchored blocks of isolated letters of a binary circular word.

    A letter is isolated, a run of length 1, exactly when the length-3
    factor centred on it is 010 or 101.  A block is a maximal circular
    arc of isolated letters, which follows a run of length >= 2; each is
    one (start, letters) pair, sorted by start.  A word with no isolated
    letter, or with nothing else (fully alternating), has no anchored
    block and gives ().
    """
    check_word(w, "block decomposition")
    _require_binary(w.d, "block decomposition")
    data, n = w._data, w.n
    anchor, matches = _isolated_blocks(w)
    blocks = []
    for block in matches:
        first, end = block.span()
        start = (anchor + first + 1) % n
        stop = start + end - first
        arc = data[start:stop] if stop <= n else data[start:] + data[: stop - n]
        blocks.append((start, tuple(arc)))
    return tuple(sorted(blocks))


#: Words per chunk of _chunk_codes.  Past a few hundred words a chunk
#: saves no time, and its letters and buffers are the rank sample's
#: largest allocation: span_dimension(3, 3, 10) peaks near 1.6 MB with
#: 4096 words a chunk, near 0.1 MB with 256.
_BATCH = 1 << 8


def _chunk_codes(
    words: Iterable[Letters], d: int, lengths: Sequence[int]
) -> Iterator[tuple[list[bytes], list[bytes], int]]:
    """The words a chunk at a time, with one code buffer per length for the chunk.

    The one way to code many words of one length: every word of a chunk
    of _BATCH words must have the length n of its first.  Each word is
    written r = ceil((n + t)/n) times, t = max(lengths) - 1, into one
    buffer, every word stride = n·r bytes from the last, with no
    Python-level call per word, and one _codes scan per length codes the
    whole chunk.  Word i's first n codes of a scan, from i·stride, read
    only its own n + t letters, repeated, so they equal _codes(letters,
    d, l).  Yields one record per chunk, (data, buffers, stride): the
    words' letters as the bytes the buffer is written from, the scan of
    each length, in the given order, and the stride.  No word's codes
    are cut out here: enumerate_words cuts them for its words, and the
    rank sample tests a chunk's codes in place.  Every d^l must be at
    most 256.
    """
    tail = max(lengths) - 1
    words = iter(words)
    while chunk := list(map(bytes, itertools.islice(words, _BATCH))):
        n = len(chunk[0])
        r = -(-(n + tail) // n)
        buf = b"".join(map(operator.mul, chunk, itertools.repeat(r)))
        yield chunk, [_codes(buf, d, l) for l in lengths], n * r


#: The factor lengths whose codes enumerate_words makes for its words:
#: the ones grandsart_report (3 and 4) and verify_kirchhoff(w, 3) read.
_PREFILLED = (3, 4)


def enumerate_words(d: int, n: int) -> Iterator[CircularWord]:
    """All d^n circular words of length n, lexicographically.

    The alphabet is checked once; the words are built unchecked.  When
    every length-4 code fits a byte, _chunk_codes codes the words a
    chunk at a time, one scan per length in _PREFILLED, and each word
    of a chunk is built from the bytes the coder yields, its code
    strings, cut from the scans by one list of cuts per chunk, its code
    memo.
    """
    check_length(n, "word length")
    product = Alphabet(d).words(n)
    if not _fits_a_byte(d, max(_PREFILLED)):
        for data in map(bytes, product) if d <= 256 else product:
            yield CircularWord._unchecked(data, d)
        return
    for chunk, buffers, stride in _chunk_codes(product, d, _PREFILLED):
        # word i's code strings are n bytes from i·stride of each scan
        cuts = list(map(slice, range(0, len(buffers[0]), stride), itertools.count(n, stride)))
        strings = [map(codes.__getitem__, cuts) for codes in buffers]
        for data, codes in zip(chunk, zip(*strings)):
            yield CircularWord._unchecked(data, d, dict(zip(_PREFILLED, codes)))


def _necklaces(d: int, n: int) -> Iterator[Letters]:
    """The least rotation of each class of rotations of length n, increasing.

    One letter tuple per conjugacy class, d^n/n of them roughly instead
    of d^n, and no word built.  The prenecklace successor of
    Fredricksen, Kessler and Maiorana (Ruskey, Savage and Wang,
    J. Algorithms 1992) steps through the prenecklaces in lexicographic
    order: bump the last letter below d-1 at index p-1, then repeat the
    first p letters to length n.  p is the period of the new
    prenecklace, and it is a necklace exactly when p divides n.  The
    common step bumps the letter at index n-1: p is then n, and the
    letters are already their own repetition, so it is taken in place,
    with no scan and no rebuilt list.  The length and the alphabet are
    checked once, before the first necklace.
    """
    check_length(n, "word length")
    Alphabet(d)  # refuses d < 2 before the first necklace
    a = [0] * n
    p = 1
    top = d - 1
    while True:
        if n % p == 0:
            yield tuple(a)
        if a[-1] < top:
            a[-1] += 1
            p = n
            continue
        p = n - 1
        while p and a[p - 1] == top:
            p -= 1
        if not p:
            return
        a[p - 1] += 1
        a = (a[:p] * (n // p + 1))[:n]


def random_word(rng: Random, n: int) -> CircularWord:
    """A uniformly random binary circular word of length n (for seeded sweeps)."""
    _check_type(rng, Random, "random_word")
    if not isinstance(n, int):
        raise BadParameterError(f"word length must be an integer, got {n!r}")
    return CircularWord(tuple(rng.randrange(2) for _ in range(n)), 2)
