"""The four equal occurrence differences of a binary circular word.

For any binary circular word W the differences

    |W|_0011 - |W|_1100,  |W|_1101 - |W|_1011,
    |W|_1010 - |W|_0101,  |W|_0100 - |W|_0010

all take one common value k, the winding number of W: erasing from W's
closed De Bruijn path every length-4 factor outside these four mirror
pairs leaves a closed walk on a four-vertex cycle graph, and k is the
net number of oriented turns that walk makes.  The same k also falls
out of the run structure of W, via its blocks of isolated letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import debruijn
from .errors import BadParameterError, BrokenProjectionError
from .words import (
    CircularWord,
    Letters,
    WordLike,
    _as_letters,
    _check_type,
    _factor_table,
    _isolated_blocks,
    _require_binary,
    check_word,
    mirror,
    word_string,
)

#: What the binary-only functions here compute, for their word guard.
_INVARIANT = "the occurrence-difference invariant"


def _require_binary_word(w: CircularWord) -> None:
    """The guard of each function here: w must be a binary CircularWord."""
    check_word(w, _INVARIANT)
    _require_binary(w.d, _INVARIANT)


#: Orientation convention for the square graph: these four edges are the
#: quarter turns in the positive direction; their mirrors run backwards.
POSITIVE_EDGES: tuple[Letters, ...] = (
    (0, 0, 1, 1),
    (1, 1, 0, 1),
    (1, 0, 1, 0),
    (0, 1, 0, 0),
)
NEGATIVE_EDGES: tuple[Letters, ...] = tuple(mirror(e) for e in POSITIVE_EDGES)

#: The eight edges retained by the projection, and their four sources.
SQUARE_EDGES: frozenset[Letters] = frozenset(POSITIVE_EDGES + NEGATIVE_EDGES)
SQUARE_VERTICES: frozenset[Letters] = frozenset(e[:3] for e in SQUARE_EDGES)

#: The length-4 words in code order (CircularWord.codes): _EDGES[code] is the edge.
_EDGES = _factor_table(2, 4)

#: The code of each square edge and its epsilon: +1 on the positive
#: quarter turns, -1 on their mirrors.
_EPSILON: dict[int, int] = {
    **{_EDGES.index(e): +1 for e in POSITIVE_EDGES},
    **{_EDGES.index(e): -1 for e in NEGATIVE_EDGES},
}


SQUARE_SOURCE: dict[Letters, Letters] = {e: e[:3] for e in SQUARE_EDGES}

#: Where a square edge abcd lands on the square: the first square vertex
#: every walk on B(2,3) from its suffix bcd reaches.  The square
#: vertices are the length-3 words whose last two letters differ.  So
#: when c != d, bcd is one; otherwise each step from bcc appends a letter,
#: and the walk stays off the square while it repeats c, so every walk
#: first reaches the square at c c (1-c).
SQUARE_TARGET: dict[Letters, Letters] = {
    e: e[1:] if e[2] != e[3] else (e[2], e[2], 1 - e[2]) for e in SQUARE_EDGES
}

#: Every byte that is not the code of a square edge, for bytes.translate to delete.
_NOT_SQUARE = bytes(sorted(set(range(256)) - set(_EPSILON)))


def _vertex_table(vertex: Mapping[Letters, Letters]) -> bytes:
    """A bytes.translate table taking each square edge's code to its vertex's code."""
    table = bytearray(256)
    vertices = _factor_table(2, 3)
    for e, v in vertex.items():
        table[_EDGES.index(e)] = vertices.index(v)
    return bytes(table)


_SOURCE_CODE = _vertex_table(SQUARE_SOURCE)
_TARGET_CODE = _vertex_table(SQUARE_TARGET)


#: The codes of each positive edge and its mirror, in the difference order.
_PAIR_CODES = tuple((_EDGES.index(p), _EDGES.index(mirror(p))) for p in POSITIVE_EDGES)


def _diffs(codes: bytes) -> tuple[int, int, int, int]:
    """The four pair differences, counted from a word's length-4 factor codes."""
    diffs = (codes.count(p) - codes.count(q) for p, q in _PAIR_CODES)
    return tuple(diffs)  # type: ignore[return-value]


def grandsart_differences(w: CircularWord) -> tuple[int, int, int, int]:
    """The four pair differences of length-4 occurrence counts."""
    _require_binary_word(w)
    return _diffs(w.codes(4))


@dataclass(frozen=True)
class SquareProjection:
    """A word's closed De Bruijn path with non-square edges erased.

    The retained edges, in position order, walk the square graph; each
    carries epsilon +1 (positive quarter turn) or -1.  Their sum is a
    multiple of 4, four times the winding number.  It is also
    d1+d2+d3+d4, identically: the walk keeps every square edge, so each
    edge's count enters it once, with its pair's sign.  This record is
    for project_to_square; the report sums its diffs instead.
    """

    retained_edges: tuple[Letters, ...]
    epsilons: tuple[int, ...]

    @property
    def epsilon_sum(self) -> int:
        return sum(self.epsilons)


def _square_walk(codes: bytes) -> bytes:
    """The codes of the square edges of a closed path, in path order.

    codes holds the path's edges as length-4 factor codes (CircularWord.codes),
    and every other code is erased.  The retained edges must form a
    closed walk on the square graph (debruijn._walk_sources), and only
    when they do not is the walk followed to name the break.
    """
    retained = codes.translate(None, _NOT_SQUARE)
    if debruijn._walk_sources(retained, _SOURCE_CODE, _TARGET_CODE) is None:
        for e, nxt in zip(retained, retained[1:] + retained[:1]):
            if _TARGET_CODE[e] != _SOURCE_CODE[nxt]:
                raise BrokenProjectionError(
                    "square path breaks between "
                    f"{word_string(_EDGES[e])} and {word_string(_EDGES[nxt])}"
                )
    return retained


def _project(codes: bytes) -> SquareProjection:
    """The checked square walk of a closed path, as a record of edges and epsilons."""
    retained = _square_walk(codes)
    return SquareProjection(
        retained_edges=tuple(map(_EDGES.__getitem__, retained)),
        epsilons=tuple(map(_EPSILON.__getitem__, retained)),
    )


def _winding(epsilon_sum: int, w: CircularWord) -> int:
    """The epsilon sum of w's projection divided by 4, which it must divide."""
    if epsilon_sum % 4:
        raise BrokenProjectionError(
            f"epsilon sum {epsilon_sum} of {w} is not a multiple of 4"
        )
    return epsilon_sum // 4


def project_to_square(w: CircularWord) -> SquareProjection:
    """Erase all non-square edges from w's closed path and orient the rest."""
    _require_binary_word(w)
    return _project(w.codes(4))


def winding_number_graph(w: CircularWord) -> int:
    """Net turns of the projected path: its epsilon sum, d1+d2+d3+d4, divided by 4."""
    _require_binary_word(w)
    codes = w.codes(4)
    _square_walk(codes)
    return _winding(sum(_diffs(codes)), w)


def winding_number_decomposition(w: CircularWord) -> int:
    """The winding number read off the isolated-letter blocks.

    Counts even-length isolated blocks starting with 0 minus those
    starting with 1, over the blocks words._isolated_blocks finds in
    the length-3 factor codes.  A word with no isolated letter, or with
    nothing else (fully alternating), has no anchored block and winds
    zero times.
    """
    _require_binary_word(w)
    return _decomposition_winding(w)


def _decomposition_winding(w: CircularWord) -> int:
    """winding_number_decomposition of a word the caller has guarded."""
    data, n = w._data, w.n
    anchor, matches = _isolated_blocks(w)
    k = 0
    for block in matches:
        first, end = block.span()
        if (end - first) % 2 == 0:
            k += 1 - 2 * data[(anchor + first + 1) % n]
    return k


@dataclass(frozen=True)
class GrandsartReport:
    """The four differences and both winding computations for one word."""

    word: CircularWord
    diffs: tuple[int, int, int, int]
    k_graph: int
    k_decomposition: int

    @property
    def consistent(self) -> bool:
        k = self.k_graph
        return self.diffs == (k, k, k, k) and self.k_decomposition == k

    def to_dict(self) -> dict:
        d1, d2, d3, d4 = self.diffs
        return {
            "word": str(self.word),
            "d1": d1,
            "d2": d2,
            "d3": d3,
            "d4": d4,
            "k_graph": self.k_graph,
            "k_decomp": self.k_decomposition,
            "consistent": self.consistent,
        }


def grandsart_report(w: CircularWord) -> GrandsartReport:
    """The diffs and both winding numbers, read from factor codes alone.

    The diffs are counts of the length-4 factor codes, each square code
    counted once.  The square walk among the same codes is checked to
    close, and k_graph is then the quarter of d1+d2+d3+d4, the walk's
    epsilon sum (see SquareProjection); BrokenProjectionError is raised
    if the walk breaks or 4 does not divide the sum.  k_decomposition
    comes from the isolated-letter blocks, read off the length-3 factor
    codes.  No edge, run or block record is built.  Both code strings
    are the word's own (CircularWord.codes), made once and kept with
    it, so a flow check on the same word after the report makes neither
    again.
    """
    _require_binary_word(w)
    codes = w.codes(4)
    _square_walk(codes)
    diffs = _diffs(codes)
    return GrandsartReport(
        word=w,
        diffs=diffs,
        k_graph=_winding(sum(diffs), w),
        k_decomposition=_decomposition_winding(w),
    )


def square_graph_dot(highlight: Iterable[WordLike] | None = None) -> str:
    """DOT text of the four-vertex square graph with its eight edges."""
    labels = () if highlight is None else highlight
    _check_type(labels, Iterable, "an edge list")
    marked = {word_string(_as_square_edge(e)) for e in labels}
    nodes = sorted(word_string(v) for v in SQUARE_VERTICES)
    edges = sorted(
        (
            (word_string(SQUARE_SOURCE[e]), word_string(SQUARE_TARGET[e]), word_string(e))
            for e in SQUARE_EDGES
        ),
        key=lambda triple: triple[2],
    )
    return debruijn.render_dot(
        "square", nodes, edges, highlighted=marked, doubled=set(nodes)
    )


def _as_square_edge(e: WordLike) -> Letters:
    e = _as_letters(e)
    if e not in SQUARE_EDGES:
        raise BadParameterError(f"{word_string(e)} is not a square-graph edge")
    return e
