"""De Bruijn graphs B(d,n) and the flow law of a circular word's closed path.

Vertices are the d^n words of length n, edges the d^(n+1) words of
length n+1; an edge runs from its length-n prefix to its length-n
suffix.  The occurrence counts of a circular word satisfy a flow
conservation law at every vertex: each occurrence of a length-n factor
extends uniquely one letter to the left and one to the right, so the
vertex count equals the sum of its out-edge counts and the sum of its
in-edge counts.  Every flow-law decision is made here, on the codes
and rows the caller gives: on code strings by one closed-walk test,
_walk_sources, and on (edge code, count) pairs by one balance test,
_balanced.  verify_kirchhoff compares the walk's sources with the word's
vertex codes and counts residuals only to name a violation.  The rank
sample in span asks _cyclomatic for its bound and _balanced for the
rows that certify it, of either sample, each a word's nonzero edge
counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BadParameterError
from .words import (
    Alphabet,
    CircularWord,
    Letters,
    WordLike,
    _as_letters,
    _check_type,
    _dense_counts,
    _factor_table,
    _fits_a_byte,
    check_length,
    check_size,
    check_word,
    word_string,
)


@dataclass(frozen=True)
class DeBruijnGraph:
    """The graph B(d,n): word-vertices of length n, word-edges of length n+1."""

    d: int
    n: int
    vertices: tuple[Letters, ...]
    edges: tuple[Letters, ...]


def build_graph(d: int, n: int) -> DeBruijnGraph:
    """Construct B(d,n), refusing sizes whose edge count exceeds the cap."""
    alphabet = Alphabet(d)
    check_length(n, "vertex word length")
    check_size(d, n + 1, "edges")
    return DeBruijnGraph(
        d=d,
        n=n,
        vertices=tuple(alphabet.words(n)),
        edges=tuple(alphabet.words(n + 1)),
    )


@dataclass(frozen=True)
class KirchhoffReport:
    """Per-vertex flow residuals of the occurrence counts of one word.

    out_residual(U) = |W|_U - sum_a |W|_{Ua}
    in_residual(U)  = |W|_U - sum_a |W|_{aU}

    Both vanish identically for every circular word; nonzero entries are
    kept so a violation pinpoints the offending vertex.  The residuals
    are read-only mappings (types.MappingProxyType), so a report can be
    shared: every clean word of one B(d,n) checked on its codes gets
    the same report, whose two mappings are one view of a dict of
    zeros.  ok is computed once per report.
    """

    out_residuals: Mapping[Letters, int]
    in_residuals: Mapping[Letters, int]

    @cached_property
    def ok(self) -> bool:
        return not any(self.out_residuals.values()) and not any(
            self.in_residuals.values()
        )

    def violations(self) -> list[tuple[str, Letters, int]]:
        out = [("out", u, r) for u, r in self.out_residuals.items() if r]
        out += [("in", u, r) for u, r in self.in_residuals.items() if r]
        return out


def verify_kirchhoff(w: CircularWord, n: int) -> KirchhoffReport:
    """Flow residuals of w at every length-n vertex.

    Like build_graph, refuses a B(d,n) whose d^(n+1) edges exceed the
    cap, on every call, since every vertex gets a residual.  When
    d^(n+1) <= 256 the law is decided on w's factor codes
    (CircularWord.codes): the edge at position i runs from the vertex
    at i to the vertex at i+1, so when the edges form a closed walk
    (_walk_sources) whose sources are the vertex codes, every vertex
    has as many out-edges and in-edges as occurrences and every
    residual is 0.  Such a word gets the one shared clean report of
    B(d,n) (_code_check), built once and read-only, so a clean word
    costs no allocation.  The vertex codes are made from the letters,
    not from the edges, so a miscounted vertex breaks the comparison.
    Only when it fails, or the codes do not fit a byte, are the vertex
    and the edge counts counted from w, as dense lists in lexicographic
    order, to name the residuals in a report of w's own.
    """
    check_word(w, "verify_kirchhoff")
    check_length(n, "vertex word length")
    d = w.d
    check_size(d, n + 1, "edges")
    if _fits_a_byte(d, n + 1):
        source, target, clean = _code_check(d, n)
        if _walk_sources(w.codes(n + 1), source, target) == w.codes(n):
            return clean
    counts = _dense_counts(w._data, d, n)
    edges = _dense_counts(w._data, d, n + 1)
    out_res, in_res = _flow_residuals(d, n, counts, edges)
    return KirchhoffReport(
        out_residuals=MappingProxyType(out_res), in_residuals=MappingProxyType(in_res)
    )


@cache
def _code_check(d: int, n: int) -> tuple[bytes, bytes, KirchhoffReport]:
    """What verify_kirchhoff decides B(d,n) on codes with: its two
    _end_tables, and the clean report every word that passes shares.

    Both residuals of the clean report are one read-only view of a dict
    that maps each vertex, in lexicographic order, to 0.  Only called
    with d^(n+1) <= 256, so the cache stays small.
    """
    zeros = MappingProxyType(dict.fromkeys(_factor_table(d, n), 0))
    return (*_end_tables(d, n), KirchhoffReport(out_residuals=zeros, in_residuals=zeros))


@cache
def _end_tables(d: int, n: int) -> tuple[bytes, bytes]:
    """bytes.translate tables taking an edge code of B(d,n) to the code of
    its source (its prefix) and of its target (its suffix).

    Only called with d^(n+1) <= 256, so the cache stays small.
    """
    size = d**n
    return bytes(c // d for c in range(256)), bytes(c % size for c in range(256))


def _walk_sources(edges: bytes, source: bytes, target: bytes) -> bytes | None:
    """The source codes of the edges when they form a closed walk, else None.

    source and target are bytes.translate tables from an edge code to
    its source and its target vertex code.  The walk closes when each
    edge's target is the next edge's source, the last edge's the first's;
    it then enters each vertex as often as it leaves it.
    """
    sources = edges.translate(source)
    if edges.translate(target) == sources[1:] + sources[:1]:
        return sources
    return None


def _balanced(counts: Iterable[tuple[int, int]], d: int, vertices: int) -> bool:
    """Whether (edge code, count) pairs obey the law: edge e of B(d,n) runs e // d -> e % d^n."""
    balance: dict[int, int] = {}
    for e, c in counts:
        balance[e // d] = balance.get(e // d, 0) + c
        balance[e % vertices] = balance.get(e % vertices, 0) - c
    return not any(balance.values())


def _flow_residuals(
    d: int, n: int, counts: Sequence[int], edges: Sequence[int]
) -> tuple[dict[Letters, int], dict[Letters, int]]:
    """Out- and in-residuals of every length-n vertex, lexicographically.

    counts holds the d^n vertex counts and edges the d^(n+1) edge
    counts, each in lexicographic order.  The vertex counts are used as
    given, not taken as marginals of the edges, so a miscounted vertex
    shows on both sides.
    """
    out_sums, in_sums = _edge_sums(d, edges)
    vertices = tuple(product(range(d), repeat=n))
    out_res = dict(zip(vertices, map(operator.sub, counts, out_sums)))
    in_res = dict(zip(vertices, map(operator.sub, counts, in_sums)))
    return out_res, in_res


def _edge_sums(d: int, edges: Sequence[int]) -> tuple[Iterator[int], Iterator[int]]:
    """The out-sums and the in-sums of every vertex, lexicographically.

    edges holds the d^(n+1) edge counts of B(d,n) in lexicographic
    order.  Vertex i's out-edges ua sit at i·d + a, so the out-sums are
    the sum of the d strided slices edges[a::d]; its in-edges au sit at
    a·d^n + i, so the in-sums are the sum of the d blocks of d^n edges.
    Both are lazy, summed in C as they are read.
    """
    size = len(edges) // d
    add = partial(map, operator.add)
    out_sums = reduce(add, (edges[a::d] for a in range(d)))
    in_sums = reduce(add, (edges[a * size : (a + 1) * size] for a in range(d)))
    return out_sums, in_sums


def _undirected_components(
    vertices: Sequence[Letters], edges: Iterable[Letters]
) -> int:
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in edges:
        a, b = find(index[e[:-1]]), find(index[e[1:]])
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(len(vertices))})


def _cyclomatic(d: int, n: int) -> int:
    """d^(n+1) - d^n + c, the dimension of B(d,n)'s cycle space; the caller caps d^(n+1).

    Every row of edge counts that obeys the flow law lies in that space.
    """
    vertices = tuple(product(range(d), repeat=n))
    edges = product(range(d), repeat=n + 1)
    return d ** (n + 1) - len(vertices) + _undirected_components(vertices, edges)


def cyclomatic_number(g: DeBruijnGraph) -> int:
    """edges - vertices + components: the dimension of the cycle space."""
    _check_type(g, DeBruijnGraph, "cyclomatic_number")
    return _cyclomatic(g.d, g.n)


def is_spanning_tree(g: DeBruijnGraph, edge_labels: Iterable[WordLike]) -> bool:
    """Whether the labelled edges form a spanning tree of the undirected graph.

    With |vertices| - 1 edges, connected implies acyclic; a loop or a
    repeated edge wastes one of them and leaves the graph disconnected.
    """
    _check_type(g, DeBruijnGraph, "is_spanning_tree")
    labels = _as_edges(g, edge_labels)
    return (
        len(labels) == len(g.vertices) - 1
        and _undirected_components(g.vertices, labels) == 1
    )


def _as_edges(g: DeBruijnGraph, labels: Iterable[WordLike]) -> list[Letters]:
    """Each label as letters, if it is an edge of g."""
    _check_type(labels, Iterable, "an edge list")
    edges = []
    for e in map(_as_letters, labels):
        if len(e) != g.n + 1 or any(not 0 <= a < g.d for a in e):
            raise BadParameterError(f"{word_string(e)} is not an edge of B({g.d},{g.n})")
        edges.append(e)
    return edges


def render_dot(
    name: str,
    nodes: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    highlighted: frozenset[str] | set[str] = frozenset(),
    doubled: frozenset[str] | set[str] = frozenset(),
) -> str:
    """Serialize a labelled digraph to DOT text, byte-deterministically.

    edges are (source, target, label) triples, emitted in the given
    order; highlighted labels get a bold red style, doubled node names a
    double circle.
    """
    lines = [f'digraph "{name}" {{', "  node [shape=circle];"]
    for v in nodes:
        shape = " [shape=doublecircle]" if v in doubled else ""
        lines.append(f'  "{v}"{shape};')
    for src, dst, label in edges:
        attrs = f'label="{label}"'
        if label in highlighted:
            attrs += ", style=bold, color=red"
        lines.append(f'  "{src}" -> "{dst}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(g: DeBruijnGraph, highlight: Iterable[WordLike] | None = None) -> str:
    """DOT text for g, vertices and edges in lexicographic label order."""
    _check_type(g, DeBruijnGraph, "export_dot")
    marked = set(map(word_string, _as_edges(g, () if highlight is None else highlight)))
    nodes = [word_string(v) for v in g.vertices]
    edges = [
        (word_string(e[:-1]), word_string(e[1:]), word_string(e)) for e in g.edges
    ]
    return render_dot(f"B({g.d},{g.n})", nodes, edges, highlighted=marked)
