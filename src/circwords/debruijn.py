"""De Bruijn graphs B(d,n) and the closed path traced by a circular word.

Vertices are the d^n words of length n, edges the d^(n+1) words of
length n+1; an edge runs from its length-n prefix to its length-n
suffix.  The occurrence counts of a circular word satisfy a flow
conservation law at every vertex: each occurrence of a length-n factor
extends uniquely one letter to the left and one to the right, so the
vertex count equals the sum of its out-edge counts and the sum of its
in-edge counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import AlphabetMismatchError, BadParameterError
from .words import (
    Alphabet,
    CircularWord,
    Letters,
    WordLike,
    _dense_counts,
    check_size,
    parse_word,
    word_string,
)


@dataclass(frozen=True)
class DeBruijnGraph:
    """The graph B(d,n): word-vertices of length n, word-edges of length n+1."""

    d: int
    n: int
    vertices: tuple[Letters, ...]
    edges: tuple[Letters, ...]

    @staticmethod
    def source(edge: Letters) -> Letters:
        return edge[:-1]

    @staticmethod
    def target(edge: Letters) -> Letters:
        return edge[1:]


def build_graph(d: int, n: int) -> DeBruijnGraph:
    """Construct B(d,n), refusing sizes whose edge count exceeds the cap."""
    if d < 2:
        raise BadParameterError(f"alphabet needs at least 2 letters, got d={d}")
    if n < 1:
        raise BadParameterError(f"vertex word length must be >= 1, got n={n}")
    check_size(d, n + 1, "edges")
    alphabet = Alphabet(d)
    return DeBruijnGraph(
        d=d,
        n=n,
        vertices=tuple(alphabet.words(n)),
        edges=tuple(alphabet.words(n + 1)),
    )


@dataclass(frozen=True)
class ClosedPath:
    """The closed walk a circular word traces on B(d,n).

    vertices[i] is the length-n factor at position i, edges[i] the
    length-(n+1) factor at position i; edges[i] runs from vertices[i]
    to vertices[(i+1) mod n].
    """

    n: int
    vertices: tuple[Letters, ...]
    edges: tuple[Letters, ...]


def path_of_word(g: DeBruijnGraph, w: CircularWord) -> ClosedPath:
    """The closed path of w on g: one vertex and one edge per position."""
    if w.d != g.d:
        raise AlphabetMismatchError(f"word has d={w.d}, graph has d={g.d}")
    return ClosedPath(n=g.n, vertices=tuple(w.factors(g.n)), edges=tuple(w.factors(g.n + 1)))


@dataclass(frozen=True)
class KirchhoffReport:
    """Per-vertex flow residuals of the occurrence counts of one word.

    out_residual(U) = |W|_U - sum_a |W|_{Ua}
    in_residual(U)  = |W|_U - sum_a |W|_{aU}

    Both vanish identically for every circular word; nonzero entries are
    kept so a violation pinpoints the offending vertex.
    """

    n: int
    out_residuals: Mapping[Letters, int]
    in_residuals: Mapping[Letters, int]

    @property
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
    cap, since every vertex gets a residual.  The vertex and the edge
    counts are both counted from w, as dense lists in lexicographic
    order.
    """
    if n < 1:
        raise BadParameterError(f"vertex word length must be >= 1, got n={n}")
    d = w.d
    check_size(d, n + 1, "edges")
    counts = _dense_counts(w.letters, d, n)
    edges = _dense_counts(w.letters, d, n + 1)
    out_res, in_res = _flow_residuals(d, n, counts, edges)
    return KirchhoffReport(n=n, out_residuals=out_res, in_residuals=in_res)


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


def connected_components(g: DeBruijnGraph) -> int:
    """Number of weakly connected components (1 for every B(d,n))."""
    return _undirected_components(g.vertices, g.edges)


def cyclomatic_number(g: DeBruijnGraph) -> int:
    """edges - vertices + components: the dimension of the cycle space."""
    return len(g.edges) - len(g.vertices) + connected_components(g)


def is_spanning_tree(g: DeBruijnGraph, edge_labels: Iterable[WordLike]) -> bool:
    """Whether the labelled edges form a spanning tree of the undirected graph.

    With |vertices| - 1 edges, connected implies acyclic; a loop or a
    repeated edge wastes one of them and leaves the graph disconnected.
    """
    labels = [_as_edge(g, e) for e in edge_labels]
    return (
        len(labels) == len(g.vertices) - 1
        and _undirected_components(g.vertices, labels) == 1
    )


def _as_edge(g: DeBruijnGraph, e: WordLike) -> Letters:
    e = parse_word(e) if isinstance(e, str) else tuple(e)
    if len(e) != g.n + 1 or any(not 0 <= a < g.d for a in e):
        raise BadParameterError(f"{word_string(e)} is not an edge of B({g.d},{g.n})")
    return e


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


Highlight = Union[ClosedPath, Iterable[WordLike], None]


def export_dot(
    g: DeBruijnGraph,
    highlight: Highlight = None,
    doubled_vertices: Iterable[WordLike] = (),
) -> str:
    """DOT text for g, vertices and edges in lexicographic label order."""
    if isinstance(highlight, ClosedPath):
        marked = {word_string(e) for e in highlight.edges}
    elif highlight is None:
        marked = set()
    else:
        marked = {word_string(_as_edge(g, e)) for e in highlight}
    doubled = {word_string(_as_edge_or_vertex(g, v)) for v in doubled_vertices}
    nodes = [word_string(v) for v in g.vertices]
    edges = [
        (word_string(e[:-1]), word_string(e[1:]), word_string(e)) for e in g.edges
    ]
    return render_dot(f"B({g.d},{g.n})", nodes, edges, highlighted=marked, doubled=doubled)


def _as_edge_or_vertex(g: DeBruijnGraph, v: WordLike) -> Letters:
    v = parse_word(v) if isinstance(v, str) else tuple(v)
    if len(v) != g.n or any(not 0 <= a < g.d for a in v):
        raise BadParameterError(f"{word_string(v)} is not a vertex of B({g.d},{g.n})")
    return v
