"""De Bruijn graphs: structure, word paths, flow law, trees, DOT export."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circwords import (
    CircularWord,
    SizeLimitError,
    build_graph,
    cyclomatic_number,
    enumerate_words,
    export_dot,
    is_spanning_tree,
    occurrence_vector,
    verify_kirchhoff,
    word_string,
)
from circwords import debruijn, invariants, words
from circwords.errors import BadParameterError
from conftest import binary_circular_words, cw, scan_count, u

# Adjacency of B(2,3): every edge runs from its length-3 prefix to its
# length-3 suffix, e.g. 1101 goes 110 -> 101.
FIGURE_B23_EDGES = {
    "0000": ("000", "000"),
    "0001": ("000", "001"),
    "0010": ("001", "010"),
    "0011": ("001", "011"),
    "0100": ("010", "100"),
    "0101": ("010", "101"),
    "0110": ("011", "110"),
    "0111": ("011", "111"),
    "1000": ("100", "000"),
    "1001": ("100", "001"),
    "1010": ("101", "010"),
    "1011": ("101", "011"),
    "1100": ("110", "100"),
    "1101": ("110", "101"),
    "1110": ("111", "110"),
    "1111": ("111", "111"),
}


class TestBuildGraph:
    def test_b23_shape(self):
        g = build_graph(2, 3)
        assert len(g.vertices) == 8
        assert len(g.edges) == 16

    def test_b23_adjacency_matches_figure(self):
        g = build_graph(2, 3)
        for e in g.edges:
            src, dst = FIGURE_B23_EDGES[word_string(e)]
            assert word_string(e[:-1]) == src
            assert word_string(e[1:]) == dst

    def test_smallest_graph(self):
        g = build_graph(2, 1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 4

    def test_ternary_graph(self):
        g = build_graph(3, 2)
        assert len(g.vertices) == 9
        assert len(g.edges) == 27

    def test_size_limit(self, monkeypatch):
        with pytest.raises(SizeLimitError):
            build_graph(2, 25)
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 64)
        build_graph(2, 5)
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 63)
        with pytest.raises(SizeLimitError):
            build_graph(2, 5)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_graph(1, 3)
        with pytest.raises(ValueError):
            build_graph(2, 0)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2)])
    def test_degrees_and_connectivity(self, d, n):
        g = build_graph(d, n)
        out_deg = Counter(e[:-1] for e in g.edges)
        in_deg = Counter(e[1:] for e in g.edges)
        assert all(out_deg[v] == d for v in g.vertices)
        assert all(in_deg[v] == d for v in g.vertices)
        assert cyclomatic_number(g) == d ** (n + 1) - d**n + 1


class TestPathOfWord:
    """A word's closed path on B(d,n): its length-n factors are the
    vertices, its length-(n+1) factors the edges, one of each per position."""

    def test_paper_word(self):
        w = cw("010011")
        assert [word_string(v) for v in w.factors(3)] == [
            "010", "100", "001", "011", "110", "101",
        ]
        assert [word_string(e) for e in w.factors(4)] == [
            "0100", "1001", "0011", "0110", "1101", "1010",
        ]

    def test_single_letter_loop(self):
        assert cw("0").factors(3) == [(0, 0, 0)]
        assert cw("0").factors(4) == [(0, 0, 0, 0)]

    def test_edge_multiset_is_occurrence_vector(self):
        w = cw("00101")
        edges = w.factors(4)
        assert len(edges) == 5
        assert Counter(edges) == occurrence_vector(w, 4).counts

    @given(binary_circular_words(max_n=24), st.integers(1, 3))
    def test_path_is_closed(self, w, n):
        graph_edges = set(build_graph(2, n).edges)
        vertices, edges = w.factors(n), w.factors(n + 1)
        m = len(edges)
        for i, e in enumerate(edges):
            assert e in graph_edges
            assert e[:-1] == vertices[i]
            assert e[1:] == vertices[(i + 1) % m]

    @given(binary_circular_words(max_n=24), st.integers(1, 3))
    def test_edge_multiset_property(self, w, n):
        assert Counter(w.factors(n + 1)) == occurrence_vector(w, n + 1).counts


def scanned_ok(report):
    """Reference for KirchhoffReport.ok: every residual on both sides is 0."""
    residuals = [*report.out_residuals.values(), *report.in_residuals.values()]
    return all(r == 0 for r in residuals)


class TestKirchhoff:
    def test_paper_vertex_101(self):
        w = cw("00101")
        ov3 = occurrence_vector(w, 3)
        ov4 = occurrence_vector(w, 4)
        assert ov3["101"] == 1
        assert ov4["1011"] + ov4["1010"] == 1
        assert ov4["0101"] + ov4["1101"] == 1
        assert verify_kirchhoff(w, 3).ok

    def test_prefix_suffix_identity(self):
        # |W|_0001 = |W|_1000 falls out of the vertex-000 relation
        for w in (cw("00101"), cw("010011"), cw("1000110")):
            ov4 = occurrence_vector(w, 4)
            assert ov4["0001"] == ov4["1000"]
            assert verify_kirchhoff(w, 3).ok

    def test_constant_word(self):
        report = verify_kirchhoff(cw("1111"), 3)
        assert report.ok
        assert report.violations() == []
        assert dict(occurrence_vector(cw("1111"), 3).counts) == {u("111"): 4}

    def test_residuals_match_direct_sums(self):
        w = cw("0100110")
        report = verify_kirchhoff(w, 2)
        for vertex in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c = scan_count(w, vertex)
            out_sum = sum(scan_count(w, vertex + (a,)) for a in (0, 1))
            in_sum = sum(scan_count(w, (a,) + vertex) for a in (0, 1))
            assert report.out_residuals[vertex] == c - out_sum == 0
            assert report.in_residuals[vertex] == c - in_sum == 0

    def test_clean_words_share_one_read_only_report(self):
        first, second = verify_kirchhoff(cw("00101"), 3), verify_kirchhoff(cw("0110"), 3)
        assert first is second
        zeros = dict.fromkeys(itertools.product(range(2), repeat=3), 0)
        assert list(first.out_residuals.items()) == list(zeros.items())
        assert list(first.in_residuals.items()) == list(zeros.items())
        for residuals in (first.out_residuals, first.in_residuals):
            with pytest.raises(TypeError):
                residuals[(0, 0, 0)] = 1
        assert verify_kirchhoff(cw("0"), 3) is first
        assert verify_kirchhoff(cw("0"), 2) is not first

    def test_miscounted_vertex_shows_in_both_residuals(self, monkeypatch):
        # the vertex codes are made from the letters, not cut from the
        # edge codes, so a wrong vertex code breaks both comparisons and
        # shows up on both sides: 010011's vertex 100 is read as 010
        made = words._codes

        def miscoded(letters, d, l):
            codes = made(letters, d, l)
            return codes.replace(bytes([0b100]), bytes([0b010])) if l == 3 else codes

        monkeypatch.setattr(words, "_codes", miscoded)
        report = verify_kirchhoff(cw("010011"), 3)
        assert not report.ok
        assert report.ok == scanned_ok(report)
        for residuals in (report.out_residuals, report.in_residuals):
            with pytest.raises(TypeError):
                residuals[u("010")] = 0
        assert report.violations() == [
            ("out", u("010"), 1),
            ("out", u("100"), -1),
            ("in", u("010"), 1),
            ("in", u("100"), -1),
        ]

    @pytest.mark.parametrize(
        "read_as, violations",
        [
            # 0011 read as 0010 keeps its source 001: only the suffix
            # comparison sees it, as 010 gaining an in-edge and 011 losing one
            ("0010", [("in", u("010"), -1), ("in", u("011"), 1)]),
            # read as 1011 it keeps its target 011: only the prefix comparison
            ("1011", [("out", u("001"), 1), ("out", u("101"), -1)]),
        ],
    )
    def test_miscoded_edge_shows_on_one_side(self, read_as, violations, monkeypatch):
        made = words._codes
        wrong = bytes([int(read_as, 2)])

        def miscoded(letters, d, l):
            codes = made(letters, d, l)
            return codes.replace(bytes([0b0011]), wrong) if l == 4 else codes

        monkeypatch.setattr(words, "_codes", miscoded)
        assert verify_kirchhoff(cw("010011"), 3).violations() == violations

    @given(binary_circular_words(max_n=32), st.integers(1, 4))
    def test_always_holds(self, w, n):
        report = verify_kirchhoff(w, n)
        assert report.ok
        assert scanned_ok(report)

    @given(st.data())
    def test_residuals_match_the_per_vertex_loop(self, data):
        # arbitrary dense counts, so the residuals are not all zero; the
        # reference is the per-vertex loop the slice sums replaced
        d, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
        vertices = list(itertools.product(range(d), repeat=n))
        edges = list(itertools.product(range(d), repeat=n + 1))
        counts = lambda k: st.lists(st.integers(0, 9), min_size=k, max_size=k)
        short = data.draw(counts(len(vertices)))
        long = data.draw(counts(len(edges)))
        at = dict(zip(edges, long))
        out_ref, in_ref = {}, {}
        for v, c in zip(vertices, short):
            out_ref[v] = c - sum(at[v + (a,)] for a in range(d))
            in_ref[v] = c - sum(at[(a,) + v] for a in range(d))
        out_res, in_res = debruijn._flow_residuals(d, n, short, long)
        assert list(out_res.items()) == list(out_ref.items())
        assert list(in_res.items()) == list(in_ref.items())

    @given(st.data())
    def test_code_route_matches_the_occurrence_vectors(self, data):
        # d^(n+1) on both sides of 256: (2,8), (3,5) and (4,4) count
        # windows, the rest byte codes
        d = data.draw(st.integers(2, 4))
        lengths = {2: [1, 3, 7, 8], 3: [1, 2, 4, 5], 4: [1, 2, 3, 4]}
        n = data.draw(st.sampled_from(lengths[d]))
        letters = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=40))
        w = CircularWord(tuple(letters), d)
        short = occurrence_vector(w, n)
        long = occurrence_vector(w, n + 1)
        out_ref, in_ref = {}, {}
        for v in itertools.product(range(d), repeat=n):
            out_ref[v] = short[v] - sum(long[v + (a,)] for a in range(d))
            in_ref[v] = short[v] - sum(long[(a,) + v] for a in range(d))
        report = verify_kirchhoff(w, n)
        assert list(report.out_residuals.items()) == list(out_ref.items())
        assert list(report.in_residuals.items()) == list(in_ref.items())
        # the string comparison's report equals the counted route's
        counts = words._dense_counts(w.letters, d, n)
        edges = words._dense_counts(w.letters, d, n + 1)
        out_res, in_res = debruijn._flow_residuals(d, n, counts, edges)
        assert list(report.out_residuals.items()) == list(out_res.items())
        assert list(report.in_residuals.items()) == list(in_res.items())

    def test_size_limit(self, monkeypatch):
        # refused before any residual is computed, like build_graph
        with pytest.raises(SizeLimitError):
            verify_kirchhoff(cw("01"), 40)
        with pytest.raises(SizeLimitError):
            verify_kirchhoff(cw("01"), 20)
        with pytest.raises(SizeLimitError):
            verify_kirchhoff(cw("012"), 12)
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 64)
        assert len(verify_kirchhoff(cw("0100110"), 5).out_residuals) == 32
        with pytest.raises(SizeLimitError):
            verify_kirchhoff(cw("0100110"), 6)
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 63)
        with pytest.raises(SizeLimitError):
            verify_kirchhoff(cw("0100110"), 5)

    def test_exhaustive_small(self):
        for n in range(1, 11):
            for w in enumerate_words(2, n):
                for m in (1, 2, 3):
                    assert verify_kirchhoff(w, m).ok


def walk_sources_by_edge(edges, source, target):
    """Reference: the target of edge i against the source of edge i+1 mod len."""
    for i, e in enumerate(edges):
        if target[e] != source[edges[(i + 1) % len(edges)]]:
            return None
    return bytes(source[e] for e in edges)


class TestWalkSources:
    @settings(max_examples=400)
    @given(st.data())
    def test_matches_the_per_edge_loop(self, data):
        # the edge tables of B(d,n) with d^(n+1) <= 256, and the square
        # graph's tables on the square edges a binary word's walk keeps
        if data.draw(st.booleans(), label="square"):
            letters = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
            codes = words._codes(tuple(letters), 2, 4).translate(None, invariants._NOT_SQUARE)
            source, target = invariants._SOURCE_CODE, invariants._TARGET_CODE
        else:
            d = data.draw(st.integers(2, 4), label="d")
            n = data.draw(st.integers(1, {2: 7, 3: 4, 4: 3}[d]), label="n")
            letters = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=40))
            codes = words._codes(tuple(letters), d, n + 1)
            source, target = debruijn._end_tables(d, n)
        faulty = bool(codes) and data.draw(st.booleans(), label="fault")
        if faulty:
            i = data.draw(st.integers(0, len(codes) - 1), label="position")
            code = data.draw(st.integers(0, 255), label="code")
            codes = codes[:i] + bytes([code]) + codes[i + 1 :]
        sources = debruijn._walk_sources(codes, source, target)
        assert sources == walk_sources_by_edge(codes, source, target)
        # a word's own edges always close their walk
        assert faulty or sources is not None

    @settings(max_examples=400)
    @given(st.data())
    def test_block_form_closes_exactly_when_every_string_does(self, data):
        # a chunk of 1-20 code strings of one length on B(d,n), with
        # d^(n+1) <= 256, one of them with a faulty byte or none
        d = data.draw(st.integers(2, 4), label="d")
        n = data.draw(st.integers(1, {2: 7, 3: 4, 4: 3}[d]), label="n")
        size = data.draw(st.integers(1, 20), label="size")
        word = st.lists(st.integers(0, d - 1), min_size=size, max_size=size).map(tuple)
        letters = data.draw(st.lists(word, min_size=1, max_size=20), label="words")
        chunk = [bytearray(words._codes(a, d, n + 1)) for a in letters]
        if data.draw(st.booleans(), label="fault"):
            j = data.draw(st.integers(0, len(chunk) - 1), label="string")
            i = data.draw(st.integers(0, size - 1), label="position")
            chunk[j][i] = data.draw(st.integers(0, 255), label="code")
        chunk = list(map(bytes, chunk))
        joined = b"".join(chunk)
        source, target = debruijn._end_tables(d, n)
        each = [debruijn._walk_sources(codes, source, target) for codes in chunk]
        block = debruijn._walk_sources(joined, source, target, size)
        assert (block is not None) == all(s is not None for s in each)
        if block is not None:
            assert block == b"".join(each)
        # without n the joined strings are one walk, decided as before
        whole = debruijn._walk_sources(joined, source, target)
        assert whole == walk_sources_by_edge(joined, source, target)


class TestBalance:
    @settings(max_examples=400)
    @given(st.data())
    def test_sparse_and_dense_rows_obey_the_law_as_the_slice_sums_say(self, data):
        # a word's rows of edge counts on B(d,n), some with one count
        # changed, decided on their nonzero entries, and by the reference:
        # the residuals the report gives from the dense row, each vertex's
        # count less its out-sum and less its in-sum, agree
        d = data.draw(st.integers(2, 4), label="d")
        n = data.draw(st.integers(0, {2: 8, 3: 5, 4: 4}[d]), label="n")
        letters = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=30))
        row = words._dense_counts(tuple(letters), d, n + 1)
        if data.draw(st.booleans(), label="fault"):
            i = data.draw(st.integers(0, len(row) - 1), label="edge")
            row[i] += data.draw(st.sampled_from([-1, 1, 2]), label="change")
        counts = words._dense_counts(tuple(letters), d, n) if n else [len(letters)]
        out_res, in_res = debruijn._flow_residuals(d, n, counts, row)
        law = out_res == in_res
        sparse = [(e, c) for e, c in enumerate(row) if c]
        assert debruijn._balanced(sparse, d, d**n) is law


class TestGraphGuard:
    """A graph argument that is not a DeBruijnGraph, or labels that are not
    iterable, are refused before anything is read from them."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cyclomatic_number(None),
            lambda: export_dot(5),
            lambda: is_spanning_tree(build_graph(2, 3), 5),
            lambda: export_dot(build_graph(2, 3), highlight=5),
        ],
        ids=["cyclomatic_number", "export_dot", "is_spanning_tree-labels", "export_dot-highlight"],
    )
    def test_refused_as_a_bad_parameter(self, call):
        with pytest.raises(BadParameterError):
            call()


class TestCycleSpace:
    def test_cyclomatic_numbers(self):
        assert cyclomatic_number(build_graph(2, 3)) == 9
        assert cyclomatic_number(build_graph(2, 1)) == 3
        assert cyclomatic_number(build_graph(3, 1)) == 7

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_formula(self, d, n):
        assert cyclomatic_number(build_graph(d, n)) == d ** (n + 1) - d**n + 1


class TestSpanningTree:
    def test_the_seven_1v_words(self):
        g = build_graph(2, 3)
        tree = ["1000", "1001", "1010", "1011", "1100", "1101", "1110"]
        assert is_spanning_tree(g, tree)

    def test_empty_set(self):
        assert not is_spanning_tree(build_graph(2, 3), [])

    def test_all_edges(self):
        g = build_graph(2, 3)
        assert not is_spanning_tree(g, [word_string(e) for e in g.edges])

    def test_right_size_but_cyclic(self):
        g = build_graph(2, 3)
        # 7 edges, but 0000 is a loop
        assert not is_spanning_tree(
            g, ["0000", "1001", "1010", "1011", "1100", "1101", "1110"]
        )

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            is_spanning_tree(build_graph(2, 3), ["11111"])


class TestDotExport:
    def test_smallest_graph_statements(self):
        text = export_dot(build_graph(2, 1))
        node_lines = [l for l in text.splitlines() if l.strip().startswith('"') and "->" not in l]
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(node_lines) == 2
        assert len(edge_lines) == 4
        assert all("label=" in l for l in edge_lines)

    def test_deterministic(self):
        g = build_graph(2, 3)
        a = export_dot(g, highlight=["0100"])
        b = export_dot(g, highlight=["0100"])
        assert a == b

    def test_highlighting_a_path(self):
        g = build_graph(2, 3)
        text = export_dot(g, highlight=cw("010011").factors(4))
        assert sum("style=bold" in l for l in text.splitlines()) == 6

    def test_edges_in_label_order(self):
        text = export_dot(build_graph(2, 2))
        labels = [l.split('label="')[1][:3] for l in text.splitlines() if "->" in l]
        assert labels == sorted(labels)
