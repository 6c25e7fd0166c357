"""The equal-differences invariant, both winding computations, classification."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circwords import (
    BrokenProjectionError,
    decompose_blocks,
    enumerate_words,
    grandsart_differences,
    grandsart_report,
    mirror,
    project_to_square,
    winding_number_decomposition,
    winding_number_graph,
    word_string,
)
from circwords import debruijn, invariants, words
from circwords.errors import BadParameterError
from circwords.invariants import (
    NEGATIVE_EDGES,
    POSITIVE_EDGES,
    SQUARE_EDGES,
    SQUARE_SOURCE,
    SQUARE_TARGET,
    SQUARE_VERTICES,
    GrandsartReport,
    SquareProjection,
    square_graph_dot,
)
from conftest import binary_circular_words, cw, u, words_and_families


def edge_codes(*edges: str) -> bytes:
    """Length-4 binary edges as factor codes: each edge read as a binary number."""
    return bytes(int(e, 2) for e in edges)


def classify_length4():
    """The 16 binary words of length 4, split from first principles.

    Palindromes drop out first.  Of the six remaining mirror pairs, the
    two holding a run of three equal letters have trivially equal
    counts, and the other four carry the invariant.  Each pair is
    (word, mirror) with the word the larger, and the pairs are sorted.
    """
    all4 = set(itertools.product((0, 1), repeat=4))
    palindromes = {w for w in all4 if w == w[::-1]}
    run3 = {w for w in all4 if w[0] == w[1] == w[2] or w[1] == w[2] == w[3]}
    pairs = lambda part: [(w, w[::-1]) for w in sorted({max(w, w[::-1]) for w in part})]
    return palindromes, pairs(run3 - palindromes), pairs(all4 - palindromes - run3)


class TestClassification:
    def test_palindromes(self):
        palindromes, _, _ = classify_length4()
        got = {word_string(p) for p in palindromes}
        assert got == {"1111", "1001", "0110", "0000"}

    def test_run_pairs(self):
        _, run_pairs, _ = classify_length4()
        got = [tuple(map(word_string, p)) for p in run_pairs]
        assert got == [("1000", "0001"), ("1110", "0111")]

    def test_grandsart_pairs_in_difference_order(self):
        # the four pairs left over are the square edges, and in the order
        # of the differences d1..d4 they are POSITIVE_EDGES and their mirrors
        _, _, grandsart_pairs = classify_length4()
        assert {e for pair in grandsart_pairs for e in pair} == SQUARE_EDGES
        assert {frozenset(pair) for pair in grandsart_pairs} == {
            frozenset((p, mirror(p))) for p in POSITIVE_EDGES
        }
        got = [(word_string(p), word_string(mirror(p))) for p in POSITIVE_EDGES]
        assert got == [
            ("0011", "1100"),
            ("1101", "1011"),
            ("1010", "0101"),
            ("0100", "0010"),
        ]

    def test_parts_partition_all_16_words(self):
        palindromes, run_pairs, grandsart_pairs = classify_length4()
        words = set(palindromes)
        for a, b in run_pairs + grandsart_pairs:
            words.update((a, b))
        assert len(words) == 16
        assert len(palindromes) + 2 * len(run_pairs + grandsart_pairs) == 16

    def test_pairs_are_palindromic_pairs(self):
        _, run_pairs, grandsart_pairs = classify_length4()
        for a, b in run_pairs + grandsart_pairs:
            assert b == mirror(a)
            assert a != mirror(a) and b != mirror(b)

    def test_grandsart_prefixes_end_with_two_different_letters(self):
        _, _, grandsart_pairs = classify_length4()
        for a, b in grandsart_pairs:
            for word in (a, b):
                assert word[1] != word[2]


def first_square_vertices(v):
    """The square vertices that walks on B(2,3) from v reach first."""
    g = debruijn.build_graph(2, 3)
    seen, frontier, found = set(), {v}, set()
    while frontier:
        found |= frontier & SQUARE_VERTICES
        seen |= frontier
        frontier = {e[1:] for e in g.edges if e[:-1] in frontier - SQUARE_VERTICES}
        frontier -= seen
    return found


#: The order-four rotation of the square, as the paper's figure draws it.
ROTATION = {u("001"): u("110"), u("110"): u("101"), u("101"): u("010"), u("010"): u("001")}


class TestSquareStructure:
    def test_vertices_are_the_four_doubled_ones(self):
        assert {word_string(v) for v in SQUARE_VERTICES} == {"110", "101", "010", "001"}

    def test_vertices_are_the_words_whose_last_two_letters_differ(self):
        expected = {v for v in itertools.product((0, 1), repeat=3) if v[1] != v[2]}
        assert SQUARE_VERTICES == expected

    @pytest.mark.parametrize("e", sorted(SQUARE_EDGES), ids=word_string)
    def test_target_is_the_first_square_vertex_past_the_edge(self, e):
        assert first_square_vertices(e[1:]) == {SQUARE_TARGET[e]}

    def test_rotation_is_a_four_cycle(self):
        rotation = {SQUARE_SOURCE[e]: SQUARE_TARGET[e] for e in POSITIVE_EDGES}
        assert rotation == ROTATION
        start = u("001")
        orbit = [start]
        for _ in range(3):
            orbit.append(rotation[orbit[-1]])
        assert [word_string(v) for v in orbit] == ["001", "110", "101", "010"]
        assert rotation[orbit[-1]] == start

    def test_positive_edges_advance_the_rotation(self):
        for e in POSITIVE_EDGES:
            assert SQUARE_TARGET[e] == ROTATION[SQUARE_SOURCE[e]]

    def test_negative_edges_reverse_the_rotation(self):
        for e in NEGATIVE_EDGES:
            assert ROTATION[SQUARE_TARGET[e]] == SQUARE_SOURCE[e]

    def test_mirror_swaps_each_edge_pair_endpoints(self):
        for e in SQUARE_EDGES:
            assert SQUARE_SOURCE[mirror(e)] == SQUARE_TARGET[e]
            assert SQUARE_TARGET[mirror(e)] == SQUARE_SOURCE[e]


class TestDifferences:
    def test_paper_k_plus_one(self):
        assert grandsart_differences(cw("010011")) == (1, 1, 1, 1)

    def test_paper_k_minus_one(self):
        assert grandsart_differences(cw("101100")) == (-1, -1, -1, -1)

    def test_constant_word(self):
        assert grandsart_differences(cw("0000")) == (0, 0, 0, 0)

    def test_short_word_periodic_scan(self):
        assert grandsart_differences(cw("001")) == (0, 0, 0, 0)

    def test_binary_only(self):
        with pytest.raises(ValueError):
            grandsart_differences(cw("012"))


class TestProjection:
    def test_paper_word_retains_four_positive_edges(self):
        proj = project_to_square(cw("010011"))
        assert [word_string(e) for e in proj.retained_edges] == [
            "0100", "0011", "1101", "1010",
        ]
        assert proj.epsilon_sum == 4
        assert SQUARE_SOURCE[proj.retained_edges[0]] == u("010")

    def test_alternating_word(self):
        proj = project_to_square(cw("0101"))
        assert [word_string(e) for e in proj.retained_edges] == [
            "0101", "1010", "0101", "1010",
        ]
        assert proj.epsilons == (-1, 1, -1, 1)
        assert proj.epsilon_sum == 0

    def test_empty_projection(self):
        proj = project_to_square(cw("0000"))
        assert proj.retained_edges == ()
        assert proj.epsilon_sum == 0

    @given(binary_circular_words(max_n=48))
    def test_epsilon_sum_is_a_multiple_of_four(self, w):
        assert project_to_square(w).epsilon_sum % 4 == 0

    @given(binary_circular_words(max_n=48))
    def test_adjacent_opposite_edges_are_mirrors(self, w):
        # a +1 step followed by a -1 step walks one palindromic pair
        proj = project_to_square(w)
        m = len(proj.retained_edges)
        for i in range(m):
            j = (i + 1) % m
            if proj.epsilons[i] == -proj.epsilons[j]:
                assert proj.retained_edges[j] == mirror(proj.retained_edges[i])

    @given(binary_circular_words(max_n=48))
    def test_cancelling_an_adjacent_pair_keeps_differences(self, w):
        proj = project_to_square(w)
        m = len(proj.retained_edges)
        diffs_of = lambda edges: tuple(
            Counter(edges)[p] - Counter(edges)[mirror(p)] for p in POSITIVE_EDGES
        )
        base = diffs_of(proj.retained_edges)
        for i in range(m):
            j = (i + 1) % m
            if proj.epsilons[i] == -proj.epsilons[j] and i != j:
                remaining = [e for t, e in enumerate(proj.retained_edges) if t not in (i, j)]
                assert diffs_of(remaining) == base


class TestContinuityCheck:
    """The checks behind k_graph raise on edge data no word can produce."""

    def test_repeated_edge_breaks_the_path(self):
        # 0011 runs 001 -> 110, so it cannot follow itself
        with pytest.raises(BrokenProjectionError, match="between 0011 and 0011"):
            invariants._project(edge_codes("0011", "0011"))

    def test_break_is_named_inside_a_longer_walk(self):
        edges = edge_codes("0011", "1101", "0011", "1010", "0100")
        with pytest.raises(BrokenProjectionError, match="between 1101 and 0011"):
            invariants._project(edges)

    def test_non_square_codes_are_skipped_before_the_check(self):
        # 0001 and 1111 are erased; 0100 then 0011 chains 010 -> 001 -> ...
        edges = edge_codes("0001", "0100", "1111", "0011", "1101", "1010")
        proj = invariants._project(edges)
        assert [word_string(e) for e in proj.retained_edges] == [
            "0100", "0011", "1101", "1010",
        ]
        assert proj.retained_edges[0] is invariants._EDGES[0b0100]

    def test_epsilon_sum_not_a_multiple_of_four(self):
        edges = (u("0011"), u("1101"))
        proj = SquareProjection(retained_edges=edges, epsilons=(1, 1))
        message = "epsilon sum 2 of 0011 is not a multiple of 4"
        with pytest.raises(BrokenProjectionError, match=message):
            invariants._winding(proj.epsilon_sum, cw("0011"))

    def test_report_raises_on_a_bad_epsilon_sum(self, monkeypatch):
        # the report's epsilon sum is d1+d2+d3+d4, read through the pair
        # codes: miscount 0011's mirror as the absent 0000
        pairs = ((0b0011, 0b0000),) + invariants._PAIR_CODES[1:]
        monkeypatch.setattr(invariants, "_PAIR_CODES", pairs)
        assert grandsart_differences(cw("0011")) == (1, 0, 0, 0)
        with pytest.raises(BrokenProjectionError, match="not a multiple of 4"):
            grandsart_report(cw("0011"))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (("0011", "0011"), "between 0011 and 0011"),
            (("0011", "1101", "0011", "1010", "0100"), "between 1101 and 0011"),
            (("0001", "0100", "1111", "1101"), "between 0100 and 1101"),
        ],
    )
    def test_both_routes_name_the_same_break(self, edges, message, monkeypatch):
        # the report reads the same walk check as the projection record
        monkeypatch.setattr(words, "_codes", lambda letters, d, l: edge_codes(*edges))
        message = f"square path breaks {message}$"
        for route in (project_to_square, winding_number_graph, grandsart_report):
            with pytest.raises(BrokenProjectionError, match=message):
                route(cw("0011"))


class TestWindingNumbers:
    def test_paper_examples(self):
        assert winding_number_graph(cw("010011")) == 1
        assert winding_number_graph(cw("101100")) == -1
        assert winding_number_decomposition(cw("010011")) == 1
        assert winding_number_decomposition(cw("101100")) == -1

    def test_trivial_words(self):
        assert winding_number_graph(cw("1111")) == 0
        assert winding_number_decomposition(cw("0101")) == 0

    @given(words_and_families)
    def test_decomposition_matches_the_block_records(self, w):
        # signed count of the even-length anchored blocks, read off the
        # (start, letters) pairs, against both winding numbers
        blocks = decompose_blocks(w)
        expected = sum(1 - 2 * arc[0] for _, arc in blocks if len(arc) % 2 == 0)
        assert winding_number_decomposition(w) == expected == grandsart_report(w).k_graph

    @given(words_and_families)
    def test_report_winding_matches_the_projection_record(self, w):
        # the epsilon sum counted per code equals the record's, and both
        # are d1+d2+d3+d4 identically
        report = grandsart_report(w)
        epsilon_sum = project_to_square(w).epsilon_sum
        assert 4 * report.k_graph == epsilon_sum == sum(report.diffs)

    def test_higher_winding(self):
        # repeating a word m times multiplies every count, hence k, by m
        assert winding_number_graph(cw("010011" * 2)) == 2
        assert winding_number_graph(cw("101100" * 3)) == -3
        assert grandsart_report(cw("010011" * 2)).consistent


class TestReport:
    def test_paper_report(self):
        rep = grandsart_report(cw("010011"))
        assert rep.diffs == (1, 1, 1, 1)
        assert rep.k_graph == 1
        assert rep.k_decomposition == 1
        assert rep.consistent

    def test_single_letter(self):
        rep = grandsart_report(cw("0"))
        assert rep.diffs == (0, 0, 0, 0)
        assert rep.k_graph == rep.k_decomposition == 0
        assert rep.consistent

    @pytest.mark.parametrize("k", [-2, 0, 1])
    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("slot", range(5), ids=["d1", "d2", "d3", "d4", "k_decomp"])
    def test_consistent_needs_every_value_equal_to_k_graph(self, k, delta, slot):
        values = [k] * 5
        rep = GrandsartReport(cw("0"), tuple(values[:4]), k, values[4])
        assert rep.consistent
        values[slot] += delta
        rep = GrandsartReport(cw("0"), tuple(values[:4]), k, values[4])
        assert not rep.consistent

    def test_record_shape(self):
        record = grandsart_report(cw("101100")).to_dict()
        assert record == {
            "word": "101100",
            "d1": -1,
            "d2": -1,
            "d3": -1,
            "d4": -1,
            "k_graph": -1,
            "k_decomp": -1,
            "consistent": True,
        }

    def test_exhaustive_up_to_length_10(self):
        for n in range(1, 11):
            for w in enumerate_words(2, n):
                assert grandsart_report(w).consistent

    @settings(max_examples=300)
    @given(binary_circular_words(max_n=64))
    def test_random_long_words_are_consistent(self, w):
        assert grandsart_report(w).consistent

    @given(binary_circular_words(max_n=48), st.integers(-64, 64))
    def test_rotation_invariance(self, w, s):
        a = grandsart_report(w)
        b = grandsart_report(w.rotate(s))
        assert a.diffs == b.diffs
        assert a.k_graph == b.k_graph
        assert a.k_decomposition == b.k_decomposition

    def test_mirror_antisymmetry_exhaustive(self):
        for n in range(1, 13):
            for w in enumerate_words(2, n):
                assert winding_number_graph(w.reverse()) == -winding_number_graph(w)

    def test_complement_antisymmetry_exhaustive(self):
        for n in range(1, 13):
            for w in enumerate_words(2, n):
                assert winding_number_graph(w.complement()) == -winding_number_graph(w)


class TestSquareDot:
    def test_contains_four_doubled_nodes_and_eight_edges(self):
        text = square_graph_dot()
        assert text.count("doublecircle") == 4
        assert sum("->" in l for l in text.splitlines()) == 8

    def test_figure_adjacency(self):
        text = square_graph_dot()
        assert '"110" -> "001" [label="1100"];' in text
        assert '"001" -> "110" [label="0011"];' in text
        assert '"110" -> "101" [label="1101"];' in text
        assert '"010" -> "001" [label="0100"];' in text

    def test_deterministic_and_highlightable(self):
        assert square_graph_dot() == square_graph_dot()
        text = square_graph_dot(highlight=["0011"])
        assert sum("style=bold" in l for l in text.splitlines()) == 1

    def test_labels_that_are_not_iterable_are_refused_as_a_bad_parameter(self):
        # the edge-list guard of export_dot; None alone means no highlight
        with pytest.raises(BadParameterError, match="an edge list"):
            square_graph_dot(5)
