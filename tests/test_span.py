"""Exact rank, span dimension, spanning set, CKS basis, marginalization."""

import functools
import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circwords import (
    Alphabet,
    AlphabetMismatchError,
    CircularWord,
    FunctionalFamily,
    IntegerMatrix,
    NotInSpanError,
    SizeLimitError,
    all_factors_family,
    build_graph,
    cks_family,
    count_occurrences,
    cyclomatic_number,
    enumerate_words,
    exact_rank,
    express_in_span,
    is_spanning_tree,
    marginalization_check,
    occurrence_matrix,
    occurrence_vector,
    predicted_dimension,
    span_dimension,
    spanning_set_family,
    verify_cks_basis,
    verify_spanning_set,
)
from circwords import debruijn, span, words
from circwords.errors import BadParameterError
from circwords.span import _bareiss_rank, _block_sums, _sample_echelon, _solve
from conftest import (
    binary_circular_words,
    circular_words_any_alphabet,
    cw,
    rank_fraction,
    rank_mod_p,
    u,
)

ALL_LENGTH_4 = all_factors_family(2, 4)


def words_up_to(d, max_len):
    return [w for m in range(1, max_len + 1) for w in enumerate_words(d, m)]


def necklaces_up_to(d, max_len):
    return [CircularWord(a, d) for m in range(1, max_len + 1) for a in words._necklaces(d, m)]


def set_cap(monkeypatch, cap):
    monkeypatch.setattr("circwords.words.DEFAULT_SIZE_LIMIT", cap)


def never(*args):
    raise AssertionError("built past the cap")


def _flow_relations(d, l):
    """Reference: the flow law of B(d,l-1) as dense rows over the d^l columns.

    Row v is sum_a x[va] - sum_a x[av]; column va is v*d + a and column
    av is a*d^(l-1) + v, with v read in base d.
    """
    vertices = d ** (l - 1)
    relations = []
    for v in range(vertices):
        row = [0] * (vertices * d)
        for a in range(d):
            row[v * d + a] += 1
            row[a * vertices + v] -= 1
        relations.append(row)
    return relations


def sparse(row):
    """A dense row as the kernel's row form: its nonzero entries by column."""
    return {j: x for j, x in enumerate(row) if x}


def dense_bareiss_rank(rows, echelon):
    """Reference kernel: fraction-free elimination of dense rows.

    echelon maps a leading column to the one kept row, a list, whose
    first nonzero entry is in that column.  Each new row is cleared
    column by column: at a column led by a kept row with entry p, where
    the row has f, it becomes (p*row - f*kept)/g with g = gcd(p, f).  A
    row left nonzero is divided by the gcd of its entries and kept.
    """
    for r in rows:
        r = list(r)
        for col in range(len(r)):
            f = r[col]
            if not f:
                continue
            kept = echelon.get(col)
            if kept is None:
                g = math.gcd(*r)
                echelon[col] = [x // g for x in r]
                break
            p = kept[col]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            r = [p * x - f * y for x, y in zip(r, kept)]
    return len(echelon)


COMPONENTS = debruijn._undirected_components


def rotated_in_sums(counts, d, vertices):
    """The flow law with the in-sums rotated by one vertex: each count is
    taken to enter the vertex before its target."""
    balance = [0] * vertices
    for e, c in counts:
        balance[e // d] += c
        balance[(e % vertices - 1) % vertices] -= c
    return not any(balance)


def one_more_component(vertices, edges):
    return COMPONENTS(vertices, edges) + 1


def solve_gauss_jordan(rows, ncols):
    """Reference solve: Gauss-Jordan over Fractions on [A | b]; free variables 0.

    Returns None when the system is inconsistent.
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    if any(mat[i][ncols] for i in range(r, len(mat))):
        return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = mat[i][ncols]
    return tuple(solution)


@st.composite
def linear_systems(draw):
    """Small integer [A | b] rows, often with dependent columns or no solution."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 7))
    entries = st.integers(-4, 4)
    a = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    # a copied column leaves a free variable; a random b is often inconsistent
    if ncols > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(ncols)))[:2]
        for row in a:
            row[dst] = row[src]
    if draw(st.booleans()):
        b = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    else:
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        b = [sum(c * v for c, v in zip(row, x)) for row in a]
    return [tuple(row) + (bi,) for row, bi in zip(a, b)], ncols


class TestOccurrenceMatrix:
    def test_single_letters_identity(self):
        m = occurrence_matrix(list(enumerate_words(2, 1)), all_factors_family(2, 1))
        assert m.entries == ((1, 0), (0, 1))

    def test_paper_count_entry(self):
        fam = FunctionalFamily(d=2, factors=(u("010"),))
        m = occurrence_matrix([cw("00101")], fam)
        assert m.entries == ((2,),)

    def test_row_sums_are_word_lengths(self):
        words = words_up_to(2, 6)
        m = occurrence_matrix(words, ALL_LENGTH_4)
        for w, row in zip(words, m.entries):
            assert sum(row) == w.n

    def test_length_column_first(self):
        fam = FunctionalFamily(d=2, factors=((), u("1")))
        m = occurrence_matrix([cw("0110")], fam)
        assert m.entries == ((4, 2),)
        assert fam.column_labels() == ("length", "1")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            occurrence_matrix([cw("012")], ALL_LENGTH_4)

    def test_duplicate_factors_rejected(self):
        with pytest.raises(ValueError):
            FunctionalFamily(d=2, factors=(u("01"), u("01")))

    @pytest.mark.parametrize(
        "call",
        [
            # factors that are not a tuple of letter tuples
            lambda: FunctionalFamily(2, ([0, 1],)),
            lambda: FunctionalFamily(2, (5,)),
            lambda: FunctionalFamily(2, None),
            # a basis or family that is not a FunctionalFamily, a word that is not a CircularWord
            lambda: express_in_span("11", "x", 6),
            lambda: occurrence_matrix([cw("01")], None),
            lambda: occurrence_matrix([None], ALL_LENGTH_4),
            # a matrix that is not an IntegerMatrix
            lambda: exact_rank(None),
        ],
    )
    def test_wrong_types_are_refused_as_a_bad_parameter(self, call):
        with pytest.raises(BadParameterError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            # entries that are not a tuple of integer tuples
            lambda: IntegerMatrix(None),
            lambda: IntegerMatrix([(1, 0)]),
            lambda: IntegerMatrix(([1, 0],)),
            lambda: exact_rank(IntegerMatrix((("a",),))),
            lambda: exact_rank(IntegerMatrix(((1.5,),))),
            # words that are not iterable
            lambda: occurrence_matrix(None, cks_family(2, 2)),
            lambda: occurrence_matrix(5, cks_family(2, 2)),
        ],
        ids=["none", "list", "list-row", "str-entry", "float-entry", "no-words", "int-words"],
    )
    def test_matrix_refusals_are_bad_parameters(self, call):
        with pytest.raises(BadParameterError):
            call()

    def test_words_may_be_any_iterable(self):
        family = FunctionalFamily(2, (u("1"), (), u("01")))
        words = [cw("0110"), cw("010")]
        assert occurrence_matrix(iter(words), family) == occurrence_matrix(words, family)
        assert occurrence_matrix(words, family).entries == ((2, 4, 1), (1, 3, 1))


class TestExactRank:
    def test_identity(self):
        assert exact_rank(IntegerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3

    def test_zero_matrix(self):
        assert exact_rank(IntegerMatrix(((0, 0), (0, 0)))) == 0

    def test_paper_dimension_nine(self):
        m = occurrence_matrix(words_up_to(2, 10), ALL_LENGTH_4)
        assert exact_rank(m) == 9

    def test_rank_deficient(self):
        assert exact_rank(IntegerMatrix(((1, 2), (2, 4), (3, 6)))) == 1

    def test_needs_column_pivoting(self):
        m = IntegerMatrix(((0, 0, 5), (0, 0, 10), (0, 3, 1)))
        assert exact_rank(m) == 2

    @settings(max_examples=300)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_agrees_with_rational_elimination(self, rows):
        m = IntegerMatrix(tuple(tuple(r) for r in rows))
        assert exact_rank(m) == rank_fraction(rows)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.integers(0, 8),
    )
    def test_sparse_kernel_matches_the_dense_reference(self, rows, cut):
        # two batches against one echelon, as the sample feeds the kernel
        echelon, reference = {}, {}
        for batch in (rows[:cut], rows[cut:]):
            rank = _bareiss_rank(list(map(sparse, batch)), echelon)
            assert rank == dense_bareiss_rank(batch, reference)
            assert echelon == {col: sparse(r) for col, r in reference.items()}

    def test_agrees_with_prime_field_rank_on_count_matrices(self):
        for d, l, max_len in ((2, 3, 7), (2, 4, 8), (3, 2, 5)):
            m = occurrence_matrix(words_up_to(d, max_len), all_factors_family(d, l))
            assert exact_rank(m) == rank_mod_p(m.entries)


class TestSpanDimension:
    @pytest.mark.parametrize(
        "d,l,max_len,expected",
        [(2, 2, 6, 3), (2, 3, 8, 5), (3, 2, 6, 7)],
    )
    def test_saturated_ranks(self, d, l, max_len, expected):
        report = span_dimension(d, l, max_len)
        assert report.rank == expected == report.predicted
        assert report.relations == d**l - expected
        assert report.saturated

    @pytest.mark.parametrize("d,l", [(2, 1), (2, 3), (3, 2), (2, 6)])
    def test_default_samples_the_certificate_words(self, d, l, monkeypatch):
        # no necklace, where words defines the generator or where span binds it
        monkeypatch.setattr(words, "_necklaces", never)
        monkeypatch.setattr(span, "_necklaces", never)
        report = span_dimension(d, l)
        assert report.lengths == tuple(range(1, 2 * l))
        assert report.saturated

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_rank_trace_is_monotone_and_sticks(self, d, l):
        report = span_dimension(d, l, 2 * l + 2)
        ranks = [r for _, r in report.rank_by_length]
        assert ranks == sorted(ranks)
        first_hit = ranks.index(report.predicted)
        assert first_hit + 1 <= 2 * l + 2
        assert all(r == report.predicted for r in ranks[first_hit:])

    @pytest.mark.parametrize("d,l", [(2, 3), (3, 2), (2, 4)])
    def test_rank_trace_matches_rank_of_each_prefix_sample(self, d, l):
        report = span_dimension(d, l, 2 * l + 2)
        family = all_factors_family(d, l)
        for m, rank in report.rank_by_length:
            assert rank == exact_rank(occurrence_matrix(words_up_to(d, m), family))

    @pytest.mark.parametrize(
        "d,l",
        [(2, l) for l in range(1, 9)] + [(3, l) for l in range(1, 5)] + [(4, 2), (4, 3), (5, 2), (6, 2)],
    )
    def test_necklaces_up_to_2l_minus_1_prove_the_rank(self, d, l, recwarn):
        # the words 0 and 0^(l-1)·y, y of length 1..l with nonzero ends,
        # have independent rows and as many as the bound; each has length
        # at most 2l-1 and is a rotation of a sampled necklace
        report = span_dimension(d, l, 2 * l - 1)
        assert report.saturated
        assert report.rank == report.predicted
        assert not recwarn.list

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_necklaces_up_to_2l_minus_2_can_fall_short(self, d):
        # one length fewer is not enough for every alphabet: at l = 2 and
        # d >= 3 the necklaces up to length 2 leave the rank short
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(d, 2, 2)
        assert report.rank < report.predicted

    def test_unsaturated_sample_warns(self):
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 4, 5)
        assert not report.saturated
        assert report.rank < report.predicted

    @pytest.mark.parametrize(
        "d,l,max_len", [(2, 3, 3), (2, 4, 10), (3, 3, 10), (2, 1, 2), (3, 2, 3), (2, 4, 6)]
    )
    def test_flow_relations_prove_the_rank(self, d, l, max_len, recwarn):
        # the rank meets d^l - rank(relations), so it is proven, however
        # few lengths the sample has
        report = span_dimension(d, l, max_len)
        assert report.saturated
        assert report.rank == report.predicted
        assert not recwarn.list

    @pytest.mark.parametrize(
        "patch",
        [
            # the right bound, but a law the sample rows do not obey: the
            # in-sums come out rotated, so the kept rows fail the check
            lambda mp: mp.setattr(debruijn, "_balanced", rotated_in_sums),
            # one extra component: the bound is one higher than the rank
            lambda mp: mp.setattr(debruijn, "_undirected_components", one_more_component),
        ],
    )
    def test_no_certificate_from_wrong_relations(self, patch, monkeypatch):
        patch(monkeypatch)
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 3, 8)
        assert report.rank == 5
        assert not report.saturated

    @pytest.mark.parametrize("d,l", [(2, 1), (2, 2), (2, 4), (2, 6), (3, 3), (4, 2)])
    def test_flow_relations_have_rank_vertices_minus_one(self, d, l):
        rank = _bareiss_rank(list(map(sparse, _flow_relations(d, l))), {})
        assert rank == d ** (l - 1) - 1
        # the sampler's bound, from the union-find, is d^l - rank(R)
        assert _sample_echelon(d, l, l)[2] == d**l - rank

    def test_preconditions(self, monkeypatch):
        with pytest.raises(ValueError):
            span_dimension(2, 4, 3)
        set_cap(monkeypatch, 1024)
        assert span_dimension(2, 4, 10).saturated
        set_cap(monkeypatch, 1023)
        with pytest.raises(SizeLimitError):
            span_dimension(2, 4, 10)

    def test_refuses_before_the_flow_relations(self, monkeypatch):
        # the bound's union-find is the first thing built after the caps
        monkeypatch.setattr(debruijn, "_undirected_components", never)
        set_cap(monkeypatch, 255)
        with pytest.raises(SizeLimitError):
            span_dimension(2, 3, 8)

    def test_json_round_trip(self):
        import json

        report = span_dimension(2, 2, 6)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["rank"] == payload["predicted"] == 3
        assert payload["relations"] == 1

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_matches_cyclomatic_number(self, d, l):
        assert predicted_dimension(d, l) == cyclomatic_number(build_graph(d, l - 1))


def certificate_words(d, l, m):
    return [CircularWord(a, d) for a in span._certificate_words(d, l, m)]


class TestCertificateWords:
    """The default sample: the word 0 and 0^(l-1)·y, y with nonzero ends."""

    @pytest.mark.parametrize(
        "d,l",
        [(2, l) for l in range(1, 11)]
        + [(3, l) for l in range(1, 7)]
        + [(4, l) for l in range(1, 6)]
        + [(5, l) for l in range(2, 5)]
        + [(16, 2)],
    )
    def test_default_is_saturated_at_the_predicted_rank(self, d, l, recwarn):
        report = span_dimension(d, l)
        assert report.saturated
        assert report.rank == report.predicted
        assert report.lengths == tuple(range(1, 2 * l))
        assert not recwarn.list
        # the bases are triangular on the same words
        assert span._cks_basis_holds(report)
        if d == 2:
            assert span._spanning_set_holds(report)

    @pytest.mark.parametrize(
        "word,change,rank",
        [("0001011", "drop", 8), ("0001011", "repeat", 7), ("0001011", "replace", 6),
         ("0001111", "repeat", 9)],
    )
    def test_a_dropped_or_repeated_word_is_not_certified(self, word, change, rank, monkeypatch):
        # a word of (2,4) is left out, given twice, or replaced by a second
        # 0001001: too few leads, or one lead twice, where the rank counts
        # only the rows before the repeat, proven independent; a repeated
        # last word leaves the rank at the bound, but not every row passes
        words_of = span._certificate_words

        def changed(d, l, m):
            for w in words_of(d, l, m):
                if w != u(word):
                    yield w
                elif change != "drop":
                    yield from {"repeat": (w, w), "replace": (u("0001001"),)}[change]

        monkeypatch.setattr(span, "_certificate_words", changed)
        with pytest.warns(UserWarning, match="at max_len=7 is not certified.*lower bound"):
            report = span_dimension(2, 4)
        assert not report.saturated
        assert report.rank == rank
        assert not span._cks_basis_holds(report)
        assert not span._spanning_set_holds(report)

    def test_a_row_on_a_later_lead_is_not_triangular(self):
        # (2,2): the words 0, 01 and 011 lead at 00, 01 and 11; a row,
        # given here by its word's length, may hold an earlier word's lead,
        # not a later one's, and must hold its own
        rows = {1: {0: 1}, 2: {1: 1, 2: 1}, 3: {3: 1, 1: 5}}
        lead = functools.partial(span._index, d=2)

        def check(count, length=None, row=None):
            table = {**rows, length: row}
            return span._triangular(2, 2, count, lead, lambda c: table[sum(c.values())])

        assert check(3) == ([(1, 1), (2, 2), (3, 3)], True)
        assert not check(4)[1]
        for length, row in ((2, {1: 1, 3: 1}), (3, {1: 1}), (1, {0: 1, 1: 1})):
            assert not check(3, length, row)[1]

    def test_no_elimination_and_no_kept_rows(self, monkeypatch):
        # the rows are checked one at a time: the peak stays with the
        # leads, the bound's union-find and one sparse row
        span_dimension(2, 12)  # fill the caches, which are not per call
        tracemalloc.start()
        try:
            assert span_dimension(2, 12).saturated
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        monkeypatch.setattr(span, "_bareiss_rank", never)
        assert span_dimension(2, 6).saturated

    @pytest.mark.parametrize("d,l", [(2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (2, 7)])
    def test_rows_are_triangular_on_their_leads(self, d, l):
        # each row leads, among the columns of factors that end in a
        # nonzero letter, with y padded on the left with zeros; the word 0
        # leads at 0^l, which no other word holds
        leads = []
        for m in range(1, 2 * l):
            for w in certificate_words(d, l, m):
                row = sparse(words._dense_counts(w.letters, d, l))
                ending = [c for c in row if c % d]
                lead = max(ending, default=0)
                y = w.letters[l - 1 :]
                assert lead == (span._index(y, d) if ending else 0)
                assert row.get(0, 0) == (w.letters == (0,))
                leads.append(lead)
        assert sorted(leads) == sorted(set(leads))
        assert len(leads) == predicted_dimension(d, l)

    @pytest.mark.parametrize("d,l", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_rank_trace_matches_rank_of_the_words_up_to_each_length(self, d, l):
        report = span_dimension(d, l)
        family = all_factors_family(d, l)
        sample = []
        for m, rank in report.rank_by_length:
            sample += certificate_words(d, l, m)
            assert rank == exact_rank(occurrence_matrix(sample, family))

    def test_a_miscounted_row_is_not_certified(self, monkeypatch):
        # the first length-7 word of (2,4), 0001001, reads its first factor
        # 0001 as the loop 0000 in its sparse row, so the row breaks the
        # flow law
        first = u("0001001")
        counts = span._sparse_counts

        def misread(w, d, l):
            row = counts(w, d, l)
            if l == 4 and w == first:
                assert row[0b0001] == 1
                row[0b0001] -= 1
                row[0b0000] += 1
            return row

        monkeypatch.setattr(span, "_sparse_counts", misread)
        with pytest.warns(UserWarning, match="at max_len=7 is not certified.*lower bound"):
            report = span_dimension(2, 4)
        assert not report.saturated
        # the rank counts the five rows before it: 0, 0001, 00011, 000101, 000111
        assert report.rank == 5
        assert report.rank_by_length == ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 5), (7, 5))


class TestSpanningSet:
    def test_family_layout(self):
        fam = spanning_set_family(4)
        labels = fam.column_labels()
        assert labels[0] == "0000"
        assert all(label.startswith("1") for label in labels[1:])
        assert len(labels) == 9

    def test_nine_functions_span(self):
        assert verify_spanning_set(10)

    def test_dropping_1010_breaks_it(self):
        words = words_up_to(2, 10)
        fam = spanning_set_family(4)
        reduced = FunctionalFamily(
            d=2, factors=tuple(f for f in fam.factors if f != u("1010"))
        )
        assert exact_rank(occurrence_matrix(words, reduced)) == 8
        # and 0101 escapes the reduced span: appending it raises the rank
        escaped = FunctionalFamily(d=2, factors=reduced.factors + (u("0101"),))
        assert exact_rank(occurrence_matrix(words, escaped)) == 9

    def test_necklace_sample_sees_1010_missing(self, monkeypatch):
        fam = spanning_set_family(4)
        reduced = FunctionalFamily(
            d=2, factors=tuple(f for f in fam.factors if f != u("1010"))
        )
        words = necklaces_up_to(2, 10)
        assert exact_rank(occurrence_matrix(words, reduced)) == 8
        escaped = FunctionalFamily(d=2, factors=reduced.factors + (u("0101"),))
        assert exact_rank(occurrence_matrix(words, escaped)) == 9
        monkeypatch.setattr(span, "spanning_set_family", lambda l: reduced)
        monkeypatch.setattr(span, "cks_family", lambda d, l: reduced)
        assert not verify_spanning_set(10)
        assert not verify_cks_basis(2, 4, 10)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
    def test_length_one_has_an_empty_tree(self, max_len):
        # {0, 1} spans the counts of length 1, and B(2,0) has one vertex
        assert verify_spanning_set(max_len, 1) is True


class TestKirchhoffRelationSpace:
    def _relation_vectors(self):
        # out-flow minus in-flow at each length-3 vertex, over the 16
        # length-4 columns: +1 on U0/U1, -1 on 0U/1U
        columns = {f: j for j, f in enumerate(ALL_LENGTH_4.factors)}
        vectors = []
        for v in build_graph(2, 3).vertices:
            vec = [0] * 16
            for a in (0, 1):
                vec[columns[v + (a,)]] += 1
                vec[columns[(a,) + v]] -= 1
            vectors.append(tuple(vec))
        return vectors

    def test_relations_annihilate_every_word(self):
        vectors = self._relation_vectors()
        m = occurrence_matrix(words_up_to(2, 8), ALL_LENGTH_4)
        for row in m.entries:
            for vec in vectors:
                assert sum(x * c for x, c in zip(row, vec)) == 0

    def test_sum_of_all_eight_relations_is_trivial(self):
        vectors = self._relation_vectors()
        assert [sum(col) for col in zip(*vectors)] == [0] * 16

    def test_flow_relations_are_these_vectors(self):
        assert sorted(map(tuple, _flow_relations(2, 4))) == sorted(self._relation_vectors())

    def test_relation_space_has_rank_seven(self):
        assert exact_rank(IntegerMatrix(tuple(self._relation_vectors()))) == 7
        assert span_dimension(2, 4, 10).relations == 7


class TestCksBasis:
    def test_basis_members_for_l4(self):
        labels = cks_family(2, 4).column_labels()
        assert labels == ("length", "1", "11", "101", "111", "1001", "1011", "1101", "1111")
        assert len(labels) == 9
        assert cks_family(2, 4).factors[0] == ()

    def test_empty_target_is_the_length_column(self):
        family = cks_family(2, 4)
        assert express_in_span("", family, 10) == (1,) + (0,) * 8
        # the length expressed by itself: the sample rows are length-1 counts
        assert express_in_span((), FunctionalFamily(2, ((),)), 5) == (1,)

    @pytest.mark.parametrize(
        "target, family",
        [
            ("0011", cks_family(2, 4)),
            ("0", FunctionalFamily(2, (u("1"), ()))),
            ("", spanning_set_family(3)),
            ("12", cks_family(3, 2)),
        ],
    )
    def test_one_coefficient_per_factor(self, target, family):
        coeffs = express_in_span(target, family, 8)
        assert len(coeffs) == len(family.factors)
        for w in words_up_to(family.d, 8):
            combined = sum(
                c * (count_occurrences(w, f) if f else w.n)
                for c, f in zip(coeffs, family.factors)
            )
            assert combined == (count_occurrences(w, target) if target else w.n)

    def test_binary_cases(self):
        assert verify_cks_basis(2, 3, 8)
        assert verify_cks_basis(2, 4, 10)

    def test_smallest_case(self):
        # basis {length, 1} expresses |W|_0 = |W| - |W|_1
        assert verify_cks_basis(2, 1, 4)
        coeffs = express_in_span(u("0"), FunctionalFamily(d=2, factors=((), u("1"))), 4)
        assert coeffs == (Fraction(1), Fraction(-1))

    def test_ternary_case(self):
        assert verify_cks_basis(3, 2, 6)

    @pytest.mark.parametrize(
        "check", [lambda: verify_cks_basis(2, 4, 10), lambda: verify_spanning_set(10)]
    )
    def test_kernel_sees_each_distinct_row_once(self, check, monkeypatch):
        batches = []
        kernel = span._bareiss_rank

        def recording(rows, echelon):
            batches.append(list(rows))
            return kernel(rows, echelon)

        monkeypatch.setattr(span, "_bareiss_rank", recording)
        assert check()
        # one sampling batch per length 1..10, and none for the family,
        # which is checked triangular on the certificate words
        assert len(batches) == 10
        rows = [r for batch in batches for r in batch]
        # 261 necklaces up to length 10 give 231 distinct count rows; the
        # kernel sees the 37 of lengths 1..6, where the rank is certified
        assert len(rows) == len(set(rows)) == 37

    def test_an_extra_factor_is_not_a_basis(self, monkeypatch):
        # |W|_0 joins the basis: the family still spans, but is dependent
        extra = FunctionalFamily(2, cks_family(2, 4).factors + (u("0"),))
        monkeypatch.setattr(span, "cks_family", lambda d, l: extra)
        assert not verify_cks_basis(2, 4, 10)
        assert not span._cks_basis_holds(span_dimension(2, 4))

    @pytest.mark.parametrize(
        "check", [lambda: verify_cks_basis(2, 4, 2), lambda: verify_spanning_set(2, l=4)]
    )
    def test_a_sample_shorter_than_l_is_refused(self, check):
        # no word of length l is sampled, so nothing about the basis is tested
        with pytest.raises(BadParameterError, match="need max_len >= l"):
            check()

    def test_an_uncertified_sample_warns(self):
        with pytest.warns(UserWarning, match="not certified"):
            assert verify_cks_basis(2, 4, 5) is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_cks_basis(2, 4, 10) is True


#: (d, l, max_len) on both sides of certification: (2,4) and (2,5) are
#: certified from max_len 6 and 7, (3,2) and (3,3) from 3 and 4, the
#: others at max_len = l.
HOLDS_SAMPLES = [
    (d, l, max_len)
    for d, l, top in [(2, 1, 3), (2, 2, 4), (2, 3, 6), (2, 4, 8), (2, 5, 8), (3, 2, 4), (3, 3, 5)]
    for max_len in range(l, top + 1)
]


def _marginals(rows, d, l, factors):
    """Reference: the factors' values on each dense row of length-l counts, as block sums.

    In lexicographic order the length-l words that start with u are one
    block of d^(l-|u|) columns, from index(u) * d^(l-|u|); the empty
    factor's block is the whole row, whose sum is |W|.
    """
    blocks = []
    for f in factors:
        width = d ** (l - len(f))
        start = span._index(f, d) * width
        blocks.append((start, start + width))
    values = []
    for row in rows:
        sums = list(itertools.accumulate(row, initial=0))
        values.append(tuple(sums[b] - sums[a] for a, b in blocks))
    return values


def family_rank(echelon, l, family):
    """Reference: the rank of the family's values on the kept rows, eliminated."""
    return _bareiss_rank(list(map(sparse, _marginals(echelon, family.d, l, family.factors))), {})


def full_family_holds(echelon, l, family, lengths):
    """Reference: the family has the predicted rank, and so has it with every
    factor of the given lengths appended, eliminated in full."""
    d = family.d
    expected = predicted_dimension(d, l)
    extra = [v for m in lengths for v in Alphabet(d).words(m) if v not in family.factors]
    everything = FunctionalFamily(d, family.factors + tuple(extra))
    return (
        family_rank(echelon, l, family) == expected
        and family_rank(echelon, l, everything) == expected
    )


class TestFullFamilyRank:
    """The triangular checks answer as eliminating every count of the sample."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(HOLDS_SAMPLES), st.booleans(), st.one_of(st.none(), st.integers(0)))
    def test_holds_as_with_every_factor_eliminated(self, case, reduce, extra):
        d, l, max_len = case
        basis, family = cks_family(d, l), spanning_set_family(l)
        if reduce and (d, l) == (2, 4):
            # the spanning set without 1010, as in test_necklace_sample_sees_1010_missing
            basis = family = FunctionalFamily(2, tuple(f for f in family.factors if f != u("1010")))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(span, "cks_family", lambda d, l: basis)
            mp.setattr(span, "spanning_set_family", lambda l: family)
            if extra is not None:
                # the necklace 0^(max_len-1)·1 counts its first length-l
                # factor as another, so its row may break the flow law,
                # before the certificate or after it, where that code is
                # misread too, so its chunk is counted
                corrupt = (0,) * (max_len - 1) + (1,)
                code = extra % d**l
                moves = Counter({code: 1})
                moves.subtract([words._codes(corrupt, d, l)[0]])
                misread_slices(mp, misread_code(corrupt, l, 0, code))
                miscount(mp, corrupt, l, moves)
            echelon, _, _, saturated = _sample_echelon(d, l, max_len)
            rows = [[r.get(j, 0) for j in range(d**l)] for r in echelon.values()]
            expected = saturated and full_family_holds(rows, l, basis, range(1, l + 1))
            assert verify_cks_basis(d, l, max_len) == expected
            if d == 2 and l >= 2:
                tree = [v for v in family.factors if v[0] == 1 and v != (1,) * l]
                expected = (
                    saturated
                    and full_family_holds(rows, l, family, [l])
                    and is_spanning_tree(build_graph(2, l - 1), tree)
                )
                assert verify_spanning_set(max_len, l) == expected


class TestExpressInSpan:
    def test_prefix_suffix_relation(self):
        fam = spanning_set_family(4)
        coeffs = express_in_span(u("0001"), fam, 10)
        nonzero = {
            label: c for label, c in zip(fam.column_labels(), coeffs) if c
        }
        assert nonzero == {"1000": Fraction(1)}

    def test_vertex_101_relation(self):
        fam = spanning_set_family(4)
        coeffs = express_in_span(u("0101"), fam, 10)
        nonzero = {
            label: c for label, c in zip(fam.column_labels(), coeffs) if c
        }
        assert nonzero == {
            "1011": Fraction(1),
            "1010": Fraction(1),
            "1101": Fraction(-1),
        }

    def test_identity(self):
        fam = FunctionalFamily(d=2, factors=(u("0110"),))
        assert express_in_span(u("0110"), fam, 8) == (Fraction(1),)

    def test_certified_coefficients(self, recwarn):
        # |W|_0011 = |W|_11 - |W|_111 - |W|_1011, proven for every word
        coeffs = express_in_span(u("0011"), cks_family(2, 4), 10)
        assert coeffs == (0, 0, 1, 0, -1, 0, -1, 0, 0)
        assert express_in_span("0011", cks_family(2, 4), 10) == coeffs
        assert not recwarn.list

    def test_a_short_max_len_gives_the_proven_coefficients(self, recwarn):
        # the words up to length 2 would not span the length-4 counts, but
        # max_len is not read: the certificate words prove the answer
        coeffs = express_in_span(u("0011"), cks_family(2, 4), 2)
        assert coeffs == (0, 0, 1, 0, -1, 0, -1, 0, 0)
        assert not recwarn.list

    def test_never_samples(self, monkeypatch):
        monkeypatch.setattr(span, "_sample_echelon", never)
        monkeypatch.setattr(span, "_necklaces", never)
        coeffs = express_in_span("0011", cks_family(2, 4), 10)
        assert coeffs == (0, 0, 1, 0, -1, 0, -1, 0, 0)

    @pytest.mark.parametrize("max_len", [None, *range(1, 11)])
    def test_max_len_is_not_read(self, max_len, recwarn):
        cks = express_in_span("0011", cks_family(2, 4), max_len)
        spanning = express_in_span("0101", spanning_set_family(4), max_len)
        assert cks == (0, 0, 1, 0, -1, 0, -1, 0, 0)
        assert spanning == express_in_span("0101", spanning_set_family(4))
        assert not recwarn.list

    def test_a_long_target_is_proven_outside_the_span(self):
        # a length-14 count is no combination of counts of length <= 4;
        # the certificate rows are a few entries each, never d^14 wide
        tracemalloc.start()
        try:
            with pytest.raises(NotInSpanError):
                express_in_span("00110101110010", cks_family(2, 4), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_a_miscounted_certificate_row_warns(self, monkeypatch):
        # 0001001's first factor 0001 read as the loop 0000, as in
        # TestCertificateWords.test_a_miscounted_row_is_not_certified: the
        # span is not proven, so the answer comes with a warning
        first = u("0001001")
        counts = span._sparse_counts

        def misread(w, d, l):
            row = counts(w, d, l)
            if l == 4 and w == first:
                row[0b0001] -= 1
                row[0b0000] += 1
            return row

        monkeypatch.setattr(span, "_sparse_counts", misread)
        with pytest.warns(UserWarning, match="not certified"):
            express_in_span("0011", cks_family(2, 4), 10)

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            express_in_span(u("0011"), cks_family(2, 4), 0)

    def test_not_in_span(self):
        fam = FunctionalFamily(d=2, factors=(u("11"),))
        with pytest.raises(NotInSpanError):
            express_in_span(u("00"), fam, 6)

    def test_solutions_hold_on_held_out_words(self):
        import random

        fam = spanning_set_family(4)
        target = u("0010")
        coeffs = express_in_span(target, fam, 10)
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(11, 32)
            w = cw("".join(str(rng.randrange(2)) for _ in range(n)))
            combined = sum(
                c * count_occurrences(w, f) for c, f in zip(coeffs, fam.factors)
            )
            assert combined == count_occurrences(w, target)

    @pytest.mark.parametrize("family", [cks_family(2, 4), all_factors_family(2, 3)])
    def test_necklace_sample_solves_like_all_words(self, family):
        words = words_up_to(2, 10)
        m = occurrence_matrix(words, family)
        for target in enumerate_words(2, 4):
            t = [count_occurrences(w, target.letters) for w in words]
            rows = [r + (b,) for r, b in zip(m.entries, t)]
            try:
                expected = _solve(list(map(sparse, rows)), len(family.factors))
            except NotInSpanError:
                with pytest.raises(NotInSpanError):
                    express_in_span(target.letters, family, 10)
            else:
                assert express_in_span(target.letters, family, 10) == expected

    @settings(max_examples=300)
    @given(linear_systems())
    def test_solve_agrees_with_gauss_jordan(self, system):
        rows, ncols = system
        expected = solve_gauss_jordan(rows, ncols)
        rows = list(map(sparse, rows))
        if expected is None:
            with pytest.raises(NotInSpanError):
                _solve(rows, ncols)
        else:
            assert _solve(rows, ncols) == expected


class TestMarginalization:
    def test_paper_example(self):
        from circwords import occurrence_vector

        w = cw("00101")
        assert marginalization_check(w, 4)
        ov4 = occurrence_vector(w, 4)
        assert occurrence_vector(w, 3)[u("010")] == 2 == ov4["0100"] + ov4["0101"]

    def test_constant_word(self):
        assert marginalization_check(cw("1111"), 2)

    def test_length_partition(self):
        from circwords import occurrence_vector

        for w in (cw("0110100"), cw("10"), cw("0")):
            ov = occurrence_vector(w, 1)
            assert ov[u("0")] + ov[u("1")] == w.n

    def test_needs_l_at_least_two(self):
        with pytest.raises(ValueError):
            marginalization_check(cw("01"), 1)

    @given(binary_circular_words(max_n=40), st.integers(2, 5))
    def test_always_holds(self, w, l):
        assert marginalization_check(w, l)

    def test_a_miscounted_factor_breaks_it(self, monkeypatch):
        # 00101's length-3 factor at 0, 001, is counted as 101, so the
        # length-3 counts starting with 0 sum to one less than |W|_0
        counts = span._sparse_counts

        def miscounted(letters, d, l):
            row = counts(letters, d, l)
            if l == 3:
                row[0b001] -= 1
                row[0b101] += 1
            return row

        monkeypatch.setattr(span, "_sparse_counts", miscounted)
        assert not marginalization_check(cw("00101"), 3)
        assert marginalization_check(cw("00101"), 2)


class TestSampleWords:
    """The sample: one necklace per rotation class of each length."""

    def test_counts(self):
        assert len(necklaces_up_to(2, 5)) == 2 + 3 + 4 + 6 + 8

    def test_same_distinct_rows_as_all_words(self):
        family = all_factors_family(3, 3)
        for m in range(1, 7):
            every = set(occurrence_matrix(list(enumerate_words(3, m)), family).entries)
            necklaces = [CircularWord(a, 3) for a in words._necklaces(3, m)]
            assert set(occurrence_matrix(necklaces, family).entries) == every

    def test_size_limit(self, monkeypatch):
        set_cap(monkeypatch, 2**12)
        echelon, rank_by_length, bound, saturated = _sample_echelon(2, 4, 12)
        assert len(echelon) == bound == 9
        assert saturated
        assert rank_by_length[-1] == (12, 9)
        set_cap(monkeypatch, 2**12 - 1)
        with pytest.raises(SizeLimitError):
            _sample_echelon(2, 4, 12)


def plain_sample(d, l, max_len, counts=None):
    """Reference sampler: every distinct row of every length goes to the kernel.

    counts(letters, d, l) makes each dense row, words._dense_counts by
    default; the kernel gets its nonzero entries.
    """
    counts = counts or words._dense_counts
    echelon = {}
    rank_by_length = []
    for m in range(1, max_len + 1):
        batch = {frozenset(sparse(counts(a, d, l)).items()) for a in words._necklaces(d, m)}
        rank_by_length.append((m, _bareiss_rank(batch, echelon)))
    return echelon, rank_by_length


def misread_slices(monkeypatch, change):
    """Make the sample read change(data, l, codes) for each word's code string.

    data is the word's letters as the chunk coder yields them, bytes;
    codes are the word's n codes, cut from the chunk's buffer of each
    length at i·stride, and change must return n codes, which are
    written back in their place.

    The chunk coder is patched where span binds it, so the walks past
    the certificate see the change; every row is counted from letters.
    """
    coder = words._chunk_codes

    def misread(letters, d, lengths):
        for chunk, buffers, stride in coder(letters, d, lengths):
            n = len(chunk[0])
            changed = []
            for l, codes in zip(lengths, buffers):
                codes = bytearray(codes)
                for i, a in enumerate(chunk):
                    at = i * stride
                    new = change(a, l, bytes(codes[at : at + n]))
                    assert len(new) == n
                    codes[at : at + n] = new
                changed.append(bytes(codes))
            yield chunk, changed, stride

    monkeypatch.setattr(span, "_chunk_codes", misread)


def miscount(monkeypatch, corrupt, l, moves):
    """Make span._sparse_counts count the length-l row of the word corrupt with moves added.

    moves maps a code to the change of its count; an emptied count
    leaves the row.  The word is matched as letters or as bytes.
    """
    counts = span._sparse_counts

    def miscounted(w, d, m):
        row = counts(w, d, m)
        if m == l and tuple(w) == corrupt:
            row.update(moves)
            row = Counter({c: n for c, n in row.items() if n})
        return row

    monkeypatch.setattr(span, "_sparse_counts", miscounted)


def logged(calls, name, function):
    """function, with each call appended to calls as (name, args)."""

    def call(*args):
        calls.append((name, args))
        return function(*args)

    return call


def misread_code(corrupt, l, at, code):
    """A change for misread_slices: the word corrupt reads its length-l code at as code."""

    def change(data, m, codes):
        if data == bytes(corrupt) and m == l:
            return codes[:at] + bytes([code]) + codes[at + 1 :]
        return codes

    return change


class TestCertifiedSample:
    """Rows past the certificate are checked against the flow law, not eliminated."""

    @pytest.mark.parametrize(
        "d,l,max_len",
        [
            (2, 1, 3), (2, 3, 8), (2, 4, 5), (2, 4, 10), (2, 6, 14), (3, 2, 6), (3, 3, 10),
            (4, 2, 5), (2, 9, 12), (17, 2, 3),
        ],
    )
    def test_same_echelon_and_trace_as_without_the_bound(self, d, l, max_len):
        # (2,4,5) stops short of its bound, so the check never starts there;
        # (2,9,12) and (17,2,3) have d^l > 256, so every row past it is counted
        plain = plain_sample(d, l, max_len)
        checked = _sample_echelon(d, l, max_len)
        assert checked[1] == plain[1]
        assert list(checked[0].items()) == list(plain[0].items())
        assert checked[3] is ((d, l, max_len) != (2, 4, 5))

    def test_kernel_sees_no_row_after_the_certifying_length(self, monkeypatch):
        batches = []
        kernel = span._bareiss_rank

        def recording(rows, echelon):
            batches.append(list(rows))
            return kernel(rows, echelon)

        monkeypatch.setattr(span, "_bareiss_rank", recording)
        report = span_dimension(2, 4, 10)
        assert report.saturated
        # one batch per length 1..10
        assert len(batches) == 10
        assert report.rank_by_length[5] == (6, 9)
        assert [len(batch) for batch in batches[6:]] == [0, 0, 0, 0]

    def test_a_row_that_breaks_the_law_is_eliminated(self, monkeypatch):
        # one length-8 necklace counts its first length-4 factor, 0001 (an
        # edge out of vertex 000 into 001), as the loop 0000, so its row
        # breaks the flow law past the certificate at 6; its first code is
        # misread the same way, so its chunk fails the walk and is counted
        corrupt = u("00010111")
        reduced = []
        kernel = span._bareiss_rank

        def recording(rows, echelon):
            reduced.extend(map(dict, rows))
            return kernel(rows, echelon)

        misread_slices(monkeypatch, misread_code(corrupt, 4, 0, 0b0000))
        miscount(monkeypatch, corrupt, 4, {0b0001: -1, 0b0000: 1})
        monkeypatch.setattr(span, "_bareiss_rank", recording)
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 4, 10)
        bad = sparse(words._dense_counts(corrupt, 2, 4))
        assert bad.pop(0b0001) == 1 and 0b0000 not in bad
        bad[0b0000] = 1
        assert bad in reduced
        assert report.rank_by_length[5:] == ((6, 9), (7, 9), (8, 10), (9, 10), (10, 10))
        assert report.rank == 10
        assert not report.saturated

    def test_a_wide_row_that_breaks_the_law_is_eliminated(self, monkeypatch):
        # 2^9 > 256 columns: past the certificate at 11 every row is
        # counted and checked; one length-12 row gets an extra 000000001,
        # an edge out of vertex 00000000
        corrupt = u("000000010111")
        reduced = []
        kernel = span._bareiss_rank

        def recording(rows, echelon):
            reduced.extend(map(dict, rows))
            return kernel(rows, echelon)

        miscount(monkeypatch, corrupt, 9, {1: 1})
        monkeypatch.setattr(span, "_bareiss_rank", recording)
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 9, 13)
        bad = sparse(words._dense_counts(corrupt, 2, 9))
        bad[1] = bad.get(1, 0) + 1
        assert bad in reduced
        assert report.rank_by_length[9:] == ((10, 192), (11, 257), (12, 258), (13, 258))
        assert report.rank == 258
        assert not report.saturated

    @pytest.mark.parametrize("d,l,max_len", [(2, 4, 10), (3, 3, 10)])
    def test_a_passing_code_string_is_never_counted(self, d, l, max_len, monkeypatch):
        # past the certificate only the chunk whose codes are misread has
        # its words counted, from their letters, and their rows checked
        # against the law; every other chunk is decided on its codes alone
        corrupt = (0,) * (max_len - 1) + (1,)
        chunk = [bytes(a) for a in itertools.islice(span._necklaces(d, max_len), words._BATCH)]
        assert bytes(corrupt) in chunk
        calls = []

        def misread(data, l, string):
            # the same codes in reverse order: the same row, out of sequence
            return string[::-1] if data == bytes(corrupt) else string

        misread_slices(monkeypatch, misread)
        for module, name in (
            (span, "_necklaces"),
            (span, "_sparse_counts"),
            (debruijn, "_balanced"),
        ):
            monkeypatch.setattr(module, name, logged(calls, name, getattr(module, name)))
        report = span_dimension(d, l, max_len)
        assert report.saturated
        certifying = next(m for m, rank in report.rank_by_length if rank == report.rank)
        assert certifying < max_len
        past = calls[calls.index(("_necklaces", (d, certifying + 1))) :]
        assert [name for name, _ in past].count("_necklaces") == max_len - certifying
        counted = [args for name, args in past if name == "_sparse_counts"]
        assert counted == [(a, d, l) for a in chunk]
        # each distinct row of the chunk is checked once
        rows = {frozenset(sparse(words._dense_counts(a, d, l)).items()) for a in chunk}
        checked = [args for name, args in past if name == "_balanced"]
        assert len(checked) == len(rows)
        assert {row for row, _, _ in checked} == rows
        assert {(a, b) for _, a, b in checked} == {(d, d ** (l - 1))}

    @settings(max_examples=400)
    @given(st.data())
    def test_law_helper_answers_as_the_counted_row(self, data):
        # l on both sides of d^l = 256: (2, 9), (3, 6) and (4, 5) are past
        # it.  A misread code only fails the walk, and the row is then
        # counted from the letters; a miscounted row is kept exactly when
        # it is counted and breaks the law
        d = data.draw(st.integers(2, 4), label="d")
        l = data.draw(st.integers(1, {2: 9, 3: 6, 4: 5}[d]), label="l")
        letters = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=30)))
        width = d**l
        row = words._dense_counts(letters, d, l)
        if data.draw(st.booleans(), label="miscount"):
            i = data.draw(st.integers(0, width - 1), label="column")
            row[i] += data.draw(st.sampled_from([-1, 1, 2]), label="change")
        counted = width > 256
        with pytest.MonkeyPatch.context() as mp:
            if not counted:
                codes = bytearray(words._codes(letters, d, l))
                if data.draw(st.booleans(), label="misread"):
                    i = data.draw(st.integers(0, len(codes) - 1), label="position")
                    code = st.integers(0, width - 1) | st.integers(0, 255)
                    codes[i] = data.draw(code, label="code")
                codes = bytes(codes)
                source, target = debruijn._end_tables(d, l - 1)
                counted = debruijn._walk_sources(codes, source, target) is None
                misread_slices(mp, lambda *args: codes)
            mp.setattr(span, "_sparse_counts", lambda *args: Counter(sparse(row)))
            broken = span._sample_rows([letters], d, l, certified=True)
        out_sums, in_sums = debruijn._edge_sums(d, row)
        law = list(out_sums) == list(in_sums)
        assert broken == (set() if law or not counted else {frozenset(sparse(row).items())})

    def test_law_helper_sees_a_fault_the_comparison_cannot_tell(self, monkeypatch):
        # the first code of 000111, the loop 000, is misread, so the walk
        # fails and the row is counted; counted with that loop as another
        # loop it keeps the law and passes, as a non-loop edge it breaks it
        w = u("000111")
        for code, holds in ((0b111, True), (0b011, False)):
            misread_slices(monkeypatch, misread_code(w, 3, 0, code))
            miscount(monkeypatch, w, 3, {0b000: -1, code: 1})
            broken = span._sample_rows([w], 2, 3, certified=True)
            assert (broken == set()) is holds
            monkeypatch.undo()

    def test_a_misread_code_sends_its_chunk_word_by_word(self, monkeypatch):
        # one length-8 necklace reads its last length-4 code, 1000, as
        # 0001, so its walk cannot close; its chunk of 8 fails its one
        # block test, and only that chunk's words are counted, from their
        # letters, and checked against the law, which every row obeys
        monkeypatch.setattr(words, "_BATCH", 8)
        letters = list(span._necklaces(2, 8))
        corrupt = u("00010111")
        at = letters.index(corrupt) // 8 * 8
        chunk = [bytes(a) for a in letters[at : at + 8]]
        assert len(letters) > len(chunk) == 8
        assert words._codes(corrupt, 2, 4)[-1] == 0b1000
        calls = []
        misread_slices(monkeypatch, misread_code(corrupt, 4, 7, 0b0001))
        for module, name in (
            (debruijn, "_walk_sources"),
            (span, "_sparse_counts"),
            (debruijn, "_balanced"),
        ):
            monkeypatch.setattr(module, name, logged(calls, name, getattr(module, name)))
        assert span._sample_rows(letters, 2, 4, certified=True) == set()
        walks = [args for name, args in calls if name == "_walk_sources"]
        assert [len(args) for args in walks] == [4] * -(-len(letters) // 8)
        assert [args for name, args in calls if name == "_sparse_counts"] == [
            (a, 2, 4) for a in chunk
        ]
        checked = [args for name, args in calls if name == "_balanced"]
        rows = {frozenset(sparse(words._dense_counts(a, 2, 4)).items()) for a in chunk}
        assert {row for row, _, _ in checked} == rows and len(checked) == len(rows)

    @settings(max_examples=200)
    @given(st.data())
    def test_uncertified_rows_are_the_dense_rows(self, data):
        # before the certificate every distinct row is returned: the
        # nonzero entries of the word's dense row, whatever d^l
        d = data.draw(st.integers(2, 4), label="d")
        l = data.draw(st.integers(1, {2: 9, 3: 6, 4: 5}[d]), label="l")
        # one word length per example, as the sample passes them
        n = data.draw(st.integers(1, 20), label="n")
        word = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
        letters = data.draw(st.lists(word, max_size=6), label="words")
        rows = {frozenset(sparse(words._dense_counts(a, d, l)).items()) for a in letters}
        assert span._sample_rows(letters, d, l, certified=False) == rows

    def test_a_kept_row_that_breaks_the_law_keeps_every_row_eliminated(self, monkeypatch):
        # a corrupt length-5 row lifts the rank to the bound 9 one length
        # early; the kept rows then do not span null(R), and every later
        # row must still be reduced for the trace to stay exact
        corrupt = u("00011")

        def dense_miscount(letters, d, l):
            row = words._dense_counts(letters, d, l)
            if letters == corrupt:
                row[0b0001] -= 1
                row[0b0000] += 1
            return row

        # its first code, 0001, counted and read as 0000
        misread_slices(monkeypatch, misread_code(corrupt, 4, 0, 0b0000))
        miscount(monkeypatch, corrupt, 4, {0b0001: -1, 0b0000: 1})
        plain = plain_sample(2, 4, 8, dense_miscount)
        checked = _sample_echelon(2, 4, 8)
        assert plain[1][4] == (5, 9)
        assert plain[1][-1] == (8, 10)
        assert checked == (*plain, 9, False)

    def test_each_chunk_is_coded_in_one_scan_and_no_word_is_built(self, monkeypatch):
        # past the certificate at 4 each length's necklaces are coded 7 at
        # a time, one _codes scan per chunk, as bare letters; before it
        # every row is counted from the letters, with no scan
        sizes = [sum(1 for _ in span._necklaces(3, m)) for m in range(5, 11)]
        scans = []
        made = words._codes

        def counted(letters, d, l):
            scans.append(l)
            return made(letters, d, l)

        monkeypatch.setattr(words, "_codes", counted)
        monkeypatch.setattr(words, "_BATCH", 7)
        monkeypatch.setattr(CircularWord, "_unchecked", never)
        monkeypatch.setattr(CircularWord, "__init__", never)
        report = span_dimension(3, 3, 10)
        assert report.saturated
        assert report.rank_by_length[3] == (4, report.rank)
        assert report.rank_by_length[2][1] < report.rank
        assert scans == [3] * sum(-(-size // 7) for size in sizes)

    @pytest.mark.parametrize("d,l,max_len", [(3, 3, 10), (2, 4, 10)])
    def test_a_certified_chunk_is_one_walk_and_no_slice(self, d, l, max_len, monkeypatch):
        # past the certifying length each chunk is decided by one block
        # test on the codes gathered from its buffer: no row is counted,
        # and none is checked against the law
        events = []
        coder = span._chunk_codes

        def logged_coder(*args):
            for record in coder(*args):
                events.append(("chunk", len(record[0][0])))
                yield record

        def counted(name, function):
            def call(*args):
                events.append((name, len(args)))
                return function(*args)

            return call

        monkeypatch.setattr(span, "_chunk_codes", logged_coder)
        for module, name in (
            (debruijn, "_walk_sources"),
            (span, "_sparse_counts"),
            (debruijn, "_balanced"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        report = span_dimension(d, l, max_len)
        assert report.saturated
        certifying = next(m for m, rank in report.rank_by_length if rank == report.rank)
        assert certifying < max_len
        first = events.index(("chunk", certifying + 1))
        assert ("_sparse_counts", 3) in events[:first]
        past = events[first:]
        chunks = [event for event in past if event[0] == "chunk"]
        sizes = [sum(1 for _ in span._necklaces(d, m)) for m in range(certifying + 1, max_len + 1)]
        assert len(chunks) == sum(-(-size // words._BATCH) for size in sizes)
        assert past == [event for chunk in chunks for event in (chunk, ("_walk_sources", 4))]

    def test_sample_memory_stays_within_a_small_chunk(self):
        # the letter tuples and buffer of one chunk are the sample's
        # largest allocation: 256 words peak near 0.1 MB, 4096 near
        # 1.6 MB, which would show in the rank workload's peak RSS
        span_dimension(3, 3, 10)  # fill the caches, which are not per call
        tracemalloc.start()
        try:
            span_dimension(3, 3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_a_large_alphabet_holds_no_dense_row(self):
        # rank --d 1024 --l 2 --max-len 2 once counted a row of all d^l
        # columns for each necklace; the rows are now their nonzero counts,
        # so (32, 2, 2) peaks well below one dense row per necklace
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="lower bound"):
                report = span_dimension(32, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rank_by_length == ((1, 32), (2, 528))
        assert peak < 2 << 20


def _dense_row(w, l):
    """The count of every length-l factor of w, all d^l of them, lexicographically."""
    counts = occurrence_vector(w, l)
    return [counts[f] for f in Alphabet(w.d).words(l)]


class TestMarginals:
    @settings(max_examples=200)
    @given(
        circular_words_any_alphabet(max_d=3, max_n=14),
        st.sampled_from(["cks", "spanning", "mixed"]),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_block_sums_are_the_counts(self, w, kind, l, with_length):
        if kind == "cks":
            family = cks_family(w.d, l)
        elif kind == "spanning":
            w = CircularWord(tuple(a % 2 for a in w.letters), 2)
            family = spanning_set_family(l)
        else:
            factors = [v for m in (1, l) for v in Alphabet(w.d).words(m)][::3]
            head = [()] if with_length else []
            family = FunctionalFamily(w.d, tuple(dict.fromkeys(head + factors)))
        values = _block_sums(w.d, l, family.factors)(span._sparse_counts(w.letters, w.d, l))
        expected = occurrence_matrix([w], family).entries[0]
        assert tuple(values.get(f, 0) for f in family.factors) == expected
        assert _marginals([_dense_row(w, l)], w.d, l, family.factors) == [expected]

    def test_length_is_the_row_sum(self):
        # the map is linear, so it applies to any combination of count rows
        values = _block_sums(2, 2, ((), u("1")))
        assert values({0b00: 5, 0b01: -2, 0b11: 7}) == {(): 10, u("1"): 7}


class TestCaps:
    # max_len >= l, as the sample needs, so the cap on d^max_len is the
    # one that binds; below it the call is refused before any family is
    # built
    def test_cks_cap_boundary(self, monkeypatch):
        set_cap(monkeypatch, 2**8)
        assert verify_cks_basis(2, 3, 8) is True
        set_cap(monkeypatch, 2**8 - 1)
        monkeypatch.setattr(span, "cks_family", never)
        with pytest.raises(SizeLimitError):
            verify_cks_basis(2, 3, 8)

    def test_spanning_set_cap_boundary(self, monkeypatch):
        set_cap(monkeypatch, 2**8)
        assert verify_spanning_set(8, l=3) is True
        set_cap(monkeypatch, 2**8 - 1)
        monkeypatch.setattr(span, "spanning_set_family", never)
        with pytest.raises(SizeLimitError):
            verify_spanning_set(8, l=3)

    def test_express_caps_the_longest_factor(self, monkeypatch):
        # the target is longer than every basis factor and than max_len;
        # |W|_000000 is |W| on 0^n and 0 elsewhere, outside the span
        set_cap(monkeypatch, 2**6)
        with pytest.raises(NotInSpanError):
            express_in_span(u("000000"), cks_family(2, 2), 4)
        set_cap(monkeypatch, 2**6 - 1)
        with pytest.raises(SizeLimitError):
            express_in_span(u("000000"), cks_family(2, 2), 4)

    def test_express_caps_a_long_basis_factor(self, monkeypatch):
        basis = FunctionalFamily(2, ((), u("1"), u("111111")))
        set_cap(monkeypatch, 2**6)
        # max_len 4 is below the factor length 6, and not read: the
        # length-6 certificate words prove the answer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert express_in_span(u("0"), basis, 4) == (1, -1, 0)
        set_cap(monkeypatch, 2**6 - 1)
        with pytest.raises(SizeLimitError):
            express_in_span(u("0"), basis, 4)

    def test_binary_target_past_20_letters_is_refused(self):
        with pytest.raises(SizeLimitError):
            express_in_span((0,) * 21, cks_family(2, 1), 1)

    # the public functions that list all d^l words of a length are capped
    # like the sampler; at the cap they still answer, past it they refuse
    # before any word is listed
    @pytest.mark.parametrize(
        "build, size",
        [
            (lambda: all_factors_family(2, 5), 2**5),
            (lambda: all_factors_family(3, 3), 3**3),
            (lambda: cks_family(2, 5), 2**5),
            (lambda: cks_family(3, 3), 3**3),
            (lambda: spanning_set_family(6), 2**5),
            (lambda: marginalization_check(cw("0010110"), 5), 2**5),
            (lambda: marginalization_check(cw("0120"), 3), 3**3),
        ],
    )
    def test_word_listing_cap_boundary(self, build, size, monkeypatch):
        set_cap(monkeypatch, size)
        assert build()
        set_cap(monkeypatch, size - 1)
        monkeypatch.setattr(span, "Alphabet", never)
        monkeypatch.setattr(span, "occurrence_vector", never)
        with pytest.raises(SizeLimitError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: all_factors_family(2, 30),
            lambda: cks_family(2, 30),
            lambda: spanning_set_family(31),
            lambda: marginalization_check(cw("0110"), 30),
        ],
    )
    def test_word_listings_refuse_a_long_factor_at_the_default_cap(self, build, monkeypatch):
        # past the cap no word may be listed: an uncapped build would need
        # about 2^30 tuples
        monkeypatch.setattr(span, "Alphabet", never)
        monkeypatch.setattr(span, "occurrence_vector", never)
        with pytest.raises(SizeLimitError, match="exceed the cap of 1048576"):
            build()
