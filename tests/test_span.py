"""Exact rank, span dimension, spanning set, CKS basis, marginalization."""

from fractions import Fraction

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
    enumerate_necklaces,
    enumerate_words,
    exact_rank,
    express_in_span,
    marginalization_check,
    occurrence_matrix,
    occurrence_vector,
    predicted_dimension,
    span_dimension,
    spanning_set_family,
    verify_cks_basis,
    verify_spanning_set,
)
from circwords import span
from circwords.span import _bareiss_rank, _flow_relations, _marginals, _sample_echelon, _solve
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
    return [w for m in range(1, max_len + 1) for w in enumerate_necklaces(d, m)]


def set_cap(monkeypatch, cap):
    monkeypatch.setattr("circwords.words.DEFAULT_SIZE_LIMIT", cap)


def never(*args):
    raise AssertionError("built past the cap")


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
        fam = FunctionalFamily(d=2, factors=(u("1"),), include_length=True)
        m = occurrence_matrix([cw("0110")], fam)
        assert m.entries == ((4, 2),)
        assert fam.column_labels() == ("length", "1")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            occurrence_matrix([cw("012")], ALL_LENGTH_4)

    def test_duplicate_factors_rejected(self):
        with pytest.raises(ValueError):
            FunctionalFamily(d=2, factors=(u("01"), u("01")))


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

    def test_default_max_len_is_2l_plus_2(self):
        report = span_dimension(2, 3)
        assert report.lengths == tuple(range(1, 9))

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_rank_trace_is_monotone_and_sticks(self, d, l):
        report = span_dimension(d, l)
        ranks = [r for _, r in report.rank_by_length]
        assert ranks == sorted(ranks)
        first_hit = ranks.index(report.predicted)
        assert first_hit + 1 <= 2 * l + 2
        assert all(r == report.predicted for r in ranks[first_hit:])

    @pytest.mark.parametrize("d,l", [(2, 3), (3, 2), (2, 4)])
    def test_rank_trace_matches_rank_of_each_prefix_sample(self, d, l):
        report = span_dimension(d, l)
        family = all_factors_family(d, l)
        for m, rank in report.rank_by_length:
            assert rank == exact_rank(occurrence_matrix(words_up_to(d, m), family))

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
        "change",
        [
            # same rank, but the sample rows do not obey them: no bound
            lambda relations: [r[1:] + r[:1] for r in relations],
            # two of them dropped: their rank is one less, the bound one higher
            lambda relations: relations[1:-1],
        ],
    )
    def test_no_certificate_from_wrong_relations(self, change, monkeypatch):
        relations = span._flow_relations
        monkeypatch.setattr(span, "_flow_relations", lambda d, l: change(relations(d, l)))
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 3, 8)
        assert report.rank == 5
        assert not report.saturated

    @pytest.mark.parametrize("d,l", [(2, 1), (2, 2), (2, 4), (2, 6), (3, 3), (4, 2)])
    def test_flow_relations_have_rank_vertices_minus_one(self, d, l):
        assert _bareiss_rank(_flow_relations(d, l), {}) == d ** (l - 1) - 1

    def test_preconditions(self, monkeypatch):
        with pytest.raises(ValueError):
            span_dimension(2, 4, 3)
        set_cap(monkeypatch, 1024)
        assert span_dimension(2, 4, 10).saturated
        set_cap(monkeypatch, 1023)
        with pytest.raises(SizeLimitError):
            span_dimension(2, 4, 10)

    def test_refuses_before_the_flow_relations(self, monkeypatch):
        monkeypatch.setattr(span, "_flow_relations", never)
        set_cap(monkeypatch, 255)
        with pytest.raises(SizeLimitError):
            span_dimension(2, 3, 8)

    def test_json_round_trip(self):
        import json

        report = span_dimension(2, 2, 6)
        payload = json.loads(report.to_json())
        assert payload["rank"] == payload["predicted"] == 3
        assert payload["relations"] == 1

    @pytest.mark.parametrize("d,l", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_matches_cyclomatic_number(self, d, l):
        assert predicted_dimension(d, l) == cyclomatic_number(build_graph(d, l - 1))


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
        escaped = reduced.extended([u("0101")])
        assert exact_rank(occurrence_matrix(words, escaped)) == 9

    def test_necklace_sample_sees_1010_missing(self, monkeypatch):
        fam = spanning_set_family(4)
        reduced = FunctionalFamily(
            d=2, factors=tuple(f for f in fam.factors if f != u("1010"))
        )
        words = necklaces_up_to(2, 10)
        assert exact_rank(occurrence_matrix(words, reduced)) == 8
        assert exact_rank(occurrence_matrix(words, reduced.extended([u("0101")]))) == 9
        monkeypatch.setattr(span, "spanning_set_family", lambda l: reduced)
        monkeypatch.setattr(span, "cks_family", lambda d, l: reduced)
        assert not verify_spanning_set(10)
        assert not verify_cks_basis(2, 4, 10)

    def test_binary_only(self):
        with pytest.raises(ValueError):
            verify_spanning_set(6, l=2, d=3)


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

    def test_binary_cases(self):
        assert verify_cks_basis(2, 3, 8)
        assert verify_cks_basis(2, 4, 10)

    def test_smallest_case(self):
        # basis {length, 1} expresses |W|_0 = |W| - |W|_1
        assert verify_cks_basis(2, 1, 4)
        coeffs = express_in_span(
            u("0"), FunctionalFamily(d=2, factors=(u("1"),), include_length=True), 4
        )
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
        # one sampling batch per length 1..10, then one elimination per family
        assert len(batches) == 12
        sampled, families = batches[:10], batches[10:]
        rows = [r for batch in sampled for r in batch]
        # 261 necklaces up to length 10 give 231 distinct count rows
        assert len(rows) == len(set(rows)) == 231
        # a family's values are taken on the 9 kept rows, not on the sample
        assert all(len(batch) <= 9 for batch in families)


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
                expected = _solve(rows, m.ncols)
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


class TestSampleWords:
    """The sample: one necklace per rotation class of each length."""

    def test_counts(self):
        assert len(necklaces_up_to(2, 5)) == 2 + 3 + 4 + 6 + 8

    def test_same_distinct_rows_as_all_words(self):
        family = all_factors_family(3, 3)
        for m in range(1, 7):
            every = set(occurrence_matrix(list(enumerate_words(3, m)), family).entries)
            necklaces = list(enumerate_necklaces(3, m))
            assert set(occurrence_matrix(necklaces, family).entries) == every

    def test_size_limit(self, monkeypatch):
        set_cap(monkeypatch, 2**12)
        echelon, rank_by_length = _sample_echelon(2, 4, 12)
        assert len(echelon) == 9
        assert rank_by_length[-1] == (12, 9)
        set_cap(monkeypatch, 2**12 - 1)
        with pytest.raises(SizeLimitError):
            _sample_echelon(2, 4, 12)


def flow_bound(d, l):
    return d**l - _bareiss_rank(_flow_relations(d, l), {})


class TestCertifiedSample:
    """Rows past the certificate are checked against the flow law, not eliminated."""

    @pytest.mark.parametrize(
        "d,l,max_len",
        [(2, 1, 3), (2, 3, 8), (2, 4, 5), (2, 4, 10), (2, 6, 14), (3, 2, 6), (3, 3, 10), (4, 2, 5)],
    )
    def test_same_echelon_and_trace_as_without_the_bound(self, d, l, max_len):
        # (2,4,5) stops short of its bound, so the check never starts there
        plain = _sample_echelon(d, l, max_len)
        checked = _sample_echelon(d, l, max_len, flow_bound(d, l))
        assert checked[1] == plain[1]
        assert list(checked[0].items()) == list(plain[0].items())

    def test_kernel_sees_no_row_after_the_certifying_length(self, monkeypatch):
        batches = []
        kernel = span._bareiss_rank

        def recording(rows, echelon):
            batches.append(list(rows))
            return kernel(rows, echelon)

        monkeypatch.setattr(span, "_bareiss_rank", recording)
        report = span_dimension(2, 4, 10)
        assert report.saturated
        # the flow relations first, then one batch per length 1..10
        assert len(batches) == 11
        assert report.rank_by_length[5] == (6, 9)
        assert [len(batch) for batch in batches[7:]] == [0, 0, 0, 0]

    def test_a_row_that_breaks_the_law_is_eliminated(self, monkeypatch):
        # one length-8 row gets an extra 0001, an edge out of vertex 000
        # into 001, so it breaks the flow law past the certificate at 6
        corrupt = u("00010111")
        counts = span._dense_counts
        reduced = []
        kernel = span._bareiss_rank

        def miscount(letters, d, l):
            row = counts(letters, d, l)
            if letters == corrupt:
                row[1] += 1
            return row

        def recording(rows, echelon):
            reduced.extend(map(tuple, rows))
            return kernel(rows, echelon)

        monkeypatch.setattr(span, "_dense_counts", miscount)
        monkeypatch.setattr(span, "_bareiss_rank", recording)
        with pytest.warns(UserWarning, match="lower bound"):
            report = span_dimension(2, 4, 10)
        bad = counts(corrupt, 2, 4)
        bad[1] += 1
        assert tuple(bad) in reduced
        assert report.rank_by_length[5:] == ((6, 9), (7, 9), (8, 10), (9, 10), (10, 10))
        assert report.rank == 10
        assert not report.saturated

    def test_a_kept_row_that_breaks_the_law_keeps_every_row_eliminated(self, monkeypatch):
        # a corrupt length-5 row lifts the rank to the bound 9 one length
        # early; the kept rows then do not span null(R), and every later
        # row must still be reduced for the trace to stay exact
        corrupt = u("00011")
        counts = span._dense_counts

        def miscount(letters, d, l):
            row = counts(letters, d, l)
            if letters == corrupt:
                row[1] += 1
            return row

        monkeypatch.setattr(span, "_dense_counts", miscount)
        plain = _sample_echelon(2, 4, 8)
        checked = _sample_echelon(2, 4, 8, flow_bound(2, 4))
        assert plain[1][4] == (5, 9)
        assert plain[1][-1] == (8, 10)
        assert checked == plain


def _dense_row(w, l):
    counts = occurrence_vector(w, l)
    return [c for _, c in counts.dense_items()]


class TestMarginals:
    @settings(max_examples=200)
    @given(
        circular_words_any_alphabet(max_d=3, max_n=14),
        st.sampled_from(["cks", "spanning", "mixed"]),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_block_sums_are_the_counts(self, w, kind, l, include_length):
        if kind == "cks":
            family = cks_family(w.d, l)
        elif kind == "spanning":
            w = CircularWord(tuple(a % 2 for a in w.letters), 2)
            family = spanning_set_family(l)
        else:
            factors = [v for m in (1, l) for v in Alphabet(w.d).words(m)][::3]
            family = FunctionalFamily(w.d, tuple(dict.fromkeys(factors)), include_length)
        (values,) = _marginals(
            [_dense_row(w, l)], w.d, l, family.factors, family.include_length
        )
        assert values == occurrence_matrix([w], family).entries[0]

    def test_length_is_the_row_sum(self):
        family = FunctionalFamily(2, (u("1"),), include_length=True)
        assert _marginals([[5, -2, 0, 7]], 2, 2, family.factors, True) == [(10, 7)]


class TestCaps:
    # max_len < l in each case, so the cap on d^l is the one that binds;
    # below it the call is refused before any family is built
    def test_cks_cap_boundary(self, monkeypatch):
        set_cap(monkeypatch, 2**5)
        assert verify_cks_basis(2, 5, 4) is False
        set_cap(monkeypatch, 2**5 - 1)
        monkeypatch.setattr(span, "cks_family", never)
        with pytest.raises(SizeLimitError):
            verify_cks_basis(2, 5, 4)

    def test_spanning_set_cap_boundary(self, monkeypatch):
        set_cap(monkeypatch, 2**6)
        assert verify_spanning_set(4, l=6) is False
        set_cap(monkeypatch, 2**6 - 1)
        monkeypatch.setattr(span, "spanning_set_family", never)
        with pytest.raises(SizeLimitError):
            verify_spanning_set(4, l=6)

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
        basis = FunctionalFamily(2, (u("1"), u("111111")), include_length=True)
        set_cap(monkeypatch, 2**6)
        assert express_in_span(u("0"), basis, 4) == (1, -1, 0)
        set_cap(monkeypatch, 2**6 - 1)
        with pytest.raises(SizeLimitError):
            express_in_span(u("0"), basis, 4)

    def test_binary_target_past_20_letters_is_refused(self):
        with pytest.raises(SizeLimitError):
            express_in_span((0,) * 21, cks_family(2, 1), 1)
