"""Circular words: construction, counting, occurrence vectors, rotations, necklaces."""

import itertools
import math
import tracemalloc
from collections import Counter, deque
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circwords import (
    Alphabet,
    BadLetterError,
    CircularWord,
    EmptyFactorError,
    EmptyWordError,
    SizeLimitError,
    count_occurrences,
    decompose_blocks,
    enumerate_words,
    grandsart_report,
    mirror,
    occurrence_positions,
    occurrence_vector,
    parse_circular,
    parse_word,
    winding_number_decomposition,
    word_string,
)
from circwords import debruijn, span, words
from circwords.errors import BadParameterError
from conftest import (
    binary_circular_words,
    circular_words_any_alphabet,
    cw,
    scan_count,
    u,
    unrolled_count,
    words_and_families,
)


def necklace_count(d, n):
    """(1/n) sum over k | n of phi(k) d^(n/k), the number of rotation classes."""
    phi = lambda k: sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
    return sum(phi(k) * d ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


class TestConstruction:
    def test_circular_word(self):
        w = CircularWord((0, 0, 1, 0, 1))
        assert w.n == 5
        assert w.letters == (0, 0, 1, 0, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            CircularWord(())

    def test_bad_letter_rejected(self):
        with pytest.raises(BadLetterError):
            CircularWord((0, 2))

    @pytest.mark.parametrize("letters", [(0, 1, 2, 0), (-1, 0), (0, 1, 0.5)])
    def test_bad_letter_is_named(self, letters):
        bad = next(a for a in letters if a not in (0, 1))
        with pytest.raises(BadLetterError, match=f"letter {bad} outside alphabet 0..1"):
            CircularWord(letters)

    @pytest.mark.parametrize("d", [2, 300])
    def test_float_letter_is_refused(self, d):
        # 1.0 == 1, so a test by equality alone would let it through
        with pytest.raises(BadLetterError, match=f"letter 1.0 outside alphabet 0..{d - 1}"):
            CircularWord((0, 1.0), d)

    @pytest.mark.parametrize(
        "letters,bad",
        [((256, 300), 300), ((299, -1), -1), ((256, 1.0), 1.0), ((256, "1"), "1"), ((0, 2**70), 2**70)],
    )
    def test_a_wide_alphabet_names_its_first_bad_letter(self, letters, bad):
        # a letter past 255 fails the bytes check, and the letter loop
        # names the first letter outside 0..d-1
        with pytest.raises(BadLetterError, match=f"letter {bad} outside alphabet 0..299"):
            CircularWord(letters, 300)

    def test_a_wide_alphabet_holds_letters_past_255_as_a_tuple(self):
        w = CircularWord((0, 299, 256, True), 300)
        assert w._data == (0, 299, 256, 1)
        assert w.letters == (0, 299, 256, 1)

    def test_float_factor_letter_is_refused(self):
        with pytest.raises(BadLetterError, match="letter 1.0 outside alphabet 0..1"):
            span.FunctionalFamily(2, ((1.0,),))

    @pytest.mark.parametrize("d", [2, 300])
    def test_boolean_letters_are_accepted(self, d):
        assert CircularWord((False, True), d) == CircularWord((0, 1), d)

    def test_parse_circular_checks_against_the_given_alphabet(self):
        with pytest.raises(BadLetterError, match="letter 2 outside alphabet 0..1"):
            parse_circular("0120", 2)
        with pytest.raises(EmptyWordError):
            parse_circular("", 2)

    def test_alphabet_needs_two_letters(self):
        with pytest.raises(BadParameterError, match="alphabet needs at least 2 letters"):
            Alphabet(1)

    @pytest.mark.parametrize("d", [2.5, 2.0, "2", None])
    def test_alphabet_size_must_be_an_integer(self, d):
        with pytest.raises(BadParameterError, match="alphabet size must be an integer"):
            Alphabet(d)

    def test_word_over_a_non_integer_alphabet_is_refused(self):
        with pytest.raises(BadParameterError, match="got d=2.5"):
            CircularWord((0, 1), 2.5)

    def test_parse_circular_refuses_a_non_integer_alphabet(self):
        with pytest.raises(BadParameterError, match="got d=2.0"):
            parse_circular("0101", 2.0)

    def test_parse_infers_alphabet(self):
        assert cw("010011").d == 2
        assert cw("000").d == 2  # never below 2
        assert cw("0120").d == 3
        assert cw("90").d == 10

    def test_parse_rejects_non_digits(self):
        with pytest.raises(BadLetterError):
            parse_word("01a")

    @pytest.mark.parametrize("text", ["٠١١", "²", "1²0", "0 1"])
    @pytest.mark.parametrize("parse", [parse_word, parse_circular])
    def test_parse_accepts_ascii_digits_only(self, parse, text):
        with pytest.raises(BadLetterError, match="is not a digit"):
            parse(text)

    def test_round_trip(self):
        assert str(cw("010011")) == "010011"
        assert word_string(u("1100")) == "1100"


class TestCounting:
    def test_paper_count_00101(self):
        assert count_occurrences(cw("00101"), u("010")) == 2

    def test_paper_count_wraps_the_end(self):
        w = cw("0001")
        assert count_occurrences(w, u("010")) == 1
        assert occurrence_positions(w, u("010")) == (2,)

    def test_constant_word(self):
        assert count_occurrences(cw("0000"), u("00")) == 4

    @pytest.mark.parametrize(
        "word, factor, count",
        [
            # hits that overlap
            ("0000", "00", 4),
            ("01010", "010", 2),
            ("0101", "0101", 2),
            ("00100", "00", 3),
            ("0", "000", 1),
            ("0120120", "01201", 1),
            # hits that cannot overlap
            ("0101", "01", 2),
            ("001001001", "001", 3),
            ("0120120120", "012", 3),
            ("001001", "001", 2),
            ("0011", "0011", 1),
            ("0120120", "012", 2),
        ],
    )
    def test_overlapping_hits_all_count(self, word, factor, count):
        w = parse_circular(word)
        assert count_occurrences(w, factor) == count == unrolled_count(w.letters, u(factor))
        assert len(occurrence_positions(w, factor)) == count

    def test_factor_longer_than_word(self):
        # oracle: unroll W periodically to length n + |U|
        assert unrolled_count((0,), (0, 0, 0, 0)) == 1
        assert count_occurrences(cw("0"), u("0000")) == 1

    def test_empty_factor_rejected(self):
        with pytest.raises(EmptyFactorError):
            count_occurrences(cw("01"), ())

    def test_factor_outside_alphabet_rejected(self):
        with pytest.raises(BadLetterError):
            count_occurrences(cw("01"), (0, 2))

    @given(binary_circular_words(), st.lists(st.integers(0, 1), min_size=1, max_size=9))
    def test_matches_modular_scan_oracle(self, w, factor):
        assert count_occurrences(w, tuple(factor)) == scan_count(w, factor)

    def test_digit_string_factor(self):
        assert count_occurrences(cw("0011"), "01") == 1
        assert occurrence_positions(cw("0011"), "01") == (1,)

    def test_letters_wider_than_a_byte(self):
        # 1, 256 is 00 01 01 00 in two-byte letters: 01 01, the letter 257,
        # sits across the letter boundary and is no occurrence
        w = CircularWord((1, 256, 1), 300)
        assert count_occurrences(w, (257,)) == 0
        assert occurrence_positions(w, (1,)) == (0, 2)
        assert occurrence_positions(w, (1, 1, 256)) == (2,)

    @given(st.data())
    def test_matches_a_slice_at_each_position(self, data):
        d = data.draw(st.sampled_from([2, 3, 4, 300]))
        letters = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12)))
        # factors drawn from the word's own periodic extension, so many occur;
        # lengths either side of d^|u| = 256 pin the code byte and the text search
        start = data.draw(st.integers(0, len(letters) - 1))
        limit = {2: (8, 9), 3: (5, 6), 4: (4, 5), 300: (1, 2)}[d]
        size = data.draw(st.integers(1, 3 * len(letters)) | st.sampled_from(limit))
        factor = data.draw(
            st.one_of(
                st.just((letters * (size // len(letters) + 2))[start : start + size]),
                st.lists(st.integers(0, d - 1), min_size=size, max_size=size).map(tuple),
            )
        )
        n, m = len(letters), len(factor)
        ext = (letters * (m // n + 2))[: n + m]
        expected = tuple(i for i in range(n) if ext[i : i + m] == factor)
        w = CircularWord(letters, d)
        assert occurrence_positions(w, factor) == expected
        assert count_occurrences(w, factor) == len(expected)

    def test_memory_linear_in_word_and_factor(self):
        # windows of the factor's length at every position would peak near 72 MB
        w = CircularWord((0, 0, 1) * 1000, 2)
        factor = w.letters[1:] + w.letters[:1]
        tracemalloc.start()
        try:
            count = count_occurrences(w, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert count == unrolled_count(w.letters, factor) == 1000

    def test_windows_memory_linear_in_word_and_factor(self):
        # l slices of n letters before the first window would peak near 76 MB
        w = CircularWord((0,) * 10**4, 2)
        tracemalloc.start()
        try:
            ov = occurrence_vector(w, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert ov.counts == {(0,) * 1000: 10**4}

    @given(circular_words_any_alphabet(), st.integers(1, 6))
    def test_positions_are_the_counted_ones(self, w, l):
        factor = w.factors(l)[0]
        positions = occurrence_positions(w, factor)
        assert 0 in positions
        assert len(positions) == count_occurrences(w, factor)


class TestOccurrenceVector:
    def test_paper_word_010011(self):
        ov = occurrence_vector(cw("010011"), 4)
        expected = {u(s): 1 for s in ("0100", "1001", "0011", "0110", "1101", "1010")}
        assert dict(ov.counts) == expected

    def test_constant_word(self):
        ov = occurrence_vector(cw("1111"), 4)
        assert dict(ov.counts) == {u("1111"): 4}
        assert ov[u("0000")] == 0

    def test_accepts_strings(self):
        assert occurrence_vector(cw("00101"), 3)["010"] == 2

    def test_wrong_length_lookup_rejected(self):
        with pytest.raises(ValueError):
            occurrence_vector(cw("00101"), 3)["01"]

    @given(circular_words_any_alphabet(), st.integers(1, 6))
    def test_counts_sum_to_length(self, w, l):
        assert sum(occurrence_vector(w, l).counts.values()) == w.n

    @given(binary_circular_words(), st.integers(1, 5), st.integers(-20, 20))
    def test_rotation_invariance(self, w, l, s):
        assert occurrence_vector(w, l).counts == occurrence_vector(w.rotate(s), l).counts

    @given(binary_circular_words(max_n=24), st.integers(1, 4))
    def test_mirror_duality(self, w, l):
        mirrored = {mirror(f): c for f, c in occurrence_vector(w, l).counts.items()}
        assert occurrence_vector(w.reverse(), l).counts == mirrored

    @given(circular_words_any_alphabet(max_n=30), st.data())
    def test_counts_match_per_position_slicing(self, w, data):
        # reference: one factor per position, sliced from the word repeated
        # enough times.  l runs past n, where factors wrap more than once,
        # and past the largest l with d^l <= 256, where the factors are
        # counted as letter tuples instead of byte codes; the keys come in
        # first-occurrence order either way.
        coded = max(l for l in range(1, 9) if w.d**l <= 256)
        lengths = st.integers(1, max(w.n, coded) + 3)
        l = data.draw(st.one_of(st.sampled_from((coded, coded + 1)), lengths))
        ext = w.letters * (l // w.n + 2)
        expected = Counter(ext[i : i + l] for i in range(w.n))
        counts = occurrence_vector(w, l).counts
        assert counts == expected
        assert list(counts) == list(expected)

    @given(circular_words_any_alphabet(max_n=12), st.data())
    def test_codes_index_the_factors_lexicographically(self, w, data):
        l = data.draw(st.integers(1, max(l for l in range(1, 9) if w.d**l <= 256)))
        codes = words._codes(w.letters, w.d, l)
        table = words._factor_table(w.d, l)
        assert table == tuple(itertools.product(range(w.d), repeat=l))
        assert [table[c] for c in codes] == w.factors(l)
        assert w.codes(l) == codes
        assert w.codes(l) is w.codes(l)

    def test_memoised_codes_leave_the_value_unchanged(self):
        w = cw("0100110")
        before = (hash(w), repr(w))
        w.codes(3), w.codes(4)
        fresh = CircularWord(w.letters, w.d)
        assert w == fresh
        assert (hash(w), repr(w)) == (hash(fresh), repr(fresh)) == before

    @pytest.mark.parametrize("letters, d, l", [((0, 1), 2, 0), ((0, 1), 2, 9), ((0, 2), 3, 6)])
    def test_codes_refuse_a_length_past_one_byte(self, letters, d, l):
        with pytest.raises(BadParameterError, match=f"got l={l}"):
            CircularWord(letters, d).codes(l)

    def test_mirror_duality_exhaustive_small(self):
        for n in range(1, 11):
            for w in enumerate_words(2, n):
                for l in range(1, 5):
                    mirrored = {
                        mirror(f): c for f, c in occurrence_vector(w, l).counts.items()
                    }
                    assert occurrence_vector(w.reverse(), l).counts == mirrored


class TestSizeCap:
    def test_huge_exponent_is_refused_without_being_built(self):
        message = r"^2\^1000000000 words exceed the cap of 1048576$"
        with pytest.raises(SizeLimitError, match=message):
            words.check_size(2, 10**9, "words")
        words.check_size(1, 10**9, "words")

    def test_huge_exponent_of_a_negative_base_is_refused_without_being_built(self):
        with pytest.raises(SizeLimitError, match=r"^-1000\^1000000000 words exceed"):
            words.check_size(-1000, 10**9, "words")

    def test_count_is_written_out_up_to_64_bits_past_the_cap(self):
        # the cap 2^20 has bit length 21, so 2^84 is written and 2^85 is not
        with pytest.raises(SizeLimitError, match=rf"^2\^84 = {2**84} words exceed"):
            words.check_size(2, 84, "words")
        with pytest.raises(SizeLimitError, match=r"^2\^85 words exceed"):
            words.check_size(2, 85, "words")
        with pytest.raises(SizeLimitError, match=rf"^3\^84 = {3**84} words exceed"):
            words.check_size(3, 84, "words")


class TestBadLengths:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: span.all_factors_family(2, -1),
            lambda: span.all_factors_family(2, 2.5),
            lambda: span.spanning_set_family(0),
            lambda: span.spanning_set_family(-1),
            lambda: span.cks_family(2, 0),
            lambda: span.cks_family(2, -1),
            lambda: span.marginalization_check(cw("011"), 2.5),
            lambda: span.span_dimension(2, 2.5),
            lambda: span.express_in_span(u("01"), span.cks_family(2, 2), 2.5),
            lambda: span.verify_cks_basis(2, 0, 5),
            lambda: span.verify_spanning_set(5, 0),
            lambda: debruijn.build_graph(2, 2.5),
            lambda: debruijn.verify_kirchhoff(cw("011"), 2.5),
            lambda: next(enumerate_words(2, 2.5)),
            lambda: next(words._necklaces(2, 2.5)),
            lambda: occurrence_vector(cw("011"), 2.5),
            lambda: words.check_size(2, -1, "words"),
            # a non-integer size or length, refused before it is compared
            lambda: span.span_dimension("2", 4),
            lambda: span.all_factors_family("2", 2),
            lambda: span.cks_family(None, 2),
            lambda: span.span_dimension(2, 4, "10"),
            lambda: span.verify_cks_basis(2, 4, "8"),
            lambda: debruijn.build_graph("2", 3),
            lambda: span.marginalization_check(cw("011"), "3"),
            # text that is not a str, a label that is not letters, a length that is not an int
            lambda: parse_word(5),
            lambda: parse_circular(1),
            lambda: count_occurrences(cw("011"), None),
            lambda: occurrence_positions(cw("011"), None),
            lambda: debruijn.is_spanning_tree(debruijn.build_graph(2, 2), [None]),
            lambda: words.random_word(Random(0), "3"),
            # no CircularWord, no letter tuple, an alphabet size below 2, a factor length below 1
            lambda: CircularWord(None),
            lambda: CircularWord([0, 1, 0, 0, 1, 1]),
            lambda: mirror(None),
            lambda: span.express_in_span(None, span.cks_family(2, 2), 4),
            lambda: grandsart_report(None),
            lambda: debruijn.verify_kirchhoff(None, 3),
            lambda: cw("011").factors(0),
            lambda: cw("011").factors(-1),
            lambda: occurrence_vector(None, 3),
            lambda: count_occurrences(None, "0"),
            lambda: occurrence_positions(None, "0"),
            lambda: decompose_blocks(None),
            lambda: span.marginalization_check(None, 3),
            # a word length below 0 or not an integer, for Alphabet.words
            lambda: Alphabet(2).words(-1),
            lambda: Alphabet(2).words(1.5),
            lambda: Alphabet(2).words("2"),
        ],
    )
    def test_refused_as_a_bad_parameter(self, call):
        with pytest.raises(BadParameterError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Alphabet(2).validate(None),
            lambda: cw("011").codes("3"),
            lambda: cw("011").rotate("1"),
            lambda: span.predicted_dimension("2", 2),
            lambda: span.predicted_dimension(2, 0),
            lambda: words.random_word(None, 3),
        ],
        ids=["validate", "codes", "rotate", "predicted_dimension-d", "predicted_dimension-l", "random_word"],
    )
    def test_wrong_types_are_refused_as_a_bad_parameter(self, call):
        with pytest.raises(BadParameterError):
            call()


class TestMirror:
    def test_mirror_examples(self):
        assert mirror(u("0011")) == u("1100")
        assert mirror(u("0110")) == u("0110")
        assert mirror(()) == ()
        assert mirror("0011") == (1, 1, 0, 0)


def long_zero_runs(w):
    """The 0-runs of length >= 2 of a non-constant word.

    Read by itertools.groupby from the rotation that starts at the first
    letter that differs from the one before it, so no run wraps.
    """
    letters = w.letters
    s = next(i for i in range(w.n) if letters[i] != letters[i - 1])
    rotated = letters[s:] + letters[:s]
    return sum(a == 0 and len(list(run)) >= 2 for a, run in itertools.groupby(rotated))


def zero_run_ends(w):
    """|W|_001 and |W|_100: the starts and the ends of the long 0-runs."""
    return count_occurrences(w, u("001")), count_occurrences(w, u("100"))


class TestRuns:
    def test_example_00101(self):
        # the 0-runs are 00 and 0
        w = cw("00101")
        assert long_zero_runs(w) == 1
        assert zero_run_ends(w) == (1, 1)

    def test_constant_word_single_run(self):
        # its one run has no end, so the identity leaves constant words out
        assert zero_run_ends(cw("0000")) == (0, 0)

    def test_wrapping_run(self):
        # the 0-run of 010 wraps through position 0
        w = cw("010")
        assert long_zero_runs(w) == 1
        assert zero_run_ends(w) == (1, 1)

    def test_long_zero_runs_match_counts(self):
        w = cw("0100110001")
        assert long_zero_runs(w) == 2
        assert zero_run_ends(w) == (2, 2)

    def test_long_zero_runs_exhaustive(self):
        # |W|_001 = |W|_100 = number of runs of 0 of length >= 2,
        # for every non-constant binary word up to length 14
        for n in range(1, 15):
            for w in enumerate_words(2, n):
                if len(set(w.letters)) == 1:
                    continue
                ov = occurrence_vector(w, 3)
                assert ov[u("001")] == ov[u("100")] == long_zero_runs(w)


def check_blocks(w):
    """decompose_blocks(w), checked against the word's letters read one at a time."""
    letters, n = w.letters, w.n
    isolated = {i for i in range(n) if letters[i - 1] != letters[i] != letters[(i + 1) % n]}
    blocks = decompose_blocks(w)
    assert [s for s, _ in blocks] == sorted({s for s, _ in blocks})
    covered = []
    for start, arc in blocks:
        # the block follows a run of length >= 2, and alternates
        assert letters[start - 1] == letters[start - 2]
        assert arc and all(a != b for a, b in zip(arc, arc[1:]))
        positions = [(start + j) % n for j in range(len(arc))]
        assert arc == tuple(letters[i] for i in positions)
        covered += positions
    # every isolated letter, unless the word has no other letter
    anchored = isolated if len(isolated) < n else set()
    assert sorted(covered) == sorted(anchored)
    return blocks


class TestBlocks:
    def test_example_010011(self):
        assert decompose_blocks(cw("010011")) == ((0, (0, 1)),)
        assert decompose_blocks(cw("101100")) == ((0, (1, 0)),)
        assert decompose_blocks(cw("101100100")) == ((0, (1, 0)), (6, (1,)))
        # a block through position 0 starts where it begins, before the end
        assert decompose_blocks(cw("01001101")) == ((6, (0, 1, 0, 1)),)

    def test_alternating_word(self):
        for text in ("01", "10", "0101", "1010101010"):
            assert decompose_blocks(cw(text)) == ()

    def test_constant_word(self):
        for text in ("0", "1", "00", "1111"):
            assert decompose_blocks(cw(text)) == ()

    def test_binary_only(self):
        with pytest.raises(BadParameterError):
            decompose_blocks(cw("012"))

    @given(words_and_families)
    def test_isolated_blocks_follow_long_runs(self, w):
        check_blocks(w)

    def test_blocks_exhaustive(self):
        # k: the even blocks starting with 0 less those starting with 1
        for n in range(1, 13):
            for w in enumerate_words(2, n):
                blocks = check_blocks(w)
                k = sum(1 - 2 * arc[0] for _, arc in blocks if len(arc) % 2 == 0)
                assert k == winding_number_decomposition(w) == grandsart_report(w).k_graph


class TestRotations:
    def test_rotate_example(self):
        assert cw("001").rotate(1) == cw("010")
        assert cw("001").rotate(0) == cw("001")

    @given(binary_circular_words(), st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(-8, 8))
    def test_counts_are_rotation_invariant(self, w, factor, s):
        factor = tuple(factor)
        assert count_occurrences(w.rotate(s), factor) == count_occurrences(w, factor)

    @pytest.mark.parametrize("d", [2, 3, 300])
    @given(st.data())
    def test_rotate_and_reverse_are_the_sliced_letters(self, d, data):
        letters = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=20)))
        s = data.draw(st.integers(-25, 25), label="s")
        k = s % len(letters)
        w = CircularWord(letters, d)
        for got, expected in ((w.rotate(s), letters[k:] + letters[:k]), (w.reverse(), letters[::-1])):
            fresh = CircularWord(expected, d)
            assert (got, hash(got), repr(got)) == (fresh, hash(fresh), repr(fresh))
            assert got.letters == expected

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40).map(tuple))
    def test_complement_exchanges_the_letters(self, letters):
        got = CircularWord(letters, 2).complement()
        fresh = CircularWord(tuple(1 - a for a in letters), 2)
        assert (got, hash(got), repr(got)) == (fresh, hash(fresh), repr(fresh))
        assert got.letters == fresh.letters

    @pytest.mark.parametrize("d", [3, 300])
    def test_complement_refuses_a_wider_alphabet(self, d):
        with pytest.raises(BadParameterError, match="complement is defined for binary words"):
            CircularWord((0, 1, 2), d).complement()


#: The most words of one length, d^n, that the routes test enumerates.
ENUMERATED = 1 << 12


class TestHeldLetters:
    """A word holds its letters as bytes when d <= 256, and as a tuple past it."""

    @pytest.mark.parametrize("d", [2, 3, 10, 300])
    @given(st.data())
    def test_a_word_is_the_same_by_every_route(self, d, data):
        drawn = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=12)))
        n = len(drawn)
        # the least rotation, so _necklaces yields it; letters is one of its rotations
        neck = min(drawn[s:] + drawn[:s] for s in range(n))
        k = data.draw(st.integers(0, n - 1), label="k")
        letters = neck[k:] + neck[:k]
        w = CircularWord(letters, d)
        routes = [w.rotate(0), CircularWord(neck, d).rotate(k)]
        if d <= 10:
            routes.append(parse_circular(word_string(letters), d))
        if d**n <= ENUMERATED:
            index = sum(a * d ** (n - 1 - i) for i, a in enumerate(letters))
            routes.append(next(itertools.islice(enumerate_words(d, n), index, None)))
            assert neck in words._necklaces(d, n)
        for v in routes:
            assert (v, hash(v)) == (w, hash(w))
            assert v.letters == letters
            assert (str(v), repr(v)) == (word_string(letters), f"CircularWord({word_string(letters)}, d={d})")

    @pytest.mark.parametrize("d", [2, 3, 10, 12, 300])
    def test_str_is_the_joined_letters(self, d):
        rng = Random(d)
        letters = tuple(rng.randrange(d) for _ in range(500)) + (d - 1, 0)
        w = CircularWord(letters, d)
        assert str(w) == word_string(w.letters) == word_string(letters)

    def test_a_long_word_and_its_report_stay_small(self):
        # a letter tuple alone would take 8 MB, on top of its code strings
        rng = Random(24)
        text = format(rng.getrandbits(10**6), "b").zfill(10**6)
        tracemalloc.start()
        try:
            w = parse_circular(text)
            report = grandsart_report(w)
            kirchhoff = debruijn.verify_kirchhoff(w, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 << 20
        assert report.consistent and kirchhoff.ok
        assert str(w) == text


class TestEnumeration:
    def test_length_one(self):
        assert [str(w) for w in enumerate_words(2, 1)] == ["0", "1"]

    def test_lexicographic_order(self):
        got = [str(w) for w in enumerate_words(2, 3)]
        assert got == ["000", "001", "010", "011", "100", "101", "110", "111"]

    def test_ternary_count(self):
        assert sum(1 for _ in enumerate_words(3, 2)) == 9

    def test_bad_length(self):
        with pytest.raises(ValueError):
            list(enumerate_words(2, 0))

    def test_bad_alphabet(self):
        with pytest.raises(BadParameterError):
            list(enumerate_words(1, 3))

    @pytest.mark.parametrize("d, max_n", [(2, 12), (3, 7), (4, 5)])
    def test_each_word_carries_its_codes(self, d, max_n):
        for n in range(1, max_n + 1):
            assert_enumerated(d, n, memo=True)

    def test_past_one_byte_the_words_carry_no_codes(self):
        for n in range(1, 5):
            assert_enumerated(5, n, memo=False)

    @given(st.integers(1, 40), st.integers(2, 4), st.integers(1, 5))
    def test_any_batch_gives_the_same_words_and_codes(self, batch, d, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words, "_BATCH", batch)
            assert_enumerated(d, n, memo=True)

    def test_memory_stays_within_one_chunk(self):
        # the code buffer holds one chunk of words, never a whole length:
        # 2^16 words of length 16 in one buffer would peak near 22 MB
        tracemalloc.start()
        try:
            deque(enumerate_words(2, 16), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def assert_enumerated(d, n, memo):
    """enumerate_words(d, n) yields the product's words, each equal to a
    checked word, with the codes of lengths 3 and 4 in its memo or none."""
    got = list(enumerate_words(d, n))
    assert [w.letters for w in got] == list(itertools.product(range(d), repeat=n))
    for w in got:
        fresh = CircularWord(w.letters, d)
        assert (w, hash(w), repr(w)) == (fresh, hash(fresh), repr(fresh))
        expected = {l: words._codes(w.letters, d, l) for l in (3, 4)} if memo else None
        assert vars(w).get("_code_memo") == expected


class TestChunkCoder:
    """words._chunk_codes, the one coder of many words, against _codes word by word."""

    @pytest.mark.parametrize("batch", [1, 7, pytest.param(words._BATCH, id="default")])
    @given(st.data())
    def test_each_slice_is_the_words_codes(self, batch, data):
        d = data.draw(st.integers(2, 4), label="d")
        # every factor length whose codes fit a byte, in any order
        fitting = [l for l in range(1, 9) if d**l <= 256]
        lengths = data.draw(st.lists(st.sampled_from(fitting), min_size=1, unique=True), label="lengths")
        # one word length per example: words shorter than max(lengths) - 1
        # are repeated more than twice
        n = data.draw(st.integers(1, 12), label="n")
        letters = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(tuple)
        chunk = data.draw(st.lists(letters, max_size=20), label="words")
        made = words._codes
        scans = []

        def counted(letters, d, l):
            scans.append(l)
            return made(letters, d, l)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words, "_BATCH", batch)
            mp.setattr(words, "_codes", counted)
            coded = [
                (a, tuple(codes[i * stride : i * stride + n] for codes in buffers))
                for data, buffers, stride in words._chunk_codes(iter(chunk), d, lengths)
                for i, a in enumerate(data)
            ]
        assert [a for a, _ in coded] == list(map(bytes, chunk))
        for a, slices in coded:
            assert slices == tuple(made(a, d, l) for l in lengths)
        assert scans == lengths * -(-len(chunk) // batch)


def least_rotation(w):
    """min(w.rotate(s).letters for s in range(w.n)), by slicing the letters."""
    a = w.letters
    return min(a[s:] + a[:s] for s in range(w.n))


class TestNecklaces:
    @pytest.mark.parametrize("d,max_n", [(2, 9), (3, 9), (4, 7), (5, 6)])
    def test_one_least_rotation_per_class_in_order(self, d, max_n):
        for n in range(1, max_n + 1):
            got = list(words._necklaces(d, n))
            classes = {least_rotation(w) for w in enumerate_words(d, n)}
            assert got == sorted(classes)

    def test_four_letters_length_eight_and_nine(self):
        for n in (8, 9):
            got = list(words._necklaces(4, n))
            assert got == sorted(set(got))
            assert all(least_rotation(CircularWord(a, 4)) == a for a in got)
            assert len(got) == necklace_count(4, n)

    @pytest.mark.parametrize("d,max_n", [(2, 14), (3, 10), (4, 7)])
    def test_count_is_the_necklace_formula(self, d, max_n):
        for n in range(1, max_n + 1):
            assert sum(1 for _ in words._necklaces(d, n)) == necklace_count(d, n)
        assert necklace_count(2, 14) == 1182 and necklace_count(3, 10) == 5934

    def test_binary_length_four(self):
        got = [word_string(a) for a in words._necklaces(2, 4)]
        assert got == ["0000", "0001", "0011", "0101", "0111", "1111"]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            list(words._necklaces(2, 0))
        with pytest.raises(BadParameterError):
            list(words._necklaces(1, 3))


class TestPeriodicFactors:
    @pytest.mark.parametrize("as_seq", [tuple, bytes], ids=["tuple", "bytes"])
    def test_circular_extension_matches_modular_indexing(self, as_seq):
        # every t up to 3n, so the extension wraps more than once
        for n in range(1, 7):
            for letters in itertools.product(range(3), repeat=n):
                seq = as_seq(letters)
                for t in range(3 * n + 1):
                    expected = as_seq(letters[i % n] for i in range(n + t))
                    assert words._circular(seq, t) == expected

    @given(circular_words_any_alphabet(), st.integers(0, 30), st.integers(1, 9))
    def test_factor_matches_modular_indexing(self, w, i, l):
        # A factor may start at any index and wrap any number of times.
        expected = tuple(w.letters[(i + j) % w.n] for j in range(l))
        assert w.factors(l)[i % w.n] == expected
        assert w.rotate(i).factors(l)[0] == expected

    @given(circular_words_any_alphabet(), st.integers(1, 9))
    def test_factors_lists_every_position(self, w, l):
        fs = w.factors(l)
        assert len(fs) == w.n
        for i in range(w.n):
            assert fs[i] == tuple(w.letters[(i + j) % w.n] for j in range(l))
