"""Circular words: construction, counting, runs, blocks, rotations."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circwords import (
    Alphabet,
    BadLetterError,
    CircularWord,
    EmptyFactorError,
    EmptyWordError,
    IsolatedBlock,
    LongRunBlock,
    Run,
    SizeLimitError,
    canonical_rotation,
    count_occurrences,
    decompose_blocks,
    enumerate_necklaces,
    enumerate_words,
    is_palindrome,
    mirror,
    occurrence_positions,
    occurrence_vector,
    parse_circular,
    parse_word,
    runs,
    word_string,
)
from circwords import words
from conftest import (
    binary_circular_words,
    circular_words_any_alphabet,
    cw,
    scan_count,
    u,
    unrolled_count,
)


@st.composite
def periodic_words(draw):
    """A random block over 2..4 letters, repeated 2..6 times."""
    d = draw(st.integers(2, 4))
    block = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=6))
    return CircularWord(tuple(block) * draw(st.integers(2, 6)), d)


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

    def test_parse_circular_checks_against_the_given_alphabet(self):
        with pytest.raises(BadLetterError, match="letter 2 outside alphabet 0..1"):
            parse_circular("0120", 2)
        with pytest.raises(EmptyWordError):
            parse_circular("", 2)

    def test_alphabet_needs_two_letters(self):
        with pytest.raises(BadLetterError):
            Alphabet(1)

    def test_parse_infers_alphabet(self):
        assert cw("010011").d == 2
        assert cw("000").d == 2  # never below 2
        assert cw("0120").d == 3

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

    @given(circular_words_any_alphabet(), st.integers(1, 6))
    def test_positions_are_the_counted_ones(self, w, l):
        factor = w.factor(0, l)
        positions = occurrence_positions(w, factor)
        assert 0 in positions
        assert len(positions) == count_occurrences(w, factor)


class TestOccurrenceVector:
    def test_paper_word_010011(self):
        ov = occurrence_vector(cw("010011"), 4)
        expected = {u(s): 1 for s in ("0100", "1001", "0011", "0110", "1101", "1010")}
        assert ov.nonzero() == expected

    def test_constant_word(self):
        ov = occurrence_vector(cw("1111"), 4)
        assert ov.nonzero() == {u("1111"): 4}
        assert ov[u("0000")] == 0

    def test_accepts_strings(self):
        assert occurrence_vector(cw("00101"), 3)["010"] == 2

    def test_wrong_length_lookup_rejected(self):
        with pytest.raises(ValueError):
            occurrence_vector(cw("00101"), 3)["01"]

    def test_dense_items_cover_alphabet(self):
        ov = occurrence_vector(cw("01", 3), 2)
        items = list(ov.dense_items())
        assert len(items) == 9
        assert sum(c for _, c in items) == 2

    def test_dense_items_capped_before_the_first_item(self, monkeypatch):
        with pytest.raises(SizeLimitError):
            occurrence_vector(cw("01"), 21).dense_items()
        with pytest.raises(SizeLimitError):
            occurrence_vector(cw("012"), 13).dense_items()
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 8)
        assert len(list(occurrence_vector(cw("0110"), 3).dense_items())) == 8
        with pytest.raises(SizeLimitError):
            occurrence_vector(cw("0110"), 4).dense_items()

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


class TestMirror:
    def test_mirror_examples(self):
        assert mirror(u("0011")) == u("1100")
        assert mirror(u("0110")) == u("0110")
        assert mirror(()) == ()

    def test_palindromes(self):
        assert is_palindrome(u("1001"))
        assert not is_palindrome(u("0011"))


class TestRuns:
    def test_example_00101(self):
        assert runs(cw("00101")) == (
            Run(0, 0, 2),
            Run(1, 2, 1),
            Run(0, 3, 1),
            Run(1, 4, 1),
        )

    def test_constant_word_single_run(self):
        assert runs(cw("0000")) == (Run(0, 0, 4),)

    def test_wrapping_run(self):
        # the 0-run of 010 wraps through position 0
        assert runs(cw("010")) == (Run(1, 1, 1), Run(0, 2, 2))

    def test_long_zero_runs_match_counts(self):
        w = cw("00101")
        long_zero_runs = sum(1 for r in runs(w) if r.letter == 0 and r.length >= 2)
        assert long_zero_runs == 1
        assert count_occurrences(w, u("001")) == 1
        assert count_occurrences(w, u("100")) == 1

    def test_long_zero_runs_exhaustive(self):
        # |W|_001 = |W|_100 = number of runs of 0 of length >= 2,
        # for every non-constant binary word up to length 14
        for n in range(1, 15):
            for w in enumerate_words(2, n):
                if len(set(w.letters)) == 1:
                    continue
                expected = sum(
                    1 for r in runs(w) if r.letter == 0 and r.length >= 2
                )
                ov = occurrence_vector(w, 3)
                assert ov[u("001")] == ov[u("100")] == expected

    @given(circular_words_any_alphabet())
    def test_runs_partition_and_are_maximal(self, w):
        rs = runs(w)
        assert sorted(r.start for r in rs) == [r.start for r in rs]
        covered = []
        for r in rs:
            assert r.length >= 1
            for j in range(r.length):
                pos = (r.start + j) % w.n
                assert w.letters[pos] == r.letter
                covered.append(pos)
        assert sorted(covered) == list(range(w.n))
        if len(rs) > 1:
            for r in rs:
                assert w.letters[(r.start - 1) % w.n] != r.letter
                assert w.letters[(r.start + r.length) % w.n] != r.letter


class TestBlocks:
    def test_example_010011(self):
        dec = decompose_blocks(cw("010011"))
        assert not dec.whole_word_alternating
        iso, long_ = dec.blocks
        assert isinstance(iso, IsolatedBlock)
        assert (iso.start_letter, iso.length, iso.start) == (0, 2, 0)
        assert isinstance(long_, LongRunBlock)
        assert [(r.letter, r.length) for r in long_.runs] == [(0, 2), (1, 2)]

    def test_alternating_word(self):
        dec = decompose_blocks(cw("0101"))
        assert dec.whole_word_alternating
        (block,) = dec.blocks
        assert isinstance(block, IsolatedBlock)
        assert block.length == 4
        assert block.start is None

    def test_constant_word(self):
        dec = decompose_blocks(cw("0000"))
        assert not dec.whole_word_alternating
        (block,) = dec.blocks
        assert isinstance(block, LongRunBlock)

    def test_binary_only(self):
        with pytest.raises(ValueError):
            decompose_blocks(cw("012"))

    @given(binary_circular_words())
    def test_reconstruction_and_alternation(self, w):
        dec = decompose_blocks(w)
        assert dec.reconstruct() == w
        kinds = [isinstance(b, IsolatedBlock) for b in dec.blocks]
        if len(kinds) > 1:
            for i, k in enumerate(kinds):
                assert k != kinds[i - 1]

    @given(binary_circular_words())
    def test_isolated_blocks_follow_long_runs(self, w):
        dec = decompose_blocks(w)
        if dec.whole_word_alternating:
            return
        for b in dec.blocks:
            if isinstance(b, IsolatedBlock):
                # anchored right after a run of length >= 2
                before = (b.start - 1) % w.n
                assert w.letters[before] == w.letters[(before - 1) % w.n]


class TestRotations:
    def test_rotate_example(self):
        assert cw("001").rotate(1) == cw("010")
        assert cw("001").rotate(0) == cw("001")

    def test_canonical_rotation(self):
        assert canonical_rotation(cw("010")) == cw("001")

    @given(
        st.one_of(
            circular_words_any_alphabet(),
            periodic_words(),
            st.builds(lambda a, n: CircularWord((a,) * n, 4), st.integers(0, 3), st.integers(1, 30)),
        )
    )
    def test_canonical_is_minimal_rotation(self, w):
        rotations = [w.rotate(s).letters for s in range(w.n)]
        canon = canonical_rotation(w)
        assert canon.d == w.d
        assert canon.letters == min(rotations)

    @given(binary_circular_words(), st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(-8, 8))
    def test_counts_are_rotation_invariant(self, w, factor, s):
        factor = tuple(factor)
        assert count_occurrences(w.rotate(s), factor) == count_occurrences(w, factor)


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


class TestNecklaces:
    @pytest.mark.parametrize("d,max_n", [(2, 9), (3, 9), (4, 7)])
    def test_one_least_rotation_per_class_in_order(self, d, max_n):
        for n in range(1, max_n + 1):
            got = [w.letters for w in enumerate_necklaces(d, n)]
            classes = {canonical_rotation(w).letters for w in enumerate_words(d, n)}
            assert got == sorted(classes)
            assert all(w.d == d for w in enumerate_necklaces(d, n))

    def test_four_letters_length_eight_and_nine(self):
        for n in (8, 9):
            got = [w.letters for w in enumerate_necklaces(4, n)]
            assert got == sorted(set(got))
            assert all(canonical_rotation(CircularWord(a, 4)).letters == a for a in got)
            assert len(got) == necklace_count(4, n)

    @pytest.mark.parametrize("d,max_n", [(2, 14), (3, 10), (4, 7)])
    def test_count_is_the_necklace_formula(self, d, max_n):
        for n in range(1, max_n + 1):
            assert sum(1 for _ in enumerate_necklaces(d, n)) == necklace_count(d, n)
        assert necklace_count(2, 14) == 1182 and necklace_count(3, 10) == 5934

    def test_binary_length_four(self):
        got = [str(w) for w in enumerate_necklaces(2, 4)]
        assert got == ["0000", "0001", "0011", "0101", "0111", "1111"]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            list(enumerate_necklaces(2, 0))
        with pytest.raises(BadLetterError):
            list(enumerate_necklaces(1, 3))


class TestPeriodicFactors:
    @given(circular_words_any_alphabet(), st.integers(0, 30), st.integers(1, 9))
    def test_factor_matches_modular_indexing(self, w, i, l):
        expected = tuple(w.letters[(i + j) % w.n] for j in range(l))
        assert w.factor(i, l) == expected

    @given(circular_words_any_alphabet(), st.integers(1, 9))
    def test_factors_lists_every_position(self, w, l):
        fs = w.factors(l)
        assert len(fs) == w.n
        assert all(fs[i] == w.factor(i, l) for i in range(w.n))
