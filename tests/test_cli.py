"""CLI contract: outputs, formats, exit codes, determinism."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circwords import (
    CircwordsError, cli, debruijn, invariants, parse_circular, parse_word, span, words
)
from conftest import unrolled_count


def run_cli(*args):
    """Invoke the real entry point in a subprocess, capturing everything."""
    proc = subprocess.run(
        [sys.executable, "-m", "circwords.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCount:
    def test_paper_examples(self):
        assert cli.main(["count", "00101", "010"]) == 0
        code, out, _ = run_cli("count", "00101", "010")
        assert (code, out) == (0, "2\n")
        code, out, _ = run_cli("count", "0001", "010")
        assert (code, out) == (0, "1\n")

    def test_empty_word_is_usage_error(self):
        code, _, err = run_cli("count", "", "010")
        assert code == 2
        assert "error" in err

    def test_non_digit_is_usage_error(self):
        code, _, _ = run_cli("count", "01x", "0")
        assert code == 2

    def test_non_ascii_digit_is_usage_error(self, capsys):
        assert cli.main(["count", "٠١١", "1"]) == 2
        assert "is not a digit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "word,factor",
        [
            ("00101", "010"), ("010101", "0101"), ("0110", "2"),  # d = 2, then 3 from the factor
            ("0120", "20"), ("2100122", "12"),  # d = 3
            ("9081709", "9"), ("0123456789", "90"), ("5", "55555"),  # d = 10 and 6
            ("", "01"), ("", ""), ("", "x"),  # the empty word
            ("0110", ""), ("x", ""),  # the empty factor
            ("01x", "y"), ("01", "1y"), ("٠١", "1"),  # non-digits, word's first
        ],
    )
    def test_matches_the_letter_tuple_route(self, word, factor, capsys):
        # the reference: both texts as letter tuples, d their max letter + 1
        try:
            letters, u = parse_word(word), parse_word(factor)
            d = max(2, max(letters + u, default=0) + 1)
            expected = (0, f"{words.count_occurrences(words.CircularWord(letters, d), u)}\n", "")
        except CircwordsError as exc:
            expected = (2, "", f"error: {exc}\n")
        assert (cli.main(["count", word, factor]), *capsys.readouterr()) == expected


class TestReport:
    def test_paper_k_plus_one(self, capsys):
        assert cli.main(["report", "010011"]) == 0
        out = capsys.readouterr().out
        assert "k_graph 1" in out
        assert "consistent true" in out

    def test_paper_k_minus_one_json(self, capsys):
        assert cli.main(["report", "101100", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
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

    def test_round_trip(self, capsys):
        cli.main(["report", "0100110", "--format", "json"])
        record = json.loads(capsys.readouterr().out)
        assert parse_circular(record["word"]) == parse_circular("0100110")

    def test_csv(self, capsys):
        assert cli.main(["report", "0000", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "word,d1,d2,d3,d4,k_graph,k_decomp,consistent",
            "0000,0,0,0,0,0,0,true",
        ]

    def test_non_binary_is_usage_error(self):
        code, _, _ = run_cli("report", "0120")
        assert code == 2


class TestVerify:
    def test_exhaustive_sweep(self, capsys):
        assert cli.main(["verify", "--max-len", "10"]) == 0
        assert capsys.readouterr().out == "2046 words checked, 0 violations\n"

    def test_spec_count_for_length_12(self, capsys):
        assert cli.main(["verify", "--max-len", "12"]) == 0
        assert capsys.readouterr().out == "8190 words checked, 0 violations\n"

    def test_random_words_are_deterministic(self, capsys):
        args = ["verify", "--max-len", "4", "--random", "50", "--seed", "11",
                "--rand-len", "40"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        assert first == "80 words checked, 0 violations\n"

    def test_zero_max_len_is_usage_error(self):
        code, _, err = run_cli("verify", "--max-len", "0")
        assert code == 2
        assert "max-len" in err

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli("verify", "--max-len", "4", "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-len", "21"], "2^21 = 2097152 words of length 21 exceed the cap of 1048576"),
            (["--max-len", "40"],
             "2^40 = 1099511627776 words of length 40 exceed the cap of 1048576"),
            (["--max-len", "100000"],
             "2^100000 words of length 100000 exceed the cap of 1048576"),
            (["--max-len", "3", "--random", "1", "--rand-len", "1048577"],
             "--rand-len 1048577 letters exceed the cap of 1048576"),
            (["--max-len", "1", "--random", "100000000000"],
             "--random 100000000000 words exceed the cap of 1048576"),
        ],
    )
    def test_oversized_sweep_is_refused_before_the_first_word(
        self, argv, message, monkeypatch, capsys
    ):
        def unreachable(w):
            raise AssertionError(f"checked {w}")

        monkeypatch.setattr(invariants, "grandsart_report", unreachable)
        assert cli.main(["verify", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_cap_boundary(self, monkeypatch, capsys):
        # the default --rand-len 64 sits at this cap
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 64)
        assert cli.main(["verify", "--max-len", "6"]) == 0
        assert capsys.readouterr().out == "126 words checked, 0 violations\n"
        assert cli.main(["verify", "--max-len", "7"]) == 2
        assert "2^7 = 128 words of length 7 exceed the cap of 64" in capsys.readouterr().err
        argv = ["verify", "--max-len", "1", "--random", "2", "--rand-len"]
        assert cli.main([*argv, "64"]) == 0
        assert capsys.readouterr().out == "4 words checked, 0 violations\n"
        assert cli.main([*argv, "65"]) == 2
        assert "--rand-len 65 letters exceed the cap of 64" in capsys.readouterr().err
        assert cli.main(["verify", "--max-len", "1", "--random", "64"]) == 0
        assert capsys.readouterr().out == "66 words checked, 0 violations\n"
        assert cli.main(["verify", "--max-len", "1", "--random", "65"]) == 2
        assert "--random 65 words exceed the cap of 64" in capsys.readouterr().err

    def test_inconsistent_report_is_a_counterexample(self, monkeypatch, capsys):
        # words with exactly two 1s get a wrong k_decomposition: of the 30
        # words of length 1..4, that is 11, then 011, 101, 110 and six more
        real = invariants.grandsart_report

        def faulty(w):
            report = real(w)
            if w.letters.count(1) == 2:
                report = dataclasses.replace(report, k_decomposition=report.k_graph + 1)
            return report

        monkeypatch.setattr(invariants, "grandsart_report", faulty)
        assert cli.main(["verify", "--max-len", "4"]) == 1
        assert capsys.readouterr().out == (
            "counterexample 11: inconsistent occurrence differences\n"
            "30 words checked, 10 violations\n"
        )

    def test_nonzero_residual_is_a_counterexample(self, monkeypatch, capsys):
        # every word of length 3, the 8 swept and the 5 random ones, gets
        # a nonzero out-residual at 010 while its report stays consistent
        real = debruijn.verify_kirchhoff

        def faulty(w, n):
            report = real(w, n)
            if w.n == 3:
                out = {**report.out_residuals, (0, 1, 0): 1}
                report = dataclasses.replace(report, out_residuals=out)
            return report

        monkeypatch.setattr(debruijn, "verify_kirchhoff", faulty)
        argv = ["verify", "--max-len", "4", "--random", "5", "--rand-len", "3"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == (
            "counterexample 000: nonzero flow residual at n=3\n"
            "35 words checked, 13 violations\n"
        )


class TestSweepPath:
    """The sweep and the report build no occurrence, block or edge record."""

    @pytest.fixture
    def no_records(self, monkeypatch):
        # every binding, so a module that imports one of these by name is caught too
        def refuse(name):
            def raiser(*args, **kwargs):
                raise AssertionError(f"{name} called on the sweep path")
            return raiser

        banned = {
            id(words.occurrence_vector): "occurrence_vector",
            id(words.decompose_blocks): "decompose_blocks",
            id(invariants._project): "_project",
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "circwords"]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in banned:
                    monkeypatch.setattr(mod, key, refuse(banned[id(value)]))

    def test_verify(self, no_records, capsys):
        argv = ["verify", "--max-len", "8", "--random", "3", "--rand-len", "200"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "513 words checked, 0 violations\n"

    def test_verify_builds_no_flow_report(self, monkeypatch, capsys):
        # every clean word gets B(2,3)'s one shared clean report
        debruijn.verify_kirchhoff(parse_circular("0"), 3)
        made = []
        init = debruijn.KirchhoffReport.__init__

        def counted(self, *args, **kwargs):
            made.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(debruijn.KirchhoffReport, "__init__", counted)
        assert cli.main(["verify", "--max-len", "8"]) == 0
        assert capsys.readouterr().out == "510 words checked, 0 violations\n"
        assert made == []
        # the counter sees a report that is built: B(2,8) is counted densely
        assert debruijn.verify_kirchhoff(parse_circular("01"), 8).ok
        assert len(made) == 1

    @pytest.mark.parametrize("word", ["0", "01", "010011", "101100", "0000", "0101010101"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_report(self, no_records, word, fmt, capsys):
        assert cli.main(["report", word, "--format", fmt]) == 0
        assert word in capsys.readouterr().out

    @pytest.fixture
    def scans(self, monkeypatch):
        """The factor length of each _codes call, in call order."""
        calls = []
        made = words._codes

        def counted(letters, d, l):
            calls.append(l)
            return made(letters, d, l)

        monkeypatch.setattr(words, "_codes", counted)
        return calls

    def test_each_length_makes_its_codes_in_two_scans(self, scans, capsys):
        # one length-3 and one length-4 scan per length over all its 2^n
        # words; the report and the flow check read the memo and make none
        assert cli.main(["verify", "--max-len", "8"]) == 0
        assert capsys.readouterr().out == "510 words checked, 0 violations\n"
        assert sorted(scans) == [3] * 8 + [4] * 8

    def test_chunks_may_end_inside_a_length(self, scans, monkeypatch, capsys):
        monkeypatch.setattr(words, "_BATCH", 7)
        assert cli.main(["verify", "--max-len", "8"]) == 0
        assert capsys.readouterr().out == "510 words checked, 0 violations\n"
        chunks = sum(math.ceil(2**n / 7) for n in range(1, 9))
        assert scans == [3, 4] * chunks

    def test_the_guard_bites(self, no_records):
        with pytest.raises(AssertionError, match="decompose_blocks called on the sweep path"):
            words.decompose_blocks(parse_circular("0011"))
        with pytest.raises(AssertionError, match="_project called"):
            invariants.project_to_square(parse_circular("0011"))


class TestRank:
    def test_paper_dimension(self, capsys):
        assert cli.main(["rank", "--d", "2", "--l", "4", "--max-len", "10"]) == 0
        out = capsys.readouterr().out
        assert "rank 9" in out
        assert "predicted 9" in out
        assert "relations 7" in out

    def test_ternary(self, capsys):
        assert cli.main(["rank", "--d", "3", "--l", "2", "--max-len", "6"]) == 0
        assert "rank 7" in capsys.readouterr().out

    def test_spanning_set_and_cks(self, capsys):
        args = ["rank", "--d", "2", "--l", "4", "--max-len", "10",
                "--spanning-set", "--cks"]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "spanning_set ok" in out
        assert "cks_basis ok" in out

    def test_spanning_set_of_length_one(self, capsys):
        assert cli.main(["rank", "--l", "1", "--spanning-set"]) == 0
        assert "spanning_set ok" in capsys.readouterr().out

    def test_json_format(self, capsys):
        args = ["rank", "--d", "2", "--l", "3", "--max-len", "8",
                "--format", "json", "--cks"]
        assert cli.main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == payload["predicted"] == 5
        assert payload["cks_basis"] is True

    def test_lower_bound_warning_is_one_line(self):
        # the message alone, with no source file or line of the package
        code, _, err = run_cli("rank", "--d", "2", "--l", "4", "--max-len", "5")
        assert code == 1
        assert err == (
            "warning: rank 8 of (2,4) functionals at max_len=5 is not certified by "
            "the flow-relation bound 9; the reported rank is a lower bound\n"
        )

    def test_warning_filters_still_apply(self):
        # main prints what the active filters let through; it sets none itself
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::UserWarning", "-m", "circwords.cli",
             "rank", "--d", "2", "--l", "4", "--max-len", "5"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_warning_repeats_on_each_call(self, capsys):
        args = ["rank", "--d", "2", "--l", "4", "--max-len", "5"]
        for _ in range(2):
            assert cli.main(args) == 1
            assert capsys.readouterr().err.startswith("warning: rank 8 of (2,4)")

    def test_size_limit_is_usage_error(self):
        code, _, err = run_cli("rank", "--d", "2", "--l", "4", "--max-len", "25")
        assert code == 2
        assert "error" in err

    def test_default_certifies_l_10(self, capsys):
        assert cli.main(["rank", "--l", "10", "--cks", "--spanning-set"]) == 0
        out, err = capsys.readouterr()
        assert "max_len 19\nrank 513\npredicted 513\n" in out
        assert "saturated true\ncks_basis ok\nspanning_set ok\n" in out
        assert err == ""

    def test_default_caps_d_to_the_l(self, capsys):
        # the certificate words' rows are sparse, so d^l, the count
        # columns, is the default path's one cap
        assert cli.main(["rank", "--l", "11", "--cks", "--spanning-set"]) == 0
        out, err = capsys.readouterr()
        assert "max_len 21\nrank 1025\npredicted 1025\n" in out
        assert "saturated true\ncks_basis ok\nspanning_set ok\n" in out
        assert err == ""
        assert cli.main(["rank", "--l", "21"]) == 2
        assert capsys.readouterr() == (
            "", "error: 2^21 = 2097152 count columns exceed the cap of 1048576\n"
        )

    def test_default_path_sees_a_missing_basis_factor(self, monkeypatch, capsys):
        # cks_family without 1011, and the spanning set with 1010 swapped
        # for 0101: the certificate words 0001011 and 000101 lead at no
        # column, so each check fails on the default path
        cks, spanning = span.cks_family(2, 4), span.spanning_set_family(4)
        without = span.FunctionalFamily(2, tuple(f for f in cks.factors if f != (1, 0, 1, 1)))
        swapped = span.FunctionalFamily(
            2, tuple((0, 1, 0, 1) if f == (1, 0, 1, 0) else f for f in spanning.factors)
        )
        monkeypatch.setattr(span, "cks_family", lambda d, l: without)
        monkeypatch.setattr(span, "spanning_set_family", lambda l: swapped)
        assert cli.main(["rank", "--l", "4", "--cks"]) == 1
        assert "saturated true\ncks_basis FAILED\n" in capsys.readouterr().out
        assert cli.main(["rank", "--l", "4", "--spanning-set"]) == 1
        assert "saturated true\nspanning_set FAILED\n" in capsys.readouterr().out

    def test_default_path_runs_no_elimination(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("the default path eliminated")

        monkeypatch.setattr(span, "_bareiss_rank", never)
        assert cli.main(["rank", "--l", "4", "--cks", "--spanning-set"]) == 0
        assert "cks_basis ok\nspanning_set ok\n" in capsys.readouterr().out


class TestRankFailureModes:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        d=st.integers(-2, 3),
        l=st.integers(-1, 4),
        max_len=st.one_of(st.none(), st.integers(-1, 7)),
        extra=st.sets(st.sampled_from(["--cks", "--spanning-set"])),
        fmt=st.sampled_from(["text", "json"]),
    )
    def test_exits_0_1_or_2_and_never_raises(self, d, l, max_len, extra, fmt, capsys):
        argv = ["rank", "--d", str(d), "--l", str(l), "--format", fmt, *sorted(extra)]
        if max_len is not None:
            argv += ["--max-len", str(max_len)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ")
            assert out == ""

    def test_sample_cap_boundary(self, monkeypatch, capsys):
        argv = ["rank", "--l", "4", "--max-len", "12"]
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 2**12)
        assert cli.main(argv) == 0
        assert "saturated true" in capsys.readouterr().out
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", 2**12 - 1)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 2^12 = 4096 sample words exceed the cap of 4095\n"
        )

    def test_spanning_set_refuses_a_non_binary_alphabet_before_sampling(
        self, monkeypatch, capsys
    ):
        def sampled(*args):
            raise AssertionError("the sample was built")

        monkeypatch.setattr(span, "_sample_echelon", sampled)
        assert cli.main(["rank", "--d", "3", "--l", "2", "--spanning-set"]) == 2
        assert capsys.readouterr().err == (
            "error: the 1V spanning set is defined for binary words\n"
        )


# ASCII digits weighted to binary, a bad letter, non-ASCII digits and a space
TEXTS = st.text(alphabet=st.sampled_from(list("0101" + "0123456789" + "x٣²१ ")), max_size=8)
DRAWN = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def is_digit_string(text):
    return text != "" and all(c in "0123456789" for c in text)


class TestFailureModes:
    """count, report, verify and dot on drawn input: exit 0, 1 or 2, never raise."""

    @staticmethod
    def run(argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ")
            assert err.count("\n") == 1
            assert out == ""
        return code, out

    @DRAWN
    @given(word=TEXTS, factor=TEXTS)
    def test_count(self, word, factor, capsys):
        code, out = self.run(["count", word, factor], capsys)
        if is_digit_string(word) and is_digit_string(factor):
            assert code == 0
            assert out == f"{unrolled_count(parse_word(word), parse_word(factor))}\n"
        else:
            assert code == 2

    @DRAWN
    @given(word=TEXTS, fmt=st.sampled_from(["text", "json", "csv"]))
    def test_report(self, word, fmt, capsys):
        code, _ = self.run(["report", word, "--format", fmt], capsys)
        binary = is_digit_string(word) and set(word) <= {"0", "1"}
        assert code == (0 if binary else 2)

    @DRAWN
    @given(
        max_len=st.integers(-1, 8),
        random=st.integers(-1, 24),
        rand_len=st.integers(-1, 40),
        binding=st.sampled_from(["sweep", "random", "rand_len", "edges"]),
        slack=st.integers(-1, 1),
    )
    def test_verify(self, max_len, random, rand_len, binding, slack, capsys, monkeypatch):
        # the cap sits at one of the sizes the run needs: 2^max_len swept
        # words, random drawn words, rand_len letters, or the 16 edges of
        # B(2,3) in Kirchhoff
        sizes = {
            "sweep": 2 ** max(max_len, 0),
            "random": random,
            "rand_len": rand_len,
            "edges": 16,
        }
        cap = sizes[binding] + slack
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", cap)
        argv = ["verify", "--max-len", str(max_len), "--random", str(random),
                "--rand-len", str(rand_len)]
        code, out = self.run(argv, capsys)
        valid = max_len >= 1 and random >= 0 and rand_len >= 1
        assert code == (0 if valid and max(sizes.values()) <= cap else 2)
        if code == 0:
            checked = 2 ** (max_len + 1) - 2 + random
            assert out == f"{checked} words checked, 0 violations\n"

    @DRAWN
    @given(
        d=st.integers(-1, 3),
        n=st.integers(-1, 5),
        slack=st.integers(-1, 1),
        word=st.one_of(st.none(), TEXTS),
        highlight=st.one_of(st.none(), st.text(alphabet=st.sampled_from(list("01,2x")), max_size=10)),
        square=st.booleans(),
    )
    def test_dot(self, d, n, slack, word, highlight, square, capsys, monkeypatch):
        # the cap sits at the d^(n+1) edges of B(d,n); a bad d or n is
        # refused whatever the cap
        edges = d ** (n + 1) if d >= 2 and n >= 1 else 16
        monkeypatch.setattr(words, "DEFAULT_SIZE_LIMIT", edges + slack)
        argv = ["dot", "--d", str(d), "--n", str(n)]
        argv += ["--word", word] if word is not None else []
        argv += ["--highlight", highlight] if highlight is not None else []
        argv += ["--square"] if square else []
        code, out = self.run(argv, capsys)
        if highlight is None and square:
            assert code == 0
        elif highlight is None and word is None:
            assert code == (0 if d >= 2 and n >= 1 and slack >= 0 else 2)
            assert out.count("->") == (edges if code == 0 else 0)


class TestDot:
    def test_b23_shape(self, capsys):
        assert cli.main(["dot", "--d", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 16
        assert sum(1 for l in out.splitlines() if l.strip().startswith('"') and "->" not in l) == 8

    def test_square_graph(self, capsys):
        assert cli.main(["dot", "--square"]) == 0
        out = capsys.readouterr().out
        assert out.count("doublecircle") == 4
        assert out.count("->") == 8
        for v in ("110", "001", "101", "010"):
            assert f'"{v}"' in out

    def test_word_highlight(self, capsys):
        assert cli.main(["dot", "--d", "2", "--n", "3", "--word", "010011"]) == 0
        out = capsys.readouterr().out
        assert sum("style=bold" in l for l in out.splitlines()) == 6

    def test_comma_separated_highlight(self, capsys):
        assert cli.main(["dot", "--d", "2", "--n", "3", "--highlight", "0100,1001"]) == 0
        out = capsys.readouterr().out
        assert sum("style=bold" in l for l in out.splitlines()) == 2
        assert cli.main(["dot", "--square", "--highlight", "0011"]) == 0
        out = capsys.readouterr().out
        assert sum("style=bold" in l for l in out.splitlines()) == 1

    def test_bad_highlight_label(self):
        code, _, _ = run_cli("dot", "--d", "2", "--n", "3", "--highlight", "01")
        assert code == 2

    def test_byte_identical_across_runs(self):
        a = run_cli("dot", "--d", "2", "--n", "3", "--word", "00101")
        b = run_cli("dot", "--d", "2", "--n", "3", "--word", "00101")
        assert a == b

    def test_size_limit(self):
        code, _, _ = run_cli("dot", "--d", "2", "--n", "25")
        assert code == 2


class TestSharedParser:
    """main builds its parser once, and one process runs commands as fresh ones do."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "bad", [["rank", "--d", "x"], ["rank", "--l", "0"]], ids=["argparse", "handler"]
    )
    def test_a_usage_error_then_rank_as_in_fresh_processes(self, bad, capsys):
        codes = []
        for argv in (bad, ["rank", "--d", "3", "--l", "3", "--max-len", "8", "--cks"]):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            assert (code, *capsys.readouterr()) == run_cli(*argv)
        assert codes == [2, 0]

    def test_verify_twice_prints_the_same(self, capsys):
        outputs = []
        for _ in range(2):
            assert cli.main(["verify", "--max-len", "6"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == ("126 words checked, 0 violations\n", "")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--l", "4", "--max-len", "2"],
            ["rank", "--d", "3", "--spanning-set"],
            ["rank", "--l", "0"],
            ["rank", "--l", "-1"],
            ["rank", "--l", "1", "--max-len", "0", "--spanning-set"],
            ["rank", "--l", "10000"],
            ["dot", "--n", "0"],
            ["dot", "--d", "1"],
            ["dot", "--highlight", "0"],
            ["dot", "--square", "--highlight", "000"],
        ],
    )
    def test_bad_parameters_are_usage_errors(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(w):
            raise ValueError("bug in the report")

        monkeypatch.setattr(invariants, "grandsart_report", broken)
        with pytest.raises(ValueError, match="bug in the report"):
            cli.main(["verify", "--max-len", "3"])

    def test_missing_subcommand(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2
