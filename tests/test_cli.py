"""CLI contract: outputs, formats, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circwords import cli, debruijn, invariants, parse_circular, words


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
    """The sweep and the report build no occurrence, run, block or edge record."""

    @pytest.fixture
    def no_records(self, monkeypatch):
        # every binding, so a module that imports one of these by name is caught too
        def refuse(name):
            def raiser(*args, **kwargs):
                raise AssertionError(f"{name} called on the sweep path")
            return raiser

        banned = {
            id(words.occurrence_vector): "occurrence_vector",
            id(words.runs): "runs",
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

    @pytest.mark.parametrize("word", ["0", "01", "010011", "101100", "0000", "0101010101"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_report(self, no_records, word, fmt, capsys):
        assert cli.main(["report", word, "--format", fmt]) == 0
        assert word in capsys.readouterr().out

    def test_the_guard_bites(self, no_records):
        with pytest.raises(AssertionError, match="runs called on the sweep path"):
            words.runs(parse_circular("0011"))
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

    def test_json_format(self, capsys):
        args = ["rank", "--d", "2", "--l", "3", "--max-len", "8",
                "--format", "json", "--cks"]
        assert cli.main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == payload["predicted"] == 5
        assert payload["cks_basis"] is True

    def test_size_limit_is_usage_error(self):
        code, _, err = run_cli("rank", "--d", "2", "--l", "4", "--max-len", "25")
        assert code == 2
        assert "error" in err


class TestRankFailureModes:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        d=st.integers(-2, 3),
        l=st.integers(-1, 4),
        max_len=st.one_of(st.none(), st.integers(-1, 7)),
        extra=st.sets(st.sampled_from(["--cks", "--spanning-set"])),
        fmt=st.sampled_from(["text", "json"]),
    )
    @pytest.mark.filterwarnings("ignore:rank .* is not certified")
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


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--l", "4", "--max-len", "2"],
            ["rank", "--d", "3", "--spanning-set"],
            ["rank", "--l", "0"],
            ["rank", "--l", "-1"],
            ["rank", "--l", "1", "--spanning-set"],
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
