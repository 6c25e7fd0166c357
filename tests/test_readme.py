"""The README's CLI examples and library quick start, run as written."""

import re
import shlex
from pathlib import Path

import pytest

from circwords import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading):
    """The first fenced block after the heading, as lines."""
    section = README[README.index(heading) :]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1).splitlines()


def cli_examples():
    """(argv, comment) for each `circwords ...` line; a `> file` redirect is dropped."""
    examples = []
    for line in code_block("## CLI"):
        command, _, comment = line.partition("#")
        command = command.partition(">")[0].split()
        if command[:1] == ["circwords"]:
            examples.append((command[1:], comment.strip()))
    return examples


EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[shlex.join(a) for a, _ in EXAMPLES])
def test_cli_example_exits_0(argv, comment, capsys):
    assert cli.main(argv) == 0
    # an output the comment states, as "-> text" or "quoted text", is printed
    stated = re.search(r'-> (.*)|"(.*)"', comment)
    if stated:
        assert (stated.group(1) or stated.group(2)) in capsys.readouterr().out.splitlines()


def test_the_stated_outputs():
    stated = {shlex.join(a): c for a, c in EXAMPLES if re.search(r'-> |"', c)}
    assert stated == {
        "count 00101 010": "-> 2",
        "verify --max-len 12": 'exhaustive sweep: "8190 words checked, 0 violations"',
    }


def test_quick_start_values():
    namespace = {}
    values = {}
    for line in code_block("## Library quick start"):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not comment:
            exec(code, namespace)
            continue
        values[code.strip()] = value = eval(code, namespace)
        assert comment.strip().startswith(repr(value))
    assert values == {
        "report.diffs": (1, 1, 1, 1),
        "report.k_graph": 1,
        "report.k_decomposition": 1,
        "span_dimension(2, 4).rank": 9,
    }
