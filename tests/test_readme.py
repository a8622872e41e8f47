"""The README's library example and command lines run and print what they say."""

import ast
import re
from pathlib import Path

import pytest

from minaff.cli import run
from _helpers import run_fresh

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def command_lines():
    text = README.read_text()
    section = text[text.index("\n## Command line\n") :]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [tuple(line.split()[1:]) for line in block.splitlines() if line.startswith("minaff ")]


def test_readme_command_lines_cover_every_subcommand():
    assert sorted(argv[0] for argv in command_lines()) == [
        "char", "decomp", "drinfeld", "sam", "verify", "xi",
    ]


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_runs_in_a_fresh_process(argv, capsys):
    # a handler that forgot one of its imports fails here, in a process
    # that has loaded only what the command itself imports
    proc = run_fresh("-m", "minaff", *argv)
    assert proc.returncode == 0, proc.stderr
    assert run(list(argv)) == 0
    assert proc.stdout == capsys.readouterr().out


def test_readme_library_example_runs():
    source = library_example()
    namespace = {}
    values = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["table"] == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    assert values["ch[(0, 1, 0, 0)]"] == 1
    assert values["sum(ch.values())"] == 29
    (sam,) = [v for code, v in values.items() if code.startswith("sam_table(")]
    assert sam == 1
    assert values["compare_affinization(4, a, b)"] == "incomparable"
