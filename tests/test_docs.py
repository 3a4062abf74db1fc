import argparse
import doctest
from pathlib import Path

from machh.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0, result


def test_readme_command_line_names_every_subcommand():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("machh ")}
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)
