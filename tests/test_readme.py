"""Every `$ spreadcheck ...` example in README.md prints what the README shows."""

import shlex
from pathlib import Path

import pytest

from spreadcheck.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command, expected output lines) for each `$ spreadcheck` line inside a
    fenced block; the output runs to the next `$ ` line or the closing fence."""
    examples = []
    fenced = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
        elif fenced and line.startswith("$ "):
            current = None
            if line.startswith("$ spreadcheck "):
                current = []
                examples.append((line[len("$ spreadcheck "):], current))
        elif fenced and current is not None:
            current.append(line)
    for _, output in examples:
        while output and not output[-1]:
            output.pop()
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command))
    assert code in (0, 1)
    assert capsys.readouterr().out.splitlines() == expected
