"""Every `$ spreadcheck ...` example and every `python` block in README.md
prints what the README shows, and the runtime is pure standard library, as
the README says."""

import ast
import shlex
import sys
from pathlib import Path

import pytest

import spreadcheck
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


def _python_blocks() -> list[str]:
    """The source of each fenced `python` block."""
    blocks, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if current is None and line == "```python":
            current = []
        elif current is not None and line.startswith("```"):
            blocks.append("\n".join(current))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


EXAMPLES = _examples()
PYTHON_BLOCKS = _python_blocks()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command))
    assert code in (0, 1)
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_has_a_python_block():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_readme_python_block(capsys, source):
    """Each print line ends in a `# ...` comment showing what it prints."""
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    assert all("# " in line for line in prints)
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [line.rpartition("# ")[2] for line in prints]


def test_runtime_is_pure_standard_library():
    """Each absolute import in the package names a standard-library module or
    spreadcheck itself."""
    sources = sorted(Path(spreadcheck.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"spreadcheck"}]
    assert outside == []
