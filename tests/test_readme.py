"""The README's Python examples run, and print what their comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each `print(...)  # expected` line promises one line of output
    promised = [
        line.partition("#")[2].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert printed == promised
