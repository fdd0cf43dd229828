"""README's examples run as written: the library quick start and every
``dqwalk`` line of the command-line block."""

import re
import shlex
from pathlib import Path

import pytest

from dqwalk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(section: str, lang: str) -> str:
    """The first ``lang`` fenced block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    exec(code_block("Library quick start", "python"), {})
    total, purity = map(float, capsys.readouterr().out.split())
    # the block's window [-20, 20] holds all but 6e-6 of the mass at t' = 10
    assert 0.9999 < total <= 1.0 and 0.0 < purity < 1.0


CLI_LINES = [
    line for line in code_block("Command line", "sh").splitlines() if line.startswith("dqwalk ")
]


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_command_line_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_command_line_block_is_found():
    assert {line.split()[1] for line in CLI_LINES} >= {"prob", "validate"}
