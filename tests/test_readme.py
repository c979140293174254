"""The README's command block and library snippet run as written, so they cannot drift."""

import re
import shlex
from pathlib import Path

from cmapuf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_the_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = [
        [line for line in block.splitlines() if line and not line.startswith("#")]
        for block in code_blocks("sh")
    ]
    [commands] = [lines for lines in blocks if lines[0].startswith("cmapuf ")]
    monkeypatch.chdir(tmp_path)
    for line in commands:
        program, *argv = shlex.split(line)
        assert program == "cmapuf"
        assert main(argv) == 0, f"{line}: {capsys.readouterr().err}"


def test_the_readme_library_snippet_runs(capsys):
    [snippet] = code_blocks("python")
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2
