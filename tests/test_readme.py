"""Every `xxchain` command in README.md's sh blocks runs and exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from xxchain.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    argvs = [
        tuple(shlex.split(line, comments=True)[1:])
        for block in blocks
        for line in block.splitlines()
        if line.startswith("xxchain ")
    ]
    return [list(argv) for argv in dict.fromkeys(argvs)]


def test_readme_lists_the_recipes():
    subcommands = {argv[0] for argv in readme_commands()}
    assert {"spectrum", "transfer-time", "scan", "verify"} <= subcommands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("XXCHAIN_OUTPUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(argv)
    assert code == 0, sink.getvalue()
    assert list(tmp_path.glob("*.manifest.json"))
