"""The examples in README.md stay valid: its Python blocks run as written and
every `rctm` command in its shell blocks parses, so a documented call that
the library or the CLI stops accepting fails the suite."""

import re
import shlex
from pathlib import Path

import pytest

from rctm import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# continued lines joined, one command per line
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("rctm ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_examples():
    assert {shlex.split(c)[1] for c in COMMANDS} == {
        "generate", "export", "test-nist", "test-ent", "analyze-dynamics", "sweep", "keyspace"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_cli_example_parses(command):
    # parsing runs nothing; an unknown or malformed option exits 2
    assert cli.build_parser().parse_args(shlex.split(command)[1:]).func
