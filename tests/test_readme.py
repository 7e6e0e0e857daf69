"""The examples in README.md stay valid: its Python blocks run as written,
every `rctm` command in its shell blocks parses, and no `sweep` or
`analyze-dynamics` example gives an option its kind would refuse, so a
documented call that the library or the CLI stops accepting fails the suite."""

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


def _tables(args) -> list[tuple[dict, str]]:
    """The (table, kind) pairs a sweep or analyze-dynamics command checks its options against."""
    if args.command == "sweep":
        return [(cli.SWEEP_READS, args.kind)]
    return [(cli.DYNAMICS_READS, args.what),
            (cli.GRID_READS, "grid" if args.mu is None else "single")]


@pytest.mark.parametrize("command", [c for c in COMMANDS
                                     if shlex.split(c)[1] in ("sweep", "analyze-dynamics")])
def test_readme_tuning_example_is_not_refused(command):
    args = cli.build_parser().parse_args(shlex.split(command)[1:])
    for table, kind in _tables(args):
        cli._given(args, table, kind, kind)  # raises ValueError on a refused option
