import re
import shlex
from pathlib import Path

import pytest

from lingmask import cli

README = Path(__file__).parent.parent / "README.md"


def _command_line_block() -> list[str]:
    """The ``lingmask`` commands of the README's "Command line" block, each on
    one line with its continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("lingmask ")]


COMMANDS = _command_line_block()


def test_library_use_snippet_runs(capsys):
    """The README's "Library use" snippet runs as printed and reads the
    conditional masking probability it promises."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert len(namespace["examples"]) == 300
    assert namespace["report"].p_mask_given_y1 == pytest.approx(0.222, abs=0.005)
    assert float(capsys.readouterr().out) == namespace["report"].p_mask_given_y1


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_block_parses(command):
    """Each command names a subcommand, after any top-level flags, and has no
    unknown flag, no missing required option and no out-of-range value."""
    argv = shlex.split(command)[1:]
    parser, subparsers = cli._build_parser()
    args = parser.parse_args(argv)
    assert args.subcommand in cli._SUBCOMMANDS
    cli._check_ranges(args.subcommand, cli._resolve(subparsers[args.subcommand], argv, args))


def test_command_line_block_shows_every_subcommand():
    parser, _ = cli._build_parser()
    shown = {parser.parse_args(shlex.split(command)[1:]).subcommand for command in COMMANDS}
    assert shown == set(cli._SUBCOMMANDS)
