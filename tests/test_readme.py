"""README's ```python blocks run as written and its command lines parse,
so the documented library calls and flags cannot drift from the code."""

import re
import shlex
from pathlib import Path

from pathsplit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_command_lines_parse():
    # parsing only: every flag is one the parser knows, and every
    # subcommand is shown
    lines = re.findall(r"^pathsplit (.+)$", README.read_text(encoding="utf-8"),
                       flags=re.MULTILINE)
    parser = build_parser()
    subcommands = {parser.parse_args(shlex.split(line)).subcommand for line in lines}
    assert subcommands == {"generate", "split", "evaluate", "overhead", "replay"}
