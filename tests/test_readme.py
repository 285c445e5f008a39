"""The README states the line count of every module and of the whole
package, walks through the command line and shows library imports; all
three must match the code. It names no private identifier."""

import re
import shlex
from pathlib import Path

import ipembed
from ipembed.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_line_counts_match_the_modules():
    text = README.read_text(encoding="utf-8")
    actual = {
        path.name: path.read_bytes().count(b"\n")
        for path in Path(ipembed.__file__).parent.glob("*.py")
    }
    stated = {
        f"{name}.py": int(count.replace(",", ""))
        for name, count in re.findall(r"^\| `ipembed\.(\w+)` \| ([\d,]+) \|", text, re.M)
    }
    stated.update(
        (name, int(count))
        for name, count in re.findall(r"`(__\w+__\.py)`\s+\((\d+)\)", text)
    )
    assert stated == actual
    (total,) = re.findall(r"the package is\s+([\d,]+) lines", text)
    assert int(total.replace(",", "")) == sum(actual.values())


def test_readme_walkthrough_commands_parse():
    # Parsed, not run: every flag the walkthrough names must exist.
    text = README.read_text(encoding="utf-8")
    walkthrough = text.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", walkthrough, re.S)
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("ipembed ")
    ]
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
    (subs,) = parser._subparsers._group_actions
    assert {argv[1] for argv in commands} == set(subs.choices)


def test_readme_library_imports_resolve():
    # Run each import of the library example, so it names only what exists.
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    imports = [line for line in block.splitlines() if line.startswith("from ipembed")]
    assert imports
    for line in imports:
        exec(line, {})


def test_readme_names_no_private_identifier():
    # Internals live in the module docstrings; `__init__.py` and the like
    # start with two underscores and stay allowed.
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"`(_[^_`][^`]*)`", text) == []
