"""The README's module table states the line count of every module and of
the whole package; these must match the source files (``wc -l``)."""

import re
from pathlib import Path

import ipembed

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
