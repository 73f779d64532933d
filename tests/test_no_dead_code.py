"""Every top-level function and method of the packages under src/isofilt is
used: its name appears somewhere in src/ or tests/ outside its own body.

The top-level modules (cli, bounds, fixtures, formats, ...) are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("padic", "isocrystal", "filtration", "groups", "symplectic")
WORD = re.compile(r"\w+")


def _word_counts():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    counts = Counter()
    for f in files:
        counts.update(WORD.findall(f.read_text()))
    return counts


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


@pytest.mark.parametrize("package", CHECKED)
def test_no_unreferenced_functions(package):
    counts = _word_counts()
    unused = []
    for path in sorted((ROOT / "src" / "isofilt" / package).glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in _definitions(ast.parse(text)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = WORD.findall("\n".join(lines[start - 1:node.end_lineno]))
            if counts[name] == own.count(name):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "unreferenced: " + ", ".join(unused)
