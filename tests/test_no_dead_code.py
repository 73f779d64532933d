"""No dead code under src/isofilt.

Names are counted as Python reads them: the NAME tokens that ``tokenize``
yields for src/ and tests/.  Strings, docstrings and comments produce no NAME
tokens, so mentioning a function in prose does not keep it alive.

Two rules, over every module under src/isofilt, one test per directory
(``isofilt`` holds the top-level modules cli, bounds, fixtures, formats, ...):

- every top-level function and class, and every method of a top-level
  class, is named somewhere outside its own definition (dunder methods are
  called by the language and are skipped);
- every name a module imports is used in that module outside its import
  statements (``__init__.py`` files re-export and are skipped, as is
  ``from __future__ import ...``).

One exemption: ``cli._Parser.error``, which argparse calls.

A third rule keeps the pivot guard where it belongs: only the elimination in
``padic/linalg.py`` and the rank wrappers built directly on it take a
``guard`` parameter; every layer above certifies at ``DEFAULT_GUARD``.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isofilt"
MODULES = sorted(PACKAGE.rglob("*.py"))
DIRS = sorted({p.parent for p in MODULES})
CALLED_BY_LIBRARY = {("cli.py", "_Parser.error")}
GUARDED = {("padic/linalg.py", name) for name in (
    "RankCertificate.__init__", "certified_row_reduce", "_pivot_message",
    "_Raw.row_reduce", "certified_rank", "rank_certificate",
    "column_space_basis")}


def _name_tokens(path):
    """(name, line) for every NAME token of the file."""
    with tokenize.open(path) as fh:
        return [(t.string, t.start[0]) for t in tokenize.generate_tokens(fh.readline)
                if t.type == tokenize.NAME]


TOKENS = {p: _name_tokens(p)
          for p in MODULES + sorted((ROOT / "tests").rglob("*.py"))}
COUNTS = Counter(name for toks in TOKENS.values() for name, _ in toks)


def _count_in(path, name, first, last):
    return sum(1 for n, line in TOKENS[path] if n == name and first <= line <= last)


def _definitions(tree):
    """(qualified name, node) for top-level functions and classes and the
    methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _span(node):
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return start, node.end_lineno


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: d.name)
def test_no_unreferenced_functions(directory):
    unused = []
    for path in sorted(directory.glob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (rel, qualname) in CALLED_BY_LIBRARY:
                continue
            if COUNTS[name] == _count_in(path, name, *_span(node)):
                unused.append(f"{rel}:{node.lineno} {qualname}")
    assert not unused, "unreferenced: " + ", ".join(unused)


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: d.name)
def test_no_unused_imports(directory):
    unused = []
    for path in sorted(directory.glob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(PACKAGE).as_posix()
        imports = [node for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and not (isinstance(node, ast.ImportFrom)
                            and node.module == "__future__")]
        import_lines = {line for node in imports
                        for line in range(node.lineno, node.end_lineno + 1)}
        used = Counter(n for n, line in TOKENS[path] if line not in import_lines)
        for node in imports:
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not used[bound]:
                    unused.append(f"{rel}:{node.lineno} {bound}")
    assert not unused, "unused imports: " + ", ".join(unused)


def _functions(node, prefix=""):
    """(qualified name, node) for every function and method under node,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield qualname, child
            yield from _functions(child, qualname + ".")
        else:
            yield from _functions(child, prefix)


def test_guard_is_a_parameter_of_the_elimination_only():
    found = set()
    for path in MODULES:
        rel = path.relative_to(PACKAGE).as_posix()
        for qualname, node in _functions(ast.parse(path.read_text())):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "guard" in names:
                found.add((rel, qualname))
    assert found == GUARDED
