"""Every definition under src/isofilt is reachable.

Names are counted as Python reads them: the NAME tokens that ``tokenize``
yields.  Strings, docstrings and comments produce no NAME tokens, so
mentioning a function in prose does not keep it alive.

The walk goes by name.  Its units are the top-level functions, classes and
assignments of every module and the methods of top-level classes.  A reached
unit reaches every unit whose name is one of its NAME tokens, wherever that
unit is defined.  Import statements are not read: importing or re-exporting
a name keeps nothing alive.  A reached class reads its body outside its
methods (bases, decorators, class attributes) and reaches its dunder
methods, which the language calls.  It reaches its other methods only by
name, so ``FiniteGroup`` being alive does not keep a method of it alive that
nothing names.  Module-level statements other than imports, definitions and
assignments run on import and are read as well.

Going by name has a blind spot: a NAME token reaches every definition of
that name, whatever object it is read from.  So a method that nothing calls
is never reported while another definition, an attribute or a variable
somewhere in the reached code shares its name: ``ct.dual`` keeps a
``PhiModule.dual`` alive, ``ring.mul`` a ``FiniteGroup.mul``, and a local
``mat`` or an attribute ``comp.degree`` a method of the same name.  Such a
method is found only by reading its callers.

The walk starts from these roots and from nowhere else:

- ``cli.main``, the program, and ``cli._Parser.error``, which argparse calls;
- every NAME token of ``bench/*.py`` and every (module, path) of
  ``bench/tracer.TRACED``.  The benchmark builds its inputs from those
  names and wraps the functions of that table, and the table names them in
  strings, which carry no NAME tokens;
- every NAME token of ``tests/test_acceptance.py``.  The acceptance
  criteria are what the package promises, so what they call (the group zoo,
  ``lagrangian_avoiding``, the census, ``with_escalation``,
  ``module_to_json``/``group_to_json``) ships in src/;
- ``ALLOWLIST``: at most two definitions that only a test calls today.  Each
  names the test that owns it and the open ROADMAP item that gives it a
  caller in src/.  An entry goes once the walk reaches it without the list.

A definition that nothing reaches from there is reported.  The walk itself is
tested on a small in-memory package at the end of this file.

Four rules are checked besides.  Every name a module imports is used in
that module outside its import statements (``__init__.py`` files re-export
and are skipped, as is ``from __future__ import ...``).  Only the
elimination in ``padic/linalg.py`` and the rank wrappers built directly on it
take a ``guard`` parameter; every layer above certifies at
``DEFAULT_GUARD``.  The arithmetic rules are written once: the NAME tokens
``c0`` and ``c0_inv``, the wrap corrections that only the rules apply, occur
in ``padic/ring.py`` and ``padic/scalar.py`` and nowhere else.  And the number of parameters with a default value in
src/ is pinned at ``OPTIONS``: an option that every caller leaves at one
value is code that no caller needs, so a change that adds one raises the
pin and names in CHANGES.md the two callers that set it differently.
"""

import ast
import importlib.util
import io
import re
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isofilt"
MODULES = sorted(PACKAGE.rglob("*.py"))
DIRS = sorted({p.parent for p in MODULES})
# (module, definition) -> (test that owns it, open ROADMAP item that will
# call it from src/)
ALLOWLIST = {
    ("filtration/admissible.py", "verify_violation"):
        ("test_filtration.py::test_admissibility_ledger_examples", 1),
}
# parameters with a default value, in every function and method of src/
OPTIONS = 69
GUARDED = {("padic/linalg.py", name) for name in (
    "RankCertificate.__init__", "certified_row_reduce", "_pivot_message",
    "certified_rank", "rank_certificate", "column_space_basis")}
# the only modules that name the wrap corrections c0 and c0^-1: the ring
# that computes them and the arithmetic rules that apply them
WRAP_CORRECTIONS = {"c0", "c0_inv"}
RULE_MODULES = {"padic/ring.py", "padic/scalar.py"}


def _name_tokens(text):
    """(name, line) for every NAME token of the source text."""
    return [(t.string, t.start[0])
            for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type == tokenize.NAME]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _span(node):
    decorators = getattr(node, "decorator_list", ())
    start = min([node.lineno] + [d.lineno for d in decorators])
    return start, node.end_lineno


def _units(text):
    """(qualified name or None, name or None, names it reads, dunder methods
    it reaches, line) for each unit of a module; module-level statements that
    run on import have no name."""
    tree = ast.parse(text)
    tokens = _name_tokens(text)
    imports = {line for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for line in range(node.lineno, node.end_lineno + 1)}

    def reads(first, last, holes=()):
        return {name for name, line in tokens
                if first <= line <= last and line not in imports
                and not any(a <= line <= b for a, b in holes)}

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, reads(*_span(node)), (), node.lineno
        elif isinstance(node, ast.ClassDef):
            methods = [m for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            dunders = tuple(f"{node.name}.{m.name}" for m in methods
                            if _is_dunder(m.name))
            yield (node.name, node.name,
                   reads(*_span(node), [_span(m) for m in methods]),
                   dunders, node.lineno)
            for m in methods:
                yield f"{node.name}.{m.name}", m.name, reads(*_span(m)), (), m.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        yield n.id, n.id, reads(*_span(node)), (), node.lineno
        elif not (isinstance(node, (ast.Import, ast.ImportFrom))
                  or (isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant))):
            yield None, None, reads(*_span(node)), (), node.lineno


def unreachable(sources, root_names=(), root_definitions=()):
    """{(module, qualified name): line} of the definitions that the walk
    from the roots does not reach.  sources maps a module's path inside the
    package to its text; root_definitions are (module, qualified name)."""
    units, by_name, todo = {}, defaultdict(list), list(root_definitions)
    for rel, text in sources.items():
        for qualname, name, reads, dunders, line in _units(text):
            key = (rel, qualname or f"<line {line}>")
            units[key] = (reads, [(rel, d) for d in dunders], line)
            if name is None:
                todo.append(key)
            else:
                by_name[name].append(key)
    reached, seen = set(), set()
    names = list(root_names)
    while todo or names:
        for name in names:
            if name not in seen:
                seen.add(name)
                todo += by_name[name]
        names = []
        while todo:
            key = todo.pop()
            if key in reached or key not in units:
                continue
            reached.add(key)
            reads, dunders, _ = units[key]
            names += reads
            todo += dunders
    return {key: line for key, (_, _, line) in units.items()
            if key not in reached and not _is_dunder(key[1].rsplit(".", 1)[-1])}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _roots():
    names = set()
    paths = sorted((ROOT / "bench").glob("*.py"))
    for path in paths + [ROOT / "tests" / "test_acceptance.py"]:
        names |= {name for name, _ in _name_tokens(path.read_text())}
    definitions = {("cli.py", "main"), ("cli.py", "_Parser.error")}
    for _, _, module, attr in _load_tracer().TRACED:
        rel = "/".join(module.split(".")[1:]) + ".py"
        definitions.add((rel, attr))
        definitions.add((rel, attr.split(".")[0]))
    return names, definitions


SOURCES = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
ROOT_NAMES, ROOT_DEFINITIONS = _roots()
UNREACHABLE = unreachable(SOURCES, ROOT_NAMES, ROOT_DEFINITIONS | ALLOWLIST.keys())


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: d.name)
def test_no_unreachable_definitions(directory):
    here = directory.relative_to(PACKAGE).as_posix()
    found = sorted(f"{rel}:{line} {qualname}"
                   for (rel, qualname), line in UNREACHABLE.items()
                   if Path(rel).parent.as_posix() == here)
    assert not found, "unreachable: " + ", ".join(found)


def test_allowlist_entries_are_current():
    """At most two entries.  Each is unreachable without the list, its owner
    is a test function of a file that names it, and its ROADMAP item is open
    and names it."""
    assert len(ALLOWLIST) <= 2
    without = unreachable(SOURCES, ROOT_NAMES, ROOT_DEFINITIONS)
    stale = [key for key in ALLOWLIST if key not in without]
    assert not stale, "reached without the allowlist, or gone: " + repr(stale)
    roadmap = (ROOT / "ROADMAP.md").read_text()
    open_items = roadmap[roadmap.index("## Open items"):]
    for (rel, qualname), (owner, item) in ALLOWLIST.items():
        name = qualname.rsplit(".", 1)[-1]
        fname, test = owner.split("::")
        path = ROOT / "tests" / fname
        tree = ast.parse(path.read_text())
        assert any(isinstance(node, ast.FunctionDef) and node.name == test
                   for node in tree.body), owner
        assert name in {n for n, _ in _name_tokens(path.read_text())}, owner
        entry = re.search(rf"^{item}\. \*\*.*?(?=^\d+\. \*\*|\Z)", open_items,
                          re.MULTILINE | re.DOTALL)
        assert entry and name in entry.group(0), (item, qualname)


# -- the walk on a small package ---------------------------------------------------

TOY = {
    "cli.py": (
        "from .core import Thing, helper\n"
        "\n"
        "def main():\n"
        "    thing = Thing()\n"
        "    return thing.used()\n"
        "\n"
        "def orphan():\n"
        "    return helper()\n"),
    "core.py": (
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "\n"
        "    def used(self):\n"
        "        return self.x\n"
        "\n"
        "    def unused(self):\n"
        "        return 0\n"
        "\n"
        "def helper():\n"
        "    return 1\n"),
}
TOY_UNREACHABLE = unreachable(TOY, root_definitions={("cli.py", "main")})


def test_walk_reports_a_definition_nobody_calls():
    assert ("cli.py", "orphan") in TOY_UNREACHABLE
    # named only by an import and by the unreachable orphan
    assert ("core.py", "helper") in TOY_UNREACHABLE


def test_walk_follows_a_method_reached_through_an_attribute():
    assert ("core.py", "Thing") not in TOY_UNREACHABLE
    assert ("core.py", "Thing.used") not in TOY_UNREACHABLE


def test_walk_reports_an_unused_method_of_a_live_class():
    assert ("core.py", "Thing.unused") in TOY_UNREACHABLE
    assert set(TOY_UNREACHABLE) == {("cli.py", "orphan"), ("core.py", "helper"),
                                    ("core.py", "Thing.unused")}


def test_walk_reports_a_function_added_to_the_package():
    sources = dict(SOURCES)
    sources["bounds.py"] += "\n\ndef _added():\n    return minkowski_bound(2)\n"
    found = unreachable(sources, ROOT_NAMES, ROOT_DEFINITIONS | ALLOWLIST.keys())
    assert set(found) - set(UNREACHABLE) == {("bounds.py", "_added")}


# -- imports and the pivot guard ---------------------------------------------------


TOKENS = {p: _name_tokens(p.read_text()) for p in MODULES}


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


def test_wrap_corrections_only_in_the_rules():
    found = sorted(f"{path.relative_to(PACKAGE).as_posix()}:{line} {name}"
                   for path, tokens in TOKENS.items()
                   if path.relative_to(PACKAGE).as_posix() not in RULE_MODULES
                   for name, line in tokens if name in WRAP_CORRECTIONS)
    assert not found, "wrap corrections outside the rules: " + ", ".join(found)


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


def _options():
    """module:qualified name(parameter=) for every parameter with a default
    value, nested functions included."""
    found = []
    for path in MODULES:
        rel = path.relative_to(PACKAGE).as_posix()
        for qualname, node in _functions(ast.parse(path.read_text())):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{rel}:{qualname}({a.arg}=)" for a in defaulted]
    return found


def test_option_count_is_pinned():
    options = _options()
    assert len(options) == OPTIONS, (
        f"{len(options)} parameters with a default value, pinned at "
        f"{OPTIONS}:\n" + "\n".join(options))
