"""No dead code under src/isofilt.

Names are counted as Python reads them: the NAME tokens that ``tokenize``
yields.  Strings, docstrings and comments produce no NAME tokens, so
mentioning a function in prose does not keep it alive.  Only the program
keeps a definition alive: src/ and bench/.  A test alone does not.

Two rules, over every module under src/isofilt, one test per directory
(``isofilt`` holds the top-level modules cli, bounds, fixtures, formats, ...):

- every top-level function and class, and every method of a top-level
  class, is named in src/ or bench/ outside its own definition (dunder
  methods are called by the language and are skipped);
- every name a module imports is used in that module outside its import
  statements (``__init__.py`` files re-export and are skipped, as is
  ``from __future__ import ...``).

Exemptions: ``cli._Parser.error``, which argparse calls, and the
definitions in ``TEST_OWNED``, which only tests call.  Each of those names
the test that owns it; the entry must name a test function of that file,
the file must name the definition, and the entry goes once src/ or bench/
names the definition too.

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
# (module, definition) -> "test file::test function" that owns it
TEST_OWNED = {
    ("bounds.py", "semistability_degree"):
        "test_bounds.py::test_semistability_degree",
    ("bounds.py", "divisibility_checks"):
        "test_bounds.py::test_divisibility_exhaustive",
    ("bounds.py", "cyclic_subgroup_census"):
        "test_bounds.py::test_census_examples",
    ("filtration/admissible.py", "verify_violation"):
        "test_filtration.py::test_admissibility_ledger_examples",
    ("filtration/galois.py", "verify_invariant"):
        "test_filtration.py::test_descent_swap_fixture",
    ("fixtures.py", "ordinary_module"):
        "test_filtration.py::test_t_H_examples",
    ("fixtures.py", "sqrt2_extension"):
        "test_sampled_submodules.py::test_one_elimination_over_L_per_proper_submodule",
    ("fixtures.py", "c4_cyclotomic_extension"):
        "test_acceptance.py::test_eadm_end_to_end",
    ("fixtures.py", "kummer_extension"):
        "test_filtration.py::test_driver_kummer_extension",
    ("fixtures.py", "quaternion_rep"):
        "test_groups.py::test_quaternion_rep_validates",
    ("fixtures.py", "scalar_c2_rep"):
        "test_filtration.py::test_diagonal_stability_fixture",
    ("fixtures.py", "c4_k_rep"):
        "test_perturbateur.py::test_find_perturbateur_branches",
    ("formats.py", "module_to_json"): "test_acceptance.py::test_eadm_end_to_end",
    ("formats.py", "group_to_json"): "test_acceptance.py::test_eadm_end_to_end",
    ("groups/characters.py", "CharacterTable.eigenvalue_multiplicities"):
        "test_acceptance.py::test_perturbateur_suite",
    ("groups/characters.py", "CharacterTable.orthogonality_check"):
        "test_groups.py::test_character_tables_small_groups",
    ("groups/constructions.py", "census_p_groups"):
        "test_bounds.py::test_census_identity_over_fixtures",
    ("groups/core.py", "FiniteGroup.fingerprint"):
        "test_groups.py::test_fingerprints_distinguish_all",
    ("isocrystal/module.py", "PhiModule.base_change"):
        "test_isocrystal.py::test_basis_change_invariance",
    ("isocrystal/slopes.py", "SlopeProfile.is_sub_multiset_of"):
        "test_isocrystal.py::test_submodule_slopes_are_sub_multisets",
    ("padic/linalg.py", "subspace_equal"):
        "test_perturbateur.py::test_projectors_idempotent_commute_sum",
    ("precision.py", "with_escalation"):
        "test_acceptance.py::test_precision_robustness",
    ("symplectic/lagrangian.py", "lagrangian_avoiding"):
        "test_symplectic.py::test_lagrangian_avoiding_examples",
    ("symplectic/space.py", "SymplecticSpace.is_lagrangian"):
        "test_symplectic.py::test_lagrangian_avoiding_random_sweep",
}
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
          for p in MODULES + sorted((ROOT / "bench").rglob("*.py"))}
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


def _unreferenced(path):
    """(qualified name, node) of the definitions in path that src/ and
    bench/ name only inside the definition itself."""
    for qualname, node in _definitions(ast.parse(path.read_text())):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if COUNTS[name] == _count_in(path, name, *_span(node)):
            yield qualname, node


@pytest.mark.parametrize("directory", DIRS, ids=lambda d: d.name)
def test_no_unreferenced_functions(directory):
    unused = []
    for path in sorted(directory.glob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for qualname, node in _unreferenced(path):
            if (rel, qualname) not in CALLED_BY_LIBRARY | TEST_OWNED.keys():
                unused.append(f"{rel}:{node.lineno} {qualname}")
    assert not unused, "unreferenced: " + ", ".join(unused)


def test_test_owned_entries_are_current():
    """Each entry is still unreferenced in src/ and bench/, and its owner is
    a test function of a file that names the definition."""
    stale = set(TEST_OWNED)
    for path in MODULES:
        rel = path.relative_to(PACKAGE).as_posix()
        stale -= {(rel, qualname) for qualname, _ in _unreferenced(path)}
    assert not stale, "named in src/ or bench/, or gone: " + repr(sorted(stale))
    for (rel, qualname), owner in TEST_OWNED.items():
        fname, test = owner.split("::")
        path = ROOT / "tests" / fname
        tree = ast.parse(path.read_text())
        assert any(isinstance(node, ast.FunctionDef) and node.name == test
                   for node in tree.body), owner
        name = qualname.rsplit(".", 1)[-1]
        assert name in {n for n, _ in _name_tokens(path)}, (owner, qualname)


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
