"""siccert exports the same names as before its submodules loaded on
first use, every name a module or test file imports is used in that
file, every private module-level name is read somewhere in the package,
every public module-level function is exported or called, and only
exact.py takes rationals apart.

Stdlib-only lints.  For imports, each module of the package and each
file under tests/ is parsed, and a name bound by an import statement
that no other node of the file reads is reported.
For private names, a function, class or constant defined at the top of
any module under a name with one leading underscore is reported when no
module of the package reads that name, bare or as an attribute.  For
public functions, a function defined at the top of a module under a
name without a leading underscore is reported when it is not in
siccert.__all__ and no module of the package reads it outside its own
body.  For rationals, a module other than exact.py is reported where it
reads .numerator, .denominator or .as_integer_ratio, or uses math.lcm:
exact.over_lcm is the one place rationals become integer numerators,
and the one that forces Python ints."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import siccert

PACKAGE = sorted(Path(siccert.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

# siccert.__all__ when __init__.py imported every submodule itself
ALL = [
    "CapacityError", "Graph", "Graph6Error", "Inequality", "LinearProgram",
    "ProjectorSet", "RealizationResult", "SicCertificate",
    "automorphism_orbits", "brute_force_enumerate", "canonical_graph",
    "canonical_key", "canonicalize", "certify_sic", "chi_greater_than",
    "chromatic_number", "complement", "cone", "emit_inequality",
    "encode_graph6", "enumerate_square_free_connected", "find_realization",
    "fixture_path", "fractional_chromatic_number", "induced_subgraph",
    "is_connected", "is_square_free", "lp_solve_exact",
    "maximal_independent_sets", "noncontextual_bound", "orthogonality_graph",
    "parse_graph6", "parse_vector_file", "psd_check_exact", "quantum_value",
    "quantum_value_floor", "rh_sic_graph_test", "sic_necessary_conditions",
    "verify_realization", "write_vector_file", "__version__",
]


def test_all_is_unchanged():
    assert siccert.__all__ == ALL


def test_each_name_is_the_object_its_module_defines():
    assert siccert.__version__ == "0.1.0"
    for name in ALL[:-1]:
        obj = getattr(siccert, name)
        assert obj.__name__ == name
        assert obj.__module__.partition(".")[0] == "siccert"
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir():
    namespace = {}
    exec("from siccert import *", namespace)
    for name in ALL:
        assert namespace[name] is getattr(siccert, name)
    assert set(ALL) <= set(dir(siccert))


def test_unknown_name():
    with pytest.raises(AttributeError) as exc:
        siccert.nope
    assert str(exc.value) == "module 'siccert' has no attribute 'nope'"


def test_each_public_name_is_written_once():
    # in one table, outside docstrings, and never by a relative import
    tree = ast.parse(Path(siccert.__file__).read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    words = Counter(word for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                    for word in node.value.split())
    assert {name: words[name] for name in ALL} == dict.fromkeys(ALL, 1)
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize(
    "path", PACKAGE + TESTS,
    ids=lambda p: p.name if p in PACKAGE else f"tests/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_lint_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom fractions import Fraction as F\n"
           "import math\nprint(math.pi, os.sep)\n")
    assert unused_imports(src) == ["line 3: F"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{module} line {node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def test_no_unread_private_name():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_private_names(sources) == []


def test_lint_sees_an_unread_private_name():
    sources = {
        "a.py": ("def _called():\n    return _TABLE\n"
                 "def _dead():\n    pass\n"
                 "_TABLE = {}\n_LIMIT: int = 3\n__all__ = []\n"
                 "class _Gone:\n    pass\n"),
        "b.py": "from . import a\nprint(a._LIMIT, a._called())\n",
    }
    assert unread_private_names(sources) == ["a.py line 3: _dead",
                                             "a.py line 8: _Gone"]


# Public helpers kept without a caller in the package, each for a reason.
UNCALLED_PUBLIC = {
    "noncontextual_bound_sweep":
        "the 2^n cross-check of noncontextual_bound, for a replayable "
        "certificate checker to call",
    "psd_reconstruct":
        "rebuilds L·D·L† from a PSD witness, for a replayable certificate "
        "checker to call",
    "objective_and_gradient":
        "the realize objective as a function of the vectors, kept for the "
        "finite-difference gradient tests",
}


def _reads(tree) -> Counter:
    """How often each name is read, bare or as an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def uncalled_public_functions(sources: dict[str, str],
                              exported) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    uncalled = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and node.name not in exported
                    and read[node.name] == _reads(node)[node.name]):
                uncalled.append(f"{module} line {node.lineno}: {node.name}")
    return uncalled


def test_no_uncalled_public_function():
    sources = {p.name: p.read_text() for p in PACKAGE}
    found = uncalled_public_functions(sources, siccert.__all__)
    assert sorted(name.rsplit(": ", 1)[1] for name in found) == \
        sorted(UNCALLED_PUBLIC)


def test_lint_sees_an_uncalled_public_function():
    sources = {
        "a.py": ("def exported():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def recursive(k):\n    return recursive(k - 1)\n"
                 "def planted():\n    pass\n"
                 "def by_b():\n    pass\n"
                 "def _private():\n    pass\n"),
        "b.py": "from . import a\nprint(a.by_b())\n",
    }
    assert uncalled_public_functions(sources, ["exported"]) == [
        "a.py line 5: recursive", "a.py line 7: planted"]


RATIONAL_PARTS = {"numerator", "denominator", "as_integer_ratio"}


def rational_part_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in RATIONAL_PARTS
                or node.attr == "lcm" and isinstance(node.value, ast.Name)
                and node.value.id == "math"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "lcm") for alias in node.names
                      if alias.name == "lcm"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "exact.py"],
                         ids=lambda p: p.name)
def test_only_exact_takes_rationals_apart(path):
    assert rational_part_reads(path.read_text()) == []


def test_lint_sees_rationals_taken_apart():
    src = ("import math\nfrom math import gcd, lcm\n"
           "def f(x, w, denominator):\n"
           "    d = x.denominator\n"
           "    p, q = w.as_integer_ratio()\n"
           "    return math.lcm(d, q) * x.numerator + math.gcd(p, denominator)\n")
    assert rational_part_reads(src) == [
        "line 2: lcm", "line 4: .denominator", "line 5: .as_integer_ratio",
        "line 6: .lcm", "line 6: .numerator"]
