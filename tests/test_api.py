"""Every public function or class in relqsl pays its way.

A public top-level function or class must be referenced somewhere in
src/relqsl outside its own definition, or be the console entry point
``cli.main``; a function that only tests call lives in the tests.
References are read from the syntax tree (names and attribute accesses),
so a mention in a docstring or a string does not count.
Every name a module imports at module level is used in that module, so
nothing is silently re-exported. The refusal of a non-finite result and the
first-order validity warning are each worded once, in ``arrays``, and the
syntax tree is read for copies.
``cli`` and ``config`` load no numpy at import, so that ``relqsl --version``
and ``--help`` do not pay for it. Only ``report`` and ``selfcheck`` import
``forked``, so that a new fork is a deliberate, measured change. One
function calls numpy's ``eigh``, so every exact spectrum of H comes from the
one verified parity solve.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "relqsl"

ENTRY_POINTS = {("cli", "main")}

def _unreferenced_public_names(package: pathlib.Path) -> set[str]:
    """Public top-level functions and classes that no other top-level statement references."""
    definitions = []
    references = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, node in enumerate(tree.body):
            key = (path.stem, index)
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
            references.append((key, used))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if (path.stem, node.name) not in ENTRY_POINTS:
                    definitions.append((key, node.name))
    return {
        name
        for key, name in definitions
        if not any(name in used for other, used in references if other != key)
    }


def test_every_public_name_is_referenced():
    assert sorted(_unreferenced_public_names(PACKAGE)) == [], (
        "public names that nothing in src/relqsl references: give each a caller, "
        "or delete it with its tests"
    )


def test_scan_ignores_docstring_mentions_and_self_references(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""helper is mentioned here only."""\n\n'
        "def helper():\n    return helper\n\n\n"
        "def caller():\n    return used()\n\n\n"
        "def used():\n    pass\n",
        encoding="utf-8",
    )
    assert _unreferenced_public_names(tmp_path) == {"helper", "caller"}


def _unused_imports(package: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) of each name bound by a module-level import and never used in its module."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        found.update((path.stem, name) for name in bound - used)
    return found


def test_every_module_level_import_is_used():
    assert sorted(_unused_imports(PACKAGE)) == [], (
        "names imported but unused in their module: use each, or import it where it is used"
    )


def test_unused_import_scan_sees_module_level_bindings_only(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""reexported and other are mentioned here only."""\n'
        "from __future__ import annotations\n\n"
        "import json as j\nimport os.path\nimport shutil\n"
        "from . import other, sibling\nfrom .names import reexported, used_name\n\n\n"
        "def f(x: used_name) -> str:\n"
        "    import csv\n"
        "    return os.path.join(j.dumps(x), sibling.shutil)\n",
        encoding="utf-8",
    )
    assert _unused_imports(tmp_path) == {("mod", "shutil"), ("mod", "other"), ("mod", "reexported")}


def _imported_top_levels(package: pathlib.Path) -> set[str]:
    """Top-level modules of every absolute import in the package, nested imports included."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the one runtime dependency; scipy and mpmath serve the tests only."""
    foreign = sorted(_imported_top_levels(PACKAGE) - set(sys.stdlib_module_names) - {"numpy"})
    assert foreign == []


def test_import_scan_sees_nested_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os.path\nfrom . import sibling\n\n\n"
        "def solve():\n    import scipy.linalg\n    from mpmath import mp\n",
        encoding="utf-8",
    )
    assert _imported_top_levels(tmp_path) == {"os", "scipy", "mpmath"}


def _importers_of(package: pathlib.Path, target: str) -> set[str]:
    """Modules of the package that import sibling ``target``, nested imports included."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and (
                node.module == target
                or node.module is None and any(alias.name == target for alias in node.names)
            ):
                found.add(path.stem)
    return found


def test_only_report_and_selfcheck_fork():
    """A fork must beat its own cost on the benchmark; the parity solve's did not."""
    assert _importers_of(PACKAGE, "forked") == {"report", "selfcheck"}


def test_importer_scan_sees_every_relative_form(tmp_path):
    (tmp_path / "a.py").write_text("from . import forked\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("def f():\n    from .forked import run_beside\n", encoding="utf-8")
    (tmp_path / "c.py").write_text("from . import config, forked as f\n", encoding="utf-8")
    (tmp_path / "d.py").write_text('"""forked"""\nfrom . import report\nimport forked\n', encoding="utf-8")
    assert _importers_of(tmp_path, "forked") == {"a", "b", "c"}


def _eigh_calls(package: pathlib.Path) -> list[tuple[str, str]]:
    """(module, enclosing top-level definition) of each call of ``eigh``, by
    attribute (``np.linalg.eigh``) or by a bare imported name."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "eigh" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)
                ):
                    found.append((path.stem, getattr(top, "name", "<module>")))
    return found


def test_eigh_is_called_only_by_the_parity_block_solve():
    assert _eigh_calls(PACKAGE) == [("fock_core", "_solve_block")], (
        "solve a Hermitian spectrum through fock_core's parity solve, not a second eigh call"
    )


def test_eigh_scan_sees_attribute_and_bare_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""np.linalg.eigh is mentioned here only."""\n'
        "import numpy as np\nfrom numpy.linalg import eigh\n\n"
        "LEVELS = np.linalg.eigh(np.eye(2))\n\n\n"
        "def solve(h):\n    return eigh(h), np.linalg.eigvalsh(h), np.linalg.norm(h)\n\n\n"
        "class Op:\n    def spectrum(self):\n        return np.linalg.eigh(self)\n",
        encoding="utf-8",
    )
    assert _eigh_calls(tmp_path) == [("mod", "<module>"), ("mod", "solve"), ("mod", "Op")]


def _eager_numpy_imports(package: pathlib.Path, stem: str) -> list[str]:
    """Module-level imports in ``<stem>.py`` that load numpy: numpy itself, or a
    name taken ``from .<mod>`` where ``<mod>`` imports numpy at module level.
    ``from . import <mod>`` binds the unexecuted submodule and is not one."""

    def module_level(name: str) -> list[ast.stmt]:
        return ast.parse((package / f"{name}.py").read_text(encoding="utf-8")).body

    def loads_numpy(node: ast.stmt) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.partition(".")[0] == "numpy")

    numpy_modules = {
        path.stem for path in package.glob("*.py") if any(map(loads_numpy, module_level(path.stem)))
    }
    return [
        ast.unparse(node) for node in module_level(stem)
        if loads_numpy(node) or (isinstance(node, ast.ImportFrom) and node.level == 1
                                 and node.module in numpy_modules)
    ]


def test_cli_and_config_import_no_numpy_at_module_level():
    """Other relqsl modules are reached by attribute, and numpy inside a handler."""
    for stem in ("cli", "config"):
        assert _eager_numpy_imports(PACKAGE, stem) == [], stem


def test_eager_numpy_scan_sees_module_level_imports_only(tmp_path):
    (tmp_path / "heavy.py").write_text("import numpy as np\n", encoding="utf-8")
    (tmp_path / "light.py").write_text("import math\n", encoding="utf-8")
    (tmp_path / "front.py").write_text(
        "from numpy.linalg import eigh\nfrom . import heavy\nfrom .heavy import np\n"
        "from .light import math\n\n\n"
        "def handler():\n    import numpy\n    from .heavy import np\n",
        encoding="utf-8",
    )
    assert _eager_numpy_imports(tmp_path, "front") == [
        "from numpy.linalg import eigh", "from .heavy import np",
    ]


def _message_text(node: ast.AST) -> str:
    """The string constants inside ``node`` (the literal parts of an f-string too), joined."""
    return "".join(
        sub.value for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def _worded_reports(package: pathlib.Path) -> set[tuple[str, int]]:
    """(module, line) of each raise that words "not finite" and each warn call that
    words "first-order validity is doubtful"."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text, phrase = _message_text(node.exc), "not finite"
            elif isinstance(node, ast.Call) and "warn" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                text, phrase = _message_text(node), "first-order validity is doubtful"
            else:
                continue
            if phrase in text:
                found.add((path.stem, node.lineno))
    return found


def test_refusal_and_validity_warning_are_worded_only_in_arrays():
    found = _worded_reports(PACKAGE)
    stray = sorted(report for report in found if report[0] != "arrays")
    assert stray == [], "word these through arrays.require_finite and arrays.warn_doubtful"
    assert len(found) == 2


def test_wording_scan_sees_raises_and_warnings_only(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""A result that is not finite is refused."""\n'
        "import warnings\n\n\n"
        "def check(x):\n"
        "    if x:\n"
        "        raise ValueError(f'check: {x!r} is not ' 'finite')\n"
        "    warnings.warn('check: first-order validity is doubtful', stacklevel=2)\n"
        "    warn('first-order validity ' f'is doubtful at {x}')\n"
        "    return 'not finite'\n",
        encoding="utf-8",
    )
    assert _worded_reports(tmp_path) == {("mod", 7), ("mod", 8), ("mod", 9)}
