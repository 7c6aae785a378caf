"""Every public function or class in relqsl pays its way.

A public top-level function or class must be referenced somewhere in
src/relqsl outside its own definition, be the console entry point
``cli.main``, or be listed in KEPT with the reason it stays although only
tests call it. References are read from the syntax tree (names and
attribute accesses), so a mention in a docstring or a string does not count.
The refusal of a non-finite result and the first-order validity warning are
each worded once, in ``arrays``, and the syntax tree is read for copies.
``cli`` and ``config`` load no numpy at import, so that ``relqsl --version``
and ``--help`` do not pay for it.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "relqsl"

ENTRY_POINTS = {("cli", "main")}

KEPT = {
    "squeezed_coeffs_closed": "closed-form reference that tests hold the amplitude recursion to",
    "evolve": "planned for the exact-evolution fidelity oracle and the exact speed-limit "
              "surfaces (ROADMAP items 10 and 11)",
    "perturbed_eigenstate": "planned for the exact-evolution fidelity oracle (ROADMAP item 10)",
    "phase_aligned_column": "planned for the one level-labelling rule of the spectral oracle "
                            "(ROADMAP items 3(a) and 17)",
}


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


def test_every_public_name_is_referenced_or_kept():
    unreferenced = _unreferenced_public_names(PACKAGE)
    stray = sorted(unreferenced - set(KEPT))
    assert stray == [], (
        "public names that nothing in src/relqsl references: give each a caller, "
        "delete it with its tests, or keep it in KEPT with a reason"
    )
    called = sorted(set(KEPT) - unreferenced)
    assert called == [], "KEPT names that now have a caller leave the table"
    assert all(reason.strip() for reason in KEPT.values())


def test_scan_ignores_docstring_mentions_and_self_references(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""helper is mentioned here only."""\n\n'
        "def helper():\n    return helper\n\n\n"
        "def caller():\n    return used()\n\n\n"
        "def used():\n    pass\n",
        encoding="utf-8",
    )
    assert _unreferenced_public_names(tmp_path) == {"helper", "caller"}


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
