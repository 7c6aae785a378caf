"""Every public function or class in relqsl pays its way.

A public top-level function or class must be referenced somewhere in
src/relqsl outside its own definition, be the console entry point
``cli.main``, or be listed in KEPT with the reason it stays although only
tests call it. References are read from the syntax tree (names and
attribute accesses), so a mention in a docstring or a string does not count.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "relqsl"

ENTRY_POINTS = {("cli", "main")}

KEPT = {
    "squeezed_coeffs_closed": "closed-form reference that tests hold the amplitude recursion to",
    "default_cutoff": "acceptance criterion 3 uses it, and that criterion stays literal",
    "evolve": "planned for the dense-evolution fidelity oracle and the exact speed-limit "
              "surfaces (ROADMAP items 3(b) and 7)",
    "displaced_amplitude": "planned for the phase-drift oracle (ROADMAP item 5)",
    "lo_amplitude_decay": "planned for the phase-drift oracle (ROADMAP item 5)",
    "perturbed_eigenstate": "planned for level labelling past the turnover (ROADMAP item 3(a))",
    "phase_aligned_column": "planned for level labelling past the turnover (ROADMAP item 3(a))",
    "hamiltonian_band": "the band-vs-dense tie test uses it",
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
