"""Code in ``src/`` that only tests use belongs in ``tests/``.

The check parses the package and lists its module-level functions and
classes and the methods of those classes, dunders aside.  Each must be
named by some code in ``src/``, ``scripts/`` or ``perfbench/``: a name or
an attribute in their syntax trees.  Imports, strings (docstrings among
them) and the item's own ``def`` do not count.  An item that shares its
name with some other referenced name, as ``Curve.points`` shares it with
the points of a sample, passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "scripts", "perfbench")

# Items that no program code names yet, each with the reason it stays in src/.
ALLOWED = {
    "verification.fixture_large": "the pinned n' = 3 group that tests solve on and a planned benchmark workload uses",
}


def package_items():
    """(qualified name, name) of each module-level function and class of the
    package and of each non-dunder method of those classes."""
    for path in sorted((ROOT / "src" / "lvecdlp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def referenced_names():
    """Every name and attribute that the code under ``USERS`` reads or writes."""
    names = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_package_item_is_used_by_program_code():
    """No function, class or method in ``src/`` is there for tests alone, and
    every entry of the allow-list is still such an item."""
    referenced = referenced_names()
    unused = {qualified for qualified, name in package_items() if name not in referenced}
    assert unused == set(ALLOWED)
