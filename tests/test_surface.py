"""Every function, method and class that `src/mirrorkit` defines is used there.

The check works by name: it collects the non-dunder names of every `def`,
`async def` and `class` in the package, and the names the package refers to
(a Name, the attribute of an Attribute, or an imported name or its alias).
A definition whose name is never referred to is code that only the tests
call.  Because it matches names only, a method that shares its name with a
method of another class, or with any other name the package uses, is not
caught.
"""

import ast
from pathlib import Path

import mirrorkit

PACKAGE = Path(mirrorkit.__file__).parent


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.rglob("*.py"))]


def _defined(trees) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, kinds) and not (node.name.startswith("__")
                                                 and node.name.endswith("__"))}


def _referenced(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name.rsplit(".", 1)[-1], node.asname} - {None})
    return names


def test_every_definition_is_referenced_in_the_package():
    trees = _trees()
    assert sorted(_defined(trees) - _referenced(trees)) == []
