"""Every function, method and class that `src/mirrorkit` defines is used there.

The first check works by name: it collects the non-dunder names of every
`def`, `async def` and `class` in the package, and the names the package
refers to (a Name, the attribute of an Attribute, or an imported name or its
alias).  A definition whose name is never referred to is code that only the
tests call.  Because it matches names only, a method that shares its name
with a method of another class, or with any other name the package uses, is
not caught, and neither is a dunder.

The second check works by execution, and sees both: in a fresh interpreter
a profile hook, installed before `mirrorkit.cli` is imported, records the
`co_qualname` of every code object of the package that is entered while
every command runs on a set of specs.  Every function and method a `def`
defines must be among them.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# what the probe runs on besides the fixtures: a spec whose Cayley matrix is
# singular, one with no transposed shape (monomial counts (2, 2) against
# index-set sizes (1, 3)) and one that does not parse (a fractional exponent)
EXTRA_SPECS = {
    "singular": {"n": 2, "k": 1,
                 "blocks": [{"exponents": [[1, 0], [1, 0]], "index_set": [1, 2]}]},
    "untransposable": {"n": 4, "k": 2, "blocks": [
        {"exponents": [[0, 0, 1, 0], [0, 0, 0, 2]], "index_set": [3]},
        {"exponents": [[2, 0, 0, 1], [1, 1, 0, 1]], "index_set": [1, 2, 4]}]},
    "malformed": {"n": 2, "k": 1,
                  "blocks": [{"exponents": [[2, 0], [0, 2.5]], "index_set": [1, 2]}]},
}

# run with the spec paths as arguments; prints, as JSON, the (file name,
# co_qualname) of each code object of the package that was entered
PROBE = """
import contextlib, io, json, sys
from pathlib import Path

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(profile)
import mirrorkit.cli
from mirrorkit import cli, pipeline
from mirrorkit.ci_model import CISpec
from mirrorkit.record import FrozenInstanceError

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for path in sys.argv[1:]:
        for command in cli.HANDLERS:
            for fmt in ("text", "json"):
                cli.main([command, "--input", path, "--format", fmt, "--strict"])
    cli.main(["family", "--m", "2"])
for m in range(1, 5):
    pipeline.run_verify(pipeline.generate_family(m))
spec = CISpec.load(sys.argv[1])
repr(spec)
try:
    spec.n = 3
except FrozenInstanceError:
    pass
try:
    del spec.n
except FrozenInstanceError:
    pass
sys.setprofile(None)
package = Path(mirrorkit.__file__).parent
print(json.dumps(sorted((Path(f).name, name) for f, name in entered
                        if Path(f).parent == package)))
"""

# entered by no command: only `inspect.signature` shows a default, and it is
# how an `__init__` that `record` writes shows a field's default_factory
NOT_ENTERED = {("record.py", "_Factory.__repr__")}


def _functions(code: types.CodeType):
    """The co_qualname of each function or method a `def` in code defines, nested
    ones too; class bodies, lambdas and comprehensions are left out."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const.co_qualname
            yield from _functions(const)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_every_function_runs(tmp_path, fixtures_dir):
    extra = []
    for name, data in EXTRA_SPECS.items():
        extra.append(tmp_path / f"{name}.json")
        extra[-1].write_text(json.dumps(data))
    specs = [*sorted(fixtures_dir.glob("*.json")), *extra]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, *map(str, specs)],
                            capture_output=True, text=True, timeout=300,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    entered = {tuple(pair) for pair in json.loads(result.stdout)}
    defined = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
               for name in _functions(compile(path.read_text(), str(path), "exec"))}
    assert sorted(defined - entered - NOT_ENTERED) == []
