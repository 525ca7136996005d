"""Count the mutants of mirrorkit's checks that the test suite kills.

    python tests/mutation_census.py

For every comparison, boolean operator and `raise` in the functions of
`TARGETS` (the check functions of `mellin`, the readers of the forms in
`horn_system` and `nef_partition`, the nef certificate
`nef_partition._closed_form_duals`, `poincare.verify_duality`,
`pipeline.run_verify` and the `MirrorPair` properties that gate the kernel
basis, balance the charges and reuse them, the checks of `transposition` and
its `home_order`) it makes one mutant:

* one comparison operator negated (== and !=, < and >=, > and <=, in and
  not in, is and is not);
* `and` and `or` swapped, or a `not` dropped;
* a `raise` replaced by `pass`.

Each mutant is written into a fresh temporary copy of src/, tests/,
README.md and pyproject.toml, with only the mutated function re-printed
(`ast.unparse`), and the test files that import the mutated module run on
it (`pytest -x`), two mutants at a time (WORKERS).  A mutant whose tests
fail or time out is killed.  A survivor is run again on the whole suite,
so that a test elsewhere that kills it is found.  The unmutated copy must
pass first.  A target is a module-level function or a "Class.method" name
(a property too); one that does not resolve, or that has no mutation site,
is an error, so a target whose checks were proved away must leave `TARGETS`
(`test_mutation_census.py` checks this without running a mutant).  The
file name keeps pytest from collecting it; it needs only the standard
library and pytest.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mirrorkit"
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600
WORKERS = 2

TARGETS = {
    "mellin": ("check_y_rows", "factorize_xi"),
    "horn_system": ("horn_operators",),
    "nef_partition": ("magic_square_check", "_closed_form_duals"),
    "poincare": ("verify_duality",),
    "pipeline": ("run_verify", "MirrorPair._class_hint", "MirrorPair.unbalanced",
                 "MirrorPair.recovered_data"),
    "transposition": ("_choose_nu", "_weight_classes", "build_transpose",
                      "_verify_permuted_transpose", "_lambda_v_identity", "_class_matching",
                      "home_order"),
}

NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
           ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is}


class Mutator(ast.NodeTransformer):
    """Walks one function and lists its mutation sites, in a fixed order; given
    a site's number, it applies that mutation and only that one."""

    def __init__(self, target=None):
        self.target, self.sites = target, []

    def _site(self, node, what):
        self.sites.append((node.lineno, what))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            new = NEGATED[type(op)]
            if self._site(node, f"{type(op).__name__} -> {new.__name__}"):
                node.ops[i] = new()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        new = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, f"{type(node.op).__name__} -> {new.__name__}"):
            node.op = new()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "Not dropped"):
            return node.operand
        return node

    def visit_Raise(self, node):
        self.generic_visit(node)
        if self._site(node, "raise -> pass"):
            return ast.copy_location(ast.Pass(), node)
        return node


def _function(tree, name):
    """The FunctionDef of name, "function" or "Class.method", in the module's tree."""
    node = tree
    for part in name.split("."):
        node = next((child for child in node.body
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == part), None)
        if node is None:
            raise LookupError(f"{name}: no such definition")
    if not isinstance(node, ast.FunctionDef):
        raise LookupError(f"{name}: not a function")
    return node


def sites(module, function):
    """The (line, mutation) of each mutation site of module.function; raises
    LookupError when it does not resolve or has none."""
    source = (PACKAGE / f"{module}.py").read_text()
    mutator = Mutator()
    mutator.visit(_function(ast.parse(source), function))
    if not mutator.sites:
        raise LookupError(f"{module}.{function}: no mutation site")
    return mutator.sites


def mutant_source(module, function, site):
    """The module's source with the function re-printed, its mutation `site` applied."""
    source = (PACKAGE / f"{module}.py").read_text()
    node = _function(ast.parse(source), function)
    first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
    mutated = ast.fix_missing_locations(Mutator(site).visit(node))
    lines = source.splitlines(keepends=True)
    body = textwrap.indent(ast.unparse(mutated), " " * node.col_offset) + "\n"
    return "".join(lines[:first]) + body + "".join(lines[node.end_lineno:])


def importers(module):
    """The test files that import mirrorkit.<module>."""
    pattern = re.compile(rf"mirrorkit\.{module}\b|from mirrorkit import [^\n]*\b{module}\b")
    return sorted(p.name for p in (ROOT / "tests").glob("test_*.py")
                  if pattern.search(p.read_text()))


def run_tests(module=None, source=None, files=()):
    """Run the test files (all when empty) on a copy of the checkout with
    mirrorkit.<module> replaced by source; True when every test passes."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy(src, Path(tmp) / name)
        if source is not None:
            (Path(tmp) / "src" / "mirrorkit" / f"{module}.py").write_text(source)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(f"tests/{f}" for f in files)]
        try:
            done = subprocess.run(args, cwd=tmp, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def main() -> int:
    if not run_tests():
        print("the unmutated tests fail; no census", file=sys.stderr)
        return 1
    mutants = [(module, function, i, line, what)
               for module, functions in TARGETS.items() for function in functions
               for i, (line, what) in enumerate(sites(module, function))]

    def killed(mutant, files):
        module, function, i, _, _ = mutant
        return not run_tests(module, mutant_source(module, function, i), files)

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        first = list(pool.map(lambda m: killed(m, importers(m[0])), mutants))
        survivors = [m for m, k in zip(mutants, first) if not k]
        # a survivor of its module's importers gets the whole suite
        rerun = list(pool.map(lambda m: killed(m, ()), survivors))
    for (module, function, _, line, what), k in zip(survivors, rerun):
        outcome = "killed by the whole suite" if k else "survived"
        print(f"{outcome}: {module}.py:{line} {function}: {what}")
    left = rerun.count(False)
    print(f"{len(mutants)} mutants, {len(mutants) - left} killed, {left} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
