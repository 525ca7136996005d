"""Per-layer trace, recorded from outside the program.

A traced function is replaced by a wrapper in its defining module and in
every module that copied the binding (`from .rational_linalg import invert`
copies it into the importing module), and `Matrix.__matmul__` is wrapped on
the class.  Each call records a span (name, start, end, parent span, op
id) in memory; self time is a span's duration minus that of its direct
children.  uninstall() restores every binding it replaced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A name the program no longer defines is
# skipped, and its metrics then read zero.
TRACED = (
    ("rational_linalg", "solve_general", "linalg.solve_general"),
    ("rational_linalg", "right_kernel", "linalg.right_kernel"),
    ("rational_linalg", "rank", "linalg.rank"),
    ("rational_linalg", "solve", "linalg.solve"),
    ("rational_linalg", "invert", "linalg.invert"),
    ("rational_linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("ci_model", "validate", "ci_model.validate"),
    ("ci_model", "build_cayley", "ci_model.build_cayley"),
    ("ci_model", "derive_weights", "ci_model.derive_weights"),
    ("ci_model", "charges", "ci_model.charges"),
    ("transposition", "transpose_spec", "transposition.transpose_spec"),
    ("transposition", "check_involution", "transposition.check_involution"),
    ("mellin", "solve_xi", "mellin.solve_xi"),
    ("mellin", "compute_delta", "mellin.compute_delta"),
    ("mellin", "check_sum_rules", "mellin.check_sum_rules"),
    ("mellin", "classify_forms", "mellin.classify_forms"),
    ("mellin", "lemma_form", "mellin.lemma_form"),
    ("mellin", "factorize_xi", "mellin.factorize_xi"),
    ("mellin", "verify_theorem_31", "mellin.verify_theorem_31"),
    ("horn_system", "horn_operators", "horn_system.horn_operators"),
    ("horn_system", "char_polys", "horn_system.char_polys"),
    ("horn_system", "restricted_operator", "horn_system.restricted_operator"),
    ("horn_system", "m_function", "horn_system.m_function"),
    ("horn_system", "symmetry_report", "horn_system.symmetry_report"),
    ("poincare", "poincare_structure", "poincare.poincare_structure"),
    ("poincare", "series_expand", "poincare.series_expand"),
    ("poincare", "series_coefficients_1d", "poincare.series_coefficients_1d"),
    ("poincare", "verify_duality", "poincare.verify_duality"),
    ("nef_partition", "solve_dual_partition", "nef_partition.solve_dual_partition"),
    ("nef_partition", "magic_square_check", "nef_partition.magic_square_check"),
    ("pipeline", "run_verify", "pipeline.run_verify"),
    ("cli", "main", "cli.main"),
)
# Kernels whose first argument is the matrix handed to elimination.
ELIMINATING = {"linalg.solve_general", "linalg.right_kernel", "linalg.rank",
               "linalg.solve", "linalg.invert"}
# Functions whose distinct inputs per op are counted against their calls.
REUSE = ("ci_model.validate", "ci_model.build_cayley", "ci_model.derive_weights",
         "ci_model.charges", "transposition.transpose_spec", "transposition.check_involution")

PACKAGE = "mirrorkit"


def _input_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.op = -1
        self.elim_cells: Counter = Counter()           # op id -> sum of rows*cols
        self.inputs: dict = defaultdict(set)          # (op id, name) -> distinct inputs
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        cells = name in ELIMINATING
        reuse = name in REUSE

        def traced(*args, **kwargs):
            if cells:
                self.elim_cells[self.op] += args[0].rows * args[0].cols
            if reuse:
                self.inputs[(self.op, name)].add(_input_key(args, kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name in TRACED:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._rebind(cls, meth, self._wrap(vars(cls)[meth], name))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, ops: set[int]) -> dict[str, tuple[float, str]]:
    """Per-op calls and self ms of every traced name over the given ops."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[4] in ops:
            calls[span[0]] += 1
            self_s[span[0]] += own
    n = max(len(ops), 1)
    out: dict[str, tuple[float, str]] = {}
    for _, _, name in TRACED:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_ms"] = (1000.0 * self_s[name] / n, "ms")
    for module in ("mellin", "horn_system", "poincare"):
        total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        out[f"{module}.self_ms"] = (1000.0 * total / n, "ms")
    out["linalg.elim_cells"] = (sum(tracer.elim_cells[o] for o in ops) / n, "count")
    for name in REUSE:
        distinct = sum(len(v) for (op, nm), v in tracer.inputs.items() if nm == name and op in ops)
        out[f"{name}.reuse_ratio"] = (distinct / calls[name] if calls[name] else 1.0, "ratio")
    return out
