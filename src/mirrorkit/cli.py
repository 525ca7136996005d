"""Command line front end.

    mirrorkit <command> --input spec.json [--format json|text] [--order N] [--strict]

Commands run one pipeline stage or the full verification chain on a
specification file, each a view of one `pipeline.MirrorPair`.  Output is
deterministic: identical input bytes give identical output bytes.  Exit codes:
0 all hard checks pass (and soft ones too under --strict), 1 invalid
specification, 2 under --strict a soft failure `verify` lists for the stage
(`pipeline.soft_failures`), 3 internal inconsistency, 141 (128 + SIGPIPE, the
status a shell shows for a process that SIGPIPE ended) the reader closed
stdout before the output was written, as `| head` does: the rest of the
output is dropped, with no traceback.

The stage modules load where a command first reads them (`pipeline.StageModule`):
`cayley`, `validate`, `weights`, `family` and `--help` load none, `transpose`
loads `transposition`, and `verify` loads all five.  The `except` chain of
`_main` names their errors' base classes, which `ci_model` defines.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import ci_model, pipeline
from .ci_model import CISpec
from .pipeline import StageModule
from .rational_linalg import SingularMatrixError

horn_system = StageModule("horn_system", globals())
poincare = StageModule("poincare", globals())

EXIT_BROKEN_PIPE = 141

# `_dump` writes its pending parts once this many have gathered
DUMP_CHUNK = 16384


def _dump(data, out) -> None:
    """Write data as `json.dump(data, out, indent=2, sort_keys=True)` does, then "\n".

    The bytes are the same, and so is every TypeError.  But json.dump
    calls `out.write` once per token (15,043 times for Example 6.2's
    report), and into an unbuffered stdout each call is a write into the
    pipe.  Here a walker gathers the text in parts, and once a container
    ends with DUMP_CHUNK parts pending it writes them as one string.  So a
    report takes a few writes, and the text held besides the tree is one
    chunk and at most one flat list.  A cyclic tree, which no `to_json`
    builds, raises RecursionError instead of json's ValueError.
    """
    parts: list[str] = []
    _emit(data, "\n", parts, out, {})
    parts.append("\n")
    out.write("".join(parts))


def _emit(value, newline: str, parts: list[str], out, heads: dict[str, str]) -> None:
    """Append value's JSON text to parts, newline + "  " indenting its items.

    heads caches the encoded '"key": ' of each string key seen so far.
    """
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):   # json's order, and its TypeError
            head = sep + (heads.get(key) or _json_head(key, heads))
            sep = "," + inner
            text = _json_scalar(item)
            if text is None:
                parts.append(head)
                _emit(item, inner, parts, out, heads)
            else:
                parts.append(head + text)
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            text = _json_scalar(item)
            if text is None:
                parts.append(sep)
                _emit(item, inner, parts, out, heads)
            else:
                parts.append(sep + text)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        text = _json_scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
        parts.append(text)
    if len(parts) >= DUMP_CHUNK:
        out.write("".join(parts))
        parts.clear()


def _json_scalar(value) -> str | None:
    """The JSON text of a str, None, bool, int or float, as json writes it; None
    for anything else.  Subclasses of int and float read as their base values."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _json_head(key, heads: dict[str, str]) -> str:
    """'"key": ' for a dict key, converted to a string as json converts it;
    string keys are cached in heads."""
    if isinstance(key, str):
        head = heads[key] = _json_str(key) + ": "
        return head
    if isinstance(key, (int, float)) or key is None:   # bool is an int
        return _json_str(_json_scalar(key)) + ": "
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_flags(flags: dict[str, bool], out) -> None:
    for name, value in flags.items():
        out.write(f"{'PASS' if value else 'FAIL'}  {name}\n")


def _strict_exit(args, stage: str, flags: dict[str, bool]) -> int:
    """Exit 2 under --strict when the stage's flags hold a soft failure, else 0."""
    failed = args.strict and pipeline.soft_failures(stage, flags)
    return pipeline.EXIT_SOFT_FAILURE if failed else pipeline.EXIT_OK


def _cmd_validate(pair, args, out):
    report = ci_model.validate(pair.spec, pair)
    if args.format == "json":
        _dump(report.to_json(), out)
    else:
        _write_flags(report.checks, out)
        for note in report.notes:
            out.write(f"note: {note}\n")
    if not report.hard_ok:
        return pipeline.EXIT_INVALID
    return _strict_exit(args, "validate", report.checks)


def _cmd_weights(pair, args, out):
    w = pair.weights
    qm = ci_model.charges(pair.spec, w)
    data = {"weights": w.to_json(), "charges": qm.to_json()}
    if args.format == "json":
        _dump(data, out)
    else:
        for q, vec in enumerate(w.vectors, start=1):
            out.write(f"block {q}: weights {list(vec)}\n")
        out.write(f"charges: {[list(r) for r in qm.entries]}\n")
        out.write(f"cyclic orders: {list(qm.column_lcms)}\n")
    return pipeline.EXIT_OK


def _cmd_cayley(pair, args, out):
    cm = pair.cm
    if args.format == "json":
        _dump(cm.to_json(), out)
    else:
        out.write(str(cm.matrix) + "\n")
    return pipeline.EXIT_OK


def _cmd_transpose(pair, args, out):
    tr = pair.tr
    if args.format == "json":
        _dump(tr.to_json(), out)
    else:
        _dump(tr.tspec.to_json(), out)
        out.write(f"nu: {tr.nu.to_json()}\n")
        _write_flags(tr.condition_flags, out)
    return _strict_exit(args, "transpose", tr.condition_flags)


def _cmd_mellin(pair, args, out):
    pair.tr   # the transposition's errors come first
    lemma, xi, (t31, product) = pair.lemma, pair.xi, pair.theorem31
    data = {
        "delta": pair.inverse.den,
        "plain_product": lemma.to_json(),
        "factorized_product": product.to_json(),
        "theorem": t31.to_json(),
    }
    if args.format == "json":
        _dump(data, out)
    else:
        out.write(f"Delta = {data['delta']}\n")
        out.write(f"plain form: {lemma}\n")
        out.write(f"factorized form: {t31.symbolic}\n")
        for q, xi_nu in enumerate(xi.xi_forms, start=1):
            out.write(f"  xi^({q}) = {xi_nu}\n")
        out.write(f"explicit arguments: {product}\n")
        out.write("reduces to plain form by reflection: "
                  f"{t31.reduces_to_lemma_form}\n")
    return pipeline.EXIT_OK


def _cmd_horn(pair, args, out):
    ops, pairs = pair.horn, pair.char_polys
    tw, tq = pair.tweights, pair.tcharges
    sym = horn_system.symmetry_report(pair.effective_weights, pair.charges, tw, tq)
    m_function = poincare.poincare_structure(tw, tq)
    if args.format == "json":
        restricted = [horn_system.restricted_operator(tw, tq, q).to_json()
                      for q in range(1, pair.spec.k + 1)]
        _dump({
            "operators": [op.to_json() for op in ops],
            "char_polys": [p.to_json() for p in pairs],
            "restricted_operators": restricted,
            "m_function": m_function.to_json(),
            "symmetry": sym.to_json(),
        }, out)
    else:
        for op in ops:
            out.write(f"L_{op.q}: degrees {op.degrees}\n  {op}\n")
        for p in pairs:
            out.write(f"grading {p.q}: chi={p.chi}  zero={p.factored('zero')}  "
                      f"infinity={p.factored('infinity')}\n")
        out.write(f"M = {m_function}\n")
        out.write(f"quantum orders: {list(sym.q_bars)} <-> {list(sym.t_q_bars)}\n")
    return pipeline.EXIT_OK


def _cmd_poincare(pair, args, out):
    # the transposed data is read first, so a transposition error comes first
    duality, ratio = pair.duality, pair.structure_ratio
    series = poincare.series_expand(ratio, args.order)
    table = sorted([list(e) + [c] for e, c in series.items()])
    data = {
        "structure_series": ratio.to_json(),
        "series_table": table,
        "duality": duality.to_json(),
    }
    if args.format == "json":
        _dump(data, out)
    else:
        out.write(f"P_A = {ratio}\n")
        if pair.spec.k == 1:
            coeffs = poincare.series_coefficients_1d(series, args.order)
            out.write(f"series to order {args.order}: {coeffs}\n")
        _write_flags(duality.identities, out)
    return _strict_exit(args, "duality", duality.identities)


def _cmd_nef(pair, args, out):
    pair.tr, pair.forms   # a transposition, then a singular matrix, fails before nef
    nef, magic = pair.nef, pair.magic
    data = {"nef": nef.to_json(), "magic_square": magic.to_json()}
    if args.format == "json":
        _dump(data, out)
    else:
        _write_flags(nef.flags, out)
        out.write(f"P =\n{nef.p_matrix}\n")
        out.write(f"magic square: {'found' if magic.found else 'not found'}\n")
    return _strict_exit(args, "nef", nef.flags)


def _render_verify_text(report, out) -> None:
    for stage in report.stages:
        out.write(f"[{'ok' if stage.ok else 'FAIL'}] {stage.name}\n")
        for name, value in stage.flags.items():
            out.write(f"    {'+' if value else '-'} {name}\n")
        for note in stage.notes:
            out.write(f"    note: {note}\n")
        for line in stage.text:
            out.write(f"    {line}\n")
    if report.soft_failures:
        out.write("soft failures:\n")
        for item in report.soft_failures:
            out.write(f"  - {item}\n")
    if report.internal_error or not report.hard_ok:
        out.write("verdict: FAIL\n")
    elif report.soft_failures:
        out.write("verdict: PASS (with soft failures)\n")
    else:
        out.write("verdict: PASS\n")


def _cmd_verify(pair, args, out):
    report = pipeline.run_verify(pair.spec, order=args.order)
    if args.format == "json":
        _dump(report.to_json(), out)
    else:
        _render_verify_text(report, out)
    if report.internal_error:
        sys.stderr.write(f"internal inconsistency: {report.internal_error}\n")
    return report.exit_code(args.strict)


HANDLERS = {"validate": _cmd_validate, "weights": _cmd_weights, "cayley": _cmd_cayley,
            "transpose": _cmd_transpose, "mellin": _cmd_mellin, "horn": _cmd_horn,
            "poincare": _cmd_poincare, "nef": _cmd_nef, "verify": _cmd_verify}
COMMANDS = (*HANDLERS, "family")


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the interpreter's
        # final flush cannot raise again (the recipe of the `signal` module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="mirrorkit",
        description="Exact verification of transposition mirror constructions.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="specification JSON file")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--order", type=int, default=8,
                        help="series expansion order (default 8); at most "
                             f"{ci_model.SERIES_TERM_CAP} terms, C(N+k, k)")
    parser.add_argument("--strict", action="store_true",
                        help="condition-flag failures abort instead of annotating")
    parser.add_argument("--m", type=int, default=3,
                        help="family parameter for the `family` command, "
                             f"1 to {pipeline.FAMILY_M_MAX}")
    args = parser.parse_args(argv)

    if args.order < 0:
        parser.error("--order must be nonnegative")

    if args.command == "family":
        try:
            spec = pipeline.generate_family(args.m)
        except ValueError as exc:
            parser.error(f"--{exc}")   # "--m must be ..."
        _dump(spec.to_json(), sys.stdout)
        return pipeline.EXIT_OK

    if not args.input:
        parser.error(f"{args.command} requires --input")
    try:
        spec = CISpec.load(args.input)
    except (OSError, ValueError, RecursionError) as exc:   # RecursionError: nesting too deep
        sys.stderr.write(f"cannot read specification: {exc}\n")
        return pipeline.EXIT_INVALID
    except ci_model.SpecInvalidError as exc:
        sys.stderr.write(f"invalid specification: {exc}\n")
        return pipeline.EXIT_INVALID

    try:
        return HANDLERS[args.command](pipeline.MirrorPair(spec), args, sys.stdout)
    except ci_model.InternalInvariantError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return pipeline.EXIT_INTERNAL
    except ci_model.TranspositionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return pipeline.EXIT_SOFT_FAILURE
    except (ci_model.SpecError, SingularMatrixError) as exc:
        sys.stderr.write(f"invalid specification: {exc}\n")
        return pipeline.EXIT_INVALID
    except ci_model.HornError as exc:
        sys.stderr.write(f"cannot build the Horn operators: {exc}\n")
        return pipeline.EXIT_INVALID
    except ci_model.PoincareError as exc:
        sys.stderr.write(f"cannot expand the series: {exc}\n")
        return pipeline.EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
