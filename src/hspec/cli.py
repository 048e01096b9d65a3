"""Command-line entry point.

Subcommands: analyze, criteria, trace, converge, basis-check.  Reports are
JSON (sorted keys, shortest round-trip floats) so identical runs produce
identical bytes; --format csv emits the flat (shell, sum) or (index,
singular value) tables instead, and is refused (exit 2) by trace and
basis-check, which have no table.

Every report is written by render_json, whose output is byte for byte
json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) on what a report
holds: dicts with str keys, lists, tuples, str, int, float, bool and None (a
subclass of one renders as its base type).  A non-finite float raises
ValueError and any other type TypeError, as json.dumps does.  The stdlib's C
encoder does not indent, so json.dumps with indent runs its pure-Python
encoder, one generator step per value; on a multiplier's singular values
that cost more than the mathematics.  render_json joins a flat list of
scalars in one pass over float.__repr__, int.__repr__ and
encode_basestring_ascii, renders each distinct float of a list with many
repeats once, and writes the [shell, sum] pairs of criteria and converge
from one template.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .criteria import CriterionPreconditionError, criteria
from .hermite import gauss_hermite_rule, quadrature_order
from .multiindex import TruncationSpec
from .operator import assemble_matrix, column_integrals
from .schatten import HS_SUM, TRACE_SUM, build_report, compare_traces, named_fsum
from .symbol import SymbolError, SymbolSpec, builtin_symbol, load_symbol, symbol_to_dict

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects name=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--param {key.strip()}: {val!r} is not a number") from None
    return out


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--level expects integers, got {text!r}") from None
    if any(n < 0 for n in levels):
        raise ConfigError("levels must be non-negative")
    return levels


def _parse_rs(text: str) -> list[float]:
    try:
        rs = [float(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--r expects numbers, got {text!r}") from None
    if not all(0 < r < math.inf for r in rs):
        raise ConfigError("every r must be positive and finite")
    return rs


def _load_symbol(args) -> SymbolSpec:
    """The symbol; an unset --dim becomes the symbol's dim (1 for --builtin)."""
    if args.symbol and args.builtin:
        raise ConfigError("--symbol and --builtin are mutually exclusive")
    if args.symbol:
        try:
            sym = load_symbol(args.symbol)
        except FileNotFoundError:
            raise ConfigError(f"symbol file not found: {args.symbol}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read symbol file {args.symbol}: "
                              f"{exc.strerror or exc}") from None
        except (SymbolError, ValueError) as exc:
            raise ConfigError(f"bad symbol file {args.symbol}: {exc}") from exc
    elif args.builtin:
        try:
            sym = builtin_symbol(args.builtin, args.dim or 1, **_parse_params(args.param))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("a symbol is required: pass --symbol FILE or --builtin NAME")
    if args.dim is None:
        args.dim = sym.dim
    return sym


def _echo_config(args, sym: SymbolSpec | None = None) -> dict:
    # the output path is not provenance: the same analysis written to two
    # files must produce identical bytes
    echo = {k: v for k, v in vars(args).items()
            if k not in ("func", "output") and v is not None}
    if sym is not None:
        echo["symbol"] = symbol_to_dict(sym)
    return echo


def _single_level(args) -> int:
    levels = _parse_levels(args.level)
    if len(levels) != 1:
        raise ConfigError(f"{args.command} expects a single --level")
    return levels[0]


def _report(args, sym: SymbolSpec | None = None, **fields) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "software_version": __version__,
        "command": args.command,
        "config": _echo_config(args, sym),
        **fields,
    }


def _finite(text: str) -> str:
    # text holds rendered floats, and the letter n only if one is inf or nan
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


# how json.dumps renders each scalar type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _finite(float.__repr__(x)),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _items(items, pad: str) -> str:
    """The items of a non-empty list, rendered at indent pad and joined."""
    sep = ",\n" + pad
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALARS:
        render = float.__repr__ if kind is float else _SCALARS[kind]
        distinct = set(items)
        if 2 * len(distinct) > len(items):
            text = sep.join(map(render, items))
        else:
            # each distinct value rendered once, but 0.0 and -0.0 are equal
            # and print differently, so a zero is rendered where it stands
            known = {x: render(x) for x in distinct if x or kind is not float}
            text = sep.join([known.get(x) or render(x) for x in items])
        return _finite(text) if kind is float else text
    if kind is list and all(len(p) == 2 and type(p[0]) is int and type(p[1]) is float
                            for p in items):
        # the [shell, sum] pairs of criteria and converge
        inner = pad + "  "
        return _finite(sep.join([f"[\n{inner}{s!r},\n{inner}{v!r}\n{pad}]" for s, v in items]))
    return sep.join([_render(x, pad) for x in items])


def _render(value, pad: str) -> str:
    render = _SCALARS.get(type(value))
    if render is not None:
        return render(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str raises TypeError here
        body = (",\n" + inner).join([encode_basestring_ascii(k) + ": " + _render(value[k], inner)
                                     for k in sorted(value)])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        return "[\n" + inner + _items(value, inner) + "\n" + pad + "]" if value else "[]"
    for base, render in _SCALARS.items():
        if isinstance(value, base):
            return render(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(doc) -> str:
    """doc exactly as json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    writes it, for dicts with str keys, lists, tuples, str, int, float, bool
    and None; ValueError on a non-finite float, TypeError on any other type."""
    return _render(doc, "")


def _all_finite(value) -> bool:
    """Whether every float in a report value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, (list, tuple)) or all(map(_all_finite, value))


def _emit(doc: dict, args, csv_rows=None, csv_header=None) -> None:
    # a CSV table is not the whole report, but a report with a non-finite
    # value is refused in either format; the CSV rows are values of doc
    if args.format == "csv":
        if not _all_finite(doc):
            raise FloatingPointError("the report has non-finite values")
        text = "".join(",".join(map(str, row)) + "\n" for row in (csv_header, *csv_rows))
    else:
        try:
            text = render_json(doc) + "\n"
        except ValueError:
            raise FloatingPointError("the report has non-finite values") from None
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --output {args.output}: "
                              f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _matrix_report(args, sym: SymbolSpec, spec: TruncationSpec, fields) -> dict:
    """The report of fields(m) for the assembled matrix m.  Once it is built,
    a residual above threshold names on stderr the column that moved most
    between q and 2q; the report bytes do not depend on it."""
    m = assemble_matrix(sym, spec, args.quad)
    doc = _report(args, sym, **fields(m))
    if m.residual_warning:
        nu, change = m.worst_column
        print(f"warning: quadrature residual above threshold; column nu={nu} "
              f"moved most between q and 2q (relative change {change:.3e})", file=sys.stderr)
    return doc


def cmd_analyze(args) -> int:
    sym = _load_symbol(args)
    spec = TruncationSpec(args.dim, _single_level(args))
    r_values = tuple(_parse_rs(args.r))
    doc = _matrix_report(args, sym, spec, lambda m: {"report": build_report(m, r_values)})
    # lazy: only --format csv reads the rows
    rows = enumerate(doc["report"]["singular_values"])
    _emit(doc, args, csv_rows=rows, csv_header=("index", "singular_value"))
    return 0


def cmd_criteria(args) -> int:
    sym = _load_symbol(args)
    spec = TruncationSpec(args.dim, _single_level(args))
    # checked for every --r: the report echoes sigma even when no criterion reads it
    if args.sigma is not None and not math.isfinite(args.sigma):
        raise ConfigError(f"sigma must be finite, got {args.sigma}")
    verdicts = criteria(sym, spec, args.quad, tuple(_parse_rs(args.r)), args.sigma)
    doc = _report(args, sym, verdicts=verdicts)
    # lazy: only --format csv reads the rows
    rows = ((v["criterion"], s, val) for v in verdicts for s, val in v["shells"])
    _emit(doc, args, csv_rows=rows, csv_header=("criterion", "shell", "sum"))
    return 0


def cmd_trace(args) -> int:
    sym = _load_symbol(args)
    spec = TruncationSpec(args.dim, _single_level(args))
    _emit(_matrix_report(args, sym, spec, compare_traces), args)
    return 0


def cmd_converge(args) -> int:
    sym = _load_symbol(args)
    levels = _parse_levels(args.level)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("converge expects an ascending comma-separated --level list")
    # one pass at the top level: the truncation is graded, so level n is the
    # first offsets[n + 1] columns of it
    spec = TruncationSpec(args.dim, levels[-1])
    linear, squared = column_integrals(sym, spec, args.quad)
    integrals, what = (squared, HS_SUM) if args.quantity == "hs" else (linear, TRACE_SUM)
    rows = [(n, named_fsum(what, integrals[:spec.offsets[n + 1]])) for n in levels]
    diffs = [rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)]
    doc = _report(
        args, sym,
        quantity=args.quantity,
        values=[[n, v] for n, v in rows],
        successive_differences=diffs,
    )
    _emit(doc, args, csv_rows=rows, csv_header=("level", args.quantity))
    return 0


def cmd_basis_check(args) -> int:
    n_level = _single_level(args)
    q = quadrature_order(n_level, args.quad)
    # the rule's first N+1 basis rows sqrt(w) h_k: their Gram matrix is the
    # identity up to rounding for Q >= N+1
    basis = gauss_hermite_rule(q).basis[:n_level + 1]
    residual = float(np.abs(basis @ basis.T - np.eye(n_level + 1)).max())
    _emit(_report(
        args,
        level=n_level,
        quad_order=q,
        orthonormality_residual=residual,
    ), args)
    return 0


# the commands whose report has a table for --format csv
_CSV_COMMANDS = ("analyze", "criteria", "converge")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Every parse shares
    --param's default list, so nothing may mutate args.param."""
    parser = argparse.ArgumentParser(
        prog="hspec",
        description="Pseudo-multipliers of the quantum harmonic oscillator: "
        "truncated matrices, Schatten criteria, trace formulas.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_symbol=True):
        if needs_symbol:
            p.add_argument("--symbol", help="symbol file (JSON)")
            p.add_argument("--builtin", help="builtin family: power, heat, bandlimit")
            p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                           help="builtin family parameter (repeatable)")
        p.add_argument("--dim", type=int, default=None if needs_symbol else 1,
                       help="ambient dimension n (default: the symbol file's dim, else 1)")
        p.add_argument("--level", default="10",
                       help="level cutoff N (comma-separated list for converge)")
        p.add_argument("--quad", type=int, help="quadrature order (default N+32)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("analyze", help="assemble the operator and report its spectrum")
    common(p)
    p.add_argument("--r", default="1,2", help="comma-separated Schatten orders")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("criteria", help="evaluate the Schatten membership criteria")
    common(p)
    p.add_argument("--r", default="1,2", help="comma-separated Schatten orders")
    p.add_argument("--sigma", type=float, help="weight exponent for 1 < r < 2")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("trace", help="compare the trace formula with the eigenvalue sum")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("converge", help="sweep the level cutoff and report differences")
    common(p)
    p.add_argument("--quantity", choices=("trace", "hs"), default="trace")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("basis-check", help="orthonormality residual of the basis")
    common(p, needs_symbol=False)
    p.set_defaults(func=cmd_basis_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.dim is not None and args.dim < 1:
            raise ConfigError("--dim must be at least 1")
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ConfigError(f"--format csv: {args.command} has no table; the commands "
                              f"with one are {', '.join(_CSV_COMMANDS)}")
        return args.func(args)
    except (ConfigError, SymbolError, CriterionPreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
