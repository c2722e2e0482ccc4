"""Command-line front end.

Subcommands:

* ``validate <model>`` — print validation diagnostics, one per line;
* ``compute <model> [--strict|--permissive] [--json]`` — the full report;
* ``snf <matrix> [--check]`` — invariant factors of a matrix file, with
  an optional cross-check against the minor-enumeration oracle, or past
  the oracle's size limit against the reduction modulo a nonzero minor;
* ``oracle <matrix>`` — the determinantal divisors themselves.

Exit codes: 0 success; 1 validation errors (strict mode); 2 unreadable
input, malformed document, or schema violation; 3 internal invariant
violation (a self-check or the agreement of the two degree-zero routes
failed); 141 the reader of standard output went away (128 + SIGPIPE, as
a Unix filter reports it).  The environment variable ``CHOWFIBER_COLOR``
(auto, never, always) controls styling only; output bytes are otherwise
deterministic.

:func:`main` is the one failure boundary: it loads the input, runs the
command on it and maps every failure to its exit code.  Input is parsed
under the interpreter's limit on integer digits (an oversized literal
exits 2); exact results print in full, however many digits they have.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence, TextIO

from .chow import (
    INDEX_UNDEFINED,
    IRREDUCIBLE_FIBER,
    PERMISSIVE,
    STRICT,
    ChowReport,
    InvalidModel,
    report,
)
from .exact_linalg import (
    IntMatrix,
    MatrixFormatError,
    OracleSizeLimitError,
    SelfCheckError,
    determinantal_divisors,
    invariant_factors_from_divisors,
    invariant_factors_mod_minor,
    parse_matrix_text,
    snf,
)
from .fiber_model import (
    Diagnostic,
    FiberModel,
    ParseError,
    SchemaError,
    has_errors,
    parse_model,
    validate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

_ANSI = {"red": "31", "yellow": "33", "cyan": "36", "bold": "1"}


def _color_enabled(stream: TextIO) -> bool:
    mode = os.environ.get("CHOWFIBER_COLOR", "auto")
    if mode == "never":
        return False
    if mode == "always":
        return True
    return hasattr(stream, "isatty") and stream.isatty()


def _style(text: str, color: str, enabled: bool) -> str:
    if not enabled:
        return text
    return f"\x1b[{_ANSI[color]}m{text}\x1b[0m"


def _format_diagnostic(d: Diagnostic, color: bool) -> str:
    severity, rest = str(d).split(" ", 1)
    return f"{_style(severity, 'red' if d.is_error() else 'yellow', color)} {rest}"


def _read_text(path: str, error: type[ValueError]) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise error(str(e)) from None
    except UnicodeDecodeError as e:
        raise error(f"not valid UTF-8: {e.reason} at byte {e.start}") from None


def _load_model(path: str) -> FiberModel:
    return parse_model(_read_text(path, ParseError))


def _load_matrix(path: str) -> IntMatrix:
    return parse_matrix_text(_read_text(path, MatrixFormatError))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_validate(model: FiberModel, args: argparse.Namespace) -> int:
    diagnostics = validate(model)
    color = _color_enabled(sys.stdout)
    for d in diagnostics:
        print(_format_diagnostic(d, color))
    return EXIT_VALIDATION if has_errors(diagnostics) else EXIT_OK


def cmd_compute(model: FiberModel, args: argparse.Namespace) -> int:
    rep = report(model, mode=PERMISSIVE if args.permissive else STRICT)
    if args.json:
        print(json.dumps(report_as_json(rep), indent=2, sort_keys=True))
    else:
        _print_report(rep, sys.stdout)
    return EXIT_OK


def cmd_snf(matrix: IntMatrix, args: argparse.Namespace) -> int:
    factors = snf(matrix).nonzero_diagonal()
    rendered = " ".join(str(f) for f in factors) if factors else "(none)"
    print(f"rank {len(factors)}; invariant factors: {rendered}")
    if args.check:
        try:
            expected = invariant_factors_from_divisors(determinantal_divisors(matrix))
            route, passed = "oracle", "check: ok"
        except OracleSizeLimitError:
            expected = list(invariant_factors_mod_minor(matrix))
            route = "modular route"
            passed = "check: ok (modular route past the oracle size limit)"
        if list(factors) != expected:
            print(
                f"check failed: reduction gives {list(factors)}, {route} gives {expected}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        print(passed)
    return EXIT_OK


def cmd_oracle(matrix: IntMatrix, args: argparse.Namespace) -> int:
    divisors = determinantal_divisors(matrix)
    rendered = " ".join(str(d) for d in divisors) if divisors else "(none)"
    print(f"determinantal divisors: {rendered}")
    return EXIT_OK


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


def report_as_json(rep: ChowReport) -> dict:
    """The report as a plain JSON-serializable object."""
    return {
        "name": rep.model_name,
        "b": {"rank": rep.b.rank, "torsion": list(rep.b.invariant_factors)},
        "b0": (
            None
            if rep.b0 is None
            else {"rank": rep.b0.rank, "torsion": list(rep.b0.invariant_factors)}
        ),
        "xi_on_generators": (
            None if rep.xi_on_generators is None else list(rep.xi_on_generators)
        ),
        "index": rep.index if rep.index is not None else INDEX_UNDEFINED,
        "special_case": rep.special_case,
        "formal_only": rep.formal_only,
        "hypotheses": {
            "reduced_components_smooth": rep.hypotheses.reduced_components_smooth,
            "pic_unramified_descent": rep.hypotheses.pic_unramified_descent,
        },
        "diagnostics": [
            {"severity": d.severity, "code": d.code, "subject": d.subject, "message": d.message}
            for d in rep.diagnostics
        ],
        "notes": rep.notes,
        "expected": (
            None
            if rep.expected is None
            else {
                "b0_rank": rep.expected.b0_rank,
                "b0_torsion": list(rep.expected.b0_torsion),
                "source": rep.expected.source,
            }
        ),
    }


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_report(rep: ChowReport, out: TextIO) -> None:
    color = _color_enabled(out)
    print(f"model: {rep.model_name}", file=out)
    print(f"B(X)   = {rep.b}", file=out)
    if rep.b0 is not None:
        print(f"B(X)_0 = {rep.b0}", file=out)
    else:
        print("B(X)_0 = (not defined: validation failed)", file=out)
    index = str(rep.index) if rep.index is not None else INDEX_UNDEFINED
    print(f"index  = {index}", file=out)
    if rep.special_case == IRREDUCIBLE_FIBER:
        print(_style("special case: irreducible fiber", "cyan", color), file=out)
    print(
        "hypotheses: reduced_components_smooth="
        f"{_yesno(rep.hypotheses.reduced_components_smooth)}, "
        f"pic_unramified_descent={_yesno(rep.hypotheses.pic_unramified_descent)}",
        file=out,
    )
    if rep.formal_only:
        print(
            _style(
                "formal cokernel only: the model fails validation, so B(X) above "
                "is the cokernel of the degree table and carries no zero-cycle meaning",
                "yellow",
                color,
            ),
            file=out,
        )
    else:
        print(
            "caveat: reading B(X) as the zero-cycle class group is conditional "
            "on the asserted hypotheses",
            file=out,
        )
    if rep.diagnostics:
        print("diagnostics:", file=out)
        for d in rep.diagnostics:
            print(f"  {_format_diagnostic(d, color)}", file=out)
    if rep.expected is not None:
        torsion = ", ".join(str(t) for t in rep.expected.b0_torsion) or "none"
        print(
            f"recorded expectation: B(X)_0 rank {rep.expected.b0_rank}, "
            f"torsion [{torsion}] (source: {rep.expected.source})",
            file=out,
        )
    if rep.notes:
        print(f"notes: {rep.notes}", file=out)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowfiber",
        description=(
            "Zero-cycle class groups of rational surfaces over p-adic fields, "
            "computed exactly from special-fiber degree data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model document")
    p_validate.add_argument("path", metavar="model", help="path to a model JSON document")
    p_validate.set_defaults(load=_load_model, func=cmd_validate)

    p_compute = sub.add_parser("compute", help="compute B(X), B(X)_0 and the index")
    p_compute.add_argument("path", metavar="model", help="path to a model JSON document")
    mode = p_compute.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        action="store_true",
        help="refuse models with validation errors (default)",
    )
    mode.add_argument(
        "--permissive",
        action="store_true",
        help="report the formal cokernel even when validation fails",
    )
    p_compute.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_compute.set_defaults(load=_load_model, func=cmd_compute)

    p_snf = sub.add_parser("snf", help="invariant factors of an integer matrix file")
    p_snf.add_argument(
        "path", metavar="matrix", help="path to a matrix text file ('R C' header)"
    )
    p_snf.add_argument(
        "--check",
        action="store_true",
        help=(
            "cross-check against the determinantal-divisor oracle, or past its "
            "size limit against the reduction modulo a nonzero minor"
        ),
    )
    p_snf.set_defaults(load=_load_matrix, func=cmd_snf)

    p_oracle = sub.add_parser("oracle", help="determinantal divisors of a matrix file")
    p_oracle.add_argument(
        "path", metavar="matrix", help="path to a matrix text file ('R C' header)"
    )
    p_oracle.set_defaults(load=_load_matrix, func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    digit_limit = sys.get_int_max_str_digits()
    try:
        loaded = args.load(args.path)
        # Parsed under the digit limit; exact results print in full.
        sys.set_int_max_str_digits(0)
        code = args.func(loaded, args)
        sys.stdout.flush()
    except (ParseError, SchemaError, MatrixFormatError, OracleSizeLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidModel as e:
        for d in e.diagnostics:
            print(_format_diagnostic(d, _color_enabled(sys.stderr)), file=sys.stderr)
        print(
            "validation failed; rerun with --permissive to study the formal cokernel",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except SelfCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at os.devnull so
        # the unwritten rest cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
