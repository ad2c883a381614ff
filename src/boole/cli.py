"""The ``boole`` command line tool.

Every command is a pure function of its arguments and stdin to stdout,
stderr and an exit code.  Exit codes: 0 for success (holds, equal,
defined); 1 for a semantic negative (not-equal, fails, undefined, not
interpretable); 2 for usage, parse or limit errors, and for internal
errors.

``--format json`` switches to one JSON object per output line, with
polynomials encoded as arrays of ``{"monomial": [names...],
"coefficient": "decimal string"}`` in canonical term order.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .development import constituent_equations, develop, first_difference, interpretable_core
from .models import (
    ClassAssignment,
    Defined,
    Multiset,
    Universe,
    elements_of,
    eval_multiset,
    eval_partial,
)
from .polynomial import Polynomial, VariableLimitError, _decimal, _from_decimal, _ordered, _require_name, is_valid_name
from .r01 import check_r01, parse_horn
from .terms import (
    NotTotallyInterpretableError,
    ParseError,
    format_term,
    is_totally_interpretable,
    parse,
    poly,
    term_to_poly,
    to_set_expression,
)
from .theorems import eliminate, reduce_system, solve

__all__ = ["main", "poly_from_json", "poly_to_json"]


def poly_to_json(p: Polynomial) -> list[dict[str, object]]:
    return [
        {"monomial": list(mono), "coefficient": _decimal(coeff)}
        for mono, coeff in _ordered(p)
    ]


def poly_from_json(entries: list[dict[str, object]]) -> Polynomial:
    return Polynomial(
        {tuple(e["monomial"]): _from_decimal(e["coefficient"]) for e in entries}  # type: ignore[arg-type]
    )


def _print_json(payload: dict[str, object]) -> None:
    import json  # only JSON output pays for loading it

    print(json.dumps(payload))


def _emit(args: argparse.Namespace, text: str, payload: dict[str, object]) -> None:
    if args.format == "json":
        _print_json(payload)
    else:
        print(text)


def _split_names(listing: str) -> tuple[str, ...]:
    names = tuple(_require_name(part.strip()) for part in listing.split(",") if part.strip())
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable in {listing!r}")
    return names


# ----------------------------------------------------------------------
# Commands


def _cmd_normalize(args: argparse.Namespace) -> int:
    p = poly(args.expr)
    _emit(args, str(p), {"polynomial": poly_to_json(p)})
    return 0


def _cmd_develop(args: argparse.Namespace) -> int:
    p = poly(args.expr)
    names = _split_names(args.vars) if args.vars else None
    table = develop(p, names, max_vars=args.max_vars)
    for sigma, coeff in table.items():
        if args.format == "json":
            _print_json({"sigma": sigma, "coefficient": poly_to_json(coeff)})
        elif sigma:
            print(f"{sigma} {coeff}")
        else:
            print(coeff)
    return 0


def _cmd_equal(args: argparse.Namespace) -> int:
    p, q = poly(args.left), poly(args.right)
    sigma = first_difference(p, q, max_vars=args.max_vars)
    if sigma is None:
        _emit(args, "equal", {"equal": True})
        return 0
    _emit(args, f"not-equal at σ={sigma}", {"equal": False, "sigma": sigma})
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduced = reduce_system([poly(e) for e in args.exprs])
    _emit(args, str(reduced), {"polynomial": poly_to_json(reduced)})
    return 0


def _cmd_eliminate(args: argparse.Namespace) -> int:
    result = eliminate(poly(args.expr), _split_names(args.elim), max_vars=args.max_vars)
    _emit(args, str(result), {"polynomial": poly_to_json(result)})
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    unknown = _require_name(args.unknown)
    solution = solve(poly(args.expr), unknown, max_vars=args.max_vars)
    if solution.vacuous:
        print(
            f"warning: {unknown} does not occur in the equation; the condition "
            "alone constrains the parameters",
            file=sys.stderr,
        )
    if args.format == "json":
        _print_json(
            {
                "unknown": unknown,
                "condition": poly_to_json(solution.condition),
                "particular": poly_to_json(solution.particular),
                "freedom": poly_to_json(solution.freedom),
                "parameter": solution.parameter,
                "vacuous": solution.vacuous,
            }
        )
    else:
        print(f"condition: {solution.condition}")
        print(f"{unknown} = {solution.particular} + {solution.parameter}*({solution.freedom})")
    return 0


def _cmd_interpretable(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    p = term_to_poly(term)
    totally = is_totally_interpretable(term)
    idempotent = p.is_idempotent()
    core = interpretable_core(p, max_vars=args.max_vars)
    sigmas = sorted(constituent_equations(p, max_vars=args.max_vars))
    if args.format == "json":
        _print_json(
            {
                "totally_interpretable": totally,
                "idempotent": idempotent,
                "core": poly_to_json(core),
                "constituents": sigmas,
            }
        )
    else:
        print(f"totally interpretable: {'yes' if totally else 'no'}")
        print(f"idempotent: {'yes' if idempotent else 'no'}")
        print(f"core: {core}")
        shown = " ".join(s if s else "''" for s in sigmas)
        print(f"constituents: {shown if shown else 'none'}")
    return 0 if idempotent else 1


def _cmd_setexpr(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    try:
        expr = to_set_expression(term)
    except NotTotallyInterpretableError as error:
        _emit(
            args,
            str(error),
            {
                "error": "not-totally-interpretable",
                "subterm": format_term(error.term),
                "condition": error.condition,
            },
        )
        return 1
    _emit(args, str(expr), {"set_expression": str(expr)})
    return 0


def _cmd_r01(args: argparse.Namespace) -> int:
    if (args.sentence is None) == (args.file is None):
        print("error: provide exactly one of an inline sentence or --file", file=sys.stderr)
        return 2
    if args.sentence is not None:
        lines = [(1, args.sentence)]
    else:
        raw = Path(args.file).read_text(encoding="utf-8").splitlines()
        lines = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    status = 0
    for number, line in lines:
        try:
            verdict = check_r01(parse_horn(line), max_vars=args.max_vars)
        except ParseError as error:
            print(f"error: line {number}: {error}", file=sys.stderr)
            return 2
        if verdict.holds:
            _emit(args, "holds", {"holds": True})
        else:
            witness = dict(verdict.witness or {})
            shown = ",".join(f"{name}={bit}" for name, bit in witness.items())
            _emit(
                args,
                f"fails at {shown}",
                {
                    "holds": False,
                    "witness": witness,
                    "consequent_value": _decimal(verdict.consequent_value),
                },
            )
            status = 1
    return status


def _cmd_eval(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    if args.classes is not None:
        assignment = _parse_class_spec(args.classes)
        result = eval_partial(term, assignment)
        if isinstance(result, Defined):
            _emit(
                args,
                _format_mask(result.subset),
                {"defined": True, "subset": list(elements_of(result.subset))},
            )
            return 0
        _emit(
            args,
            f"undefined: {result.reason}",
            {
                "defined": False,
                "reason": result.reason,
                "subterm": format_term(result.term),
            },
        )
        return 1
    universe, multisets = _parse_multiset_spec(args.multisets)
    value = eval_multiset(term, multisets, universe=universe)
    _emit(args, str(value), {"values": [_decimal(v) for v in value.values]})
    return 0


def _format_mask(mask: int) -> str:
    if mask == 0:
        return "∅"
    return "{" + ", ".join(str(i) for i in elements_of(mask)) + "}"


# ----------------------------------------------------------------------
# Assignment mini-syntaxes
#
#   classes:    U=3; x={0,2}; y={}
#   multisets:  U=2; x=[1,0]; y=[-2,7]


def _spec_parts(spec: str) -> tuple[Universe, list[tuple[str, str]]]:
    parts = [chunk.strip() for chunk in spec.split(";") if chunk.strip()]
    if not parts or not parts[0].replace(" ", "").startswith("U="):
        raise ValueError("assignment must start with 'U=<size>'")
    try:
        universe = Universe(_from_decimal(parts[0].split("=", 1)[1]))
    except ValueError as error:
        raise ValueError(f"bad universe size: {error}") from None
    bindings = []
    for chunk in parts[1:]:
        name, eq, value = (piece.strip() for piece in chunk.partition("="))
        if not eq or not is_valid_name(name):
            raise ValueError(f"bad assignment entry {chunk!r}")
        bindings.append((name, value))
    return universe, bindings


def _parse_class_spec(spec: str) -> ClassAssignment:
    universe, bindings = _spec_parts(spec)
    masks: dict[str, object] = {}
    for name, value in bindings:
        if not value.startswith("{") or not value.endswith("}"):
            raise ValueError(f"expected {name}={{elements}}, got {name}={value}")
        body = value[1:-1].strip()
        elements = [_from_decimal(piece) for piece in body.split(",")] if body else []
        masks[name] = elements
    return ClassAssignment(universe, masks)  # type: ignore[arg-type]


def _parse_multiset_spec(spec: str) -> tuple[Universe, dict[str, Multiset]]:
    universe, bindings = _spec_parts(spec)
    multisets: dict[str, Multiset] = {}
    for name, value in bindings:
        if not value.startswith("[") or not value.endswith("]"):
            raise ValueError(f"expected {name}=[values], got {name}={value}")
        body = value[1:-1].strip()
        entries = [_from_decimal(piece) for piece in body.split(",")] if body else []
        if len(entries) != universe.size:
            raise ValueError(
                f"{name} needs {universe.size} values, got {len(entries)}"
            )
        multisets[name] = Multiset(tuple(entries))
    return universe, multisets


# ----------------------------------------------------------------------
# Wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boole",
        description="Boole's algebra of logic: canonical polynomials, "
        "development, elimination, solving, class and multiset semantics, "
        "and the Rule of 0 and 1.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--max-vars",
        type=int,
        default=None,
        metavar="N",
        help="override the 20-variable cap on 2**n enumerations "
        "(acknowledging the exponential cost)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    cmd = sub.add_parser("normalize", parents=[common], help="canonical polynomial of a term")
    cmd.add_argument("expr")
    cmd.set_defaults(handler=_cmd_normalize)

    cmd = sub.add_parser("develop", parents=[common], help="complete development table")
    cmd.add_argument("expr")
    cmd.add_argument("--vars", default=None, help="ambient variables, e.g. x,y (superset of the term's)")
    cmd.set_defaults(handler=_cmd_develop)

    cmd = sub.add_parser("equal", parents=[common], help="equality by complete development")
    cmd.add_argument("left")
    cmd.add_argument("right")
    cmd.set_defaults(handler=_cmd_equal)

    cmd = sub.add_parser("reduce", parents=[common], help="reduce equations e1=0,... to one equation")
    cmd.add_argument("exprs", nargs="+", metavar="expr")
    cmd.set_defaults(handler=_cmd_reduce)

    cmd = sub.add_parser("eliminate", parents=[common], help="eliminate variables from expr=0")
    cmd.add_argument("expr")
    cmd.add_argument("--elim", required=True, help="variables to eliminate, e.g. x,y")
    cmd.set_defaults(handler=_cmd_eliminate)

    cmd = sub.add_parser("solve", parents=[common], help="solve expr=0 for one unknown")
    cmd.add_argument("expr")
    cmd.add_argument("--for", dest="unknown", required=True, metavar="VAR")
    cmd.set_defaults(handler=_cmd_solve)

    cmd = sub.add_parser(
        "interpretable",
        parents=[common],
        help="interpretability report: idempotence, core, constituent equations",
    )
    cmd.add_argument("expr")
    cmd.set_defaults(handler=_cmd_interpretable)

    cmd = sub.add_parser("setexpr", parents=[common], help="translate a totally interpretable term to sets")
    cmd.add_argument("expr")
    cmd.set_defaults(handler=_cmd_setexpr)

    cmd = sub.add_parser(
        "r01",
        parents=[common],
        help="check Horn sentences 'e1=f1 & e2=f2 -> e0=f0' by the Rule of 0 and 1",
    )
    cmd.add_argument("sentence", nargs="?", default=None)
    cmd.add_argument("--file", default=None, help="file with one sentence per line")
    cmd.set_defaults(handler=_cmd_r01)

    cmd = sub.add_parser("eval", parents=[common], help="evaluate a term under class or multiset semantics")
    cmd.add_argument("expr")
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--classes", default=None, help="class assignment 'U=2; x={0}; y={0,1}'")
    group.add_argument("--multisets", default=None, help="multiset assignment 'U=2; x=[1,0]'")
    cmd.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_vars is not None and args.max_vars < 0:
        parser.error(f"argument --max-vars: the variable limit must be nonnegative, got {args.max_vars}")
    try:
        return args.handler(args)
    except KeyError as error:
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
    except (ParseError, VariableLimitError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
    except Exception as error:  # a crash must not pass for a semantic negative
        print(f"error: internal error: {type(error).__name__}: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
