"""The ``boole`` command line tool.

Every command is a pure function of its arguments and stdin to stdout,
stderr and an exit code.  Exit codes: 0 for success (holds, equal,
defined); 1 for a semantic negative (not-equal, fails, undefined, not
interpretable); 2 for usage, parse or limit errors, and for internal
errors.

``--format json`` switches to one JSON object per result (a development
row, an ``r01`` sentence, a whole ``solve`` or ``interpretable`` report),
with polynomials encoded as arrays of ``{"monomial": [names...],
"coefficient": "decimal string"}`` in canonical term order.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .development import develop, development_values, first_difference, sigma_strings
from .models import (
    ClassAssignment,
    Defined,
    Multiset,
    Universe,
    elements_of,
    eval_multiset,
    eval_partial,
)
from .polynomial import (
    Polynomial,
    VariableLimitError,
    _decimal,
    _from_decimal,
    _ordered,
    _require_name,
    from_point_values,
    is_valid_name,
)
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


def _emit(args: argparse.Namespace, text: str, payload: Callable[[], dict[str, object]]) -> None:
    """Print one result as `text`, or as the JSON object `payload` builds."""
    if args.format == "json":
        import json  # only JSON output pays for loading it

        print(json.dumps(payload()))
    else:
        print(text)


def _poly_of(text: str, argument: str) -> Polynomial:
    """A term argument's polynomial; a parse error names the argument."""
    try:
        return poly(text)
    except ParseError as error:
        raise ParseError(f"{argument}: {error.message}", error.position) from None


def _split_names(listing: str) -> tuple[str, ...]:
    names = tuple(_require_name(part.strip()) for part in listing.split(",") if part.strip())
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable in {listing!r}")
    return names


# ----------------------------------------------------------------------
# Commands


def _cmd_normalize(args: argparse.Namespace) -> int:
    p = poly(args.expr)
    _emit(args, str(p), lambda: {"polynomial": poly_to_json(p)})
    return 0


def _cmd_develop(args: argparse.Namespace) -> int:
    p = poly(args.expr)
    names = _split_names(args.vars) if args.vars else None
    for sigma, coeff in develop(p, names, max_vars=args.max_vars).items():
        text = f"{sigma} {coeff}" if sigma else str(coeff)
        _emit(args, text, lambda: {"sigma": sigma, "coefficient": poly_to_json(coeff)})
    return 0


def _cmd_equal(args: argparse.Namespace) -> int:
    p, q = _poly_of(args.left, "left"), _poly_of(args.right, "right")
    sigma = first_difference(p, q, max_vars=args.max_vars)
    if sigma is None:
        _emit(args, "equal", lambda: {"equal": True})
        return 0
    _emit(args, f"not-equal at σ={sigma}", lambda: {"equal": False, "sigma": sigma})
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduced = reduce_system([_poly_of(e, f"expr {i}") for i, e in enumerate(args.exprs, 1)])
    _emit(args, str(reduced), lambda: {"polynomial": poly_to_json(reduced)})
    return 0


def _cmd_eliminate(args: argparse.Namespace) -> int:
    result = eliminate(poly(args.expr), _split_names(args.elim), max_vars=args.max_vars)
    _emit(args, str(result), lambda: {"polynomial": poly_to_json(result)})
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
    _emit(
        args,
        f"condition: {solution.condition}\n"
        f"{unknown} = {solution.particular} + {solution.parameter}*({solution.freedom})",
        lambda: {
            "unknown": unknown,
            **{part: poly_to_json(getattr(solution, part)) for part in ("condition", "particular", "freedom")},
            "parameter": solution.parameter,
            "vacuous": solution.vacuous,
        },
    )
    return 0


def _cmd_interpretable(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    p = term_to_poly(term)
    totally = is_totally_interpretable(term)
    names, values = development_values(p, max_vars=args.max_vars)
    idempotent = set(values) <= {0, 1}
    # the core, the sum of the constituents where p is nonzero, is p when p is idempotent
    core = p if idempotent else from_point_values({0: [1 if value else 0 for value in values]}, names)
    sigmas = [sigma for sigma, value in zip(sigma_strings(len(names)), values) if value]
    shown = " ".join(s if s else "''" for s in sigmas)
    _emit(
        args,
        f"totally interpretable: {'yes' if totally else 'no'}\nidempotent: {'yes' if idempotent else 'no'}\n"
        f"core: {core}\nconstituents: {shown if shown else 'none'}",
        lambda: {
            "totally_interpretable": totally,
            "idempotent": idempotent,
            "core": poly_to_json(core),
            "constituents": sigmas,
        },
    )
    return 0 if idempotent else 1


def _cmd_setexpr(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    try:
        expr = to_set_expression(term)
    except NotTotallyInterpretableError as error:
        _emit(
            args,
            str(error),
            lambda: {
                "error": "not-totally-interpretable",
                "subterm": format_term(error.term),
                "condition": error.condition,
            },
        )
        return 1
    _emit(args, str(expr), lambda: {"set_expression": str(expr)})
    return 0


def _cmd_r01(args: argparse.Namespace) -> int:
    if (args.sentence is None) == (args.file is None):
        print("error: provide exactly one of an inline sentence or --file", file=sys.stderr)
        return 2
    if args.sentence is not None:
        lines = [(1, args.sentence)]
    else:
        with open(args.file, encoding="utf-8") as file:  # pathlib would cost a cold start ~5 ms
            raw = file.read().splitlines()
        lines = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    status = 0
    for number, line in lines:
        try:
            verdict = check_r01(parse_horn(line), max_vars=args.max_vars)
        except ParseError as error:
            print(f"error: line {number}: {error}", file=sys.stderr)
            return 2
        if verdict.holds:
            _emit(args, "holds", lambda: {"holds": True})
            continue
        witness = dict(verdict.witness or {})
        shown = ",".join(f"{name}={bit}" for name, bit in witness.items())
        _emit(
            args,
            f"fails at {shown}",
            lambda: {"holds": False, "witness": witness, "consequent_value": _decimal(verdict.consequent_value)},
        )
        status = 1
    return status


def _cmd_eval(args: argparse.Namespace) -> int:
    term = parse(args.expr)
    if args.classes is not None:
        universe, subsets = _parse_assignment(args.classes, "{elements}")
        result = eval_partial(term, ClassAssignment(universe, subsets))
        if isinstance(result, Defined):
            elements = elements_of(result.subset)
            text = "{" + ", ".join(map(str, elements)) + "}" if elements else "∅"
            _emit(args, text, lambda: {"defined": True, "subset": list(elements)})
            return 0
        _emit(
            args,
            f"undefined: {result.reason}",
            lambda: {"defined": False, "reason": result.reason, "subterm": format_term(result.term)},
        )
        return 1
    universe, values = _parse_assignment(args.multisets, "[values]")
    for name, entries in values.items():
        if len(entries) != universe.size:
            raise ValueError(f"{name} needs {universe.size} values, got {len(entries)}")
    value = eval_multiset(term, {name: Multiset(entries) for name, entries in values.items()}, universe=universe)
    _emit(args, str(value), lambda: {"values": [_decimal(v) for v in value.values]})
    return 0


def _parse_assignment(spec: str, shape: str) -> tuple[Universe, dict[str, list[int]]]:
    """The universe and each name's integers from ``U=<size>; name=<integers>; ...``, the
    integers written in the brackets of `shape`: ``"{elements}"`` or ``"[values]"``."""
    parts = [chunk.strip() for chunk in spec.split(";") if chunk.strip()]
    if not parts or not parts[0].replace(" ", "").startswith("U="):
        raise ValueError("assignment must start with 'U=<size>'")
    try:
        universe = Universe(_from_decimal(parts[0].split("=", 1)[1]))
    except ValueError as error:
        raise ValueError(f"bad universe size: {error}") from None
    entries = [(chunk, *(piece.strip() for piece in chunk.partition("="))) for chunk in parts[1:]]
    for chunk, name, eq, _ in entries:
        if not eq or not is_valid_name(name):
            raise ValueError(f"bad assignment entry {chunk!r}")
    bindings: dict[str, list[int]] = {}
    for chunk, name, _, value in entries:
        if name in bindings:
            raise ValueError(f"variable {name!r} is assigned twice")
        if not value.startswith(shape[0]) or not value.endswith(shape[-1]):
            raise ValueError(f"expected {name}={shape}, got {name}={value}")
        body = value[1:-1].strip()
        try:
            bindings[name] = [_from_decimal(piece) for piece in body.split(",")] if body else []
        except ValueError:
            raise ValueError(f"bad element in assignment entry {chunk!r}") from None
    return universe, bindings


# ----------------------------------------------------------------------
# Wiring


# name -> (help, arguments as flag -> add_argument keywords); the handler is _cmd_<name>
_EXPR = {"expr": {}}
_COMMANDS = {
    "normalize": ("canonical polynomial of a term", _EXPR),
    "develop": (
        "complete development table",
        {**_EXPR, "--vars": {"help": "ambient variables, e.g. x,y (superset of the term's)"}},
    ),
    "equal": ("equality by complete development", {"left": {}, "right": {}}),
    "reduce": ("reduce equations e1=0,... to one equation", {"exprs": {"nargs": "+", "metavar": "expr"}}),
    "eliminate": (
        "eliminate variables from expr=0",
        {**_EXPR, "--elim": {"required": True, "help": "variables to eliminate, e.g. x,y"}},
    ),
    "solve": (
        "solve expr=0 for one unknown",
        {**_EXPR, "--for": {"dest": "unknown", "required": True, "metavar": "VAR"}},
    ),
    "interpretable": ("interpretability report: idempotence, core, constituent equations", _EXPR),
    "setexpr": ("translate a totally interpretable term to sets", _EXPR),
    "r01": (
        "check Horn sentences 'e1=f1 & e2=f2 -> e0=f0' by the Rule of 0 and 1",
        {"sentence": {"nargs": "?"}, "--file": {"help": "file with one sentence per line"}},
    ),
    "eval": ("evaluate a term under class or multiset semantics", _EXPR),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``boole`` parser.  Every subcommand is registered with its help, so
    usage, ``--help`` and "invalid choice" read the same for any `command`;
    only `command`'s subparser, or all of them when it is None, gets its
    arguments, since building the others is most of a small call's time."""
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
        metavar="N",
        help="override the 20-variable cap on 2**n enumerations "
        "(acknowledging the exponential cost)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, arguments) in _COMMANDS.items():
        if command is not None and name != command:
            sub.add_parser(name, help=text, add_help=False)
            continue
        cmd = sub.add_parser(name, parents=[common], help=text)
        for flag, options in arguments.items():
            cmd.add_argument(flag, **options)
        if name == "eval":  # exactly one of the two semantics
            group = cmd.add_mutually_exclusive_group(required=True)
            group.add_argument("--classes", help="class assignment 'U=2; x={0}; y={0,1}'")
            group.add_argument("--multisets", help="multiset assignment 'U=2; x=[1,0]'")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.max_vars is not None and args.max_vars < 0:
        parser.error(f"argument --max-vars: the variable limit must be nonnegative, got {args.max_vars}")
    try:
        return globals()[f"_cmd_{args.command}"](args)  # looked up per call, so a patched one is used
    except KeyError as error:
        print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
    except (ParseError, VariableLimitError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
    except Exception as error:  # a crash must not pass for a semantic negative
        print(f"error: internal error: {type(error).__name__}: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
