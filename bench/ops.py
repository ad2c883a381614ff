"""How each kind of op calls ``boole``, reduces its result to plain data,
and has that data checked by the oracle.

For every kind, ``prepare`` does the untimed work (parsing the inputs an
API call takes as objects) and returns the timed call; ``digest`` turns
the result into plain data (ints, strings, tuples); ``check`` returns
``None`` when the data is right and a reason otherwise.  Calls go through
``boole.<name>`` at call time so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracle


def prepare(op, boole):
    kind, args = op.kind, op.args
    if kind == "cli":
        argv = list(args)
        return lambda: _run_cli(boole, argv)
    if kind == "poly":
        return lambda: boole.poly(args[0])
    if kind == "r01":
        return lambda: boole.check_r01(boole.parse_horn(args[0]))
    if kind == "format_term":
        term = boole.parse(args[0])
        return lambda: boole.format_term(term)
    if kind == "set_expression":
        term = boole.parse(args[0])
        return lambda: boole.to_set_expression(term)
    p = boole.poly(args[0])
    if kind == "develop":
        return lambda: boole.develop(p)
    if kind == "core":
        return lambda: boole.interpretable_core(p)
    if kind == "to_term":
        return lambda: boole.to_term(p)
    if kind == "from_table":
        table = boole.develop(p)
        return lambda: boole.from_table(table)
    if kind == "solve":
        return lambda: boole.solve(p, args[1])
    if kind == "eliminate":
        return lambda: boole.eliminate(p, args[1])
    q = boole.poly(args[1])
    if kind == "first_difference":
        return lambda: boole.first_difference(p, q)
    if kind == "product":
        return lambda: p * q
    raise ValueError(f"unknown op kind {kind!r}")


def _run_cli(boole, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = boole.cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# Results as plain data


def terms(p) -> tuple:
    return tuple(p.terms.items())


def digest(op, result):
    kind = op.kind
    if kind in ("cli", "first_difference", "format_term"):
        return result
    if kind == "develop":
        return tuple((sigma, terms(coeff)) for sigma, coeff in result.items())
    if kind == "solve":
        return (
            terms(result.condition),
            terms(result.particular),
            terms(result.freedom),
            result.parameter,
        )
    if kind == "r01":
        witness = None if result.witness is None else tuple(result.witness.items())
        return result.holds, witness, result.consequent_value
    if kind == "to_term":
        return tree_code(result, _TERM_NODES)
    if kind == "set_expression":
        return tree_code(result, _SET_NODES)
    return terms(result)


# class name -> (fields to visit, postfix instruction builder)
_TERM_NODES = {
    "Var": ((), lambda node: ("var", node.name)),
    "Zero": ((), lambda node: ("int", 0)),
    "One": ((), lambda node: ("int", 1)),
    "IntLit": ((), lambda node: ("int", node.value)),
    "Add": (("left", "right"), lambda node: ("add",)),
    "Sub": (("left", "right"), lambda node: ("sub",)),
    "Mul": (("left", "right"), lambda node: ("mul",)),
    "Neg": (("operand",), lambda node: ("neg",)),
    "Pow": (("base",), lambda node: ("pow", node.exponent)),
}
_SET_NODES = {
    "SetVar": ((), lambda node: ("var", node.name)),
    "SetUniverse": ((), lambda node: ("int", 1)),
    "SetEmpty": ((), lambda node: ("int", 0)),
    "SetUnion": (("left", "right"), lambda node: ("union",)),
    "SetIntersection": (("left", "right"), lambda node: ("inter",)),
    "SetComplement": (("operand",), lambda node: ("compl",)),
}


def tree_code(root, nodes) -> tuple:
    """Postfix code of an expression tree, read by node class name and
    fields, with an explicit stack so depth is unlimited."""
    code = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        children, emit = nodes[type(node).__name__]
        if expanded or not children:
            code.append(emit(node))
            continue
        stack.append((node, True))
        for name in reversed(children):
            stack.append((getattr(node, name), False))
    return tuple(code)


def count_nodes(root) -> int:
    """Nodes in a term tree (for the traced run's ``terms.nodes``)."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, name) for name in _TERM_NODES[type(node).__name__][0])
    return count


# ----------------------------------------------------------------------
# Checks


def check(op, data, rng: random.Random) -> str | None:
    kind, args = op.kind, op.args
    if kind == "cli":
        return check_cli(op.meta, *data, rng)
    if kind in ("poly", "from_table"):
        return oracle.check_polynomial(data, args[0], rng)
    if kind == "core":
        return oracle.check_core(data, args[0])
    if kind == "develop":
        return _check_rows(data, args[0])
    if kind == "first_difference":
        want = oracle.first_difference(args[0], args[1])
        return None if data == want else f"first difference {data!r}, expected {want!r}"
    if kind == "solve":
        return oracle.check_solution(*data[:3], args[0], args[1])
    if kind == "eliminate":
        return oracle.check_elimination(data, args[0], args[1])
    if kind == "product":
        return oracle.check_product(data, args[0], args[1], rng)
    if kind == "format_term":
        return oracle.check_term(oracle.compile_rpn(data), args[0], rng)
    if kind == "to_term":
        return oracle.check_term(data, args[0], rng)
    if kind == "set_expression":
        return oracle.check_set_expression(data, args[0], rng)
    if kind == "r01":
        return _check_r01(op.meta, data, args[0])
    raise ValueError(f"unknown op kind {kind!r}")


def _check_rows(rows, text: str, variables=None) -> str | None:
    plain = []
    for sigma, coeff in rows:
        if any(mono for mono, _ in coeff):
            return f"row {sigma} is not a constant"
        plain.append((sigma, sum(c for _, c in coeff)))
    return oracle.check_development(plain, text, variables)


def split_sentence(text: str):
    """(antecedents, consequent) of ``a = b & c = d -> e = f`` as pairs of
    side texts."""
    head, arrow, tail = text.partition("->")
    parts = [p.split("=") for p in (head.split("&") if arrow else [])]
    cons = (tail if arrow else head).split("=")
    return [(a.strip(), b.strip()) for a, b in parts], (cons[0].strip(), cons[1].strip())


def _check_r01(meta, data, text: str) -> str | None:
    holds, witness, value = data
    if holds != meta["holds"]:
        return f"verdict holds={holds}, expected holds={meta['holds']}"
    if holds:
        return None
    if dict(witness) != meta["witness"]:
        return f"witness {dict(witness)}, expected {meta['witness']}"
    antecedents, consequent = split_sentence(text)
    return oracle.check_witness(dict(witness), antecedents, consequent, value)


# ----------------------------------------------------------------------
# CLI outputs


def parse_poly_text(text: str) -> list:
    """(monomial, coefficient) pairs of a rendered polynomial such as
    ``-x + 2*x*y - 3``."""
    if text == "0":
        return []
    words = text.split(" ")
    items = [("+", words[0])] + list(zip(words[1::2], words[2::2]))
    if len(words) % 2 == 0:
        raise ValueError(f"malformed polynomial {text!r}")
    out = []
    for sign, body in items:
        negative = sign == "-"
        if body.startswith("-"):
            negative, body = True, body[1:]
        factors = body.split("*")
        coeff = int(factors[0]) if factors[0].isdigit() else 1
        names = factors[1:] if factors[0].isdigit() else factors
        if sign not in "+-" or not all(name.isidentifier() for name in names):
            raise ValueError(f"malformed polynomial {text!r}")
        out.append((tuple(names), -coeff if negative else coeff))
    return out


def poly_from_json(entries) -> list:
    return [(tuple(e["monomial"]), int(e["coefficient"])) for e in entries]


def check_cli(meta, code, out: str, err: str, rng) -> str | None:
    if meta.get("parse_error"):
        if code == 2 and err.startswith("error:") and not out:
            return None
        return f"expected a parse error (exit 2), got exit {code}"
    try:
        return _CLI_CHECKS[meta["command"]](meta, code, out.splitlines(), meta["format"] == "json", rng)
    except (ValueError, KeyError, IndexError, TypeError) as error:
        return f"unreadable output (exit {code}): {type(error).__name__}: {error}"


def _exit(code, want) -> str | None:
    return None if code == want else f"exit {code}, expected {want}"


def _one_poly(lines, js, key="polynomial"):
    if len(lines) != 1:
        raise ValueError(f"{len(lines)} output lines, expected 1")
    return poly_from_json(json.loads(lines[0])[key]) if js else parse_poly_text(lines[0])


def _cli_normalize(meta, code, lines, js, rng):
    return _exit(code, 0) or oracle.check_polynomial(_one_poly(lines, js), meta["exprs"][0], rng)


def _cli_develop(meta, code, lines, js, rng):
    rows = []
    for line in lines:
        if js:
            row = json.loads(line)
            rows.append((row["sigma"], tuple(poly_from_json(row["coefficient"]))))
        else:
            sigma, _, value = line.rpartition(" ")
            rows.append((sigma, (((), int(value)),)))
    return _exit(code, 0) or _check_rows(rows, meta["exprs"][0], meta.get("vars"))


def _cli_equal(meta, code, lines, js, rng):
    want = oracle.first_difference(*meta["exprs"])
    if js:
        got = json.loads(lines[0])
        got = None if got["equal"] else got["sigma"]
    else:
        got = None if lines == ["equal"] else lines[0].removeprefix("not-equal at σ=")
    if len(lines) != 1 or got != want:
        return f"first difference {got!r}, expected {want!r}"
    return _exit(code, 0 if want is None else 1)


def _cli_reduce(meta, code, lines, js, rng):
    return _exit(code, 0) or oracle.check_reduction(_one_poly(lines, js), meta["exprs"])


def _cli_eliminate(meta, code, lines, js, rng):
    return _exit(code, 0) or oracle.check_elimination(_one_poly(lines, js), meta["exprs"][0], meta["elim"])


def _cli_solve(meta, code, lines, js, rng):
    unknown = meta["unknown"]
    if js:
        row = json.loads(lines[0])
        parts = [poly_from_json(row[k]) for k in ("condition", "particular", "freedom")]
    else:
        condition = lines[0].removeprefix("condition: ")
        rhs = lines[1].removeprefix(f"{unknown} = ")
        particular, _, freedom = rhs.partition(" + v*(")
        parts = [parse_poly_text(t) for t in (condition, particular, freedom.removesuffix(")"))]
    return _exit(code, 0) or oracle.check_solution(*parts, meta["exprs"][0], unknown)


def _cli_interpretable(meta, code, lines, js, rng):
    text = meta["exprs"][0]
    names = sorted(oracle.rpn_variables(oracle.compile_rpn(text)))
    values = oracle.text_values(text, names, oracle.all_points(len(names)))
    keep = oracle.depends_on(values, len(names))
    projected = oracle.project(values, len(names), keep)
    want_sigmas = [oracle.sigma(i, len(keep)) for i, v in enumerate(projected) if v]
    idempotent = all(v in (0, 1) for v in values)
    totally = oracle.totally_interpretable(text)
    if js:
        row = json.loads(lines[0])
        got = (row["totally_interpretable"], row["idempotent"], row["constituents"])
        core = poly_from_json(row["core"])
    else:
        shown = lines[3].removeprefix("constituents: ").split(" ")
        sigmas = [] if shown == ["none"] else ["" if s == "''" else s for s in shown]
        got = (lines[0].endswith("yes"), lines[1].endswith("yes"), sigmas)
        core = parse_poly_text(lines[2].removeprefix("core: "))
    if got != (totally, idempotent, want_sigmas):
        return f"report {got}, expected {(totally, idempotent, want_sigmas)}"
    return _exit(code, 0 if idempotent else 1) or oracle.check_core(core, text)


def _cli_setexpr(meta, code, lines, js, rng):
    text = meta["exprs"][0]
    row = json.loads(lines[0]) if js else None
    if not oracle.totally_interpretable(text):
        refused = row.get("error") == "not-totally-interpretable" if js else lines[0].startswith("not totally interpretable")
        return _exit(code, 1) or (None if refused else "expected a not-totally-interpretable report")
    shown = row["set_expression"] if js else lines[0]
    return _exit(code, 0) or oracle.check_set_expression(oracle.compile_set_expression(shown), text, rng)


def _cli_r01(meta, code, lines, js, rng):
    consequent = (meta["exprs"][0], meta["consequent_rhs"])
    holds, witness = oracle.horn_verdict(meta["antecedents"], consequent)
    value = None
    if js:
        row = json.loads(lines[0])
        got_holds, got_witness = row["holds"], row.get("witness")
        value = int(row["consequent_value"]) if "consequent_value" in row else None
    elif lines == ["holds"]:
        got_holds, got_witness = True, None
    else:
        pairs = lines[0].removeprefix("fails at ").split(",")
        got_holds = False
        got_witness = {k: int(v) for k, v in (p.split("=") for p in pairs if p)}
    if (got_holds, got_witness) != (holds, witness):
        return f"verdict {got_holds} {got_witness}, expected {holds} {witness}"
    if not holds:
        reason = oracle.check_witness(witness, meta["antecedents"], consequent, value)
        if reason:
            return reason
    return _exit(code, 0 if holds else 1)


def _cli_eval(meta, code, lines, js, rng):
    text, size = meta["exprs"][0], meta["size"]
    if "multisets" in meta:
        want = oracle.multiset_value(text, meta["multisets"], size)
        if js:
            got = [int(v) for v in json.loads(lines[0])["values"]]
        else:
            got = [int(v) for v in lines[0].strip("[]").split(", ") if v]
        return _exit(code, 0) or (None if got == want else f"values {got}, expected {want}")
    want = oracle.class_value(text, meta["classes"], size)
    row = json.loads(lines[0]) if js else None
    if want is None:
        refused = row["defined"] is False if js else lines[0].startswith("undefined: ")
        return _exit(code, 1) or (None if refused else "expected an undefined report")
    if js:
        got = sum(1 << i for i in row["subset"])
    elif lines[0] == "∅":
        got = 0
    else:
        got = sum(1 << int(i) for i in lines[0].strip("{}").split(", "))
    return _exit(code, 0) or (None if got == want else f"class {got:b}, expected {want:b}")


_CLI_CHECKS = {name[5:]: fn for name, fn in globals().items() if name.startswith("_cli_")}
