"""Seeded workload generators.

Each workload is a fixed list of ops, one pass; the runner repeats the
pass.  Sizes, shapes and counts are fixed per pass; the seed picks
variables, coefficients, term contents, witness positions and op order.
So each op costs about the same for every seed, and runs with different
seeds can be compared.

An op is plain data: its ``kind`` names the call into ``boole`` (see
``ops.py``), ``args`` holds the generated inputs and ``meta`` what the
oracle needs to know beyond them.  Ops marked ``known_defect`` are inputs
the program is known to fail on today (recursion depth); they stay in the
workload so the defect shows as failed ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cli_small", "algebra_dense", "r01_horn", "terms_long")


@dataclass
class Op:
    kind: str
    args: tuple
    meta: dict = field(default_factory=dict)
    known_defect: bool = False


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = globals()[f"_{workload}"](rng)
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# Term text


def _signed_sum(rng: random.Random, summands: list[str]) -> str:
    text = summands[0]
    for s in summands[1:]:
        text += (" - " if rng.random() < 0.3 else " + ") + s
    return text


def random_term(rng: random.Random, names: list[str], leaves: int) -> str:
    """A small random term over ``names``: sums, differences, products,
    literals and powers, with a leading minus now and then."""
    text = _random_term(rng, names, leaves)
    return "-" + text if rng.random() < 0.1 else text


def _random_term(rng: random.Random, names: list[str], leaves: int) -> str:
    if leaves == 1:
        atom = rng.choice(names) if rng.random() < 0.8 else str(rng.randint(0, 3))
        return atom + (f"^{rng.randint(2, 3)}" if rng.random() < 0.1 else "")
    split = rng.randint(1, leaves - 1)
    left = _random_term(rng, names, split)
    right = _random_term(rng, names, leaves - split)
    op = rng.choice(" + | - |*".split("|"))
    text = f"{left}{op}({right})" if leaves - split > 1 else f"{left}{op}{right}"
    if rng.random() < 0.1:
        text = f"({text})^{rng.randint(2, 3)}"
    return text


def interpretable_term(rng: random.Random, names: list[str], depth: int) -> str:
    """A totally interpretable term of the given depth: every sum disjoint
    and every difference contained, as polynomial identities."""
    if depth == 0:
        return rng.choice(names)
    a = interpretable_term(rng, names, depth - 1)
    b = interpretable_term(rng, names, depth - 1)
    shape = rng.randrange(4)
    if shape == 0:
        return f"({a})*({b})"
    if shape == 1:
        return f"1 - ({a})"
    if shape == 2:
        return f"({a}) + ({b})*(1 - ({a}))"
    return f"({a}) - ({a})*({b})"


def _monomial(rng: random.Random, names: list[str], degree: int) -> str:
    return "*".join(sorted(rng.sample(names, degree)))


def sparse_poly(names: list[str]) -> str:
    """``x0 + ... + xn - x0*...*xn``: n+1 monomials."""
    return " + ".join(names) + " - " + "*".join(names)


def dense_poly(rng: random.Random, names: list[str], extra: int) -> str:
    """Every variable alone plus ``extra`` distinct higher monomials with
    degrees cycling through 2..n-2.  The monomials depend only on the size;
    ``rng`` picks the coefficients, 1 to 3, and the summand order.  With
    positive coefficients the polynomial vanishes only at the origin, so
    the cost of developing it, or of summing the constituents where it is
    nonzero, is the same for every seed."""
    shape = random.Random(f"dense:{len(names)}:{extra}")
    monos = set(names)
    span = max(1, len(names) - 3)
    for i in range(extra):
        size = len(monos)
        while len(monos) == size:
            monos.add(_monomial(shape, names, 2 + i % span))
    parts = [f"{rng.randint(1, 3)}*{m}" for m in sorted(monos)]
    rng.shuffle(parts)
    return " + ".join(parts)


def constituent_sum(names: list[str], count: int) -> str:
    """A sum of distinct constituents: disjoint, hence totally interpretable.
    Which constituents, and their order, depend only on the size, so the
    cost does too; the caller's seed picks the variable names."""
    n = len(names)
    picked = random.Random(f"constituents:{n}:{count}").sample(range(1 << n), count)
    return " + ".join(
        "*".join(name if index >> (n - 1 - i) & 1 else f"(1 - {name})" for i, name in enumerate(names))
        for index in picked
    )


def _corrupt(rng: random.Random, text: str) -> str:
    """Turn valid term text into text the grammar rejects."""
    return rng.choice([text + " +", "(" + text, text + " $", text + " ^ q", "* " + text])


# ----------------------------------------------------------------------
# cli_small: everyday CLI requests


_CLI_POOL = ["a", "b", "c", "x", "y", "z"]
_CLI_MIX = {
    "normalize": 22,
    "develop": 20,
    "equal": 20,
    "reduce": 16,
    "eliminate": 16,
    "solve": 18,
    "interpretable": 20,
    "setexpr": 20,
    "r01": 24,
    "eval": 24,
}
_PARSE_ERROR_EVERY = 12  # one op in twelve, bar reduce, has a syntax error


def _cli_small(rng: random.Random) -> list[Op]:
    # Sizes, formats and variants follow the op's slot i; the seed picks
    # the variables and the term shapes.
    ops = []
    for command, count in _CLI_MIX.items():
        for i in range(count):
            names = rng.sample(_CLI_POOL, 1 + i % 6)
            slot = Slot(i, 2 + (i // 6 + i) % 6)
            meta = {"command": command, "options": [], **_CLI_BUILDERS[command](rng, names, slot)}
            if command != "reduce" and i % _PARSE_ERROR_EVERY == 5:
                meta["exprs"][0] = _corrupt(rng, meta["exprs"][0])
                meta["parse_error"] = True
            meta["format"] = ("text", "json")[i % 2]
            if command == "r01":
                positional = [_sentence(meta["antecedents"], (meta["exprs"][0], meta["consequent_rhs"]))]
            else:
                positional = meta["exprs"]
            # "--" keeps a term with a leading minus from reading as an option
            argv = [command, "--format", meta["format"], *meta["options"], "--", *positional]
            ops.append(Op("cli", tuple(argv), meta))
    return ops


@dataclass
class Slot:
    index: int
    leaves: int

    def variant(self, count: int) -> int:
        return self.index // 2 % count


def _term(rng, names, slot):
    return random_term(rng, names, slot.leaves)


def _cli_normalize(rng, names, slot):
    return {"exprs": [_term(rng, names, slot)]}


def _cli_develop(rng, names, slot):
    if slot.variant(2):
        return {"exprs": [_term(rng, names, slot)]}
    ambient = sorted(set(names) | set(rng.sample(_CLI_POOL, 1)))
    return {"exprs": [_term(rng, names, slot)], "vars": ambient, "options": ["--vars", ",".join(ambient)]}


def _cli_equal(rng, names, slot):
    left = _term(rng, names, slot)
    if slot.variant(2):
        x = rng.choice(names)
        right = f"{x}*({left}) + (1 - {x})*({left})"
    else:
        right = _term(rng, names, slot)
    return {"exprs": [left, right]}


def _cli_reduce(rng, names, slot):
    return {"exprs": [_term(rng, names, slot) for _ in range(2 + slot.variant(2))]}


def _cli_eliminate(rng, names, slot):
    elim = sorted(rng.sample(names, min(len(names), 1 + slot.variant(2))))
    return {"exprs": [_term(rng, names, slot)], "elim": elim, "options": ["--elim", ",".join(elim)]}


def _cli_solve(rng, names, slot):
    # every tenth unknown may not occur in the term (a vacuous solution)
    unknown = rng.choice(_CLI_POOL) if slot.index % 10 == 9 else rng.choice(names)
    return {"exprs": [_term(rng, names, slot)], "unknown": unknown, "options": ["--for", unknown]}


def _either_term(rng, names, slot):
    if slot.variant(2):
        return interpretable_term(rng, names, 1 + slot.index % 3)
    return _term(rng, names, slot)


def _cli_interpretable(rng, names, slot):
    return {"exprs": [_either_term(rng, names, slot)]}


def _cli_setexpr(rng, names, slot):
    return {"exprs": [_either_term(rng, names, slot)]}


def _cli_r01(rng, names, slot):
    shape = slot.variant(4)
    if shape == 0:  # an identity: holds
        body, x = _term(rng, names, slot), rng.choice(names)
        ante, cons = [], (f"{x}*({body}) + (1 - {x})*({body})", body)
    elif shape == 1:  # a random equation: usually fails
        ante, cons = [], (_term(rng, names, slot), _term(rng, names, slot))
    elif shape == 2:  # random antecedents
        ante = [(_term(rng, names, slot), _term(rng, names, slot)) for _ in range(2)]
        cons = (_term(rng, names, slot), _term(rng, names, slot))
    else:  # consequent in the ideal of the antecedents: holds
        ante = [(_term(rng, names, slot), _term(rng, names, slot)) for _ in range(2)]
        gs = [rng.choice(names) for _ in ante]
        cons = (
            " + ".join(f"{g}*({lhs})" for g, (lhs, _) in zip(gs, ante)),
            " + ".join(f"{g}*({rhs})" for g, (_, rhs) in zip(gs, ante)),
        )
    return {"exprs": [cons[0]], "antecedents": ante, "consequent_rhs": cons[1]}


def _sentence(antecedents, consequent) -> str:
    equation = " = ".join(consequent)
    if not antecedents:
        return equation
    return " & ".join(f"{lhs} = {rhs}" for lhs, rhs in antecedents) + " -> " + equation


def _cli_eval(rng, names, slot):
    term = _either_term(rng, names, slot)
    size = 1 + slot.index % 4
    if slot.index % 4 < 2:
        masks = {name: rng.getrandbits(size) for name in names}
        spec = f"U={size}; " + "; ".join(
            f"{name}={{{','.join(str(i) for i in range(size) if mask >> i & 1)}}}"
            for name, mask in masks.items()
        )
        return {"exprs": [term], "size": size, "classes": masks, "options": ["--classes", spec]}
    values = {name: [rng.randint(-3, 3) for _ in range(size)] for name in names}
    spec = f"U={size}; " + "; ".join(
        f"{name}=[{','.join(map(str, vals))}]" for name, vals in values.items()
    )
    return {"exprs": [term], "size": size, "multisets": values, "options": ["--multisets", spec]}


_CLI_BUILDERS = {name: globals()[f"_cli_{name}"] for name in _CLI_MIX}


# ----------------------------------------------------------------------
# algebra_dense: development, elimination, solving, dense products


def _xs(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def _algebra_dense(rng: random.Random) -> list[Op]:
    # Each size once per pass, sparse and dense alternating with the size,
    # keeps a pass near 1.5 s so a run holds enough passes for stable medians.
    def poly(n: int, dense: bool) -> str:
        return dense_poly(rng, _xs(n), 4 * n) if dense else sparse_poly(_xs(n))

    ops = [Op("develop", (poly(n, n % 2 == 1),)) for n in range(6, 11)]
    ops += [Op("core", (poly(n, n % 2 == 0),)) for n in range(6, 10)]
    for n in range(6, 10):
        p = dense_poly(rng, _xs(n), 3 * n)
        if n % 2:
            q = f"{p} + 2*{_monomial(rng, _xs(n), 2)}"
        else:
            x = rng.choice(_xs(n))
            q = f"{x}*({p}) + (1 - {x})*({p})"
        ops.append(Op("first_difference", (p, q)))
    for k in range(5, 9):
        params = _xs(k)
        if k % 2:
            text = f"y*({' + '.join(params)}) - {'*'.join(params)}"
        else:
            text = f"y*({dense_poly(rng, params, 2 * k)}) + (1 - y)*({dense_poly(rng, params, 2 * k)})"
        ops.append(Op("solve", (text, "y")))
    for m in range(3, 7):
        names = _xs(m + 3)
        eliminated = tuple(sorted(random.Random(f"eliminate:{m}").sample(names, m)))
        for text in (" + ".join(names) + " - 1", dense_poly(rng, names, m + 3), sparse_poly(names)):
            ops.append(Op("eliminate", (text, eliminated)))
    for n in range(6, 9):
        full = "*".join(f"(1 + x{i})" for i in range(n))
        signed = "*".join(f"({rng.choice([1, 2])} - {rng.choice([1, 3])}*x{i})" for i in range(n))
        ops.append(Op("product", (full, signed if n % 2 else full)))
    ops += [Op("from_table", (poly(n, n % 2 == 0),)) for n in range(6, 9)]
    return ops


# ----------------------------------------------------------------------
# r01_horn: Rule-of-0-and-1 decisions over 8 to 20 variables
#
# Verdicts are known by construction.  Variables are x00, x01, ... so
# name order is index order, and x00 is the most significant bit of a
# point's position in sigma order.
#
# * A failing sentence gets a target witness w, a 0/1 point whose set of
#   ones is S.  Its consequent is sum(g_k * A_k) + h with
#   h = prod(x_i for i in S) * (1 + sum(x_j for j not in S)): h is zero at
#   every point before w (such points lack some i in S), and at w it is 1,
#   while the antecedents A_k are chosen to vanish at w.  So w is the least
#   witness and the sweep visits w + 1 points.
# * A holding quasi-equation has consequent sum(g_k * A_k) with the g_k
#   distinct monomials over variables the antecedents do not use: a
#   nonzero polynomial that vanishes wherever the antecedents do.
# * A holding equation is a sum of Boolean identities: zero after
#   normalization.

DEMO_SENTENCE = (
    "*".join(f"x{i:02d}" for i in range(20)) + " = 1 -> " + " + ".join(f"x{i:02d}" for i in range(20)) + " = 20"
)

# n: families, one op each.  Fewer sentences as n grows.  The 32 at n = 8
# cost about the same and hold the median, the 6 at n = 14 the 90th
# percentile, so neither figure jumps between sentences of different cost.
_R01_FAMILIES = ["quasi_holds", "quasi_early", "quasi_late", "eq_early", "eq_late", "eq_holds"]
_R01_SCHEDULE = {
    18: ["quasi_late"],
    16: ["quasi_holds"],
    14: ["quasi_late"] * 6,
    12: _R01_FAMILIES + ["quasi_holds", "quasi_late"],
    10: (_R01_FAMILIES * 3)[:16],
    8: ["quasi_holds", "quasi_late"] * 16,
}


def _r01_horn(rng: random.Random) -> list[Op]:
    ops = [Op("r01", (DEMO_SENTENCE,), {"holds": True})]
    for n, families in _R01_SCHEDULE.items():
        ops += [horn_op(rng, n, family) for family in families]
    return ops


def horn_op(rng: random.Random, n: int, family: str) -> Op:
    """One sentence of a family over x00..x{n-1}.  Shapes and counts depend
    only on the family and n, so the sweep costs the same for every seed."""
    names = [f"x{i:02d}" for i in range(n)]
    if family == "eq_holds":
        pairs = [_identity(rng, rng.sample(names, 2)) for _ in range(max(2, n // 2))]
        coeffs = [rng.randint(1, 5) for _ in pairs]
        lhs = " + ".join(f"{c}*({a})" for c, (a, _) in zip(coeffs, pairs))
        rhs = " + ".join(f"{c}*({b})" for c, (_, b) in zip(coeffs, pairs))
        return Op("r01", (_sentence([], (lhs, rhs)),), {"holds": True})
    if family == "quasi_holds":
        shuffled = rng.sample(names, n)
        ante = _covering_antecedents(shuffled[: n // 2])
        mult = shuffled[n // 2 :]
        chunks = ["*".join(sorted(mult[i : i + 2])) for i in range(0, len(mult), 2)]
        gs = [" + ".join(chunks[k :: len(ante)]) or "1" for k in range(len(ante))]
        lhs = " + ".join(f"({g})*({a})" for g, (a, _) in zip(gs, ante))
        rhs = " + ".join(f"({g})*({b})" for g, (_, b) in zip(gs, ante))
        return Op("r01", (_sentence(ante, (lhs, rhs)),), {"holds": True})
    # w: the top bits place it at 1/32 or 7/8 of sigma order; the lowest
    # few bits hold a fixed number of ones, at least 3, at random places.
    # So the sweep length hardly varies, h has a fixed size, and its
    # monomials have degree above 3.
    top, head = (5, 1) if family.endswith("early") else (3, 7)
    spread = max(3, (n - top) // 2)
    low = sum(1 << i for i in rng.sample(range(spread), max(3, spread // 2)))
    w = head << (n - top) | low
    bits = [w >> (n - 1 - i) & 1 for i in range(n)]
    ones = [name for name, b in zip(names, bits) if b]
    zeros = [name for name, b in zip(names, bits) if not b]
    h = "*".join(ones + [f"(1 + {' + '.join(zeros)})"])
    witness = dict(zip(names, bits))
    if family.startswith("eq"):
        a, b = _identity(rng, rng.sample(names, 2))
        return Op("r01", (_sentence([], (f"{h} + {a}", b)),), {"holds": False, "witness": witness})
    ante = [_antecedent_at(rng, shape, names, witness) for shape in _WITNESS_SHAPES]
    # single-variable multipliers keep sum(g_k * A_k) at degree <= 3
    gs = [rng.choice(names) for _ in ante]
    lhs = h + "".join(f" + {g}*({a})" for g, (a, _) in zip(gs, ante))
    rhs = " + ".join(f"{g}*({b})" for g, (_, b) in zip(gs, ante))
    return Op("r01", (_sentence(ante, (lhs, rhs)),), {"holds": False, "witness": witness})


def _identity(rng: random.Random, pair: list[str]) -> tuple[str, str]:
    """Two sides of a law of Boole's algebra over two variables."""
    x, y = pair
    return rng.choice(
        [
            (f"{x}*({x} + {y} - {x}*{y})", x),
            (f"({x} + {y} - {x}*{y})*({x} + {y} - {x}*{y})", f"{x} + {y} - {x}*{y}"),
            (f"{x}*{y}*{x}", f"{y}*{x}"),
            (f"{x}*(1 - {x})", "0"),
            (f"({x} - {y})^2", f"{x} + {y} - 2*{x}*{y}"),
        ]
    )


# antecedent shapes of degree <= 2: (lhs, rhs, holds at bits a, b, c)
_WITNESS_SHAPES = [
    ("{a}", "{b}", lambda a, b, c: a == b),
    ("{a}*{b}", "{c}", lambda a, b, c: a * b == c),
]
_COVERING_SHAPES = [("{a}*{b}", "{c}"), ("{a} + {b}", "1"), ("{a}", "{b}")]


def _antecedent_at(rng, shape, names, witness) -> tuple[str, str]:
    """The shape over random variables, true at the witness."""
    lhs, rhs, ok = shape
    while True:
        a, b, c = rng.sample(names, 3)
        if ok(witness[a], witness[b], witness[c]):
            return lhs.format(a=a, b=b, c=c), rhs.format(a=a, b=b, c=c)


def _covering_antecedents(names) -> list[tuple[str, str]]:
    """Antecedents cycling through the covering shapes, using the names in
    order until every one occurs (so the sentence has them all)."""
    out, i = [], 0
    while i < len(names):
        lhs, rhs = _COVERING_SHAPES[len(out) % len(_COVERING_SHAPES)]
        width = lhs.count("{") + rhs.count("{")
        picks = [names[(i + j) % len(names)] for j in range(width)]
        out.append(_fill(lhs, rhs, picks))
        i += width
    return out


def _fill(lhs: str, rhs: str, picks: list[str]) -> tuple[str, str]:
    keys = dict(zip("abc", picks))
    return lhs.format(**keys), rhs.format(**keys)


# ----------------------------------------------------------------------
# terms_long: big inputs to the term layer

_WIDE_POOL = [f"y{i:02d}" for i in range(30)]
_DEEP_POOL = [f"d{i:03d}" for i in range(1000)]
SUM_SIZES = tuple(range(100, 1000, 100))
NEST_DEPTHS = (50, 100, 150, 200, 250)
POW_EXPONENTS = (500, 1000, 2000, 3000)
# Today term_to_poly recurses once per summand and the parser three times
# per nesting level, so these exceed Python's default recursion limit.
DEFECT_SUM, DEFECT_NEST = 1000, 500


def _terms_long(rng: random.Random) -> list[Op]:
    ops = [Op("poly", (long_sum(rng, k),)) for k in SUM_SIZES]
    ops += [Op("poly", (nested(rng, d),)) for d in NEST_DEPTHS]
    ops.append(Op("poly", (long_sum(rng, DEFECT_SUM + rng.randrange(200)),), known_defect=True))
    ops.append(Op("poly", (nested(rng, DEFECT_NEST + rng.randrange(100)),), known_defect=True))
    for k in POW_EXPONENTS:
        a, b, c = sorted(rng.sample(_WIDE_POOL, 3))
        ops.append(Op("poly", (f"({a} + {b} + {c})^{k + rng.randrange(20)}",)))
    for n, count in ((4, 8), (5, 16), (6, 32), (6, 48)):
        text = constituent_sum(sorted(rng.sample(_WIDE_POOL, n)), count)
        ops.append(Op("set_expression", (text,)))
    for n, count in ((4, 8), (5, 16), (5, 24), (6, 32), (6, 48), (6, 64)):
        text = constituent_sum(sorted(rng.sample(_WIDE_POOL, n)), count)
        ops.append(Op("format_term", (text,)))
        ops.append(Op("to_term", (text,)))
    for width in (20, 25, 30, 35, 40):
        left = " + ".join(f"{rng.randint(1, 5)}*p{i:02d}" for i in range(width))
        right = " + ".join(f"q{i:02d}" if rng.random() < 0.8 else f"p{i:02d}" for i in range(width))
        ops.append(Op("product", (left, right)))
    return ops


def long_sum(rng: random.Random, count: int) -> str:
    """``count`` summands of degree 1, 2, 3, 1, 2, 3, ... with random
    variables and coefficients."""
    parts = [
        "*".join([str(rng.randint(1, 9))] + rng.sample(_WIDE_POOL, 1 + i % 3))
        for i in range(count)
    ]
    return _signed_sum(rng, parts)


def nested(rng: random.Random, depth: int) -> str:
    """``v1 + (v2 * (v3 - (... (vk) ...)))``, ``depth`` parentheses deep,
    with distinct variables and the operators cycling, so the shape and
    the cost are the same for every seed."""
    names = rng.sample(_DEEP_POOL, depth + 1)
    head = "".join(f"{names[i]} {'+*-'[i % 3]} (" for i in range(depth))
    return head + names[depth] + ")" * depth
