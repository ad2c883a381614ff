"""Fuzzing the command line: any argument list ends in exit 0, 1 or 2.

Argument lists are built from the ten subcommands (and one that does not
exist), their flags with good and bad values, and short term, sentence
and class or multiset specification strings, exponents up to two digits.
Every call must return an exit code in {0, 1, 2} (argparse's own exits
count through SystemExit), print no traceback and no internal error, and
finish within a wall-time bound.
"""

import contextlib
import io
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boole.cli import main

CALL_SECONDS = 10

COMMANDS = (
    "normalize", "develop", "equal", "reduce", "eliminate",
    "solve", "interpretable", "setexpr", "r01", "eval", "frobnicate",
)
TOKENS = ("x", "y", "z", "x1", "0", "1", "2", "7", "+", "-", "*", "(", ")", " ", "=")
exponents = st.integers(min_value=0, max_value=99).map(lambda k: f"^{k}")
term_texts = st.lists(st.one_of(st.sampled_from(TOKENS), exponents), max_size=10).map("".join)
sentences = st.lists(
    st.one_of(term_texts, st.sampled_from(("=", " = ", "&", " & ", "->", " -> "))), max_size=7
).map("".join)
names = st.sampled_from(("x", "y", "z", "v", "x1", "2x", ""))
name_lists = st.lists(names, max_size=3).map(",".join)


def spec(opening: str, closing: str, values) -> st.SearchStrategy[str]:
    binding = st.builds(
        lambda name, entries: f"{name}={opening}{','.join(map(str, entries))}{closing}",
        names,
        st.lists(values, max_size=3),
    )
    sizes = st.sampled_from(("0", "1", "2", "3", "17", "-1", "x", ""))
    built = st.builds(lambda size, parts: "; ".join([f"U={size}", *parts]), sizes, st.lists(binding, max_size=3))
    return st.one_of(built, st.text(alphabet="U=;{}[],xyz0123 -", max_size=14))


class_specs = spec("{", "}", st.integers(min_value=-1, max_value=4))
multiset_specs = spec("[", "]", st.integers(min_value=-3, max_value=3))
flags = st.one_of(
    st.sampled_from((["--format", "json"], ["--format", "text"], ["--format", "xml"], ["--help"])),
    st.sampled_from(("0", "2", "20", "-1", "x")).map(lambda n: ["--max-vars", n]),
    name_lists.map(lambda listing: [f"--vars={listing}"]),
    name_lists.map(lambda listing: ["--elim", listing]),
    names.map(lambda name: ["--for", name]),
    class_specs.map(lambda text: ["--classes", text]),
    multiset_specs.map(lambda text: ["--multisets", text]),
    st.just(["--file", "/nonexistent/boole-sentences.txt"]),
)


@st.composite
def argument_lists(draw) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    texts = sentences if command == "r01" else term_texts
    argv = [command]
    for flag in draw(st.lists(flags, max_size=3)):
        argv += flag
    operands = draw(st.lists(texts, max_size=3))
    if operands and draw(st.booleans()):
        argv.append("--")
    return argv + operands


def run(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse: usage errors and --help
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(argument_lists())
@example(["normalize", "--", "(x+y)^99^99^99^99"])
@example(["normalize", "2^99^99^99^99"])
@example(["eval", "--multisets", "U=1; x=[2]", "--", "x^99^99^99^99"])
@example(["develop", "--format", "json", "--", "(x-y)^99^99^99^99"])
@example(["r01", "x^99^99 = 1 -> x = 2^99^99^99"])
@example(["eval", "--classes", "U=2; x={0}", "--", "(x+x)^99^99^99"])
def test_every_argument_list_exits_0_1_or_2(argv):
    start = time.perf_counter()
    code, _, err = run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, err)
    assert elapsed < CALL_SECONDS, (argv, elapsed)
