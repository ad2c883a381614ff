"""Time and memory budgets for the command line at its caps.

Each case runs ``python -m boole ...`` in a child process.  The child's
code first lowers its own address-space limit (RLIMIT_AS), so no limit of
the machine or of the test process changes, and the test waits for the
child up to a wall-time limit.  Every case must end inside both, with the
exit code it expects and no traceback.  The inputs sit at the caps: 20
names where a subcommand enumerates 0/1 points, texts of up to about
10 KB elsewhere.

``normalize`` and ``eliminate`` have no case yet: ``(x0+...+x19)^20`` and
eliminating 18 of 20 names still take tens of seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import constituent_sum

SRC = Path(__file__).resolve().parents[1] / "src"
MIB = 1 << 20

# The child lowers its own limit before it imports boole, then runs the
# package as `python -m boole` does.
CHILD = """\
import resource, runpy, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
runpy.run_module("boole", run_name="__main__", alter_sys=True)
"""

NAMES = [f"x{i:02d}" for i in range(20)]
SUM, PRODUCT = " + ".join(NAMES), "*".join(NAMES)
# 9 KB: 64 disjoint constituents, each a product over all 20 names
CONSTITUENTS = constituent_sum(NAMES, 64)
# Over 30 names a point mask would take 128 MiB, so this is decided on
# polynomials.
WIDE = "*".join(f"w{i:02d}" for i in range(30)) + " + (1 - w00)"
# 40 names: the antecedent forces y00..y22 to 1, where the consequent is
# the zero polynomial, so the 17 x's, first in name order, are never split.
XS, YS = " + ".join(f"x{i:02d}" for i in range(17)), "*".join(f"y{i:02d}" for i in range(23))
FORCED = f"{YS} = 1 -> ({XS} + 1)*({YS}) = {XS} + 1"
# 40 names in a chain z00*(1 - z01) = 0 & ...: nothing is forced until the
# split on z00, and below z00 = 1 each name forces the next.
ZS = [f"z{i:02d}" for i in range(40)]
CHAIN = " & ".join(f"{a}*(1 - {b}) = 0" for a, b in zip(ZS, ZS[1:])) + " -> z00*z39 = z00"

# case: (arguments, exit code, wall seconds, address space in MiB)
CASES = {
    "setexpr-constituents": (["setexpr", CONSTITUENTS], 0, 10, 256),
    "setexpr-30-names": (["setexpr", WIDE], 0, 10, 256),
    "interpretable-constituents": (["interpretable", CONSTITUENTS], 0, 20, 512),
    "interpretable-30-names": (["interpretable", WIDE], 2, 10, 256),
    "develop": (["develop", PRODUCT], 0, 20, 512),
    "equal": (["equal", SUM, f"{SUM} - {PRODUCT}"], 1, 10, 256),
    "reduce": (["reduce", *(f"{name} - 1" for name in NAMES * 50)], 0, 10, 256),
    "solve": (["solve", f"{SUM} - 10", "--for=x00"], 0, 20, 512),
    "r01": (["r01", f"{PRODUCT} = 1 -> {SUM} = 20"], 0, 10, 256),
    "r01-scan": (["r01", f"{SUM} = 10 -> ({SUM} - 10)^2 = 0"], 0, 10, 256),
    "r01-forced": (["r01", "--max-vars", "40", FORCED], 0, 10, 256),
    "r01-chain": (["r01", "--max-vars", "40", CHAIN], 0, 10, 256),
    "eval": (["eval", SUM, "--classes", "U=3; " + "; ".join(f"{name}={{0}}" for name in NAMES)], 1, 10, 256),
}
# The whole output of the cases that print little.
STDOUT = {"r01": "holds\n", "r01-scan": "holds\n", "r01-forced": "holds\n", "r01-chain": "holds\n"}


@pytest.mark.parametrize("case", CASES)
def test_command_ends_inside_its_budget(case):
    argv, code, seconds, mib = CASES[case]
    command = [sys.executable, "-c", CHILD, str(mib * MIB), *argv]
    try:
        done = subprocess.run(
            command,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE if case in STDOUT else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=seconds,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"boole {argv[0]} ran past {seconds} s")
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    assert done.stdout == STDOUT.get(case)
