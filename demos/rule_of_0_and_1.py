"""The Rule of 0 and 1: checking laws by trying 0 and 1.

Equations and quasi-equations valid for integers restricted to {0, 1}
are exactly the ones valid in the algebra of classes, so trying every
0/1 point is a full decision procedure.  The checker tries them as a
branch-and-prune search and skips every subcube on which the answer is
already known; an equation needs no trying at all, only one walk down
its variables.
Run with:  python3 demos/rule_of_0_and_1.py
"""

import time

from boole import check_r01, parse_horn

laws = [
    "x*(x + y - x*y) = x",
    "x*y = y*x",
    "x + y = x + y - x*y",
    "x+y=z -> x*y*z=0",
    "(x+y)*(x+y)=x+y -> x*y=0",
    "2*x = 0 -> x = 0",
    "x*y=0 & x+y=1 -> y=1-x",
]

width = max(len(law) for law in laws)
for law in laws:
    verdict = check_r01(parse_horn(law))
    if verdict.holds:
        print(f"  {law:{width}s}   holds")
    else:
        where = ",".join(f"{n}={b}" for n, b in verdict.witness.items())
        print(f"  {law:{width}s}   fails at {where}")



def timed(label, text):
    start = time.perf_counter()
    verdict = check_r01(parse_horn(text))
    elapsed = time.perf_counter() - start
    print(f"  {label}: holds={verdict.holds} in {elapsed * 1000:.1f} ms")


names = tuple(f"x{i:02d}" for i in range(20))
total = " + ".join(names)
print()
print("An equation needs no scan.  A multilinear polynomial is zero exactly")
print("when it vanishes at every 0/1 point, so each variable in turn is set")
print("to 0 if the polynomial stays nonzero there and to 1 otherwise.  This")
print("equation fails only at the last of 2**20 points:")
timed("20-variable equation", "*".join(names) + " = 0")
print("A quasi-equation is scanned.  A subcube is skipped when the consequent")
print("is the zero polynomial on it or an antecedent is a nonzero constant")
print("there.  One with at most 17 free variables is scanned whole, the")
print("sentence folded into one polynomial (2B+1)*(sum of the antecedents'")
print("squares) + consequent, for B the sum of the consequent's coefficients")
print("in absolute value: it is nonzero and at most B in size exactly at a")
print("witness.  So this 20-variable quasi-equation takes three splits and")
print("one scan:")
timed("20-variable demo", "*".join(names) + " = 1 -> " + total + " = 20")
print("Here neither rule fires: the antecedent is constant only at single")
print("points and the square never vanishes on a subcube, so all 2**3")
print("subcubes of 2**17 points are scanned:")
timed("20-variable worst case", f"{total} = 10 -> ({total} - 10)^2 = 0")
