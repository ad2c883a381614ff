"""The Rule of 0 and 1: checking laws by trying 0 and 1.

Equations and quasi-equations valid for integers restricted to {0, 1}
are exactly the ones valid in the algebra of classes, so trying every
0/1 point is a full decision procedure.  The checker tries them as a
branch-and-prune search: in every subcube it fixes the variables an
antecedent forces and skips the subcube when the answer on it is already
known.  An equation needs no trying at all: its 0 half is dropped only
when the equation holds all over it, so each variable costs at most two
restrictions.
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
print("A quasi-equation first fixes the names its antecedents force: when")
print("setting a variable to 0 (or 1) makes an antecedent a nonzero constant,")
print("no witness has it there.  This antecedent forces all 20 variables to")
print("1, where the consequent is 0, so nothing is split or scanned:")
timed("20-variable demo", "*".join(names) + " = 1 -> " + total + " = 20")
print("Forcing runs again in every subcube a split leaves.  This chain")
print("x00*(1 - x01) = 0 & ... & x18*(1 - x19) = 0 forces nothing over all 20")
print("variables; the split on x00 drops x00 = 0, where the consequent is 0,")
print("and below x00 = 1 each variable forces the next, so nothing is scanned:")
chain = " & ".join(f"{a}*(1 - {b}) = 0" for a, b in zip(names, names[1:]))
timed("20-variable chain", f"{chain} -> x00*x19 = x00")
print("Otherwise the free variables are split and scanned.  A subcube is")
print("skipped when the consequent is the zero polynomial on it or an")
print("antecedent is a nonzero constant there.  One with at most 17 free")
print("variables is scanned whole, the sentence folded into one polynomial")
print("(2B+1)*(sum of the antecedents' squares) + consequent, for B the sum")
print("of the consequent's coefficients in absolute value: it is nonzero and")
print("at most B in size exactly at a witness.  Here no rule fires: nothing")
print("is forced, the antecedent is constant only at single points and the")
print("square never vanishes on a subcube, so all 2**3 subcubes of 2**17")
print("points are scanned:")
timed("20-variable worst case", f"{total} = 10 -> ({total} - 10)^2 = 0")
