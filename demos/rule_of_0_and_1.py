"""The Rule of 0 and 1: checking laws by trying 0 and 1.

Equations and quasi-equations valid for integers restricted to {0, 1}
are exactly the ones valid in the algebra of classes, so trying every
0/1 point is a full decision procedure.  The checker tries them as a
branch-and-prune search: in every subcube it fixes the variables an
antecedent forces and skips the subcube when the answer on it is already
known.  An equation needs no trying at all: its 0 half is dropped only
when the equation holds all over it, so each variable it mentions costs
at most two restrictions.
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
print("Otherwise a subcube is split and scanned over the names its")
print("sentence still mentions; every other name is 0 in the least witness.")
print("This sentence mentions 18 names, so it is split on x00.  The x00 = 0")
print("half mentions only x01 and x02 and is scanned over their 4 points,")
print("and the x00 = 1 half over its 17 names:")
tail = "*".join(names[3:18])
timed("18-variable halves", f"x01 = x02 -> (1 - x00)*x01*(1 - x02) + x00*{tail}*(x01 - x02) = 0")
print("A subcube is skipped when the consequent is the zero polynomial on it")
print("or an antecedent is a nonzero constant there.  One whose sentence")
print("mentions at most 17 names is scanned whole, the sentence folded into")
print("one polynomial (2B+1)*(sum of the antecedents' squares) + consequent,")
print("for B the sum of the consequent's coefficients in absolute value: it")
print("is nonzero and at most B in size exactly at a witness.  Here no rule")
print("fires: nothing is forced, the antecedent is constant only at single")
print("points and the square never vanishes on a subcube, so all 2**3")
print("subcubes of 2**17 points are scanned:")
timed("20-variable worst case", f"{total} = 10 -> ({total} - 10)^2 = 0")
