"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the
repository root."""

from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import boole  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import pytest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _flip_first(data):
    (mono, coeff), *rest = data
    return ((mono, -coeff if coeff != 0 else 1), *rest)


@pytest.mark.parametrize("text", ["x + y - 2*x*y", "(a + b + c)^5 - 3*a*c", "-x*(1 - y) + 7"])
def test_oracle_catches_a_flipped_coefficient(text):
    op = workloads.Op("poly", (text,))
    data = ops.digest(op, boole.poly(text))
    rng = random.Random(0)
    assert ops.check(op, data, rng) is None
    assert ops.check(op, _flip_first(data), rng) is not None


def test_oracle_catches_a_flipped_development_entry():
    text = workloads.sparse_poly(["x0", "x1", "x2", "x3"])
    op = workloads.Op("develop", (text,))
    rows = list(ops.digest(op, boole.develop(boole.poly(text))))
    assert ops.check(op, tuple(rows), random.Random(0)) is None
    sigma, coeff = rows[5]
    rows[5] = (sigma, (((), -coeff[0][1] if coeff else 1),))
    assert ops.check(op, tuple(rows), random.Random(0)) is not None


def test_oracle_reads_the_grammar():
    # ^ is left-associative and binds tighter than a leading minus
    assert oracle.text_values("2^3^2", [], [0]) == [64]
    assert oracle.text_values("-x^2 + 1", ["x"], [1]) == [0]
    deep = "(" * 3000 + "x" + ")" * 3000
    assert oracle.text_values(deep, ["x"], [0, 1]) == [0, 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


@pytest.mark.parametrize(
    "sentence, points",
    [
        ("x*y = 1", 1),  # fails at once, at x=0,y=0
        ("x = 1 -> y = 1", 3),  # least witness x=1,y=0 is the third point
        ("x = 1 -> x*y = y", 4),  # holds: all 2**2 points
    ],
)
def test_sweep_points_by_hand(sentence, points):
    tracer = spans.Tracer()
    tracer.install(boole)
    try:
        boole.check_r01(boole.parse_horn(sentence))
    finally:
        tracer.uninstall()
    tracer.end_pass()
    assert tracer.per_layer()["r01.sweep_points"] == points


def test_tracer_restores_every_binding():
    before = {name: getattr(boole, name) for name in boole.__all__}
    methods = dict(vars(boole.Polynomial))
    tracer = spans.Tracer()
    tracer.install(boole)
    assert boole.develop is not before["develop"]
    tracer.uninstall()
    assert {name: getattr(boole, name) for name in boole.__all__} == before
    assert dict(vars(boole.Polynomial)) == methods


def test_r01_constructions_match_brute_force():
    rng = random.Random(3)
    for family in workloads._R01_FAMILIES:
        op = workloads.horn_op(rng, 8, family)
        antecedents, consequent = ops.split_sentence(op.args[0])
        holds, witness = oracle.horn_verdict(antecedents, consequent)
        assert holds == op.meta["holds"]
        assert witness == op.meta.get("witness")
