"""The traced run: spans around the public functions of each layer.

``Tracer.install`` wraps, from outside the program, every binding of the
functions and ``Polynomial`` methods listed in ``SPANS``: the defining
module, every ``boole`` module that imported the name, and the package
namespace.  A span opens only at the outermost call of its name; nested
calls of the same name run unwrapped and fold into it.  While a
module-level function's span is open, its own module's binding is the
original again, so its self-recursion adds no frames and deep inputs hit
the recursion limit at the same depth as untraced.

Spans (name, start, end, parent, op id) are kept in flat arrays and
written out at the end.  Work counters are computed from the arguments and
results of outermost calls, never by the program.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from array import array

import ops as _ops

# span name -> (module, attribute names bound to it)
SPANS = {
    "cli.main": ("cli", ("main",)),
    "terms.parse": ("terms", ("parse",)),
    "terms.term_to_poly": ("terms", ("term_to_poly",)),
    "terms.format_term": ("terms", ("format_term",)),
    "terms.to_set_expression": ("terms", ("to_set_expression",)),
    "terms.to_term": ("terms", ("to_term",)),
    "polynomial.add": ("Polynomial", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "polynomial.mul": ("Polynomial", ("__mul__", "__rmul__")),
    "polynomial.pow": ("Polynomial", ("__pow__",)),
    "polynomial.substitute": ("Polynomial", ("substitute",)),
    "polynomial.str": ("Polynomial", ("__str__",)),
    "development.develop": ("development", ("develop", "develop_partial")),
    "development.interpretable_core": ("development", ("interpretable_core",)),
    "development.from_table": ("development", ("from_table",)),
    "development.first_difference": ("development", ("first_difference",)),
    "development.constituent_equations": ("development", ("constituent_equations",)),
    "theorems.reduce_system": ("theorems", ("reduce_system",)),
    "theorems.eliminate": ("theorems", ("eliminate",)),
    "theorems.solve": ("theorems", ("solve",)),
    "r01.parse_horn": ("r01", ("parse_horn",)),
    "r01.check_r01": ("r01", ("check_r01",)),
    "models.eval_partial": ("models", ("eval_partial",)),
    "models.eval_multiset": ("models", ("eval_multiset",)),
}
NAMES = list(SPANS)

COUNTERS = (
    "polynomial.mul.term_pairs",
    "polynomial.result_terms_max",
    "polynomial.coeff_bits_max",
    "development.table_entries",
    "theorems.eliminate.coeff_bits_max",
    "r01.sweep_points",
    "terms.nodes",
)


def _size(p) -> tuple[int, int]:
    coeffs = p.terms.values()
    return len(coeffs), max((abs(c).bit_length() for c in coeffs), default=0)


def _counts(name: str, args, result) -> list[tuple[str, str, int]]:
    if name.startswith("polynomial."):
        if name == "polynomial.str" or result is NotImplemented:
            return []
        size, bits = _size(result)
        out = [("polynomial.result_terms_max", "max", size), ("polynomial.coeff_bits_max", "max", bits)]
        if name == "polynomial.mul":
            other = args[1]
            right = (1 if other else 0) if isinstance(other, int) else len(other.terms)
            out.append(("polynomial.mul.term_pairs", "sum", len(args[0].terms) * right))
        return out
    if name == "development.develop":
        return [("development.table_entries", "sum", 1 << len(result.variables))]
    if name == "theorems.eliminate":
        return [("theorems.eliminate.coeff_bits_max", "max", _size(result)[1])]
    if name == "r01.check_r01":
        if result.holds:
            sentence = args[0]
            names = {v for p in (*sentence.antecedents, sentence.consequent) for mono in p.terms for v in mono}
            return [("r01.sweep_points", "sum", 1 << len(names))]
        index = 0
        for _, bit in result.witness.items():
            index = index << 1 | bit
        return [("r01.sweep_points", "sum", index + 1)]
    if name == "terms.parse":
        return [("terms.nodes", "sum", _ops.count_nodes(result))]
    return []


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.marks = [0]  # span counts at pass boundaries
        self.pass_counters: list[dict[str, int]] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self._active = [0] * len(NAMES)  # open calls per span name
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------

    def install(self, boole) -> None:
        importlib.import_module("boole.cli")
        modules = [m for key, m in sys.modules.items() if key == "boole" or key.startswith("boole.")]
        for index, (name, (owner, attrs)) in enumerate(SPANS.items()):
            for attr in attrs:
                if owner == "Polynomial":
                    original = boole.Polynomial.__dict__[attr]
                    self._patch(boole.Polynomial, attr, self._wrap(index, name, original, None))
                    continue
                original = getattr(importlib.import_module(f"boole.{owner}"), attr)
                wrapper = self._wrap(index, name, original, original.__globals__)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def _patch(self, target, attr, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _wrap(self, index: int, name: str, original, home: dict | None):
        active, opened = self._active, self._open
        attr = original.__name__
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[index]:
                return original(*args, **kwargs)
            span = len(self.start)
            self.name.append(index)
            self.parent.append(opened[-1] if opened else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            active[index] += 1
            opened.append(span)
            restore = home is not None and home.get(attr) is wrapper
            if restore:
                home[attr] = original
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[span] = clock()
                if restore:
                    home[attr] = wrapper
                opened.pop()
                active[index] -= 1
            for metric, how, value in _counts(name, args, result):
                if how == "sum":
                    self.counters[metric] += value
                elif value > self.counters[metric]:
                    self.counters[metric] = value
            return result

        wrapper.__name__ = attr
        return wrapper

    # -- reading -------------------------------------------------------

    def end_pass(self) -> None:
        """Close a pass: note where its spans end and keep its counters."""
        self.marks.append(len(self.start))
        self.pass_counters.append(self.counters)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Self time per span name over spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        totals = [0.0] * len(NAMES)
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(hi - 1, lo - 1, -1):  # children come after parents
            duration = end[i] - start[i]
            totals[name[i]] += duration - child[i - lo]
            if parent[i] >= lo:
                child[parent[i] - lo] += duration
        return totals

    def calls(self, lo: int, hi: int) -> list[int]:
        counts = [0] * len(NAMES)
        for i in range(lo, hi):
            counts[self.name[i]] += 1
        return counts

    def per_layer(self) -> dict[str, float]:
        """Calls and counters of the first traced pass (every pass runs the
        same ops), and the median over passes of each span's self time."""
        passes = list(zip(self.marks, self.marks[1:]))
        metrics: dict[str, float] = {}
        first_calls = self.calls(*passes[0])
        selfs = [self.self_times(lo, hi) for lo, hi in passes]
        for i, name in enumerate(NAMES):
            metrics[f"{name}.calls"] = first_calls[i]
            metrics[f"{name}.self_s"] = statistics.median(s[i] for s in selfs)
        metrics.update(self.pass_counters[0])
        return metrics

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(f"{NAMES[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
