#!/usr/bin/env python3
"""Benchmark for boole: seeded workloads, an independent oracle, and an
optional traced run that reports per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One closed-loop client in one process: each op is one call into boole's
public API or into ``boole.cli.main(argv)``, and the next op starts when
the previous one returns.  A run is

1. the workload's op list, built from the seed;
2. with ``--trace 0``, set-up time: the median over fresh interpreters,
   started one at a time, of importing ``boole`` and ``boole.cli`` and
   building the CLI parser;
3. a reference pass, untimed, whose every output the oracle checks;
4. timed passes over the whole op list until ``--seconds`` of op time has
   been measured; each output must equal the reference pass's.
   With ``--trace 1`` half the time runs untraced and half traced, and the
   per-layer metrics come from the traced half.

Timings are scaled to a reference machine speed (see ``calibration.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit.  A result file with the environment goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import workloads  # noqa: E402
from calibration import CAL_EVERY, calibration_loop, speed_factors  # noqa: E402

SETUP_RUNS = 11
# Times the set-up, then calibrates in the same interpreter so the scaling
# reflects the machine's speed at that moment.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import boole, boole.cli
boole.cli._build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from calibration import REFERENCE_CAL_S, calibration_loop
cal = sorted(calibration_loop() for _ in range(5))[2]
print(elapsed, elapsed * REFERENCE_CAL_S / cal)
"""

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    return {"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s", "trace.overhead": "ratio"}.get(name, "count")


# ----------------------------------------------------------------------
# The program under test


def load_boole():
    """Import boole from this checkout's ``src``, or return None."""
    if not (SRC / "boole" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import boole
    import boole.cli  # noqa: F401

    if not Path(boole.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return boole


def measure_setup() -> tuple[float, float]:
    """Median set-up time over fresh interpreters: scaled, and raw."""
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        raw, adjusted = map(float, proc.stdout.split())
        times.append(raw)
        scaled.append(adjusted)
    return statistics.median(scaled), statistics.median(times)


def environment() -> dict:
    files = sorted((SRC / "boole").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "boole_commit": git_commit(),
        "boole_source_sha256": digest.hexdigest(),
        "src_boole_lines": lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------
# Passes


@dataclass
class Reference:
    status: str  # "ok", "known_defect" or "wrong"
    data: object = None
    reason: str | None = None


def reference_pass(op_list, calls, seed: int) -> list[Reference]:
    refs = []
    for index, (op, call) in enumerate(zip(op_list, calls)):
        try:
            data = ops.digest(op, call())
        except Exception as error:  # every failure is recorded, none aborts the run
            known = op.known_defect and isinstance(error, RecursionError)
            refs.append(Reference("known_defect" if known else "wrong", None, f"raised {type(error).__name__}"))
            continue
        try:
            reason = ops.check(op, data, random.Random(f"check:{seed}:{index}"))
        except Exception as error:
            reason = f"oracle could not read the output: {type(error).__name__}: {error}"
        refs.append(Reference("ok" if reason is None else "wrong", data, reason))
    return refs


@dataclass
class Timing:
    raw: list  # wall time per op, pass after pass, in op order
    cal: list  # calibration times, in order
    cal_of: list  # per op, the index of the latest calibration before it
    ops: int
    failed: int = 0
    unstable: int = 0  # ok in the reference pass, different later
    passes: int = 0

    @property
    def busy(self) -> float:
        return sum(self.raw)

    @property
    def latencies(self) -> list[float]:
        """Wall time per op at the reference machine speed."""
        factors = speed_factors(self.cal)
        return [t * factors[c] for t, c in zip(self.raw, self.cal_of)]

    def ops_per_s(self, latencies: list[float] | None = None) -> float:
        """Ops per second of one pass at each op's median latency over the
        passes, so a burst of contention moves no figure."""
        lat = self.latencies if latencies is None else latencies
        per_op = [statistics.median(lat[i :: self.ops]) for i in range(self.ops)]
        return self.ops / sum(per_op)


def timed_passes(op_list, calls, refs, seconds: float, tracer=None) -> Timing:
    timing = Timing([], [], [], len(op_list))
    clock = time.perf_counter
    calibrated = -CAL_EVERY
    while True:
        for index, (op, call, ref) in enumerate(zip(op_list, calls, refs)):
            if tracer is not None:
                tracer.current_op = index
            if clock() - calibrated >= CAL_EVERY:
                timing.cal.append(calibration_loop())
                calibrated = clock()
            timing.cal_of.append(len(timing.cal) - 1)
            start = clock()
            try:
                result, error = call(), None
            except Exception as exc:
                result, error = None, exc
            timing.raw.append(clock() - start)
            if ref.status != "ok":
                timing.failed += 1
            elif error is not None or ops.digest(op, result) != ref.data:
                timing.failed += 1
                timing.unstable += 1
        timing.passes += 1
        if tracer is not None:
            tracer.end_pass()
        gc.collect()
        if timing.busy >= seconds:
            return timing


# ----------------------------------------------------------------------
# One workload


def run_workload(boole, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    op_list = workloads.build(workload, seed)
    setup_s, raw_setup_s = (None, None) if trace else measure_setup()
    calls = [ops.prepare(op, boole) for op in op_list]
    refs = reference_pass(op_list, calls, seed)
    # The benchmark's own objects move to the permanent generation, so the
    # program's garbage collections scan only what the program allocates.
    gc.collect()
    gc.freeze()
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **environment(),
        "ops_per_pass": len(op_list),
        "known_defects": sum(r.status == "known_defect" for r in refs),
        "wrong": [
            {"op": i, "kind": op.kind, "args": [str(a)[:200] for a in op.args], "reason": r.reason}
            for i, (op, r) in enumerate(zip(op_list, refs))
            if r.status == "wrong"
        ],
    }
    if not trace:
        timing = timed_passes(op_list, calls, refs, seconds)
        lat = timing.latencies
        report["raw_wall_clock"] = {
            "ops_per_s": timing.ops_per_s(timing.raw),
            "latency_p50_ms": statistics.median(timing.raw) * 1e3,
            "latency_p90_ms": statistics.quantiles(timing.raw, n=10)[8] * 1e3,
            "setup_s": raw_setup_s,
            "calibration_median_s": statistics.median(timing.cal),
        }
        metrics = {
            "ops_per_s": timing.ops_per_s(),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        timings = [timing]
    else:
        import spans

        plain = timed_passes(op_list, calls, refs, seconds / 2)
        tracer = spans.Tracer()
        tracer.install(boole)
        try:
            traced = timed_passes(op_list, calls, refs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.per_layer()
        plain_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
        metrics["trace.untraced_ops_per_s"] = plain_rate
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.overhead"] = plain_rate / traced_rate
        units = {name: per_layer_unit(name) for name in metrics}
        timings = [plain, traced]
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{workload}-seed{seed}.spans.tsv.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    attempted = sum(len(t.raw) for t in timings)
    failed = sum(t.failed for t in timings)
    unstable = sum(t.unstable for t in timings)
    report.update(
        correct=not report["wrong"] and unstable == 0,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        unstable=unstable,
        passes=sum(t.passes for t in timings),
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    print(
        f"samples: {report['attempted']} ops in {report['passes']} passes of {report['ops_per_pass']}; "
        f"failed_frac: {report['failed_frac']:.6g} ({report['failed']} of {report['attempted']}, "
        f"{report['known_defects']} known-defect ops per pass)"
    )
    for entry in report["wrong"][:10]:
        print(f"WRONG op {entry['op']} ({entry['kind']}): {entry['reason']}")
    for name, metric in report["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"python {report['python']}, nproc {report['nproc']}, src/boole {report['src_boole_lines']} lines")


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak memory is its own."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    boole = load_boole()
    if boole is None:
        print(f"error: no boole package under {SRC}", file=sys.stderr)
        return 2
    report = run_workload(boole, args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
