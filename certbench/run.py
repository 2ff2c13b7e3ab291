#!/usr/bin/env python3
"""Certification benchmark for kalgrad.

Runs one workload in this process, one certification cell after another
(a closed loop with a single caller), for at least ``--seconds`` seconds of
whole passes over the workload's cells, and checks every cell's outcome.

    python3 certbench/run.py --workload discrete-sweep --seed 0 --seconds 30 --trace 0
    python3 certbench/run.py --workload all --seconds 5

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; its spans go
to ``certbench/out/<workload>.spans.npz``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The exit code is 1
when a completed cell misses its tolerance and 2 when the kalgrad sources
are missing.
"""

import os

# One thread for every BLAS this process or its children may load: one
# caller, no helper threads.  Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("discrete-sweep", "continuous-pendulum", "long-horizon")
# Set-ups per run: this process plus fresh child processes, so that the
# import of kalgrad is paid each time.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# The reference kernel (about 50 ms) runs between cells, at most once per
# this many seconds, so that it takes about a tenth of the measurement.
REFERENCE_EVERY_S = 0.5
REFERENCE_SOLVES = 6000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kalgrad" / "__init__.py").is_file():
        print(f"kalgrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    start = time.perf_counter()
    import kalgrad  # noqa: F401  (set-up includes the import)
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(kalgrad)
        with tracer:  # the input generation is traced as set-up
            cells = workloads.WORKLOADS[args.workload](args.seed)
    else:
        cells = workloads.WORKLOADS[args.workload](args.seed)
    references = {}  # reference filter means, filled as cells are checked
    workloads.run_checked(cells[0], references)  # warm-up
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(repr(setup_s))
        return 0

    from report import environment

    env = environment(ROOT, BLAS_ENV)
    print("env " + json.dumps(env))
    bench = Bench(args.workload, cells, lambda cell: workloads.run_checked(cell, references))
    if tracer is None:
        result = bench.timed(args.seconds, setup_s, lambda: child_setup(args))
    else:
        result = bench.traced(args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child_setup(args) -> float:
    """Set-up time of a fresh process: import, input generation, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed computation that uses no kalgrad code.

    It is the time unit of the end-to-end cell metrics: 6000 solves of one
    4x4 SPD system with numpy, the same mix of interpreter overhead and tiny
    LAPACK calls as a certification step.  A slow phase of a shared host
    slows it as it slows a cell, so a cell time divided by it measures the
    program rather than the phase.  Changing it changes the unit."""
    import numpy as np

    spd = 4.0 * np.eye(4) + np.ones((4, 4))
    v, total = np.ones(4), 0.0
    start = time.perf_counter()
    for _ in range(REFERENCE_SOLVES):
        v = 0.5 * (v + np.linalg.solve(spd, v))
        total += float(v.sum())
    return time.perf_counter() - start


class Bench:
    """Runs whole passes over one workload's cells and reports on them."""

    def __init__(self, name, cells, run_checked):
        self.name = name
        self.cells = cells
        self.run_checked = run_checked  # cell -> (wall seconds, checked outcome)
        # An input counts once however often it is repeated, so that attempted
        # and failed depend on the seed alone, not on how many passes fit.
        self.failed_inputs, self.missed_inputs = set(), set()
        self.cells_run = 0

    @property
    def attempted(self) -> int:
        return len(self.cells)

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    def one_pass(self, tracer=None, first_id: int = 0):
        """Time every cell once; yield (index, seconds, outcome).  With a
        tracer, cell i is traced under cell id ``first_id + i``."""
        for i, cell in enumerate(self.cells):
            if tracer is not None:
                tracer.cell = first_id + i
            seconds, outcome = self.run_checked(cell)
            self.cells_run += 1
            if not outcome.certified:
                self._record_failure(i, cell, outcome)
            yield i, seconds, outcome

    def _record_failure(self, i: int, cell, outcome) -> None:
        """Record a failing input; print it the first time it fails."""
        if outcome.missed is not None:
            self.missed_inputs.add(i)
        if i in self.failed_inputs:
            return
        self.failed_inputs.add(i)
        if outcome.missed is not None:
            print(f"MISSED TOLERANCE cell [{cell.label}]: {outcome.missed}"
                  f" (state dev {outcome.state_dev:.3e}, metric dev {outcome.metric_dev:.3e})")
        else:
            print(f"ABORTED cell [{cell.label}]: {outcome.error}")

    def timed(self, seconds: float, setup_s: float, child_setup) -> dict:
        """Measure passes for ``seconds``.  The extra set-ups in child
        processes run between passes, spread evenly over the measurement
        (which their time does not count in), so that a phase of host
        contention slows only some of them."""
        from report import tail_percentile

        times, devs, setups, refs = [], [], [setup_s], [reference_seconds()]
        best = [float("inf")] * len(self.cells)  # per input: fastest of its repeats
        certified = set()
        passes, wall = 0, 0.0
        last_ref = time.perf_counter()
        while passes == 0 or wall < seconds:
            if len(setups) < SETUP_REPEATS and wall >= (len(setups) - 1) * seconds / (SETUP_REPEATS - 1):
                setups.append(child_setup())
            start = time.perf_counter()
            for i, t, outcome in self.one_pass():
                times.append(t)
                best[i] = min(best[i], t)
                if outcome.certified:
                    certified.add(i)
                    devs.append(outcome)
                if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                    refs.append(reference_seconds())
                    last_ref = time.perf_counter()
            wall += time.perf_counter() - start
            passes += 1
        setups += [child_setup() for _ in range(SETUP_REPEATS - len(setups))]

        # Each input runs once per pass, so its repeats are spread over the
        # whole run; the fastest of them is the one least slowed by phases
        # of host contention (these last seconds on shared hosts).  Phases
        # that outlast a whole run slow the reference kernel too, so the
        # cell metrics are in units of its fastest run.
        ref = min(refs)
        rates = [self.cells[i].steps / best[i] for i in sorted(certified - self.failed_inputs)]
        rate = statistics.median(rates) if rates else 0.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cell_best_ref_p50": (statistics.median(best) / ref, "ref"),
            "steps_per_ref": (rate * ref, "steps/ref"),
            "cells_certified_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{self.name}: {self.cells_run} cells in {passes} passes over {len(self.cells)} inputs,"
              f" {wall:.2f} s; set-ups {', '.join(f'{s:.4f}' for s in setups)} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        print(f"  1 ref = {ref * 1e3:.6g} ms (fastest of {len(refs)} reference runs, median"
              f" {statistics.median(refs) * 1e3:.6g} ms); in wall time cell_best_ms_p50 ="
              f" {statistics.median(best) * 1e3:.6g} ms, steps_per_s = {rate:.6g} (not regression-checked)")
        missed = len(self.missed_inputs)
        print(f"  cells_failed_frac = {self.failed / self.attempted:.6g} ratio"
              f" ({self.failed}/{self.attempted} inputs: {missed} missed tolerance,"
              f" {self.failed - missed} aborted)")
        tail = ", ".join(
            f"p{q} {tail_percentile(times, q) * 1e3:.6g} ms"
            for q in (90, 99) if tail_percentile(times, q) is not None
        ) or "none with 10 cells beyond p90"
        print(f"  all {len(times)} cell times: p50 {statistics.median(times) * 1e3:.6g} ms,"
              f" tail {tail} (not regression-checked)")
        if devs:
            orders = [d.order for d in devs if d.order == d.order]
            print(f"  worst state dev {max(d.state_dev for d in devs):.3e},"
                  f" worst metric dev {max(d.metric_dev for d in devs):.3e}"
                  + (f", lowest measured order {min(orders):.3f}" if orders else "")
                  + " (not regression-checked)")
        return self._result(metrics)

    def traced(self, seconds: float, tracer) -> dict:
        from report import layer_metrics

        cell_runs = {}  # traced cell id -> (kind, steps, completed, certified)
        plain = traced = 0.0
        passes, start = 0, time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            plain += sum(t for _, t, _ in self.one_pass())
            with tracer:
                for i, t, outcome in self.one_pass(tracer, len(cell_runs)):
                    traced += t
                    cell = self.cells[i]
                    cell_runs[len(cell_runs)] = (cell.kind, cell.steps, outcome.error is None, outcome.certified)
            passes += 1

        spans = tracer.spans()
        metrics = layer_metrics(spans, tracer.names, cell_runs, len(self.cells))
        metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{self.name}.spans.npz")
        print(f"{self.name}: {passes} untraced and {passes} traced passes over {len(self.cells)} inputs,"
              f" {len(spans)} spans, {time.perf_counter() - start:.2f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        return self._result(metrics)

    def _result(self, metrics: dict) -> dict:
        return {
            "correct": not self.missed_inputs,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics."""
    status, results = 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + CHILD_TIMEOUT_S)
        print(out.stdout, end="")
        print(out.stderr, end="", file=sys.stderr)
        status = max(status, out.returncode)
        lines = out.stdout.strip().splitlines()
        if out.returncode in (0, 1) and lines:
            results[workload] = json.loads(lines[-1])
    print("\nworkload             metric                    value        unit")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:<20} {name:<25} {metric['value']:<12.6g} {metric['unit']}")
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
