"""Benchmark of the lowranksdp library: one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload goe-certify --seed 0 --seconds 25 --trace 0

The run draws the instances of one round from ``--seed``, then repeats
whole rounds while one more still ends within ``--seconds``.  The first round checks every
output with :mod:`checks`; later rounds must reproduce the first round's
outputs bit for bit.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` the library's
public calls are wrapped in spans (see :mod:`tracing`) and the object holds
the per-layer metrics instead.  The result and the trace are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread for every run, so runs do not depend on how many cores the
# machine has free; with two threads, single-vector products were an order of
# magnitude slower than with one at the start of a process (see README).
BLAS_THREADS = 1

WORKLOAD_NAMES = ("goe-certify", "goe-sdp-estimate", "er-maxcut", "stiefel-trust-region")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS,
            "numpy": np.__version__}


class DotCounter:
    """Counts ``SymmetricMatrix.dot`` calls (the ``A @ X`` products) in untraced runs."""

    def __init__(self, cls):
        self.calls = 0
        self._cls, self._orig = cls, cls.dot
        counter, orig = self, cls.dot

        def dot(A, x):
            counter.calls += 1
            return orig(A, x)

        cls.dot = dot

    def uninstall(self) -> None:
        self._cls.dot = self._orig


class Run:
    """State of one benchmark run: the workload, its instrumentation and every sample."""

    def __init__(self, wl, seed: int, workdir: str, tracer=None, counter=None):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.tracer, self.counter = tracer, counter
        self.setup_times: list[float] = []
        self.solve_times: list[float] = []
        self.check_times: list[float] = []
        self.file_mb: list[float] = []
        self.matvecs: list[int] = []
        self.checked: dict = {}  # instance index -> workloads.Result of the first round
        self.fingerprints: dict[int, str] = {}

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def operation(self, i: int, round_index: int) -> list[str]:
        """Instance ``i`` from set-up to checked result; returns its failures."""
        wl, inst = self.wl, None
        try:
            t0 = time.perf_counter()
            with self._span("bench.setup"):
                inst = wl.setup(self.seed, i, self.workdir)
            self.setup_times.append(time.perf_counter() - t0)
            if "path" in inst and round_index == 0:
                self.file_mb.append(os.path.getsize(inst["path"]) / 1e6)
            if self.tracer is not None:
                self.tracer.nnz = wl.nnz(inst)
            calls_before = self.counter.calls if self.counter is not None else 0
            t0 = time.perf_counter()
            with self._span("bench.solve"):
                out = wl.solve(inst)
            elapsed = time.perf_counter() - t0
            if round_index == 0:
                if self.counter is not None:
                    self.matvecs.append(self.counter.calls - calls_before)
                t0 = time.perf_counter()
                result = self.checked[i] = wl.check(inst, out)
                self.check_times.append(time.perf_counter() - t0)
                if not result.failures:
                    self.fingerprints[i] = wl.fingerprint(inst, out)
                failures = result.failures
            elif i not in self.fingerprints:
                failures = ["the first round's output for this instance failed its checks"]
            elif wl.fingerprint(inst, out) != self.fingerprints[i]:
                failures = ["output differs from the first round's"]
            else:
                failures = []
            if not failures:
                self.solve_times.append(elapsed)
            return failures
        except Exception:
            return [traceback.format_exc()]
        finally:
            if inst is not None:
                wl.cleanup(inst)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from lowranksdp import symmat

    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    workdir = OUT / f"scratch-{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = counter = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        counter = DotCounter(symmat.SymmetricMatrix)
    state = Run(wl, seed, str(workdir), tracer, counter)

    attempted = failed = rounds = 0
    t_start = time.perf_counter()
    try:
        # whole rounds only; start another only if one more (checks aside, which
        # run in the first round alone) still ends within the run's seconds
        while True:
            t_round, checks_before = time.perf_counter(), sum(state.check_times)
            for i in range(wl.round_size):
                attempted += 1
                failures = state.operation(i, rounds)
                if failures:
                    failed += 1
                    print(f"[{workload_name} seed {seed} round {rounds} op {i}] FAILED: "
                          + "; ".join(failures), file=sys.stderr)
            rounds += 1
            now = time.perf_counter()
            next_round = now - t_round - (sum(state.check_times) - checks_before)
            if now - t_start + next_round > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if counter is not None:
            counter.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in state.checked.values() if not r.failures]

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["symmat.file_mb"] = med(state.file_mb)
        metrics["solver.cert_shortfall"] = med([r.cert_shortfall for r in good])
        metrics["analysis.cut_fraction"] = med([r.cut_fraction for r in good])
        metrics["analysis.sdp_gap_per_n"] = med([r.sdp_gap_per_n for r in good])
        tracer.save(OUT / f"trace-{workload_name}-seed{seed}.npz")
    else:
        metrics = {
            "setup_s": med(state.setup_times),
            "solve_s": med(state.solve_times),
            "matvecs": med(state.matvecs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective_per_n": med([r.objective_per_n for r in good]),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "rounds": rounds, "solve_samples": len(state.solve_times),
            "solve_times": state.solve_times, "setup_times": state.setup_times,
            "check_times": state.check_times}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lowranksdp" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # the thread count must be in the environment before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas": blas_info(), **result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(info, fh, indent=1)
    print(f"# {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['solve_samples']} timed solves, blas {json.dumps(info['blas'])}")
    # a metric the workload never touches (a layer it does not call) reads 0
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)),
                                   "unit": m["unit"]}
                       for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
