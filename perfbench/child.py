"""One workload in one fresh process: set-up, timed passes, output checks.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
                               [--trace --spans PATH] [--setup-only] [--tiny]

``run.py`` starts this with ``src`` on PYTHONPATH and BLAS/OpenMP limited to
one thread.  The last stdout line is one JSON record.

Set-up is timed from the top of this file: importing ``cbf``, generating
the seeded inputs and one warm-up evaluation.  Then passes repeat until
``--seconds`` have elapsed (at least one).  Untraced, only the evaluation
boundary is timed.  With ``--trace``, untraced and traced passes alternate
on the same inputs; the traced ones give the per-layer figures, the pair
gives the tracing overhead, and their outputs must match bit for bit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402


class Passes:
    """Pass times and eval counts, and every output compared with the first of its key.

    A pass that raises loses its outputs.  When the exception came from
    outside the evaluation boundary, no boundary wrapper counted it, so it
    is counted here as one ``lost`` evaluation.
    """

    def __init__(self, workload):
        self.workload = workload
        self.seconds: list[float] = []
        self.eval_ranges: list[tuple[int, int]] = []
        self.first_bits: dict = {}
        self.to_check: dict = {}
        self.occurrences: Counter = Counter()
        self.mismatched = 0
        self.lost = 0
        self.problems: list[str] = []

    def run(self, i: int, count_evals, count_raised):
        n0, raised0 = count_evals(), count_raised()
        t0 = time.perf_counter()
        try:
            out = self.workload.run_pass(i)
        except Exception as exc:  # a raising evaluation is a failure, not a crash
            out = None
            if count_raised() == raised0:
                self.lost += 1
            if len(self.problems) < 20:
                self.problems.append(f"pass {i} raised {exc!r}")
        self.seconds.append(time.perf_counter() - t0)
        self.eval_ranges.append((n0, count_evals()))
        if out is not None:
            self._record(out)

    def _record(self, out: dict):
        for key, values in out.items():
            bits = struct.pack(f"{len(values)}d", *values)
            self.occurrences[key] += 1
            first = self.first_bits.setdefault(key, bits)
            if first is bits:
                self.to_check[key] = values
            elif first != bits:
                self.mismatched += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{key}: output differs from the first evaluation of the same input")


def _latency_ms(durations, ranges, q):
    """Percentile q of the evaluation latencies, in ms.

    Each pass's percentile, averaged over the passes: the rank cannot
    slide between evaluation kinds as the number of passes changes, and
    the machine's speed over the run is averaged rather than sampled at
    its median, which jumps when the speed swings between two levels.
    0 when no evaluation was timed.
    """
    import numpy as np

    per_pass = [durations[a:b] for a, b in ranges if b > a]
    if not per_pass:
        return 0.0
    return statistics.fmean(float(np.percentile(d, q)) for d in per_pass) * 1e3


def _env(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def _finish(wl, passes: Passes, attempted: int, raised: int):
    """Check the outputs; return (record fields, metrics).

    When every pass raised there is nothing to check: every pass has
    already been counted as failed, and ``max_abs_err`` stays 0.
    """
    attempted += passes.lost
    failed = raised + passes.lost + passes.mismatched
    problems = list(passes.problems)
    max_abs_err = 0.0
    if passes.to_check:
        check = wl.check(passes.to_check)
        failed += sum(passes.occurrences[k] for k in check.failed)
        problems += check.problems
        max_abs_err = check.max_abs_err
    fields = {"attempted": attempted, "failed": failed, "problems": problems}
    metrics = {
        "max_abs_err": max_abs_err,
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    return fields, metrics


def run_plain(wl, seconds: float):
    from tracer import EvalTimer

    timer = EvalTimer()
    passes = Passes(wl)
    with timer.installed(wl.boundaries()):
        start = time.perf_counter()
        i = 0
        while True:
            passes.run(i, lambda: len(timer.durations), lambda: timer.raised)
            i += 1
            if time.perf_counter() - start >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fields, metrics = _finish(wl, passes, len(timer.durations), timer.raised)
    metrics.update(
        evals_per_s=len(timer.durations) / sum(passes.seconds),
        eval_ms_p50=_latency_ms(timer.durations, passes.eval_ranges, 50),
        eval_ms_p90=_latency_ms(timer.durations, passes.eval_ranges, 90),
        peak_rss_mb=peak_rss_mb,
    )
    fields.update(pass_seconds=passes.seconds, samples=len(timer.durations))
    return fields, metrics


def run_traced(wl, seconds: float, spans_path):
    from tracer import EvalTimer, Tracer, layer_metrics

    timer, tracer = EvalTimer(), Tracer()
    plain, traced = Passes(wl), Passes(wl)
    # One bookkeeping for both, so traced outputs are compared with untraced ones.
    traced.first_bits, traced.to_check, traced.occurrences = (
        plain.first_bits, plain.to_check, plain.occurrences,
    )
    boundaries = wl.boundaries()
    start = time.perf_counter()
    i = 0
    while True:
        with timer.installed(boundaries):
            plain.run(i, lambda: len(timer.durations), lambda: timer.raised)
        with tracer.installed(boundaries):
            traced.run(i, lambda: tracer.evals, lambda: tracer.raised)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    plain.mismatched += traced.mismatched
    plain.lost += traced.lost
    plain.problems += traced.problems
    attempted = len(timer.durations) + tracer.evals
    fields, metrics = _finish(wl, plain, attempted, timer.raised + tracer.raised)
    layers, trace_problems = layer_metrics(tracer, len(traced.seconds))
    metrics.update(layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.seconds) / statistics.median(plain.seconds) - 1.0
    )
    fields["problems"] += trace_problems
    fields["trace_consistent"] = not trace_problems
    fields.update(pass_seconds=plain.seconds, traced_pass_seconds=traced.seconds,
                  spans=len(tracer.spans))
    if spans_path:
        tracer.write(spans_path)
    return fields, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)

    import workloads

    src = (workloads.ROOT / "src").resolve()
    if src not in Path(workloads.cbf.__file__).resolve().parents:
        print(f"cbf was imported from {workloads.cbf.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warmup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"metrics": {"setup_s": setup_s}}))
        return 0

    if args.trace:
        fields, metrics = run_traced(wl, args.seconds, args.spans)
    else:
        fields, metrics = run_plain(wl, args.seconds)
    metrics["setup_s"] = setup_s
    record = {
        "workload": args.workload,
        "trace": int(args.trace),
        "correct": fields["failed"] == 0 and fields.get("trace_consistent", True),
        **fields,
        "metrics": metrics,
        "env": _env(args.seed),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
