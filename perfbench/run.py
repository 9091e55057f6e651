"""Run a cbf benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads and metrics are declared in BENCHMARK.json at the repository root.
Each workload runs in fresh child processes (``perfbench/child.py``) that
import ``cbf`` from the checkout's ``src`` with BLAS and OpenMP limited to
one thread.  Untraced (``--trace 0``), set-up is measured in ``SETUP_RUNS``
fresh processes and its median reported; the last of them goes on to the
timed passes.  Traced (``--trace 1``), one process reports the per-layer
metrics and writes its spans under ``.bench_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
Python, numpy and scipy versions, processor count, BLAS thread setting and
seed, goes to the line before it and to ``.bench_out/``.  ``--workload all``
prints a table of the end-to-end metrics and the checker's accuracy figures
for every workload instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
# Each workload must finish well inside 180 seconds.
DEADLINE_S = 170.0
# Printed by --workload all next to the end-to-end metrics.
ACCURACY = ("max_abs_err", "fail_frac")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    if tiny:
        base.append("--tiny")
    if trace:
        spans = out_dir / f"spans-{name}-seed{seed}.tsv.gz"
        record = run_child(base + ["--trace", "--spans", str(spans)], deadline)
    else:
        setups = [run_child(base + ["--setup-only"], deadline)["metrics"]["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        record = run_child(base, deadline)
        setups.append(record["metrics"]["setup_s"])
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def result_line(record: dict, declared: list[dict]) -> dict:
    metrics = {}
    for m in declared:
        value = record["metrics"].get(m["name"])
        if value is None:
            raise BenchError(f"workload did not report metric {m['name']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def print_table(records: dict, spec: dict):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"]] + list(ACCURACY)
    print(f"{'workload':<16} {'metric':<14} {'value':>14}  unit")
    for wl, record in records.items():
        for name in names:
            print(f"{wl:<16} {name:<14} {record['metrics'][name]:>14.6g}  {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "cbf" / "__init__.py").is_file():
            raise BenchError(f"no cbf sources under {ROOT / 'src'}")
        names = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload == "all":
            records = {n: run_workload(n, args.seed, seconds, False, args.tiny) for n in names}
            print_table(records, spec)
            return 0 if all(r["correct"] for r in records.values()) else 1
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.tiny)
        line = result_line(record, spec["per_layer"] if args.trace else spec["end_to_end"])
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
