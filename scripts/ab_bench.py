"""Compare the benchmark of a base commit with the checkout in alternating pairs.

    python3 scripts/ab_bench.py [--base REV] [--pairs N] [--seconds S]
                                [--workload NAME ...] [--seed N]

The base commit (default ``HEAD~1``) is extracted with ``git archive`` into
a temporary directory, so the repository gains no worktree and no file.
Pair i runs ``perfbench/run.py --workload NAME --seed (seed + i)`` once in
the base and once in the checkout, the base first in even pairs and second
in odd ones, so that a drift of the host's speed falls on both sides alike.
``perfbench/`` is only read.

For each workload it prints, for every end-to-end metric of BENCHMARK.json,
the median and quartiles of each side, the ratio of the medians, the
interquartile range of the base's runs and in how many pairs the checkout
did better; then whether every run was correct and how many evaluations
failed.  It exits 1 if a run was not
correct or failed an evaluation, 2 if a run could not be made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, into: Path) -> Path:
    """The tree of ``rev`` as files under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    (into / "base").mkdir()
    subprocess.run(["tar", "-x", "-C", str(into / "base")], input=archive, check=True)
    return into / "base"


def run(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload: str, metrics: list[dict], runs: dict) -> bool:
    print(f"\n{workload}: {len(runs['base'])} pairs")
    header = ("metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "base IQR")
    print("  {:<12} {:>32} {:>32} {:>6} {:>9}  wins".format(*header))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("base", "change"))
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        print(f"  {name:<12} {mb:>10.5g} [{b1:>9.5g}, {b3:>9.5g}] {mc:>10.5g} [{c1:>9.5g}, {c3:>9.5g}]"
              f" {mc / mb:>6.3f} {b3 - b1:>9.3g}  {wins}/{len(base)}")
    ok = True
    for side in ("base", "change"):
        correct = all(r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        ok = ok and correct and not failed
        print(f"  {side}: correct in every run: {correct}, failed evaluations: {failed}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the commit to compare against (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="per run (default: BENCHMARK.json's)")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all), repeatable")
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        try:
            base = extract(args.base, Path(tmp))
            for workload in workloads:
                runs = {"base": [], "change": []}
                for i in range(args.pairs):
                    order = [("base", base), ("change", ROOT)][:: 1 if i % 2 == 0 else -1]
                    for side, tree in order:
                        runs[side].append(run(tree, workload, args.seed + i, args.seconds))
                ok = report(workload, spec["end_to_end"], runs) and ok
        except (RuntimeError, subprocess.CalledProcessError, OSError) as exc:
            print(f"ab_bench: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
