"""Tests of the benchmark itself: tiny smoke runs and the output checker.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_exist():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_declared_metrics(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_outputs(name, seed=5):
    wl = workloads.WORKLOADS[name](seed, tiny=True)
    out = wl.run_pass(0)
    clean = wl.check(out)
    assert not clean.failed, clean.problems
    return wl, out, clean


def _perturb(out, key, index, delta):
    values = list(out[key])
    values[index] += delta
    return {**out, key: tuple(values)}


def test_checker_flags_broken_translation_invariance():
    wl, out, _ = _tiny_outputs("tables")
    bad = wl.check(_perturb(out, ("incpar", 2, 3), 0, 1e-15))
    assert ("incpar", 2, 3) in bad.failed


def test_checker_reports_closed_form_error_without_failing():
    wl, out, clean = _tiny_outputs("tables")
    # The same shift on both blocks keeps them equal; only the error grows.
    out = _perturb(_perturb(out, ("incstr", 0, 0), 0, 0.01), ("incstr", 2, 2), 0, 0.01)
    res = wl.check(out)
    assert not res.failed
    assert res.max_abs_err >= 0.01 - 1e-6 > clean.max_abs_err


def test_checker_flags_strict_above_partial_in_sweep():
    wl, out, _ = _tiny_outputs("sweep")
    key = next(k for k in out if k[0] == "incstr")
    partial = out[("incpar",) + key[1:]][0]
    bad = wl.check({**out, key: (min(1.0, partial + 1e-3),)})
    assert key in bad.failed


def test_sweep_self_cell_enters_closed_form_error():
    wl, out, clean = _tiny_outputs("sweep")
    key = ("incpar", "2in1", float(wl.shift), 1.0)
    res = wl.check(_perturb(out, key, 0, -0.05))
    assert res.max_abs_err > clean.max_abs_err + 0.04


def test_checker_flags_asymmetric_scalar_product():
    # The checker computes the reversed pair itself; a table entry that
    # differs from it by more than rounding breaks symmetry.
    wl, out, _ = _tiny_outputs("sweep")
    bad = wl.check(_perturb(out, ("stress", "scalar", 0, 1), 0, 1e-9))
    assert ("stress", "scalar", 0, 1) in bad.failed


def test_checker_flags_value_off_reference():
    wl, out, _ = _tiny_outputs("discrete_small")
    key = next(iter(out))
    bad = wl.check(_perturb(out, key, -1, 1e-9))
    assert key in bad.failed


def test_checker_flags_out_of_range_value():
    wl, out, _ = _tiny_outputs("discrete_small")
    key = next(iter(out))
    bad = wl.check(_perturb(out, key, 0, 2.0))
    assert key in bad.failed


def test_reference_conflict_matches_oracle():
    oracles = workloads._oracles()
    import numpy as np

    rng = np.random.default_rng(0)
    frame = workloads.LABELS[:5]
    for _ in range(20):
        ops = [workloads._random_focal(rng, 5, int(rng.integers(1, 9))) for _ in range(2)]
        o1, o2 = (workloads._OracleMass(frame, *op) for op in ops)
        dist, sigma, conf = workloads.reference_conflict(*ops[0], *ops[1])
        assert dist == pytest.approx(oracles.jousselme_naive(o1, o2), abs=1e-12)
        assert sigma == pytest.approx(oracles.sigma_inc_naive(o1, o2), abs=1e-12)
        assert conf == pytest.approx(oracles.conflict_naive(o1, o2), abs=1e-12)


class _Drifting:
    """A workload whose output changes between passes of the same input."""

    def run_pass(self, i):
        return {"x": (0.75 if i == 2 else 0.5,)}


def test_output_differing_between_passes_is_counted():
    passes = child.Passes(_Drifting())
    for i in range(3):
        passes.run(i, lambda: 0, lambda: 0)
    assert passes.mismatched == 1
    assert passes.occurrences["x"] == 3
    assert passes.to_check == {"x": (0.5,)}


class _RaisingOutsideBoundary:
    """A workload whose passes raise before reaching the evaluation boundary."""

    def run_pass(self, i):
        raise RuntimeError("lost before the boundary")

    def check(self, out):
        raise AssertionError("nothing to check")


def test_pass_raising_outside_the_boundary_is_a_failure():
    passes = child.Passes(_RaisingOutsideBoundary())
    for i in range(2):
        passes.run(i, lambda: 0, lambda: 0)
    assert passes.lost == 2
    fields, metrics = child._finish(passes.workload, passes, attempted=0, raised=0)
    assert fields["attempted"] == fields["failed"] == 2
    assert metrics["fail_frac"] == 1.0


def test_pass_raising_at_the_boundary_is_counted_once():
    passes = child.Passes(_RaisingOutsideBoundary())
    raised = iter([0, 1])
    passes.run(0, lambda: 0, lambda: next(raised))
    assert passes.lost == 0


def test_tracer_restores_the_wrapped_names():
    from cbf import consonant, experiments, measures

    before = (experiments.inc_partial, measures.nodes_and_weights, vars(consonant.ConsonantBBD)["density"])
    wl = workloads.WORKLOADS["tables"](1, tiny=True)
    tr = tracer.Tracer()
    with tr.installed(wl.boundaries()):
        assert experiments.inc_partial is not before[0]
        traced = wl.run_pass(0)
    after = (experiments.inc_partial, measures.nodes_and_weights, vars(consonant.ConsonantBBD)["density"])
    assert after == before
    assert traced == wl.run_pass(0)
    metrics, problems = tracer.layer_metrics(tr, 1)
    assert not problems
    assert metrics["measures.inc_partial.calls"] == 16
    assert metrics["quadrature.nodes_and_weights.calls"] > 0
    assert metrics["discrete.parse.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
