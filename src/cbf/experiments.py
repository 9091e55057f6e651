"""Scenario runners: pairwise-measure tables and two-parameter sweeps.

One table maps each name of ``MEASURES`` to the value of an ordered pair
and to whether the measure is symmetric.  ``run_tables`` evaluates a set of
measures over every ordered pair of the scenario's distributions and
reports the off-diagonal row averages next to each matrix.  ``run_sweep``
fixes one operand and sweeps a normal second operand over a (mu2, sigma2)
grid, producing one CSV row per grid cell.

Outputs are deterministic: rows are ordered lexicographically, values are
formatted with 6 significant digits and ``render_tables`` and ``sweep_csv``
return text with LF line endings, so reruns are byte-identical.  Writing
that text is left to the caller.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .consonant import consonant_from_normal, parse_distribution
from .measures import _offset, distance, gram_distance, inc_partial, inc_strict, scalar_product
from .quadrature import QuadratureConfig

__all__ = [
    "MEASURES",
    "SweepSpec",
    "Scenario",
    "TableSet",
    "run_tables",
    "run_sweep",
    "render_tables",
    "sweep_csv",
    "grid_values",
]

# name -> (value of the ordered pair (f1, f2), symmetric?).  The lambdas
# look the measures up in this module when called, so wrappers set on its
# attributes see every evaluation.
_TABLE = {
    "incstr": (lambda f1, f2: inc_strict(f1, f2).value, False),
    "incpar": (lambda f1, f2: inc_partial(f1, f2).value, False),
    "scalar": (lambda f1, f2: scalar_product(f1, f2), True),
    "distance": (lambda f1, f2: distance(f1, f2), True),
}
MEASURES = tuple(_TABLE)
DIRECTIONS = ("1in2", "2in1")
FORMATS = ("markdown", "csv")
# About 200 times the 5,049 cells of the fine grid in scripts/run_sweeps.py.
MAX_SWEEP_CELLS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep of a normal second operand against a fixed first operand.

    ``mu2`` and ``sigma2`` are inclusive (start, stop, step) ranges.
    ``direction`` picks the operand order: "1in2" measures the fixed
    density's inclusion in the swept one, "2in1" the reverse.
    """

    fixed: str
    mu2: tuple[float, float, float]
    sigma2: tuple[float, float, float]
    measure: str = "incpar"
    direction: str = "1in2"

    def __post_init__(self):
        for name, rng in (("mu2", self.mu2), ("sigma2", self.sigma2)):
            if not all(math.isfinite(v) for v in rng):
                raise ValueError(f"{name} range bounds must be finite, got {rng}")
            start, stop, step = rng
            if not step > 0:
                raise ValueError(f"{name} step must be positive, got {step}")
            if stop < start:
                raise ValueError(f"{name} range is empty: {rng}")
        if self.sigma2[0] <= 0:
            raise ValueError(f"sigma2 must start above 0, got {self.sigma2[0]}")
        cells = _grid_count(self.mu2) * _grid_count(self.sigma2)
        if not cells <= MAX_SWEEP_CELLS:
            raise ValueError(
                f"sweep cell count {cells:g} must be finite and at most {MAX_SWEEP_CELLS}"
            )
        if self.measure not in MEASURES:
            raise ValueError(f"unknown sweep measure {self.measure!r}, expected one of {MEASURES}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}, expected one of {DIRECTIONS}")


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: either a table set or a sweep."""

    distributions: tuple[str, ...] = ()
    measures: tuple[str, ...] = ("incstr", "incpar")
    sweep: SweepSpec | None = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        k = self.quadrature.truncation_k  # the truncation every operand is built with
        for spec in self.distributions:
            parse_distribution(spec, k)
        if self.sweep is not None:  # the fixed operand, the extreme swept scales and offsets
            fixed, sigma2 = parse_distribution(self.sweep.fixed, k), grid_values(self.sweep.sigma2)[[0, -1]]
            for s in sigma2:
                consonant_from_normal(0.0, s, k)
            for mu2 in grid_values(self.sweep.mu2)[[0, -1]]:  # the widest swept operand at each end
                _offset(fixed, consonant_from_normal(mu2, sigma2[-1], k))
        if not self.measures:
            raise ValueError("need at least one measure")
        for meas in self.measures:
            if meas not in MEASURES:
                raise ValueError(f"unknown measure {meas!r}, expected one of {MEASURES}")


@dataclass(frozen=True)
class TableSet:
    """Pairwise measure matrices plus off-diagonal row averages.

    ``matrices[meas][i, j]`` is the measure of the pair (f_i, f_j); for the
    inclusion measures that is the degree to which f_i is included in f_j.
    """

    labels: tuple[str, ...]
    matrices: dict[str, np.ndarray]
    averages: dict[str, np.ndarray]


def _grid_count(rng: tuple[float, float, float]) -> float:
    """Number of points in ``grid_values(rng)``, inf if it is unbounded.

    The endpoint test has a slack of 1e-9 steps so stops that are a whole
    number of steps away are always included despite float noise.
    """
    start, stop, step = rng
    steps = (stop - start) / step
    return max(math.floor(steps + 1e-9) + 1, 1) if math.isfinite(steps) else math.inf


def grid_values(rng: tuple[float, float, float]) -> np.ndarray:
    """Inclusive arithmetic grid start, start+step, ..., up to stop."""
    start, _, step = rng
    return start + step * np.arange(_grid_count(rng))


def run_tables(s: Scenario) -> TableSet:
    """Evaluate the scenario's measures over all ordered distribution pairs
    (symmetric ones for i <= j, mirrored; distances off the scalar Gram matrix)."""
    if len(s.distributions) < 2:
        raise ValueError(f"need at least two distributions, got {len(s.distributions)}")
    k = s.quadrature.truncation_k  # the only field of the config that reaches a measure, through the operands
    bbds = [parse_distribution(spec, k) for spec in s.distributions]
    labels = tuple(b.label for b in bbds)
    n = len(bbds)

    computed: dict[str, np.ndarray] = {}

    def matrix(meas: str) -> np.ndarray:
        if meas not in computed:
            if meas == "distance":
                gram = matrix("scalar")
                norms = np.diag(gram)
                computed[meas] = gram_distance(norms[:, None], norms[None, :], gram)
            else:
                value, symmetric = _TABLE[meas]
                mat = computed[meas] = np.empty((n, n))
                for i in range(n):
                    for j in range(n):
                        mat[i, j] = mat[j, i] if symmetric and j < i else value(bbds[i], bbds[j])
        return computed[meas]

    matrices = {meas: matrix(meas) for meas in s.measures}

    averages = {}
    off_diag = ~np.eye(n, dtype=bool)
    for meas, mat in matrices.items():
        averages[meas] = np.array([mat[i, off_diag[i]].mean() for i in range(n)])

    return TableSet(labels, matrices, averages)


def run_sweep(s: Scenario) -> list[tuple[float, float, float]]:
    """Evaluate the scenario's sweep; returns (mu2, sigma2, value) rows.

    Rows are ordered lexicographically by (mu2, sigma2).
    """
    if s.sweep is None:
        raise ValueError("scenario has no sweep spec")
    spec = s.sweep
    k = s.quadrature.truncation_k
    fixed = parse_distribution(spec.fixed, k)
    value, _ = _TABLE[spec.measure]
    rows: list[tuple[float, float, float]] = []
    for mu2 in grid_values(spec.mu2):
        for sigma2 in grid_values(spec.sigma2):
            swept = consonant_from_normal(mu2, sigma2, k)
            pair = (fixed, swept) if spec.direction == "1in2" else (swept, fixed)
            rows.append((float(mu2), float(sigma2), value(*pair)))
    return rows


def sweep_csv(rows) -> str:
    """Render sweep rows as CSV with header mu2,sigma2,value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mu2", "sigma2", "value"])
    for mu2, sigma2, value in rows:
        writer.writerow([f"{mu2:.6g}", f"{sigma2:.6g}", f"{value:.6g}"])
    return buf.getvalue()


def render_tables(t: TableSet, fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return _tables_markdown(t)
    if fmt == "csv":
        return _tables_csv(t)
    raise ValueError(f"unknown output format {fmt!r}")


def _tables_markdown(t: TableSet) -> str:
    parts = []
    for meas, mat in t.matrices.items():
        lines = [f"### {meas}", ""]
        header = ["f_i \\ f_j", *t.labels, "avg"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for i, label in enumerate(t.labels):
            cells = [f"{v:.6g}" for v in mat[i]] + [f"{t.averages[meas][i]:.6g}"]
            lines.append("| " + " | ".join([label, *cells]) + " |")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def _tables_csv(t: TableSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["measure", "f_i", "f_j", "value"])
    for meas, mat in t.matrices.items():
        for i, row_label in enumerate(t.labels):
            for j, col_label in enumerate(t.labels):
                writer.writerow([meas, row_label, col_label, f"{mat[i, j]:.6g}"])
            writer.writerow([meas, row_label, "avg", f"{t.averages[meas][i]:.6g}"])
    return buf.getvalue()
