"""Timing wrappers installed on ``cbf`` names from outside the package.

Two kinds of wrapper replace module or class attributes for the length of a
pass and are removed afterwards:

* ``EvalTimer`` times only the evaluation boundary (the untraced run);
* ``Tracer`` records a span at every layer boundary in ``TRACE_POINTS``
  plus the evaluation boundary (the traced run).

Wrappers go on the names the callers look up: ``cbf.experiments`` imports
the measure functions into its own namespace, and ``cbf.measures`` imports
``nodes_and_weights`` and the interval degrees into its own, so those are
the attributes replaced.  Neither wrapper touches arguments or results,
so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import gzip
import importlib
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _elems(*arrays) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _delta_elems(xi, yi, xj, yj):
    return _elems(xi, yi, xj, yj)


def _method_elems(self, z):
    return int(np.size(z))


def _nodes(n, *args, **kwargs):
    return n


def _jousselme_pairs(m1, m2):
    return len(set(m1.focal_masks()) | set(m2.focal_masks())) ** 2


def _sigma_inc_pairs(m1, m2):
    f1 = sum(1 for k in m1.focal_masks() if k)
    f2 = sum(1 for k in m2.focal_masks() if k)
    return 2 * f1 * f2


def _points(result):
    return result.quadrature_meta.points_per_axis


# (owner, attribute, span name, count from arguments, count from result)
TRACE_POINTS = (
    ("cbf.experiments", "run_tables", "experiments.run_tables", None, None),
    ("cbf.experiments", "run_sweep", "experiments.run_sweep", None, None),
    ("cbf.experiments", "parse_distribution", "consonant.build", None, None),
    ("cbf.experiments", "consonant_from_normal", "consonant.build", None, None),
    ("cbf.experiments", "inc_strict", "measures.inc_strict", None, _points),
    ("cbf.experiments", "inc_partial", "measures.inc_partial", None, _points),
    ("cbf.experiments", "scalar_product", "measures.scalar_product", None, None),
    ("cbf.measures", "nodes_and_weights", "quadrature.nodes_and_weights", _nodes, None),
    ("cbf.measures", "delta_inc_partial", "intervals.delta", _delta_elems, None),
    ("cbf.measures", "delta_inc_partial_rev", "intervals.delta", _delta_elems, None),
    ("cbf.measures", "delta_inc_strict", "intervals.delta", _delta_elems, None),
    ("cbf.measures", "jaccard_delta", "intervals.delta", _delta_elems, None),
    ("cbf.consonant:ConsonantBBD", "density", "consonant.density", _method_elems, None),
    ("cbf.consonant:ConsonantBBD", "tail_mass", "consonant.tail_mass", _method_elems, None),
    ("cbf.consonant:ConsonantBBD", "base_bounds", "consonant.base_bounds", _method_elems, None),
    ("cbf.discrete", "parse_bba", "discrete.parse", None, None),
    ("cbf.discrete:DiscreteMassFunction", "__init__", "discrete.construct", None, None),
    ("cbf.discrete:DiscreteMassFunction", "bel", "discrete.query", None, None),
    ("cbf.discrete:DiscreteMassFunction", "pl", "discrete.query", None, None),
    ("cbf.discrete:DiscreteMassFunction", "q", "discrete.query", None, None),
    ("cbf.discrete", "conflict", "discrete.conflict", None, None),
    ("cbf.discrete", "jousselme_distance", "discrete.jousselme", _jousselme_pairs, None),
    ("cbf.discrete", "sigma_inc", "discrete.sigma_inc", _sigma_inc_pairs, None),
)

EVAL_SPAN = "eval"


def _resolve(owner):
    if not isinstance(owner, str):
        return owner
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(replacements):
    """Set ``owner.attr = wrapper`` for each triple, restoring on exit."""
    saved = []
    try:
        for owner, attr, wrapper in replacements:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class EvalTimer:
    """Durations of evaluation-boundary calls; nothing deeper is timed."""

    def __init__(self):
        self.durations: list[float] = []
        self.raised = 0

    def _wrap(self, fn):
        durations = self.durations

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            finally:
                durations.append(perf_counter() - t0)

        return timed

    def installed(self, boundaries):
        return patched([(o, a, self._wrap(getattr(o, a))) for o, a in boundaries])


class Tracer:
    """In-memory spans: (name id, start, end, parent index, evaluation id, count).

    The evaluation boundary gets its own span and a fresh evaluation id;
    spans outside any evaluation carry id -1.  ``count`` holds the work
    derived from the arguments or the result (elements, nodes, pairs).
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.raised = 0
        self._stack: list[int] = []
        self._eval = -1
        self._in_eval = 0

    def _wrap(self, fn, name, count=None, result_count=None, is_eval=False):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            n = count(*args, **kwargs) if count else 0
            if is_eval:
                self._eval += 1
                self._in_eval += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_eval:
                    self.raised += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self._eval if self._in_eval else -1, n)
                if is_eval:
                    self._in_eval -= 1
            if result_count is not None:
                spans[idx] = spans[idx][:5] + (result_count(result),)
            return result

        return traced

    @property
    def evals(self) -> int:
        """Evaluation-boundary calls so far."""
        return self._eval + 1

    def installed(self, boundaries):
        """Wrap every trace point, plus ``boundaries`` as the evaluation boundary.

        A boundary that is itself a trace point (the measure functions as
        ``cbf.experiments`` looks them up) keeps its layer span name.
        """
        points = {(_resolve(o), a): (name, c, rc) for o, a, name, c, rc in TRACE_POINTS}
        repl = []
        for owner, attr in boundaries:
            name, c, rc = points.pop((owner, attr), (EVAL_SPAN, None, None))
            repl.append((owner, attr, self._wrap(getattr(owner, attr), name, c, rc, is_eval=True)))
        for (owner, attr), (name, c, rc) in points.items():
            repl.append((owner, attr, self._wrap(getattr(owner, attr), name, c, rc)))
        return patched(repl)

    def arrays(self):
        """Spans as numpy columns: name id, start, end, parent, eval id, count."""
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty, empty.astype(int), empty.astype(int), empty
        nid, t0, t1, parent, ev, n = (np.asarray(col) for col in zip(*self.spans))
        return nid, t0, t1, parent, ev, n.astype(float)

    def write(self, path):
        """Write the spans as gzipped tab-separated text, one span per line."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\teval\tcount\n")
            for i, (nid, t0, t1, parent, ev, n) in enumerate(self.spans):
                fh.write(f"{i}\t{names[nid]}\t{t0!r}\t{t1!r}\t{parent}\t{ev}\t{n}\n")


MEASURE_SPANS = ("measures.inc_strict", "measures.inc_partial", "measures.scalar_product")
TWO_D_SPANS = ("measures.inc_partial", "measures.scalar_product")
EXPERIMENT_SPANS = ("experiments.run_tables", "experiments.run_sweep")


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, list[str]]:
    """Per-layer figures per traced pass, and any failed refinement cross-checks.

    Counts and seconds are totals over the traced passes divided by their
    number; latency percentiles and rates pool every span.  A layer that
    did not run reports 0.
    """
    nid, t0, t1, parent, _, n = tracer.arrays()
    dur = t1 - t0
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - child_s
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        return np.isin(nid, [ids[x] for x in names if x in ids])

    def per_pass(x):
        return float(x) / passes

    def pct(mask, q):
        return float(np.percentile(dur[mask], q)) * 1e3 if mask.any() else 0.0

    m = {}
    delta = sel("intervals.delta")
    m["intervals.delta.calls"] = per_pass(delta.sum())
    m["intervals.delta.elems"] = per_pass(n[delta].sum())
    m["intervals.delta.s"] = per_pass(dur[delta].sum())
    m["intervals.delta.elems_per_s"] = float(n[delta].sum() / dur[delta].sum()) if delta.any() else 0.0
    # float64 degree matrix written per call, from the array shapes.
    m["intervals.delta.bytes_computed"] = per_pass(8 * n[delta].sum())

    for short in ("inc_strict", "inc_partial", "scalar_product"):
        mask = sel(f"measures.{short}")
        m[f"measures.{short}.calls"] = per_pass(mask.sum())
        m[f"measures.{short}.ms_p50"] = pct(mask, 50)
    m["measures.inc_partial.ms_p90"] = pct(sel("measures.inc_partial"), 90)
    m["measures.self_s"] = per_pass(self_s[sel(*MEASURE_SPANS)].sum())

    # Refinement: each pass of a 2-D evaluation asks nodes_and_weights for
    # both axes, so passes = calls / 2.
    problems = []
    nodes = sel("quadrature.nodes_and_weights")
    two_d = np.flatnonzero(sel(*TWO_D_SPANS))
    node_parent = parent[nodes]
    node_n = n[nodes]
    refine, points_max = [], 0.0
    partial_id = ids.get("measures.inc_partial")
    for idx in two_d:
        mine = node_n[node_parent == idx]
        passes_here = mine.size / 2
        refine.append(passes_here)
        points_max = max(points_max, float(mine.max(initial=0.0)))
        if nid[idx] == partial_id and mine.size:
            expected = math.log2(n[idx] / mine.min()) + 1
            if n[idx] != mine.max() or passes_here != expected:
                problems.append(
                    f"span {idx}: {mine.size} nodes_and_weights calls up to {mine.max():g} points "
                    f"but the result reports {n[idx]:g} points per axis"
                )
    m["measures.refine_passes_mean"] = float(np.mean(refine)) if refine else 0.0
    m["measures.refine_passes_max"] = float(max(refine, default=0.0))
    m["measures.points_per_axis_max"] = points_max

    for short, span in (("build", "consonant.build"), ("density", "consonant.density")):
        mask = sel(span)
        m[f"consonant.{short}.calls"] = per_pass(mask.sum())
        m[f"consonant.{short}.s"] = per_pass(dur[mask].sum())
    m["consonant.density.elems"] = per_pass(n[sel("consonant.density")].sum())
    m["consonant.tail_mass.s"] = per_pass(dur[sel("consonant.tail_mass")].sum())
    m["consonant.base_bounds.s"] = per_pass(dur[sel("consonant.base_bounds")].sum())

    m["quadrature.nodes_and_weights.calls"] = per_pass(nodes.sum())
    m["quadrature.nodes_and_weights.s"] = per_pass(dur[nodes].sum())

    exp = sel(*EXPERIMENT_SPANS)
    m["experiments.calls"] = per_pass(exp.sum())
    m["experiments.self_s"] = per_pass(self_s[exp].sum())

    for short in ("parse", "construct", "query"):
        mask = sel(f"discrete.{short}")
        m[f"discrete.{short}.calls"] = per_pass(mask.sum())
        m[f"discrete.{short}.s"] = per_pass(dur[mask].sum())
    for short in ("jousselme", "sigma_inc"):
        mask = sel(f"discrete.{short}")
        m[f"discrete.{short}.s"] = per_pass(dur[mask].sum())
        m[f"discrete.{short}.pairs"] = per_pass(n[mask].sum())
    return m, problems
