"""All four consonant measures against exact forms for concentric pairs.

Two operands of one family at one location differ only in their scales, and
with q = s2 / s1 (f1 the included operand) every measure of the untruncated
pair is elementary in q.  The forms follow from two ratio laws: X^2 / Y^2 is
F(3, 3) for Maxwell draws X, Y, and X / (X + Y) is Beta(2, 2) for Gamma(2)
draws.

* normal, theta = atan q: strict = (2 theta - sin(4 theta) / 2) / pi,
  partial = strict + 4 q / (pi (1 + q^2)^2), scalar = 4 q / (pi (1 + q^2)),
  distance = sqrt(2 / pi) |1 - q| / sqrt(1 + q^2);
* exponential, y = q / (1 + q): strict = 3 y^2 - 2 y^3,
  partial = strict + 2 q (1 - y)^3, scalar = 2 y^3 / q + 2 q (1 - y)^3,
  distance = sqrt(1 / 2 - scalar).

Normals run at the default truncation k = 8, whose Maxwell tail (8.2e-14)
sets their inclusion bounds; exponentials run at k = 40, where the Gamma(2)
tail is below 1e-16.  Each bound is the worst error at introduction rounded
up to a power of ten; bounds may only tighten.  With correctly rounded rule
constants the exponential scalar product errs by at most 1.1e-16 and its
distance by 3.5e-16 (5.0e-16 and 3.3e-16 with numpy's leggauss weights), so
both are bounded by 1e-15.

Pairs with an offset, both families in both roles and scale ratios 1e-3 to
1e3, are checked against ``data/reference_inclusions.csv``: 30-digit values
of both inclusions at their own truncations, written by
``scripts/make_reference.py`` from the definitions with mpmath.  The scalar
product and the distance of such pairs are checked against
``data/reference_scalar.csv``: 25-digit values of each pair's scalar product
and both self products, from the same script (``--scalar``).
"""

import csv
import decimal
import math
import pathlib

import numpy as np
import pytest

from cbf.consonant import consonant_from_exponential, consonant_from_normal, parse_distribution
from cbf.measures import distance, inc_partial, inc_strict, scalar_product

# a location exact in binary, so the offset between the operands is exactly 0
LOCATION = 0.75
EXP_K = 40.0
RATIOS = 10.0 ** np.linspace(-3.0, 3.0, 61)
FAR_RATIOS = 10.0 ** np.linspace(-8.0, 8.0, 33)


def _normal_forms(q):
    theta = math.atan(q)
    strict = (2.0 * theta - 0.5 * math.sin(4.0 * theta)) / math.pi
    return {
        "strict": strict,
        "partial": strict + 4.0 * q / (math.pi * (1.0 + q * q) ** 2),
        "scalar": 4.0 * q / (math.pi * (1.0 + q * q)),
        "distance": math.sqrt(2.0 / math.pi) * abs(1.0 - q) / math.sqrt(1.0 + q * q),
    }


def _exp_forms(q):
    y = q / (1.0 + q)
    strict = 3.0 * y * y - 2.0 * y**3
    scalar = 2.0 * y**3 / q + 2.0 * q * (1.0 - y) ** 3
    return {
        "strict": strict,
        "partial": strict + 2.0 * q * (1.0 - y) ** 3,
        "scalar": scalar,
        "distance": math.sqrt(max(0.0, 0.5 - scalar)),
    }


def _normal_pair(q):
    return consonant_from_normal(LOCATION, 1.0), consonant_from_normal(LOCATION, q)


def _exp_pair(q):
    # scales 1 and q: rates 1 and 1 / q
    return consonant_from_exponential(1.0, EXP_K), consonant_from_exponential(1.0 / q, EXP_K)


FAMILIES = {"normal": (_normal_pair, _normal_forms), "exp": (_exp_pair, _exp_forms)}

MEASURES = {
    "strict": lambda f1, f2: inc_strict(f1, f2).value,
    "partial": lambda f1, f2: inc_partial(f1, f2).value,
    "scalar": scalar_product,
    "distance": distance,
}

BOUNDS = {
    ("normal", "strict"): 1e-12,
    ("normal", "partial"): 1e-12,
    ("normal", "scalar"): 1e-13,
    ("normal", "distance"): 1e-13,
    ("exp", "strict"): 1e-15,
    ("exp", "partial"): 1e-15,
    ("exp", "scalar"): 1e-15,
    ("exp", "distance"): 1e-15,
}


def _worst(family, measure, ratios):
    pair, forms = FAMILIES[family]
    worst = 0.0
    for q in ratios:
        f1, f2 = pair(q)
        worst = max(worst, abs(MEASURES[measure](f1, f2) - forms(q)[measure]))
    return worst


@pytest.mark.parametrize("family,measure", list(BOUNDS))
def test_concentric_pairs_match_the_exact_forms(family, measure):
    assert _worst(family, measure, RATIOS) <= BOUNDS[family, measure]


@pytest.mark.parametrize("family,measure", [(fam, m) for fam in FAMILIES for m in ("strict", "partial")])
def test_concentric_inclusions_hold_at_far_scale_ratios(family, measure):
    assert _worst(family, measure, FAR_RATIOS) <= BOUNDS[family, measure]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_forms_give_the_known_self_anchors(family):
    anchors = {"normal": (0.5, 0.5 + 1.0 / math.pi, 2.0 / math.pi, 0.0),
               "exp": (0.5, 0.75, 0.5, 0.0)}[family]
    forms = FAMILIES[family][1](1.0)
    assert [forms[m] for m in MEASURES] == pytest.approx(anchors, abs=1e-15)


REFERENCE_INCLUSIONS = pathlib.Path(__file__).resolve().parent / "data" / "reference_inclusions.csv"


def test_inclusions_of_offset_pairs_match_the_mpmath_corpus():
    # strict within 1e-15 or 1e-14 of its value, partial within 1e-15; at
    # introduction the worst errors were 2.2e-16 for both
    with open(REFERENCE_INCLUSIONS, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 100
    for row in rows:
        f1, f2 = (parse_distribution(row[f"f{i}"], float(row[f"k{i}"])) for i in (1, 2))
        strict, partial = float(row["strict"]), float(row["partial"])
        error = abs(inc_strict(f1, f2).value - strict)
        assert error <= max(1e-15, 1e-14 * strict), (row["f1"], row["f2"], "strict", error)
        error = abs(inc_partial(f1, f2).value - partial)
        assert error <= 1e-15, (row["f1"], row["f2"], "partial", error)


REFERENCE_SCALAR = pathlib.Path(__file__).resolve().parent / "data" / "reference_scalar.csv"


def test_scalar_products_and_distances_of_offset_pairs_match_the_mpmath_corpus():
    # 72 pairs, 54 of them offset (two exponentials share location 0); the
    # distance is sqrt((self1 + self2 - 2 scalar) / 2) of the corpus values,
    # in decimal, since the radicand cancels.  At introduction the worst
    # errors were 3.8e-17 for the scalar product and 1.1e-16 for the distance
    # (3.9e-16 and 5.2e-16 with numpy's leggauss weights)
    with open(REFERENCE_SCALAR, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 50
    with decimal.localcontext(decimal.Context(prec=30)):
        for row in rows:
            f1, f2 = (parse_distribution(row[f"f{i}"], float(row[f"k{i}"])) for i in (1, 2))
            scalar, self1, self2 = (decimal.Decimal(row[name]) for name in ("scalar", "self1", "self2"))
            error = abs(scalar_product(f1, f2) - float(scalar))
            assert error <= 1e-16, (row["f1"], row["f2"], "scalar", error)
            error = abs(distance(f1, f2) - float(max(0, (self1 + self2 - 2 * scalar) / 2).sqrt()))
            assert error <= 1e-15, (row["f1"], row["f2"], "distance", error)
