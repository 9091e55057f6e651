"""Inclusion, distance and conflict measures for belief functions.

The package covers two settings with one vocabulary:

* discrete mass functions on finite frames (``cbf.discrete``), where all
  measures are exact sums over focal sets;
* continuous consonant belief densities induced by normal or exponential
  pignistic densities (``cbf.consonant`` / ``cbf.measures``), where the
  measures are expectations of interval overlap degrees, each one
  Gauss-Legendre rule over the nesting variable of one operand.

``cbf.experiments`` reproduces the reference tables and parameter sweeps;
the ``cbf`` console script exposes them from the shell.  Importing the
package loads numpy only: ``scipy.special`` loads on the first continuous
measure that needs it, so the discrete path runs without scipy.
"""

from .consonant import (
    ConsonantBBD,
    GenericBBD,
    consonant_from_exponential,
    consonant_from_normal,
    parse_distribution,
    pignistic_density,
    to_generic,
)
from .discrete import (
    DiscreteMassFunction,
    conflict,
    d_inc,
    jousselme_distance,
    load_bba,
    parse_bba,
    sigma_inc,
)
from .experiments import Scenario, SweepSpec, TableSet, run_sweep, run_tables
from .intervals import (
    delta_inc_partial,
    delta_inc_partial_rev,
    delta_inc_strict,
    jaccard_delta,
)
from .measures import (
    InclusionResult,
    distance,
    inc_avg_partial,
    inc_avg_strict,
    inc_partial,
    inc_partial_reversed,
    inc_strict,
    scalar_product,
)
from .quadrature import QuadratureConfig, mc_estimate

__version__ = "0.1.0"

__all__ = [
    "ConsonantBBD",
    "DiscreteMassFunction",
    "GenericBBD",
    "InclusionResult",
    "QuadratureConfig",
    "Scenario",
    "SweepSpec",
    "TableSet",
    "conflict",
    "consonant_from_exponential",
    "consonant_from_normal",
    "d_inc",
    "delta_inc_partial",
    "delta_inc_partial_rev",
    "delta_inc_strict",
    "distance",
    "inc_avg_partial",
    "inc_avg_strict",
    "inc_partial",
    "inc_partial_reversed",
    "inc_strict",
    "jaccard_delta",
    "jousselme_distance",
    "load_bba",
    "mc_estimate",
    "parse_bba",
    "parse_distribution",
    "pignistic_density",
    "run_sweep",
    "run_tables",
    "scalar_product",
    "sigma_inc",
    "to_generic",
]
