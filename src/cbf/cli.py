"""Command line interface.

Subcommands:

* ``cbf tables``    pairwise measure tables for a list of distributions
* ``cbf sweep``     (mu2, sigma2) grid sweep of one measure against a fixed distribution
* ``cbf discrete conf``  discrete conflict report for two .bba files

Measure names are those of ``cbf.experiments.MEASURES``, distribution specs
use the ``normal:MU,SIGMA`` / ``exp:RATE`` forms and sweep ranges use
``START:STOP:STEP``.  All numeric output carries 6 significant digits.
"""

from __future__ import annotations

import argparse
import sys

from .discrete import DiscreteMassFunction, _inclusion_degrees, jousselme_distance, load_bba
from .experiments import (
    DIRECTIONS,
    FORMATS,
    MEASURES,
    Scenario,
    SweepSpec,
    render_tables,
    run_sweep,
    run_tables,
    sweep_csv,
)
from .quadrature import QuadratureConfig

__all__ = ["main"]


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric range bound in {text!r}") from None
    return start, stop, step


def _parse_measures(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_tables(args) -> int:
    scenario = Scenario(
        distributions=tuple(args.dists),
        measures=args.measures,
        quadrature=QuadratureConfig(truncation_k=args.trunc_k),
    )
    tset = run_tables(scenario)
    _emit(render_tables(tset, args.format), args.out)
    return 0


def _cmd_sweep(args) -> int:
    scenario = Scenario(
        sweep=SweepSpec(
            fixed=args.fixed,
            mu2=args.mu2,
            sigma2=args.sigma2,
            measure=args.measure,
            direction=args.direction,
        ),
        quadrature=QuadratureConfig(truncation_k=args.trunc_k),
    )
    rows = run_sweep(scenario)
    _emit(sweep_csv(rows), args.out)
    return 0


def _cmd_discrete_conf(args) -> int:
    m1, m2 = load_bba(args.m1), load_bba(args.m2)
    # Shared frame: the union of the labels used by either file.
    frame = tuple(sorted({*m1.frame, *m2.frame}))
    m1, m2 = (DiscreteMassFunction(frame, dict(m.items())) for m in (m1, m2))
    (inc12, inc21), dist = _inclusion_degrees(m1, m2), jousselme_distance(m1, m2)  # each kernel once
    lines = [
        f"d_inc_1in2 = {inc12:.6g}",
        f"d_inc_2in1 = {inc21:.6g}",
        f"sigma_inc = {max(inc12, inc21):.6g}",
        f"jousselme = {dist:.6g}",
        f"conflict = {(1.0 - max(inc12, inc21)) * dist:.6g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbf",
        description="Inclusion, distance and conflict measures for belief functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument_group("quadrature").add_argument(
        "--trunc-k", type=float, default=QuadratureConfig.truncation_k, metavar="K",
        help="domain truncation in scale units (default %(default)s)")

    p_tables = sub.add_parser("tables", parents=[quadrature], help="pairwise measure tables")
    p_tables.add_argument("--dists", nargs="+", required=True, metavar="SPEC",
                          help="distribution specs, e.g. normal:0,1 exp:2")
    p_tables.add_argument("--measures", type=_parse_measures, default=("incstr", "incpar"),
                          help=f"comma-separated subset of {','.join(MEASURES)}")
    p_tables.add_argument("--format", choices=FORMATS, default="markdown")
    p_tables.add_argument("--out", default=None, help="write output to this file")
    p_tables.set_defaults(func=_cmd_tables)

    p_sweep = sub.add_parser("sweep", parents=[quadrature], help="grid sweep against a fixed distribution")
    p_sweep.add_argument("--fixed", required=True, metavar="SPEC")
    p_sweep.add_argument("--mu2", type=_parse_range, required=True, metavar="LO:HI:STEP")
    p_sweep.add_argument("--sigma2", type=_parse_range, required=True, metavar="LO:HI:STEP")
    p_sweep.add_argument("--measure", choices=MEASURES, default="incpar")
    p_sweep.add_argument("--direction", choices=DIRECTIONS, default="1in2")
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_disc = sub.add_parser("discrete", help="discrete mass function tools")
    disc_sub = p_disc.add_subparsers(dest="discrete_command", required=True)
    p_conf = disc_sub.add_parser("conf", help="conflict report for two .bba files")
    p_conf.add_argument("--m1", required=True, help="first .bba file")
    p_conf.add_argument("--m2", required=True, help="second .bba file")
    p_conf.add_argument("--out", default=None)
    p_conf.set_defaults(func=_cmd_discrete_conf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
