"""Command-line interface.

Every subcommand prints a single JSON object to stdout (the scan can
emit CSV instead).  Exit codes form a stable contract: 0 when all
checks pass, 1 when a check fails, 2 on invalid parameters.  Output is
byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np

from . import cartan, certify, charts, orbifold
from .errors import ProjCoxError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parse_orders(text: str) -> orbifold.QuadPrismOrders:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--orders expects four comma-separated integers: n12,n23,n34,n14")
    return orbifold.QuadPrismOrders(*(int(p) for p in parts))


def _parse_box(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--box expects lo,hi")
    return float(parts[0]), float(parts[1])


def _cycle_key(cycle) -> str:
    return "-".join(str(i) for i in cycle)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


#: coordinate flags of the chart subcommands, and the ones each chart reads
_COORDINATE_FLAGS = ("t13", "t24", "v23", "v24", "v34", "v12", "v14", "v44")
_CHART_FLAGS = {
    "general": ("t13", "t24", "v23", "v24", "v34"),
    "concurrent": ("v12", "v23", "v14", "v34", "v44"),
    "standard": ("t13", "t24", "v23", "v24", "v34"),
}


def _check_chart_flags(args):
    """Every flag the chart reads is given (v44 defaults to 0) and no
    other coordinate flag is."""
    used = _CHART_FLAGS[args.chart]
    stray = [n for n in _COORDINATE_FLAGS
             if n not in used and getattr(args, n) is not None]
    if stray:
        raise ValueError(f"flags not used by chart {args.chart!r}: "
                         + ", ".join(f"--{n}" for n in stray))
    missing = [n for n in used if n != "v44" and getattr(args, n) is None]
    if missing:
        raise ValueError("missing flags for chart "
                         f"{args.chart!r}: " + ", ".join(f"--{n}" for n in missing))


def _build_system(args):
    """Chart point and reflection system from the chart flags."""
    _check_chart_flags(args)
    orders = _parse_orders(args.orders)
    if args.chart == "general":
        params = charts.GeneralChartParams(orders, args.t13, args.t24,
                                           args.v23, args.v24, args.v34)
        system = charts.build_general(params)
        inputs = {"chart": "general", "t13": args.t13, "t24": args.t24,
                  "v23": args.v23, "v24": args.v24, "v34": args.v34}
    elif args.chart == "concurrent":
        v44 = 0.0 if args.v44 is None else args.v44
        params = charts.ConcurrentChartParams(orders, args.v12, args.v23,
                                              args.v14, args.v34, v44)
        system = charts.build_concurrent(params)
        inputs = {"chart": "concurrent", "v12": args.v12, "v23": args.v23,
                  "v14": args.v14, "v34": args.v34, "v44": v44}
    else:
        point = charts.build_standard(orders, args.t13, args.t24,
                                      args.v23, args.v24, args.v34)
        system = charts.realize_representation(point, a4=1.0)
        inputs = {"chart": "standard", "t13": args.t13, "t24": args.t24,
                  "v23": args.v23, "v24": args.v24, "v34": args.v34,
                  "a4_v44": point.a4_v44}
    inputs["orders"] = [orders.n12, orders.n23, orders.n34, orders.n14]
    return orders, system, inputs


def _tolerance(args) -> float:
    """The --tol value, which must be finite and >= 0."""
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    return args.tol


def _add_chart_flags(parser):
    parser.add_argument("--orders", required=True,
                        help="finite edge orders n12,n23,n34,n14 (all >= 3)")
    parser.add_argument("--chart", choices=list(_CHART_FLAGS), default="general")
    for flag in _COORDINATE_FLAGS:
        parser.add_argument(f"--{flag}", type=float, default=None)


def _relation_residuals(report) -> dict:
    return {
        "involutions": {str(i): r for i, r in report.involution_residuals.items()},
        "finite_pairs": {_cycle_key(p): r for p, r in
                         report.finite_pair_residuals.items()},
    }


def cmd_relations(args) -> int:
    tol = _tolerance(args)
    orders, system, inputs = _build_system(args)
    relation_report = certify.verify_relations(system, orders, tol)
    vinberg_report = cartan.check_vinberg(system, orders.to_edge_orders())
    ok = relation_report.passed and vinberg_report.passed
    _emit({
        "command": "relations",
        "inputs": inputs,
        "results": {
            "relations_passed": relation_report.passed,
            "vinberg_passed": vinberg_report.passed,
            "infinite_pair_products": {
                _cycle_key(p): v
                for p, v in relation_report.infinite_pair_products.items()},
        },
        "residuals": _relation_residuals(relation_report),
        "verdicts": {"pass": ok},
        "seed": None,
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_vinberg(args) -> int:
    tol = _tolerance(args)
    orders, system, inputs = _build_system(args)
    report = cartan.check_vinberg(system, orders.to_edge_orders(), tol)
    _emit({
        "command": "vinberg",
        "inputs": inputs,
        "results": {name: {"passed": c.passed,
                           "failures": [list(p) for p in c.failures]}
                    for name, c in report.conditions.items()},
        "residuals": {name: c.residual for name, c in report.conditions.items()},
        "verdicts": {"pass": report.passed},
        "seed": None,
    })
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_cocompact(args) -> int:
    orders, system, inputs = _build_system(args)
    m = cartan.cartan_of(system)
    t13 = float(m[0, 2] * m[2, 0])
    t24 = float(m[1, 3] * m[3, 1])
    verdict = certify.is_convex_cocompact(m, orders)
    _emit({
        "command": "cocompact",
        "inputs": inputs,
        "results": {"T13": t13, "T24": t24},
        "residuals": {},
        "verdicts": {"convex_cocompact": verdict},
        "seed": None,
    })
    return EXIT_OK


def cmd_invariants(args) -> int:
    tol = _tolerance(args)
    orders, system, inputs = _build_system(args)
    m = cartan.cartan_of(system)
    invariants = cartan.cyclic_invariants(m)
    identities = cartan.derived_invariant_identities(invariants, orders, tol)
    _emit({
        "command": "invariants",
        "inputs": inputs,
        "results": {_cycle_key(c): v for c, v in sorted(invariants.values.items())},
        "residuals": {_cycle_key(c): r for c, r in sorted(identities.residuals.items())},
        "verdicts": {"identities_pass": identities.passed},
        "seed": None,
    })
    return EXIT_OK if identities.passed else EXIT_CHECK_FAILED


def cmd_orbifold(args) -> int:
    cones = tuple(int(x) for x in args.cones.split(",")) if args.cones else ()
    corners = tuple(int(x) for x in args.corners.split(",")) if args.corners else ()
    sig = orbifold.OrbifoldSignature(args.chi_underlying, cones, corners,
                                     args.boundary)
    chi = orbifold.euler_characteristic(sig)
    results = {"chi": f"{chi.numerator}/{chi.denominator}",
               "chi_float": float(chi)}
    if chi < 0:
        results["teichmuller_dim"] = orbifold.teichmuller_dim(sig)
        results["d_tp"] = orbifold.d_tp(sig)
        if sig.full_boundary_count == 0:
            results["cg05_dim"] = orbifold.cg05_dim(sig)
    _emit({
        "command": "orbifold",
        "inputs": {"chi_underlying": args.chi_underlying,
                   "cones": list(cones), "corners": list(corners),
                   "boundary": args.boundary},
        "results": results,
        "residuals": {},
        "verdicts": {"hyperbolic": bool(chi < 0)},
        "seed": None,
    })
    return EXIT_OK


def cmd_scan(args) -> int:
    orders = _parse_orders(args.orders)
    box = _parse_box(args.box)
    report = certify.standard_scan(orders, args.t13, args.t24, args.samples,
                                   args.seed, box,
                                   keep_records=args.out == "csv")
    if args.out == "csv":
        stream = open(args.file, "w", newline="") if args.file else sys.stdout
        try:
            writer = csv.writer(stream)
            writer.writerow(["v23", "v24", "v34", "a4v44", "det_M",
                             "T13_prod", "T24_prod"])
            rec = report.records
            for k in range(rec["a4v44"].shape[0]):
                writer.writerow([repr(float(rec[c][k])) for c in
                                 ("v23", "v24", "v34", "a4v44", "det_M",
                                  "T13_prod", "T24_prod")])
        finally:
            if args.file:
                stream.close()
    else:
        _emit({
            "command": "scan",
            "inputs": {"orders": [orders.n12, orders.n23, orders.n34, orders.n14],
                       "t13": args.t13, "t24": args.t24,
                       "samples": args.samples, "box": list(box)},
            "results": report.summary,
            "residuals": {},
            "verdicts": {},
            "seed": args.seed,
        })
    return EXIT_OK


def cmd_simplex(args) -> int:
    tol = _tolerance(args)
    n = args.n
    pairs = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
    values = [int(x) for x in args.simplex_orders.split(",")]
    if len(values) != len(pairs):
        raise ValueError(f"--simplex-orders expects {len(pairs)} entries "
                         f"(upper triangle of an {n + 1}-sided table)")
    table = orbifold.EdgeOrders(n + 1, dict(zip(pairs, values)))
    free_pairs = [(i, j) for (i, j) in pairs if i >= 2 and table.order(i, j) >= 3]
    if args.free:
        free_values = [float(x) for x in args.free.split(",")]
        if len(free_values) != len(free_pairs):
            raise ValueError(f"--free expects {len(free_pairs)} entries")
    else:
        free_values = [-1.0] * len(free_pairs)
    params = charts.SimplexChartParams(n, table, dict(zip(free_pairs, free_values)))
    system = charts.build_simplex(params)
    report = certify.verify_relations(system, table, tol)
    _emit({
        "command": "simplex",
        "inputs": {"n": n, "orders": values,
                   "free": {_cycle_key(p): v for p, v in
                            zip(free_pairs, free_values)}},
        "results": {"parameter_count": params.parameter_count,
                    "relations_passed": report.passed},
        "residuals": _relation_residuals(report),
        "verdicts": {"pass": report.passed},
        "seed": None,
    })
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Reads negative numbers in scientific notation, such as
    ``--v23 -1e-3``, as values; argparse itself takes them for flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+|\d*\.\d+)$|^-(?:\d+\.?\d*|\.\d+)[eE][-+]?\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projcox",
        description="Deformation charts of the quadrilateral-prism Coxeter "
                    "orbifold: relation checks, Vinberg conditions, cyclic "
                    "invariants, cocompactness, and parameter scans.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("relations", help="verify Coxeter relations and Vinberg conditions")
    _add_chart_flags(p)
    p.add_argument("--tol", type=float, default=certify.RELATION_TOL)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("vinberg", help="report Vinberg's conditions (C1)-(C5)")
    _add_chart_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_vinberg)

    p = sub.add_parser("cocompact", help="decide convex cocompactness")
    _add_chart_flags(p)
    p.set_defaults(func=cmd_cocompact)

    p = sub.add_parser("invariants", help="cyclic invariants and identity residuals")
    _add_chart_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("orbifold", help="Euler characteristic and dimension counts")
    p.add_argument("--chi-underlying", type=int, default=1, dest="chi_underlying")
    p.add_argument("--cones", default="", help="cone-point orders, comma-separated")
    p.add_argument("--corners", default="", help="corner-reflector orders, comma-separated")
    p.add_argument("--boundary", type=int, default=0,
                   help="number of full boundary components")
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("scan", help="Monte-Carlo scan of a4*v44 at fixed (T13, T24)")
    p.add_argument("--orders", required=True)
    p.add_argument("--t13", type=float, required=True)
    p.add_argument("--t24", type=float, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", default="-10,-0.01", help="bounds lo,hi for v23, v24, v34")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--file", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simplex", help="n-simplex chart relation check")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--simplex-orders", required=True, dest="simplex_orders",
                   help="orders of the upper-triangle pairs, row-major")
    p.add_argument("--free", default=None, help="free v_ij values (default all -1)")
    p.add_argument("--tol", type=float, default=certify.RELATION_TOL)
    p.set_defaults(func=cmd_simplex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProjCoxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
