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

from . import cartan, certify, charts, linalg, orbifold
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


def _keyed(values: dict) -> dict:
    """The values with their index-tuple keys written as "i-j-k"."""
    return {"-".join(str(i) for i in key): v for key, v in values.items()}


#: coordinate flags of the chart subcommands, and the ones each chart reads
_COORDINATE_FLAGS = ("t13", "t24", "v23", "v24", "v34", "v12", "v14", "v44")
_CHART_FLAGS = {
    "general": ("t13", "t24", "v23", "v24", "v34"),
    "concurrent": ("v12", "v23", "v14", "v34", "v44"),
    "standard": ("t13", "t24", "v23", "v24", "v34"),
}


def _build_system(args):
    """Chart point, reflection system and JSON inputs from the chart
    flags.  Every flag the chart reads must be given (v44 defaults to 0)
    and no other coordinate flag may be."""
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
    orders = _parse_orders(args.orders)
    coords = {n: getattr(args, n) for n in used}
    if args.chart == "general":
        system = charts.build_general(charts.GeneralChartParams(orders, **coords))
    elif args.chart == "concurrent":
        if coords["v44"] is None:
            coords["v44"] = 0.0
        system = charts.build_concurrent(charts.ConcurrentChartParams(orders, **coords))
    else:
        point = charts.build_standard(orders, **coords)
        system = charts.realize_representation(point, a4=1.0)
        coords["a4_v44"] = point.a4_v44
    inputs = {"chart": args.chart, **coords,
              "orders": [orders.n12, orders.n23, orders.n34, orders.n14]}
    return orders, system, inputs


def _relation_residuals(report) -> dict:
    return {
        "involutions": {str(i): r for i, r in report.involution_residuals.items()},
        "finite_pairs": _keyed(report.finite_pair_residuals),
    }


# Each cmd_* returns (inputs, results, residuals, verdicts, ok) for main
# to print as one JSON object; ok False means a check failed.


def cmd_relations(args):
    orders, system, inputs = _build_system(args)
    report = certify.verify_relations(system, orders, args.tol)
    vinberg_passed = cartan.check_vinberg(system, orders).passed
    ok = report.passed and vinberg_passed
    results = {"relations_passed": report.passed, "vinberg_passed": vinberg_passed,
               "infinite_pair_products": _keyed(report.infinite_pair_products)}
    return inputs, results, _relation_residuals(report), {"pass": ok}, ok


def cmd_vinberg(args):
    orders, system, inputs = _build_system(args)
    report = cartan.check_vinberg(system, orders, args.tol)
    conditions = report.conditions.items()
    results = {name: {"passed": c.passed, "failures": [list(p) for p in c.failures]}
               for name, c in conditions}
    residuals = {name: c.residual for name, c in conditions}
    return inputs, results, residuals, {"pass": report.passed}, report.passed


def cmd_cocompact(args):
    orders, system, inputs = _build_system(args)
    m = cartan.cartan_of(system)
    return (inputs, {"T13": m[0][2] * m[2][0], "T24": m[1][3] * m[3][1]}, {},
            {"convex_cocompact": certify.is_convex_cocompact(m, orders)}, True)


def cmd_invariants(args):
    orders, system, inputs = _build_system(args)
    invariants = cartan.cyclic_invariants(cartan.cartan_of(system))
    identities = cartan.derived_invariant_identities(invariants, orders, args.tol)
    return (inputs, _keyed(invariants), _keyed(identities.residuals),
            {"identities_pass": identities.passed}, identities.passed)


def cmd_orbifold(args):
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
    inputs = {"chi_underlying": args.chi_underlying, "cones": list(cones),
              "corners": list(corners), "boundary": args.boundary}
    return inputs, results, {}, {"hyperbolic": bool(chi < 0)}, True


def cmd_scan(args):
    """The JSON envelope's parts, or None once the CSV is written."""
    orders = _parse_orders(args.orders)
    box = _parse_box(args.box)
    report = certify.standard_scan(orders, args.t13, args.t24, args.samples,
                                   args.seed, box,
                                   keep_records=args.out == "csv")
    if args.out == "json":
        inputs = {"orders": [orders.n12, orders.n23, orders.n34, orders.n14],
                  "t13": args.t13, "t24": args.t24,
                  "samples": args.samples, "box": list(box)}
        return inputs, report.summary, {}, {}, True
    columns = ("v23", "v24", "v34", "a4v44", "det_M", "T13_prod", "T24_prod")
    stream = open(args.file, "w", newline="") if args.file else sys.stdout
    try:
        writer = csv.writer(stream)
        writer.writerow(columns)
        for row in zip(*(report.records[c] for c in columns)):
            writer.writerow([repr(float(x)) for x in row])
    finally:
        if args.file:
            stream.close()
    return None


def cmd_simplex(args):
    n = args.n
    pairs = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
    values = [int(x) for x in args.simplex_orders.split(",")]
    if len(values) != len(pairs):
        raise ValueError(f"--simplex-orders expects {len(pairs)} entries "
                         f"(upper triangle of the order table of {n + 1} sides)")
    table = orbifold.EdgeOrders(n + 1, dict(zip(pairs, values)))
    free_pairs = [(i, j) for (i, j) in pairs if i >= 2 and table.order(i, j) >= 3]
    if args.free:
        free_values = [float(x) for x in args.free.split(",")]
        if len(free_values) != len(free_pairs):
            raise ValueError(f"--free expects {len(free_pairs)} entries")
    else:
        free_values = [-1.0] * len(free_pairs)
    params = charts.SimplexChartParams(n, table, dict(zip(free_pairs, free_values)))
    report = certify.verify_relations(charts.build_simplex(params), table, args.tol)
    inputs = {"n": n, "orders": values, "free": _keyed(params.free)}
    results = {"parameter_count": params.parameter_count,
               "relations_passed": report.passed}
    return inputs, results, _relation_residuals(report), {"pass": report.passed}, report.passed


class _Parser(argparse.ArgumentParser):
    """Reads any token that starts with a single ``-``, such as
    ``--v23 -1e-3``, ``--v23 -inf`` or ``--box -10,5``, as a value;
    argparse itself takes most of them for flags.  The one single-dash
    option, ``-h``, is matched as an option before this is asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


#: chart subcommands: handler, help and --tol default (None: no --tol)
_CHART_COMMANDS = {
    "relations": (cmd_relations, "verify Coxeter relations and Vinberg conditions",
                  certify.RELATION_TOL),
    "vinberg": (cmd_vinberg, "report Vinberg's conditions (C1)-(C5)", linalg.TOL_ALGEBRAIC),
    "cocompact": (cmd_cocompact, "decide convex cocompactness", None),
    "invariants": (cmd_invariants, "cyclic invariants and identity residuals",
                   linalg.TOL_ALGEBRAIC),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projcox",
        description="Deformation charts of the quadrilateral-prism Coxeter "
                    "orbifold: relation checks, Vinberg conditions, cyclic "
                    "invariants, cocompactness, and parameter scans.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, (func, help_text, tol) in _CHART_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--orders", required=True,
                       help="finite edge orders n12,n23,n34,n14 (all >= 3)")
        p.add_argument("--chart", choices=list(_CHART_FLAGS), default="general")
        for flag in _COORDINATE_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        p.set_defaults(func=func)

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
    args = build_parser().parse_args(argv)
    try:
        if "tol" in vars(args) and not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        envelope = args.func(args)
        if envelope is None:
            return EXIT_OK
        inputs, results, residuals, verdicts, ok = envelope
        document = {"command": args.subcommand, "inputs": inputs, "results": results,
                    "residuals": residuals, "verdicts": verdicts,
                    "seed": getattr(args, "seed", None)}
        try:
            text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            raise ValueError("a result is NaN or infinite and has no JSON form") from None
        sys.stdout.write(text + "\n")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except (ProjCoxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
