"""Command-line interface.

Every subcommand prints a single JSON object to stdout (the scan can
emit CSV instead).  Exit codes form a stable contract: 0 when all
checks pass, 1 when a check fails, 2 on invalid parameters.  Output is
byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

from . import cartan, certify, charts, linalg, orbifold
from .errors import ProjCoxError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: scan CSV rows written at a time, so that the floats and text of one
#: block, not of the whole scan, are alive at once
_CSV_BLOCK = 1024


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


def _keyed(values, name=None) -> dict:
    """Values keyed by index tuples written as "i-j-k": a dict's, or with
    a name the value of each of a verdict's checks of that name, keyed
    by its place."""
    items = values.items() if name is None else (
        (c.where, c.value) for c in values if c.name == name)
    return {"-".join(map(str, key)): v for key, v in items}


#: each chart's parameter record (the standard chart's that of the
#: general chart); its fields but the orders are the chart's flags
_CHART_PARAMS = {"general": charts.GeneralChartParams,
                 "concurrent": charts.ConcurrentChartParams,
                 "standard": charts.GeneralChartParams}
_CHART_FLAGS = {chart: params._fields[1:] for chart, params in _CHART_PARAMS.items()}
_COORDINATE_FLAGS = tuple(dict.fromkeys(sum(_CHART_FLAGS.values(), ())))


def _build_system(args):
    """Chart point, reflection system and JSON inputs from the chart
    flags.  Every flag the chart reads must be given, unless its field
    has a default, and no other coordinate flag may be."""
    used = _CHART_FLAGS[args.chart]
    stray = [n for n in _COORDINATE_FLAGS
             if n not in used and getattr(args, n) is not None]
    if stray:
        raise ValueError(f"flags not used by chart {args.chart!r}: "
                         + ", ".join(f"--{n}" for n in stray))
    defaults = _CHART_PARAMS[args.chart]._field_defaults
    coords = {n: defaults.get(n) if getattr(args, n) is None else getattr(args, n)
              for n in used}
    missing = [n for n, value in coords.items() if value is None]
    if missing:
        raise ValueError("missing flags for chart "
                         f"{args.chart!r}: " + ", ".join(f"--{n}" for n in missing))
    orders = _parse_orders(args.orders)
    if args.chart == "general":
        system = charts.build_general(charts.GeneralChartParams(orders, **coords))
    elif args.chart == "concurrent":
        system = charts.build_concurrent(charts.ConcurrentChartParams(orders, **coords))
    else:
        point = charts.build_standard(orders, **coords)
        system = charts.realize_representation(point, a4=1.0)
        coords["a4_v44"] = point.a4_v44
    inputs = {"chart": args.chart, **coords,
              "orders": [orders.n12, orders.n23, orders.n34, orders.n14]}
    return orders, system, inputs


# Each cmd_* returns (inputs, results, residuals, verdicts, ok) for main
# to print as one JSON object; ok False means a check failed.


def cmd_relations(args):
    orders, system, inputs = _build_system(args)
    report = certify.verify_relations(system, orders, args.tol)
    vinberg_passed = cartan.check_vinberg(system, orders).passed
    ok = report.passed and vinberg_passed
    results = {"relations_passed": report.passed, "vinberg_passed": vinberg_passed,
               "infinite_pair_products": _keyed(report, "infinite")}
    residuals = {"involutions": _keyed(report, "involution"),
                 "finite_pairs": _keyed(report, "finite")}
    return inputs, results, residuals, {"pass": ok}, ok


def cmd_vinberg(args):
    orders, system, inputs = _build_system(args)
    report = cartan.check_vinberg(system, orders, args.tol)
    results = {c.name: {"passed": c.passed, "failures": [list(p) for p in c.where]}
               for c in report}
    residuals = {c.name: c.value for c in report}
    return inputs, results, residuals, {"pass": report.passed}, report.passed


def cmd_cocompact(args):
    orders, system, inputs = _build_system(args)
    m = cartan.cartan_of(system)
    v = args.v12, args.v23, args.v14, args.v34   # rows can round a concurrent T > 4 to 4.0
    cocompact = (min(charts.concurrent_t_excess(orders, *v)) > 0.0 if args.chart == "concurrent"
                 else certify.is_convex_cocompact(m, orders))
    return (inputs, dict(zip(("T13", "T24"), cartan._t_products(m))), {},
            {"convex_cocompact": cocompact}, True)


def cmd_invariants(args):
    orders, system, inputs = _build_system(args)
    invariants = cartan.cyclic_invariants(cartan.cartan_of(system))
    identities = cartan.derived_invariant_identities(invariants, orders, args.tol)
    return (inputs, _keyed(invariants), _keyed(identities, "identity"),
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


def _csv_pieces(blocks, tail: str):
    """The CSV rows of the valid samples of a scan's blocks, _CSV_BLOCK a
    piece: reprs of v23, v24, v34, a4*v44 and det M = a4*v44 det3, then tail."""
    import numpy as np
    for _, coords, a4_v44, det3 in blocks:
        ok = np.isfinite(a4_v44)
        columns = (*coords, a4_v44, det3)
        if not ok.all():   # copy a block only where it drops a sample
            columns = [x[ok] for x in columns]
        v23, v24, v34, a4_v44, det3 = columns
        with np.errstate(over="ignore"):   # det_M may read +-inf
            columns = v23, v24, v34, a4_v44, a4_v44 * det3
        for lo in range(0, a4_v44.size, _CSV_BLOCK):
            rows = zip(*(map(repr, x[lo:lo + _CSV_BLOCK].tolist()) for x in columns))
            yield tail.join(map(",".join, rows)) + tail
        # free this block's arrays before the next block is drawn
        del coords, ok, columns, v23, v24, v34, a4_v44, det3


def cmd_scan(args):
    """The JSON envelope's parts, or None once the CSV is written: the
    header v23,v24,v34,a4v44,det_M,T13_prod,T24_prod, then one row per
    valid sample, each value its repr and each row ended by CRLF,
    written block by block as the scan solves them, with no summary.
    The destination is opened at the first valid sample."""
    if args.file is not None and args.out == "json":
        raise ValueError("flag not used by --out json: --file")
    orders = _parse_orders(args.orders)
    box = _parse_box(args.box)
    if args.out == "json":
        report = certify.standard_scan(orders, args.t13, args.t24, args.samples, args.seed, box)
        inputs = {"orders": [orders.n12, orders.n23, orders.n34, orders.n14],
                  "t13": args.t13, "t24": args.t24,
                  "samples": args.samples, "box": list(box)}
        return inputs, report.summary, {}, {}, True
    blocks = certify._scan_blocks(orders, args.t13, args.t24, args.samples, args.seed, box)
    # T13_prod and T24_prod, the same in every row, are each row's tail
    pieces = _csv_pieces(blocks, f",{args.t13!r},{args.t24!r}\r\n")
    first = next(pieces, None)
    certify._require_a_valid_sample(first is not None)
    with (contextlib.nullcontext(sys.stdout) if args.file is None
          else open(args.file, "w", newline="")) as stream:
        stream.write("v23,v24,v34,a4v44,det_M,T13_prod,T24_prod\r\n" + first)
        stream.writelines(pieces)
    return None


def cmd_simplex(args):
    n = args.n
    pairs = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
    values = [int(x) for x in args.simplex_orders.split(",")]
    if len(values) != len(pairs):
        raise ValueError(f"--simplex-orders expects {len(pairs)} entries "
                         f"(upper triangle of the order table of {n + 1} sides)")
    table = orbifold.EdgeOrders(n + 1, dict(zip(pairs, values)))
    free_pairs = charts._simplex_free_pairs(table)
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
    residuals = {"involutions": _keyed(report, "involution"),
                 "finite_pairs": _keyed(report, "finite")}
    return inputs, results, residuals, {"pass": report.passed}, report.passed


class _Parser(argparse.ArgumentParser):
    """Reads any token that starts with a single ``-``, such as
    ``--v23 -1e-3``, ``--v23 -inf`` or ``--box -10,5``, as a value;
    argparse itself takes most of them for flags.  The one single-dash
    option, ``-h``, is matched as an option before this is asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


#: chart subcommands: handler, help and whether it takes --tol
_CHART_COMMANDS = {
    "relations": (cmd_relations, "verify Coxeter relations and Vinberg conditions", True),
    "vinberg": (cmd_vinberg, "report Vinberg's conditions (C1)-(C5)", True),
    "cocompact": (cmd_cocompact, "decide convex cocompactness", False),
    "invariants": (cmd_invariants, "cyclic invariants and identity residuals", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projcox",
        description="Deformation charts of the quadrilateral-prism Coxeter "
                    "orbifold: relation checks, Vinberg conditions, cyclic "
                    "invariants, cocompactness, and parameter scans.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, (func, help_text, takes_tol) in _CHART_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--orders", required=True,
                       help="finite edge orders n12,n23,n34,n14 (all >= 3)")
        p.add_argument("--chart", choices=list(_CHART_FLAGS), default="general")
        for flag in _COORDINATE_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        if takes_tol:
            p.add_argument("--tol", type=float, default=linalg.TOL_ALGEBRAIC)
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
    p.add_argument("--box", default="{},{}".format(*certify.STANDARD_SCAN_BOX),
                   help="bounds lo,hi for v23, v24, v34")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--file", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simplex", help="n-simplex chart relation check")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--simplex-orders", required=True, dest="simplex_orders",
                   help="orders of the upper-triangle pairs, row-major")
    p.add_argument("--free", default=None, help="free v_ij values (default all -1)")
    p.add_argument("--tol", type=float, default=linalg.TOL_ALGEBRAIC)
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
    except (ProjCoxError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
