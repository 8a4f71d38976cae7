"""Command-line pipeline: validate, tree, barcode, distance, unroll,
count-shadows, bounds.

Outputs are machine-readable (JSON, CSV, or DOT) and byte-deterministic for
identical inputs and flags.  Exit codes: 0 success, 1 input or usage error,
2 enumeration budget exceeded; every error is one `error:` line on stderr.
`main` may be called any number of times in one process: it builds its
parser once, and the writers lay their record templates out once.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain

from . import barcode as bc
from . import mergetree as mt
from . import jsonfmt, pgraph, transport
from .jsonfmt import HOLE
from .lattice import (BudgetExceeded, DEFAULT_ENUMERATION_BUDGET, IntMatrix,
                      count_cosets_in_ball, unit_ball_volume)
from .pgraph import GraphError


def _jchunks(chunks):
    """A writer's document chunks, ending with one newline."""
    return chain(chunks, ("\n",))


def _emit(chunks, out: str | None):
    """Write text chunks, in order, to the file `out` or else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _fin(x: float) -> str:
    """The JSON text of a distance: a float, or the string "inf"."""
    return '"inf"' if math.isinf(x) else float.__repr__(x)


def finite(text: str) -> float:
    """Option type of a finite float (argparse: 'invalid finite value')."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def parse_sublattice(spec: str, dim: int) -> IntMatrix:
    """Semicolon-separated rows of comma-separated integers; square, nonsingular."""
    rows = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append([int(tok) for tok in chunk.split(",")])
    m = IntMatrix.from_rows(rows)
    if m.rows != dim or m.cols != dim:
        raise GraphError(f"sublattice must be {dim}x{dim}")
    if m.det() == 0:
        raise GraphError("sublattice matrix is singular")
    return m


def cmd_validate(args) -> int:
    g = pgraph.parse(args.input)
    d = pgraph.max_shift_magnitude(g)
    conn = "connected" if g.is_connected() else "disconnected"
    _emit((f"n={g.n} m={g.m} D={d} {conn}\n",), args.out)
    return 0


def cmd_tree(args) -> int:
    tree = mt.build(pgraph.parse(args.input))   # the graph is dropped before writing
    if args.fmt == "dot":
        _emit((tree.to_dot(),), args.out)
    else:
        _emit(_jchunks(tree.json_chunks()), args.out)
    return 0


def cmd_barcode(args) -> int:
    code = bc.extract(mt.build(pgraph.parse(args.input)))
    if args.fmt == "csv":
        _emit((bc.to_csv(code),), args.out)
    else:
        _emit(_jchunks(bc.json_chunks(code)), args.out)
    return 0


def cmd_distance(args) -> int:
    ga = pgraph.parse(args.a)
    gb = pgraph.parse(args.b)
    ba = bc.extract(mt.build(ga))
    bb = bc.extract(mt.build(gb))
    total, eras = transport.barcode_distance(ba, bb, per_era=True)
    era = jsonfmt.template({"distance": HOLE, "exp": HOLE}, 2)
    _emit(_jchunks(jsonfmt.chunks(
        {"per_era": HOLE, "total": HOLE},
        jsonfmt.items((era % (_fin(v), i) for i, v in enumerate(eras)), 1), _fin(total))),
        args.out)
    return 0


def cmd_unroll(args) -> int:
    g = pgraph.parse(args.input)
    s = parse_sublattice(args.sublattice, g.dim)
    _emit(_jchunks(pgraph.json_chunks(pgraph.unroll(g, s))), args.out)
    return 0


def cmd_count_shadows(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("PERIMERE_BUDGET")
        budget = int(env) if env else DEFAULT_ENUMERATION_BUDGET
    if not 0 < budget <= 10**8:
        raise ValueError("budget must be in (0, 1e8]")
    if args.radius <= 0:
        raise ValueError("radius must be positive")
    g = pgraph.parse(args.input)
    tree = mt.build(g)
    t = args.component_at
    row = jsonfmt.template({"beam": HOLE, "birth_vertex": HOLE, "coeff": HOLE, "counted": HOLE,
                            "exp": HOLE, "predicted": HOLE}, 2)
    rows = []
    for b in tree.beams:
        active = tree.monomial(b, t)
        if active is not None:
            coeff, exp, basis = active
            try:
                predicted = coeff * unit_ball_volume(exp) * args.radius ** exp
            except OverflowError:
                predicted = math.inf
            if math.isinf(predicted):
                raise OverflowError("predicted count out of float range")
            counted = count_cosets_in_ball(g.basis, basis, args.radius, budget)
            rows.append(row % (b, tree.birth_vertex[b].item(), float.__repr__(coeff), counted,
                               exp, float.__repr__(predicted)))
    at, radius = jsonfmt.floats([t, args.radius])
    _emit(_jchunks(jsonfmt.chunks({"at": HOLE, "components": HOLE, "radius": HOLE},
                                  at, jsonfmt.items(rows, 1), radius)), args.out)
    return 0


def cmd_bounds(args) -> int:
    g = pgraph.parse(args.input)
    mu0 = transport.multiplicity_bound(g)
    constant = 2 * (g.dim + 1) * mu0
    if constant == math.inf:
        raise OverflowError("stability constant out of float range")
    norm, bound, constant = jsonfmt.floats([g.basis.inverse_norm, mu0, constant])
    doc = jsonfmt.template({"D": HOLE, "inverse_norm": HOLE, "m": HOLE, "mu0": HOLE, "n": HOLE,
                            "stability_constant": HOLE}, 0)
    _emit((doc % (pgraph.max_shift_magnitude(g), norm, g.m, bound, g.n, constant), "\n"), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of printing usage and exiting 2 (the budget
    code), so `main` reports them as one `error:` line with exit 1;
    sub-parsers are created with this class too."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and kept for the
    process: `parse_args` keeps no state between calls, and building it
    costs about ten times what parsing with it does."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = _Parser(prog="perimere",
                description="Periodic merge trees, 0-th barcodes, and barcode distances")
    sub = p.add_subparsers(dest="command", required=True)

    def add_fmt(sp, *kinds):
        grp = sp.add_mutually_exclusive_group()
        for k in kinds:
            grp.add_argument(f"--{k}", dest="fmt", action="store_const", const=k)

    sp = sub.add_parser("validate", parents=[common],
                        help="parse a graph and report n, m, D, connectivity")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("tree", parents=[common],
                        help="build and serialize the periodic merge tree")
    sp.add_argument("input")
    add_fmt(sp, "json", "dot")
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("barcode", parents=[common],
                        help="extract the periodic 0-th barcode")
    sp.add_argument("input")
    add_fmt(sp, "json", "csv")
    sp.set_defaults(func=cmd_barcode)

    sp = sub.add_parser("distance", parents=[common],
                        help="alternating 1-Wasserstein distance between two graphs' barcodes")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("unroll", parents=[common],
                        help="rewrite the quotient over a sublattice")
    sp.add_argument("input")
    sp.add_argument("--sublattice", required=True,
                    help="integer rows 'r1;r2;...' e.g. '2,0;0,1'")
    sp.set_defaults(func=cmd_unroll)

    sp = sub.add_parser("count-shadows", parents=[common],
                        help="empirical shadow count vs the monomial prediction")
    sp.add_argument("input")
    sp.add_argument("--component-at", type=finite, required=True, dest="component_at")
    sp.add_argument("--radius", type=finite, required=True)
    sp.add_argument("--budget", type=int, default=None,
                    help="enumeration point budget in (0, 1e8] (default: env PERIMERE_BUDGET, else 1e8)")
    sp.set_defaults(func=cmd_count_shadows)

    sp = sub.add_parser("bounds", parents=[common],
                        help="report D, the multiplicity bound, and the stability constant")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_bounds)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        what = "number out of range: " if isinstance(exc, OverflowError) else ""
        print(f"error: {what}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
