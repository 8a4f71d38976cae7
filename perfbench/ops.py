"""The five operations a workload runs, and the checks on their outputs.

CLI operations go through `perimere.cli.main` in-process with `--out`; the
splinters check uses the library API.  Both are called as attributes of
their modules, so a tracer that rebinds those attributes sees the calls.
"""
from __future__ import annotations

import hashlib
import json
import math

import perimere as pm
from perimere import cli

SUBLATTICE = "2,0,0;0,2,0;0,0,2"   # det 8
OPS = ("barcode", "tree", "unroll", "splinters", "distance")


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"perimere {argv[0]} exited with {rc}")


def splinters_check(base: str, cover: str) -> bool:
    """Parse, build and extract both graphs; True iff the barcodes are equal
    and the cover's tree splinters onto the base tree."""
    g, gcov = pm.parse(base), pm.parse(cover)
    t, tc = pm.build(g), pm.build(gcov)
    if not pm.equals(pm.extract(t), pm.extract(tc)):
        return False
    return pm.splinters(tc, t)


def run(op: str, files: dict, out: str) -> None:
    """Run one operation on the workload's files; output goes to `out`."""
    if op == "barcode":
        _cli(["barcode", files["main"], "--csv", "--out", out])
    elif op == "tree":
        _cli(["tree", files["main"], "--json", "--out", out])
    elif op == "unroll":
        _cli(["unroll", files["unroll"], "--sublattice", SUBLATTICE, "--out", out])
    elif op == "distance":
        _cli(["distance", files["distance"], files["distance_twin"], "--out", out])
    elif op == "splinters":
        if not splinters_check(files["splinters"], files["splinters_cover"]):
            raise CheckFailed("splinters check returned False")
    else:
        raise ValueError(f"unknown operation {op}")


def digest(op: str, out: str) -> str | None:
    """sha256 of a CLI operation's output bytes (None for the library check)."""
    if op == "splinters":
        return None
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(op: str, files: dict, out: str) -> None:
    """Seed-independent invariants of one output; raises CheckFailed."""
    if op == "barcode":
        with open(out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        code = pm.extract(pm.build(pm.parse(files["main"])))
        bars = sum(len(era) for era in code.eras)
        if len(rows) != bars:
            raise CheckFailed(f"barcode CSV has {len(rows)} bars, extract gives {bars}")
    elif op == "tree":
        with open(out, encoding="utf-8") as fh:
            tree = json.load(fh)
        with open(files["main"], encoding="utf-8") as fh:
            n = len(json.load(fh)["vertices"])
        kinds = [ev["kind"] for ev in tree["events"]]
        roots = sum(1 for b in tree["beams"] if b["parent"] is None)
        if len(tree["beams"]) != n or kinds.count("appearance") != n \
                or kinds.count("merger") != n - roots:
            raise CheckFailed("tree JSON: beams, appearances or mergers do not match n")
    elif op == "unroll":
        g, u = pm.parse(files["unroll"]), pm.parse(out)
        if (u.n, u.m) != (8 * g.n, 8 * g.m):
            raise CheckFailed("unrolled graph does not have det 8 times the cells")
        if not pm.equals(pm.extract(pm.build(u)), pm.extract(pm.build(g))):
            raise CheckFailed("unrolled barcode differs from the original")
    elif op == "distance":
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        eras = [e["distance"] for e in doc["per_era"]]
        total = doc["total"]
        a, b = pm.parse(files["distance"]), pm.parse(files["distance_twin"])
        bound = 2 * (a.dim + 1) * pm.multiplicity_bound(a) * pm.cellular_l1(a, b)
        if not all(isinstance(x, float) and math.isfinite(x) for x in eras + [total]):
            raise CheckFailed("distance is not finite")
        if abs(total - math.fsum(eras)) > 1e-9 * max(1.0, total) or not 0 <= total <= bound:
            raise CheckFailed(f"distance {total} is not the era sum or exceeds its bound {bound}")
