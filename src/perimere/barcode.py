"""Periodic 0-th barcodes: extraction from merge trees, canonical form, emitters.

Every epoch of a beam contributes at most two bars to the era matching its
monomial exponent: one positive bar from the beam's birth to the epoch's
end, one negative bar from the beam's birth to the epoch's start.  Empty
bars are skipped, equal bars have their signed multiplicities summed, and
exact cancellations (e.g. from zero-width epochs at tied heights) drop out.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

from . import jsonfmt
from .jsonfmt import HOLE
from .mergetree import TOL, PeriodicMergeTree


@dataclass(frozen=True, slots=True)
class Bar:
    birth: float
    death: float          # math.inf for essential bars
    mult: float           # signed, nonzero after canonicalization


class PeriodicBarcode:
    """d+1 era barcodes, indexed by monomial exponent 0..d."""

    __slots__ = ("dim", "eras")

    def __init__(self, dim: int, eras):
        self.dim = dim
        self.eras = tuple(tuple(e) for e in eras)
        if len(self.eras) != dim + 1:
            raise ValueError("need one era per exponent 0..d")

    def era_function(self, exp: int) -> dict:
        """Multiplicity function of one era: {(birth, death): mult}."""
        return {(b.birth, b.death): b.mult for b in self.eras[exp]}


def extract(tree: PeriodicMergeTree) -> PeriodicBarcode:
    """Periodic 0-th barcode of a periodic merge tree."""
    d = tree.dim
    contribs: dict = {}
    for beam in tree.beams:
        birth = beam.birth
        for start, end, coeff, exp, _ in beam.spans():
            if end > birth:
                contribs.setdefault((exp, birth, end), []).append(coeff)
            if start > birth:
                contribs.setdefault((exp, birth, start), []).append(-coeff)
    eras = [[] for _ in range(d + 1)]
    for (exp, birth, death) in sorted(contribs, key=lambda k: (k[1], k[2], k[0])):
        mult = math.fsum(sorted(contribs[(exp, birth, death)]))
        if mult != 0.0:
            eras[exp].append(Bar(birth, death, mult))
    return PeriodicBarcode(d, eras)


def equals(b1: PeriodicBarcode, b2: PeriodicBarcode) -> bool:
    """Era-wise equality: births/deaths exact, multiplicities within TOL."""
    if b1.dim != b2.dim:
        raise ValueError("dimension mismatch")
    for e1, e2 in zip(b1.eras, b2.eras):
        if len(e1) != len(e2):
            return False
        for a, b in zip(e1, e2):
            if a.birth != b.birth or a.death != b.death:
                return False
            if abs(a.mult - b.mult) > TOL:
                return False
    return True


def to_json_dict(bc: PeriodicBarcode) -> dict:
    """The reference dict form of `json_chunks`, which the CLI writes
    barcodes with; kept for the tests and the benchmark's tracer until
    ROADMAP item 1 step C."""
    return {
        "dim": bc.dim,
        "eras": [
            {
                "exp": exp,
                "bars": [
                    {
                        "birth": b.birth,
                        "death": None if math.isinf(b.death) else b.death,
                        "mult": b.mult,
                    }
                    for b in era
                ],
            }
            for exp, era in enumerate(bc.eras)
        ],
    }


_BAR = {"birth": HOLE, "death": HOLE, "mult": HOLE}


def json_chunks(bc: PeriodicBarcode):
    """Chunks of `jsonfmt.dumps(to_json_dict(bc))`, one template fill per bar."""
    bar = jsonfmt.template(_BAR, 4)
    return jsonfmt.chunks(
        {"dim": bc.dim, "eras": [{"bars": HOLE, "exp": exp} for exp in range(len(bc.eras))]},
        *(jsonfmt.items(map(bar.__mod__, zip(
            jsonfmt.floats([b.birth for b in era]),
            jsonfmt.floats([None if math.isinf(b.death) else b.death for b in era]),
            jsonfmt.floats([b.mult for b in era]))), 3)
          for era in bc.eras))


def to_csv(bc: PeriodicBarcode) -> str:
    """Rows era,birth,death,mult in the canonical (birth, death, era) order."""
    rows = []
    for exp, era in enumerate(bc.eras):
        for b in era:
            rows.append((b.birth, b.death, exp, b.mult))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = io.StringIO()
    out.write("era,birth,death,mult\n")
    for birth, death, exp, mult in rows:
        dtxt = "inf" if math.isinf(death) else repr(death)
        out.write(f"{exp},{birth!r},{dtxt},{mult!r}\n")
    return out.getvalue()
