"""Periodic 0-th barcodes: extraction from merge trees, comparison, emitters.

Every epoch of a beam contributes at most two bars to the era matching its
monomial exponent: one positive bar from the beam's birth to the epoch's
end, one negative bar from the beam's birth to the epoch's start.  Empty
bars are skipped, equal bars have their signed multiplicities summed, and
exact cancellations (e.g. from zero-width epochs at tied heights) drop out.

A barcode is held as columns, each row once: `bars` is one record array of
exp, birth, death (inf for an essential bar) and mult, its rows strictly
increasing in (birth, death, exp), the CSV row order; `eras[e]` selects the
rows of era e on access, so `len(eras[e])` is the era's bar count.
"""
from __future__ import annotations

import math

import numpy as np

from . import jsonfmt
from .jsonfmt import HOLE
from .mergetree import TOL, PeriodicMergeTree

BAR_ROW = np.dtype([("exp", np.int64), ("birth", float), ("death", float), ("mult", float)])


class PeriodicBarcode:
    """d+1 era barcodes, indexed by monomial exponent 0..d.

    `bars` are (exp, birth, death, mult) rows, one per distinct bar, strictly
    increasing in (birth, death, exp) as `extract` makes them, or a ValueError.
    """

    __slots__ = ("dim", "bars")

    def __init__(self, dim: int, bars):
        self.dim = dim
        self.bars = np.asarray(bars, dtype=BAR_ROW)
        exp, birth, death = self.bars["exp"], self.bars["birth"], self.bars["death"]
        if len(exp) and not 0 <= exp.min() <= exp.max() <= dim:
            raise ValueError("bar exponent outside 0..d")
        same_birth = birth[1:] == birth[:-1]
        same_death = death[1:] == death[:-1]
        if not ((birth[1:] > birth[:-1]) | same_birth & (death[1:] > death[:-1])
                | same_birth & same_death & (exp[1:] > exp[:-1])).all():
            raise ValueError("bars must be strictly increasing in (birth, death, exp)")

    @property
    def eras(self) -> tuple:
        """Per era e, a copy of the rows of `bars` with exp e, made on each access."""
        return tuple(self.bars[self.bars["exp"] == e] for e in range(self.dim + 1))

    def era_function(self, exp: int) -> dict:
        """Multiplicity function of one era: {(birth, death): mult}."""
        era = self.bars[self.bars["exp"] == exp]
        return dict(zip(zip(era["birth"].tolist(), era["death"].tolist()), era["mult"].tolist()))


def extract(tree: PeriodicMergeTree) -> PeriodicBarcode:
    """Periodic 0-th barcode of a periodic merge tree.

    The tree's epoch columns (start, end, their lattice's coeff and exp, and
    their beam's birth) give the signed contributions, which one stable
    lexsort orders by (birth, death, exp); a key met once keeps its value as
    its mult, a repeated key sums its values with `math.fsum`, and zero
    mults drop out.
    """
    start, end = tree.start, tree.epoch_ends()
    birth = np.repeat(tree.birth, np.diff(tree.offsets))
    # the spans (epochs of nonzero width), each giving its + and - contribution
    # in turn, in the order of the beams and their epochs
    span = end > start
    lattice = tree.lattice[span]
    coeff = tree.coeffs[lattice]
    death = np.stack((end[span], start[span]), axis=1).ravel()
    value = np.stack((coeff, -coeff), axis=1).ravel()
    birth = np.repeat(birth[span], 2)
    exp = np.repeat(tree.exps()[lattice], 2)
    keep = death > birth
    order = np.flatnonzero(keep)[np.lexsort((exp[keep], death[keep], birth[keep]))]
    birth, death, exp, value = birth[order], death[order], exp[order], value[order]

    n = len(order)
    first = np.ones(n, dtype=bool)
    first[1:] = (birth[1:] != birth[:-1]) | (death[1:] != death[:-1]) | (exp[1:] != exp[:-1])
    lo = np.flatnonzero(first)
    size = np.diff(lo, append=n)
    mult = value[lo]
    rep = np.flatnonzero(size > 1)
    if len(rep):
        mult[rep] = [math.fsum(value[a:a + k].tolist())
                     for a, k in zip(lo[rep].tolist(), size[rep].tolist())]
    nonzero = mult != 0.0
    lo = lo[nonzero]
    bars = np.empty(len(lo), dtype=BAR_ROW)
    bars["exp"], bars["birth"], bars["death"] = exp[lo], birth[lo], death[lo]
    bars["mult"] = mult[nonzero]
    return PeriodicBarcode(tree.dim, bars)


def equals(b1: PeriodicBarcode, b2: PeriodicBarcode) -> bool:
    """Era-wise equality: births/deaths exact, multiplicities within TOL, in
    one pass over the rows, which are in one strict order in both."""
    if b1.dim != b2.dim:
        raise ValueError("dimension mismatch")
    r1, r2 = b1.bars, b2.bars
    return (len(r1) == len(r2) and all(np.array_equal(r1[c], r2[c])
                                       for c in ("exp", "birth", "death"))
            and not np.any(np.abs(r1["mult"] - r2["mult"]) > TOL))


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
                    {"birth": birth, "death": None if math.isinf(death) else death, "mult": mult}
                    for _, birth, death, mult in era.tolist()
                ],
            }
            for exp, era in enumerate(bc.eras)
        ],
    }


_BAR = {"birth": HOLE, "death": HOLE, "mult": HOLE}


def json_chunks(bc: PeriodicBarcode):
    """Chunks of `jsonfmt.dumps(to_json_dict(bc))`, one template fill per bar.

    An era's bar texts are made one block of rows at a time
    (`jsonfmt.blocks`), as `jsonfmt.items` joins them, so the writer holds
    one block's texts and the positions of one era's rows."""
    bar = jsonfmt.template(_BAR, 4)

    def bars(exp):   # the texts of era exp's bars
        rows = np.flatnonzero(bc.bars["exp"] == exp)
        for a, z in jsonfmt.blocks(len(rows)):
            era = bc.bars[rows[a:z]]
            yield from map(bar.__mod__, zip(
                jsonfmt.floats(era["birth"].tolist()),
                jsonfmt.floats([None if math.isinf(x) else x for x in era["death"].tolist()]),
                jsonfmt.floats(era["mult"].tolist())))
    return jsonfmt.chunks(
        {"dim": bc.dim, "eras": [{"bars": HOLE, "exp": exp} for exp in range(bc.dim + 1)]},
        *(jsonfmt.items(bars(exp), 3) for exp in range(bc.dim + 1)))


def to_csv(bc: PeriodicBarcode) -> str:
    """Rows era,birth,death,mult in the canonical (birth, death, era) order,
    which is the order of `bc.bars`; `repr` writes an essential death as inf."""
    return "era,birth,death,mult\n" + "".join(map("%d,%r,%r,%r\n".__mod__, bc.bars.tolist()))
