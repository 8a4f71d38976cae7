"""Incremental periodic merge tree construction.

Cells of the quotient graph are processed in the total order (value,
vertices-before-edges, id).  A union-find with constant-time find, inlined
in `build`, carries per vertex its root and the drift vector of the
spanning-tree path from the component root, and per root the size; the
root's beam holds the elder key and the integer basis V of the periodicity
lattice (the real basis is U.V).  Each drift is packed into one Python int
(`pack`, digits of `drift_bits` bits), so a relabel is one int addition and
an edge's drift one int expression, unpacked only for a lattice step not
taken before.
Three event kinds drive the tree: appearances, mergers, and catenations.

The tree is held as columns, with no object per beam or epoch.  Beams are
numbered in elder order, (birth, birth_vertex), the order `build` makes
them in; per beam there are `birth`, `birth_vertex`, `death` (inf for a
root), `parent` (-1 for a root) and `merge_edge` (the edge of the merger
that ends a beam with a parent).  Epochs are beam-major, beam b's being
rows `offsets[b]:offsets[b + 1]` in increasing start, the first at its
birth; per epoch there are `start`, `catenation` (the epoch was opened by a
catenation of the edge `cell`) and `lattice`, its index in `lattices`, a
table of lattices (its order is not the tree's; `build`'s holds each
distinct lattice once).  A monomial's coefficient and exponent depend on the
lattice alone, so they are held once per table entry: `coeffs` per entry,
and the exponent d minus the entry's rank (`exps`); an epoch's `coeff` and
`exp` are gathered through `lattice`.
The event log is not stored: it is read as two sorted streams merged, the
appearances, which the beam numbering sorts, and the mergers and catenations,
sorted once per read (`_event_log`).  The spans and the child lists are
derived on demand.
"""
from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import accumulate, chain, groupby, islice, starmap, zip_longest
from json.encoder import encode_basestring_ascii

import numpy as np

from . import jsonfmt
from .jsonfmt import HOLE
from .lattice import SublatticeBasis, coefficient, hnf_insert, hnf_reduce, remainder, unit_ball_volume
from .pgraph import PeriodicGraph, max_shift_magnitude


@dataclass(frozen=True, slots=True)
class Event:
    """One critical event, derived from the columns (see PeriodicMergeTree.events)."""
    kind: str            # appearance | merger | catenation
    time: float
    cell: int            # vertex or edge id
    beams: tuple         # affected beam indices (survivor first)
    coeff: float | None = None
    exp: int | None = None
    basis: SublatticeBasis | None = None


class PeriodicMergeTree:
    """Beam and epoch columns (see the module docstring); the critical-event
    log is derived from them."""

    __slots__ = ("dim", "birth", "birth_vertex", "death", "parent", "merge_edge", "offsets",
                 "start", "catenation", "cell", "lattice", "lattices", "coeffs")

    def __init__(self, dim, *, birth, birth_vertex, death, parent, merge_edge,
                 offsets, start, catenation, cell, lattice, lattices, coeffs):
        self.dim = dim
        self.birth = np.asarray(birth, dtype=float)
        self.birth_vertex = np.asarray(birth_vertex, dtype=np.int64)
        self.death = np.asarray(death, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.merge_edge = np.asarray(merge_edge, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.catenation = np.asarray(catenation, dtype=bool)
        self.cell = np.asarray(cell, dtype=np.int64)
        self.lattice = np.asarray(lattice, dtype=np.int64)
        self.lattices = list(lattices)
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def beams(self) -> range:
        """The beam indices."""
        return range(len(self.birth))

    def exps(self) -> np.ndarray:
        """Per table entry, its monomial's exponent: d minus its rank."""
        return self.dim - np.array([len(lat.columns) for lat in self.lattices], dtype=np.int64)

    @property
    def coeff(self) -> np.ndarray:
        """Per epoch, its coefficient: `coeffs` gathered through `lattice`."""
        return self.coeffs[self.lattice]

    @property
    def exp(self) -> np.ndarray:
        """Per epoch, its exponent: `exps()` gathered through `lattice`."""
        return self.exps()[self.lattice]

    def roots(self) -> list:
        return np.flatnonzero(self.parent < 0).tolist()

    def epoch_ends(self) -> np.ndarray:
        """Per epoch, the height where it ends: the next epoch's start, or
        its beam's death after the beam's last epoch."""
        end = np.empty_like(self.start)
        end[:-1] = self.start[1:]
        end[self.offsets[1:] - 1] = self.death
        return end

    def monomial(self, b: int, t: float):
        """(coeff, exp, basis) of beam b's epoch active at height t; None
        when b is not alive at t."""
        if not self.birth[b] <= t < self.death[b]:
            return None
        lo, hi = self.offsets[b:b + 2].tolist()
        i = bisect_right(self.start, t, lo, hi) - 1   # its first epoch starts at the birth
        k = self.lattice[i]
        lat = self.lattices[k]
        return self.coeffs[k].item(), self.dim - lat.rank, lat

    def _edge_events(self) -> tuple:
        """(cat, row): the mergers and the catenations in build's processing
        order, which one lexsort by (time, edge id, merger first) gives; cat
        is False for the merger of beam `row` into its parent and True for
        the catenation that opens epoch `row`."""
        child = np.flatnonzero(self.parent >= 0)
        cats = np.flatnonzero(self.catenation)
        cat = np.repeat(np.array([False, True]), (len(child), len(cats)))
        order = np.lexsort((cat, np.concatenate((self.merge_edge[child], self.cell[cats])),
                            np.concatenate((self.death[child], self.start[cats]))))
        return cat[order], np.concatenate((child, cats))[order]

    def _edge_fields(self, cat, row) -> tuple:
        """(beam, cell) per event of a block of `_edge_events`: the survivor
        and the edge of a merger, the beam and the edge of a catenation."""
        merger = ~cat
        beam = np.searchsorted(self.offsets, row, side="right") - 1
        beam[merger] = self.parent[row[merger]]
        cell = self.cell[np.where(cat, row, 0)]
        cell[merger] = self.merge_edge[row[merger]]
        return beam, cell

    def _event_log(self, appearances, edge_events):
        """The items of the event log in build's processing order (value,
        vertices before edges, id; an edge's merger before its catenation),
        from two sorted streams: `appearances(a, z)` lists the items of the
        appearances of beams a:z, which their numbering in (birth,
        birth_vertex) order sorts, and `edge_events(cat, row, time)` those of
        a block of `_edge_events`.  An edge event follows the appearances at
        or below its height (vertices come before edges at one height), as
        many as a `searchsorted` of its time into `birth` counts.  The edge
        events are sorted when this is called; the items are made a block at
        a time as they are read."""
        cat, row = self._edge_events()

        def log():
            apps = chain.from_iterable(starmap(appearances, jsonfmt.blocks(len(self.birth))))
            done = 0   # the appearances yielded
            for a, z in jsonfmt.blocks(len(row)):
                c, r = cat[a:z], row[a:z]
                time = np.where(c, self.start[np.where(c, r, 0)], self.death[np.where(c, 0, r)])
                for k, item in zip(np.searchsorted(self.birth, time, side="right").tolist(),
                                   edge_events(c, r, time)):
                    if k > done:
                        yield from islice(apps, k - done)
                        done = k
                    yield item
            yield from apps

        return log()

    @property
    def events(self) -> list:
        """Appearance, merger and catenation events in build's processing order."""
        coeffs, exps, lattices = self.coeffs.tolist(), self.exps().tolist(), self.lattices

        def appearances(a, z):
            return [Event("appearance", t, c, (b,)) for b, t, c in
                    zip(range(a, z), self.birth[a:z].tolist(), self.birth_vertex[a:z].tolist())]

        def edge_events(cat, row, time):
            beam, cell = self._edge_fields(cat, row)
            entry = self.lattice[np.where(cat, row, 0)].tolist()
            return [Event("catenation", t, c, (b,), coeffs[e], exps[e], lattices[e])
                    if k else Event("merger", t, c, (b, r))
                    for k, r, t, b, c, e in zip(cat.tolist(), row.tolist(), time.tolist(),
                                                beam.tolist(), cell.tolist(), entry)]

        return list(self._event_log(appearances, edge_events))

    def to_json_dict(self) -> dict:
        """The reference dict form of `json_chunks`, which the CLI writes
        trees with; kept for the tests and the benchmark's tracer until
        ROADMAP item 1 step C."""
        start, coeff, exp = self.start.tolist(), self.coeff.tolist(), self.exp.tolist()
        offsets, lattice, lattices = self.offsets.tolist(), self.lattice.tolist(), self.lattices
        return {
            "dim": self.dim,
            "beams": [
                {
                    "index": b,
                    "birth": birth,
                    "birth_vertex": vertex,
                    "death": None if math.isinf(death) else death,
                    "parent": None if parent < 0 else parent,
                    "epochs": [
                        {
                            "start": start[i],
                            "coeff": coeff[i],
                            "exp": exp[i],
                            "display": monomial_display(coeff[i], exp[i]),
                            "lattice": [list(c) for c in lattices[lattice[i]].columns],
                        }
                        for i in range(offsets[b], offsets[b + 1])
                    ],
                }
                for b, (birth, vertex, death, parent) in enumerate(zip(
                    self.birth.tolist(), self.birth_vertex.tolist(), self.death.tolist(),
                    self.parent.tolist()))
            ],
            "events": [
                {
                    "kind": e.kind,
                    "time": e.time,
                    "cell": e.cell,
                    "beams": list(e.beams),
                    **({"coeff": e.coeff, "exp": e.exp} if e.kind == "catenation" else {}),
                }
                for e in self.events
            ],
        }

    def _heads(self) -> list:
        """Per table entry, the texts of the coeff, display, exp and lattice
        of the epochs on it: an epoch's monomial is its lattice's, so its
        lattice index names its head."""
        by_rank = [jsonfmt.template([[HOLE] * self.dim] * p, 5) for p in range(self.dim + 1)]
        coeffs, exps = self.coeffs.tolist(), self.exps().tolist()
        return [(text, encode_basestring_ascii(monomial_display(c, e)), e,
                 by_rank[lat.rank] % tuple(chain.from_iterable(lat.columns)))
                for text, c, e, lat in zip(jsonfmt.floats(coeffs), coeffs, exps, self.lattices)]

    def json_chunks(self):
        """Chunks of `jsonfmt.dumps(self.to_json_dict())`, one template fill
        per beam and per event; a beam of k epochs fills the beam template
        with k epochs inside.  The texts of an epoch's coeff, display, exp and
        lattice are written once per table entry (`_heads`), and the edge
        events are sorted, all before the first chunk, so writing the chunks
        raises nothing.

        The beams are written one block of rows at a time (`jsonfmt.blocks`),
        as `jsonfmt.items` joins them, and so are the events after them.  Each
        birth, death and later epoch start gets one text, in the beams pass:
        a beam's first epoch starts at its birth and reuses its text, and
        the texts an event's time reuses (the birth of an appearance, the
        death of a beam that merges, the start of the epoch a catenation
        opens) are kept for the events pass in three byte columns of width
        24, the longest `float.__repr__` of a double.  The columns are made
        once the edge events are sorted, so the two do not peak together.
        So the writer holds those texts, the sorted edge events and one
        block's texts at a time."""
        head, heads = self.lattice, self._heads()
        n = len(self.birth)
        by_count: dict = {}   # k -> the template of a beam of k epochs
        kinds = [jsonfmt.template(_EVENT_SHAPES[kind], 2)
                 for kind in ("appearance", "merger", "catenation")]

        def beam_texts():
            for a, z in jsonfmt.blocks(n):
                offsets = self.offsets[a:z + 1].tolist()
                lo, hi = offsets[0], offsets[-1]
                past = np.ones(hi - lo, dtype=bool)
                past[self.offsets[a:z] - lo] = False
                bts = jsonfmt.floats(self.birth[a:z].tolist())
                dts = jsonfmt.floats([None if math.isinf(x) else x for x in self.death[a:z].tolist()])
                sts = jsonfmt.floats(self.start[lo:hi][past].tolist())
                births[a:z], deaths[a:z], later[lo - a:hi - z] = bts, dts, sts
                starts = iter(sts)
                hs = head[lo:hi].tolist()
                rows = zip(range(a, z), offsets, offsets[1:], bts, self.birth_vertex[a:z].tolist(),
                           dts, self.parent[a:z].tolist())
                for b, i, j, birth, vertex, death, parent in rows:
                    fills = [*heads[hs[i - lo]], birth]
                    for e in range(i + 1 - lo, j - lo):
                        fills += heads[hs[e]]
                        fills.append(next(starts))
                    text = by_count.get(j - i)
                    if text is None:
                        text = by_count[j - i] = jsonfmt.template(
                            {**_BEAM, "epochs": [_EPOCH] * (j - i)}, 2)
                    yield text % (birth, vertex, death, *fills, b,
                                  "null" if parent < 0 else parent)

        def appearances(a, z):
            return list(map(kinds[0].__mod__, zip(range(a, z), self.birth_vertex[a:z].tolist(),
                                                  births[a:z].astype(str).tolist())))

        def edge_events(cat, row, time):
            beam, cell = self._edge_fields(cat, row)
            dts = iter(deaths[row[~cat]].astype(str).tolist())
            # a catenation's epoch row, less its beam's birth epochs and its
            # own, is its place among the later epochs
            sts = iter(later[row[cat] - beam[cat] - 1].astype(str).tolist())
            for k, b, r, c, h in zip(cat.tolist(), beam.tolist(), row.tolist(), cell.tolist(),
                                     head[np.where(cat, row, 0)].tolist()):
                if k:
                    coeff, _, exp, _ = heads[h]
                    yield kinds[2] % (b, c, coeff, exp, next(sts))
                else:
                    yield kinds[1] % (b, r, c, next(dts))

        events = self._event_log(appearances, edge_events)   # sorts the edge events
        births, deaths = np.empty(n, "S24"), np.empty(n, "S24")
        later = np.empty(len(self.start) - n, "S24")   # the epoch starts past the births
        return jsonfmt.chunks({"beams": HOLE, "dim": self.dim, "events": HOLE},
                              jsonfmt.items(beam_texts(), 1), jsonfmt.items(events, 1))

    def to_dot(self) -> str:
        lines = ["digraph mergetree {", "  rankdir=LR;"]
        start, coeff, exp = self.start.tolist(), self.coeff.tolist(), self.exp.tolist()
        offsets = self.offsets.tolist()
        for b, birth in enumerate(self.birth.tolist()):
            label = f"b{b} t={birth:g}\\n" + "\\n".join(
                f"{start[i]:g}: {monomial_display(coeff[i], exp[i])}"
                for i in range(offsets[b], offsets[b + 1]))
            lines.append(f'  n{b} [shape=box, label="{label}"];')
        for b, (parent, death) in enumerate(zip(self.parent.tolist(), self.death.tolist())):
            if parent >= 0:
                lines.append(f'  n{b} -> n{parent} [label="{death:g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


_EPOCH = {"coeff": HOLE, "display": HOLE, "exp": HOLE, "lattice": HOLE, "start": HOLE}
_BEAM = {"birth": HOLE, "birth_vertex": HOLE, "death": HOLE, "index": HOLE, "parent": HOLE}
_EVENT_SHAPES = {
    "appearance": {"beams": [HOLE], "cell": HOLE, "kind": "appearance", "time": HOLE},
    "merger": {"beams": [HOLE, HOLE], "cell": HOLE, "kind": "merger", "time": HOLE},
    "catenation": {"beams": [HOLE], "cell": HOLE, "coeff": HOLE, "exp": HOLE,
                   "kind": "catenation", "time": HOLE},
}


def monomial_display(coeff: float, exp: int) -> str:
    """Human form of the full monomial coeff * nu_exp * R^exp."""
    value = coeff * unit_ball_volume(exp)
    if exp == 0:
        return f"{value:.9g}"
    if exp == 1:
        return f"{value:.9g}R"
    return f"{value:.9g}R^{exp}"


def drift_bits(n: int, max_shift: int) -> int:
    """Digit width, in bits, of the packed drifts of a graph on n vertices
    whose shift entries are at most `max_shift` in absolute value.  A drift
    is a signed sum of at most n - 1 shifts along a spanning-tree path, and
    an edge's v of at most 2n - 1, so every coordinate is below
    2n * (max_shift + 1) <= 2^(bits - 1) in absolute value."""
    return (n * (max_shift + 1)).bit_length() + 2


def pack(vec, bits: int) -> int:
    """The Z^d vector `vec` as one int, sum of vec[k] * 2^(bits * k): base
    2^bits with balanced digits, exact for entries below 2^(bits - 1) in
    absolute value.  Packing is linear, so packed vectors add and negate
    as the vectors do, and a packed vector is 0 only when the vector is."""
    return sum(c << (bits * k) for k, c in enumerate(vec))


def unpack(packed: int, bits: int, d: int) -> tuple:
    """The d entries of `pack`'s int, as a tuple of ints."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = []
    for _ in range(d):
        c = ((packed + half) & mask) - half   # the low digit, in [-half, half)
        out.append(c)
        packed = (packed - c) >> bits
    return tuple(out)


def build(graph: PeriodicGraph) -> PeriodicMergeTree:
    """Construct the periodic merge tree of a quotient graph.

    Appearance: new beam with the zero periodicity lattice (coefficient
    1/vol_d, exponent d).  Loop edge: drift v = Drift(x) + Shift - Drift(y);
    no event when v lies in the current lattice, otherwise a catenation.
    Cross edge: merger under the elder rule; if the merged lattice strictly
    exceeds both inputs, a catenation happens at the same height.  A merger
    sets the dying beam's death, parent and merge edge; every epoch past
    the birth epochs is appended to one list in processing order, and one
    stable argsort by beam makes the epoch columns beam-major.  Lattices are
    interned by their HNF column tuples into the table `lattices`, the zero
    lattice first, and compared by index; a `SublatticeBasis` is made only
    for a new entry, each entry's coefficient is computed once, rounded once
    (`coefficient`, the tree's `coeffs`), and whether it is all of Z^d once,
    when it is interned.  A basis volume that is not a normal float, or a
    coefficient that is not finite, is a ValueError.

    Drifts and shifts are packed ints (`pack`) with digits wide enough for
    any sum of 2n shifts, so v is one int expression and `not v` its zero
    test.  Each entry of the graph's shift table is packed once, and an
    edge reads its packed shift by its table position.  The edges are
    walked one block at a time (`jsonfmt.blocks`), whose fields are made
    lists, never whole columns.  A union relabels the members of the
    smaller cyclic list, adding v (or -v) to their drifts, so each vertex is
    relabeled at most log2(n) times.

    A lattice step depends on table indices and packed drifts alone, so each
    distinct step is taken once per build: `step` maps a loop edge's
    (lattice index k, packed v) to the index after it, and `meet` a pair of
    indices to the index of their sum, each keyed by one int (`stride`
    exceeds every table index).  On a step missing from `step`, v is
    unpacked once and reduced along k's pivot rows (`remainder`); a zero
    remainder w means v is a member, and otherwise `hnf_insert` of w into
    k's columns gives the new lattice, working only from w's leading row
    down (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    section 2.4).  Only a sum missing from `meet` calls `hnf_reduce`.  On
    the `molecular` benchmark's main input, 1,343 of 1,516 loop-edge steps
    miss `step` and 1,171 of those call `hnf_insert`, while 99 of 116 sums
    miss `meet` and call `hnf_reduce`.
    """
    d = graph.dim
    u = graph.basis
    if not sys.float_info.min <= u.volume < math.inf:   # a subnormal has lost digits
        raise ValueError("basis volume out of float range")
    n = graph.n
    kind = np.arange(len(graph.ids)) >= n   # vertices before edges
    order = np.lexsort((graph.ids, kind, graph.values))
    # beams are made in (birth, birth_vertex) order, so a beam's index is its
    # elder key; a vertex makes no other change, and the filter property
    # guarantees both endpoints precede every edge, so only edges are walked
    vertices = order[order < n]
    beam_of = np.empty(n, dtype=np.int64)
    beam_of[vertices] = np.arange(n)
    beam_of = beam_of.tolist()   # per root slot, the beam of its component
    walk = order[order >= n]   # the edges' cell positions, in processing order

    lattices = [SublatticeBasis.empty(d)]   # the table
    index = {(): 0}   # HNF column tuple -> its table index
    fulls = [False]   # per table index: the lattice is all of Z^d

    def intern(columns: tuple, lat: SublatticeBasis | None = None) -> int:
        k = index.setdefault(columns, len(lattices))
        if k == len(lattices):   # a new entry: its basis is made here, once
            lat = lat or SublatticeBasis(d, columns)
            lattices.append(lat)
            fulls.append(lat.is_full)
        return k

    lattice = [0] * n   # per beam, the table index of its last epoch's lattice
    death, parent, merge_edge = [math.inf] * n, [-1] * n, [0] * n
    epochs = []   # past the birth epochs: (beam, start, catenation, cell, lattice)

    # union-find slots are vertex positions, as edge endpoints are; per
    # slot, its root, the next member of its component's cyclic list and its
    # packed drift from the root; per root slot, the component's size
    root, nxt, drift, size = list(range(n)), list(range(n)), [0] * n, [1] * n
    full = [False] * n   # per root slot, `fulls` of its component's lattice
    bits = drift_bits(n, max_shift_magnitude(graph))
    packed = [pack(t, bits) for t in graph.table]   # most graphs have few shifts

    # the lattice steps taken, each keyed by one int: k + stride * pv for a
    # loop edge's (index k, packed v), lo + stride * hi for a sum of indices
    # lo < hi; an edge adds at most one table entry, so no index reaches
    # stride, and distinct steps have distinct keys
    stride = len(graph.ids) + 1
    step, meet = {}, {}   # key -> the index the step leads to

    def edges(a, z):   # the endpoints, packed shift, value and id of edges a:z of the walk
        cells = walk[a:z]
        pos = cells - n
        return zip(graph.u[pos].tolist(), graph.v[pos].tolist(),
                   map(packed.__getitem__, graph.which[pos].tolist()),
                   graph.values[cells].tolist(), graph.ids[cells].tolist())

    for x, y, sh, t, eid in chain.from_iterable(starmap(edges, jsonfmt.blocks(len(walk)))):
        r, s = root[x], root[y]
        if r == s and full[r]:
            continue
        pv = drift[x] + sh - drift[y]   # v = Drift(x) + Shift - Drift(y), packed
        if r == s:
            if not pv:
                continue
            sb = beam_of[r]
            cur = lattice[sb]
            key = cur + stride * pv
            k = step.get(key)
            if k is None:   # a step not taken before: reduce v along the pivot rows
                cols = lattices[cur].columns
                w = remainder(cols, unpack(pv, bits, d))
                k = step[key] = intern(hnf_insert(cols, w)) if any(w) else cur
            if k == cur:   # v is a member
                continue
            full[r] = fulls[k]
            lattice[sb] = k
            epochs.append((sb, t, True, eid, k))
        else:
            br, bs = beam_of[r], beam_of[s]
            kr, ks = lattice[br], lattice[bs]
            if not kr or not ks or kr == ks:   # index 0 is the zero lattice
                merged = kr or ks
            else:
                lo, hi = (kr, ks) if kr < ks else (ks, kr)
                key = lo + stride * hi
                merged = meet.get(key)
                if merged is None:
                    lat = hnf_reduce(lattices[lo].columns + lattices[hi].columns, dim=d)
                    merged = meet[key] = intern(lat.columns, lat)
            sb, dying = (br, bs) if br < bs else (bs, br)
            # the union: the smaller list is relabeled and its drifts moved by
            # v (by -v when it is x's); most unions carry v = 0
            if size[s] > size[r]:
                r, s = s, r
                pv = -pv
            z = s
            while True:
                root[z] = r
                if pv:
                    drift[z] += pv
                z = nxt[z]
                if z == s:
                    break
            nxt[r], nxt[s] = nxt[s], nxt[r]   # the two cycles become one
            size[r] += size[s]
            full[r] = fulls[merged]
            beam_of[r] = sb
            death[dying] = t
            parent[dying] = sb
            merge_edge[dying] = eid
            if merged != lattice[sb]:
                lattice[sb] = merged
                # a lattice larger than both inputs is a catenation; one equal
                # to the absorbed beam's is only taken over
                cat = merged != kr and merged != ks
                epochs.append((sb, t, cat, eid if cat else 0, merged))

    coeffs = [coefficient(u, lat) for lat in lattices]
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("monomial coefficient out of float range")
    # the birth epochs first, so the stable argsort keeps each beam's epochs
    # in processing order, its birth epoch first
    beam, start, cat, cell, lat = zip(*epochs) if epochs else ((),) * 5
    beam = np.concatenate((np.arange(n), np.array(beam, dtype=np.int64)))
    rows = np.argsort(beam, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(beam, minlength=n), out=offsets[1:])
    birth = graph.values[vertices]

    def column(births, rest, dtype):
        return np.concatenate((births, np.array(rest, dtype=dtype)))[rows]

    return PeriodicMergeTree(
        d, birth=birth, birth_vertex=graph.ids[vertices], death=death, parent=parent,
        merge_edge=merge_edge, offsets=offsets, start=column(birth, start, float),
        catenation=column(np.zeros(n, bool), cat, bool),
        cell=column(np.zeros(n, np.int64), cell, np.int64),
        lattice=column(np.zeros(n, np.int64), lat, np.int64), lattices=lattices, coeffs=coeffs)



# ---------------------------------------------------------------------------
# canonical forms and the splintering check
# ---------------------------------------------------------------------------

TOL = 1e-9   # heights, coefficients and multiplicities this close are equal


def _rounded(x: float) -> str:
    """x rounded to TOL, written with 12 significant digits: the one way
    numbers of a tree's text are written.  An x whose x / TOL overflows is
    written as it is, since TOL is far below its last digit."""
    q = x / TOL
    return f"{round(q) * TOL if math.isfinite(q) else x:.12g}"


class _Text(dict):
    """x -> `_rounded(x)`, memoized."""

    def __missing__(self, x: float) -> str:
        text = self[x] = _rounded(x)
        return text


def _text_order(items: list, head, text) -> list:
    """`items` sorted by their token streams `text(item)`, read lazily.
    `head(item)` is a tuple of the first tokens of the stream that are not
    the same for all items, so the items are sorted by their heads, and
    only items with equal heads by their streams."""
    if len(items) < 2:
        return items

    def compare(x, y):
        for a, b in zip_longest(text(x), text(y)):
            if a != b:
                return -1 if a is None or (b is not None and a < b) else 1
        return 0
    heads = list(map(head, items))
    rows = sorted(range(len(items)), key=heads.__getitem__)
    out = []
    for _, tie in groupby(rows, key=heads.__getitem__):
        tie = [items[i] for i in tie]
        out += sorted(tie, key=cmp_to_key(compare)) if len(tie) > 1 else tie
    return out


def _column(values: np.ndarray, code: str) -> array:
    """`values` as a flat array of typecode `code` ('d' or 'q'): 8 bytes an
    entry, where a list holds an object per entry."""
    return array(code, np.ascontiguousarray(values, dtype=float if code == "d" else np.int64).tobytes())


def _offsets(keys: np.ndarray, n: int) -> np.ndarray:
    """Row offsets of the groups 0..n-1 of the sorted group keys `keys`."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets


class _TreeIndex:
    """Flat tables of one merge tree: what `canonical_form` and `splinters` read.

    Each table is one flat array with per-beam offsets, so the index holds
    a few 8-byte numbers per beam and no object per beam:
    - children: beam b's are kid[koff[b]:koff[b + 1]], merging at heights
      kh[koff[b]:koff[b + 1]], in increasing (height, child).  A child is
      listed under its effective survivor: chained mergers at one height
      are a processing-order artifact, and all those beams join at one point;
    - spans, the epochs of nonzero width: beam b's are rows
      soff[b]:soff[b + 1] of start, coeff and exp.  They tile b's life, so
      a span ends where the next one starts, and the last at the death;
    - cuts, for `splinters` (`labeled`): cut[coff[b]:coff[b + 1]] are the
      distinct exact heights of b's events (spans starting, children
      merging), increasing.  Per cut i, act[i] is the span active from it
      (-1 for none) and kid[kcut[i]:kcut[i + 1]] the children merging
      there.  lab[coff[b] + b + i] is the label of b's subtree below any
      height above its first i cuts, so lab[coff[b] + b] labels its birth
      alone and lab[coff[b + 1] + b] the subtree at its death.  stop[b] is
      b's first cut that is a stop of the sweep: its birth is not one unless
      a child merges there.

    `tokens(b, top)` writes the subtree below (beam b, cut height top), for
    top at most b's death: the birth of b, its spans starting below top
    (the last one cut at top) and the subtrees of the children merging
    below top.  Numbers are written through the `_Text` memo `text`, which
    indexes may share: a cover's heights are its base's.
    """

    __slots__ = ("fmt", "_kid_orders", "birth", "kid", "kh", "koff", "start", "coeff", "exp",
                 "soff", "cut", "coff", "lab", "stop", "act", "kcut")

    def __init__(self, tree: PeriodicMergeTree, text: _Text | None = None):
        self.fmt = (_Text() if text is None else text).__getitem__
        self._kid_orders = {}
        n = len(tree.birth)
        death, parent = tree.death, tree.parent
        # a child's effective survivor is the parent of its highest ancestor
        # that died at its height (a root never dies); parents precede
        # children, and pointer doubling finds those ancestors in log steps
        child = np.flatnonzero(parent >= 0)
        top = np.arange(n)
        joined = child[death[parent[child]] == death[child]]
        top[joined] = parent[joined]
        while not np.array_equal(up := top[top], top):
            top = up
        survivor = parent[top[child]]
        rows = np.lexsort((child, death[child], survivor))
        self.kid, self.kh = _column(child[rows], "q"), _column(death[child[rows]], "d")
        self.koff = _column(_offsets(survivor, n), "q")
        spans = np.flatnonzero(tree.epoch_ends() > tree.start)
        self.soff = _column(np.searchsorted(spans, tree.offsets), "q")
        lattice = tree.lattice[spans]
        self.start, self.coeff = _column(tree.start[spans], "d"), _column(tree.coeffs[lattice], "d")
        self.exp = _column(tree.exps()[lattice], "q")
        self.birth = _column(tree.birth, "d")

    def tokens(self, b: int, top: float):
        """The text of the subtree below (b, top), cut into tokens.

        The text is `[birth|spans|children]`, spans as start:end:coeff:exp
        joined by `;`, children as `height>subtree` in text order joined by
        `,`, numbers written by `fmt`.  Each token ends in its only separator
        character, so no token is a prefix of another, and comparing token
        streams orders the texts.  One stack holds the subtrees still to
        write, as (beam, cut), and the literal tokens that follow them.
        """
        fmt, start, coeff, exp, kid, kh = self.fmt, self.start, self.coeff, self.exp, self.kid, self.kh
        stack = [(b, top)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                yield item
                continue
            b, top = item
            yield "["
            yield fmt(self.birth[b]) + "|"
            lo = self.soff[b]
            k = bisect_left(start, top, lo, self.soff[b + 1])
            if k == lo:
                yield "|"
            for i in range(lo, k):
                yield fmt(start[i]) + ":"
                yield fmt(start[i + 1] if i < k - 1 else top) + ":"
                yield fmt(coeff[i]) + ":"
                yield f"{exp[i]}{';' if i < k - 1 else '|'}"
            stack.append("]")
            kids = self._kid_order(b, top)
            for j in range(len(kids) - 1, -1, -1):   # pushed last to first
                e = kids[j]
                h = kh[e]
                stack += ((kid[e], h), fmt(h) + ">", ",") if j else ((kid[e], h), fmt(h) + ">")

    def _kid_order(self, b: int, top: float) -> list:
        """The rows of b's children merging below top, in the text order of
        `height>subtree`."""
        lo = self.koff[b]
        k = bisect_left(self.kh, top, lo, self.koff[b + 1])
        if k - lo < 2:
            return range(lo, k)
        kids = self._kid_orders.get((b, k))
        if kids is None:
            fmt, kid, kh, birth = self.fmt, self.kid, self.kh, self.birth
            kids = self._kid_orders[b, k] = _text_order(
                range(lo, k), lambda e: (fmt(kh[e]) + ">", fmt(birth[kid[e]]) + "|"),
                lambda e: chain((fmt(kh[e]) + ">",), self.tokens(kid[e], kh[e])))
        return kids

    def ordered(self, reps: dict, top: float) -> list:
        """The keys of `reps` (key -> a beam alive at top) in the text order of
        the beams' subtrees below top."""
        fmt, birth = self.fmt, self.birth
        return _text_order(list(reps), lambda key: (fmt(birth[reps[key]]) + "|",),
                           lambda key: self.tokens(reps[key], top))

    def labeled(self) -> "_TreeIndex":
        """This index with its labels (see the class docstring); called once
        per index.

        Labels are interned bottom-up, in decreasing beam index since a beam
        joins one made before it.  A beam's events are its spans and its
        children in one lexsort, spans first at one height; a group is its
        events at one rounded height.  The birth's label interns its text,
        and the label at each cut interns (the label below the cut's group,
        the group's rounded height, coeff text and exp of each span starting
        in the group up to the cut, sorted death labels of the children
        merging there); spans are (str, int) pairs and labels ints, so the
        flat key reads back one way.  A cut between two exact heights of one
        group gets the label of the events below it.  The texts are made
        once per distinct height, outside the memo, and are dropped with the
        keys, so a sweep after the labeling holds neither.

        At one height t, the texts below t of two beams alive at t end
        their last spans at t alike, and their labels at t are equal exactly
        when those texts are.  Labels are numbered per index, so labels of
        two indexes are not comparable.
        """
        n = len(self.birth)
        koff, soff = np.frombuffer(self.koff, np.int64), np.frombuffer(self.soff, np.int64)
        births, kh = np.frombuffer(self.birth), np.frombuffer(self.kh)
        # the events, spans then children, and one stable lexsort by (beam,
        # height): a beam's runs are each sorted already, so spans come first
        # at one height, and children keep their order
        beam = np.concatenate((np.repeat(np.arange(n), np.diff(soff)),
                               np.repeat(np.arange(n), np.diff(koff))))
        height = np.concatenate((np.frombuffer(self.start), kh))
        rows = np.lexsort((height, beam))
        beam, height = beam[rows], height[rows]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (beam[1:] != beam[:-1]) | (height[1:] != height[:-1])
        cut = height[new]
        coff = _offsets(beam[new], n)
        # per cut: the span starting there (at most one; -1 for none), the
        # span active from there, and the rows of the children merging there,
        # which follow the last cut's
        at = np.cumsum(new) - 1
        spans = rows < len(self.start)
        span = np.full(len(cut), -1, dtype=np.int64)
        span[at[spans]] = rows[spans]
        act = np.maximum.accumulate(span)   # span rows grow along the cuts
        act[act < soff[beam[new]]] = -1   # none of this beam's yet
        kcut = np.zeros(len(cut) + 1, dtype=np.int64)
        np.cumsum(np.bincount(at[~spans], minlength=len(cut)), out=kcut[1:])
        # the first cut is a stop unless it is the birth and no child merges there
        birth_cut = (coff[1:] > coff[:-1]) & (np.append(cut, np.nan)[coff[:-1]] == births)
        birth_kid = (koff[1:] > koff[:-1]) & (np.append(kh, np.nan)[koff[:-1]] == births)
        self.cut, self.coff = _column(cut, "d"), _column(coff, "q")
        self.stop = _column(coff[:-1] + (birth_cut & ~birth_kid), "q")
        self.act, self.kcut = _column(act, "q"), _column(kcut, "q")

        # the rounded height of each cut, written once per distinct height;
        # these texts are dropped with the keys, not kept in the memo
        heights, distinct = np.unique(cut, return_inverse=True)
        texts = list(map(list(map(_rounded, heights.tolist())).__getitem__, distinct.tolist()))
        values, which = np.unique(np.frombuffer(self.coeff), return_inverse=True)
        spantexts = list(map(_rounded, values.tolist()))   # few distinct coefficients
        spantext, span = _column(which, "q"), _column(span, "q")
        del beam, height, rows, new, cut, at, spans, values, which, act, kcut, heights, distinct
        coff, birth, exp, kid, cuts, kcut = self.coff, self.birth, self.exp, self.kid, self.cut, self.kcut
        lab = self.lab = array("q", bytes(8 * (n + coff[n])))
        interned = {}
        for b in range(n - 1, -1, -1):
            lo, hi = coff[b], coff[b + 1]
            text = texts[lo] if lo < hi and cuts[lo] == birth[b] else _rounded(birth[b])
            lab[lo + b] = last = interned.setdefault(text, len(interned))
            group = None   # the rounded height of the events in `spans` and `kids`
            for i in range(lo, hi):
                if texts[i] != group:
                    group, below, spans, kids = texts[i], last, [], []
                r = span[i]
                if r >= 0:
                    spans += (spantexts[spantext[r]], exp[r])
                if kcut[i] < kcut[i + 1]:
                    for e in range(kcut[i], kcut[i + 1]):
                        c = kid[e]
                        kids.append(lab[coff[c + 1] + c])
                    if len(kids) > 1:
                        kids.sort()
                lab[i + b + 1] = last = interned.setdefault((below, group, *spans, *kids),
                                                            len(interned))
        return self


def canonical_form(tree: PeriodicMergeTree) -> str:
    """Digest equal iff trees are identical up to reordering of siblings.

    The root subtree texts of `_TreeIndex.tokens`, sorted and joined by `&`;
    numbers are rounded to TOL and written with 12 significant digits.
    """
    idx = _TreeIndex(tree)
    return "&".join(sorted("".join(idx.tokens(r, math.inf)) for r in tree.roots()))


class _Level:
    """One level of the `splinters` sweep: the check of the preimage `pool`
    against image beam b below pos (b is -1 for the roots), and, once it
    reaches a stop t, the assignment of preimages to b's children at t.

    The assignment is laid out in the one list `rows`, so that a level
    costs a few objects at any depth.  In order, rows holds:
    - the start of each of the G groups and the end of the last;
    - the image children, in G groups of equal labels;
    - the end of each of the C classes;
    - the preimages ("items"), a child c of a pool beam as c and a pool
      beam w sliding on as ~w, in C classes of equal labels;
    - the cursor of each class: its items from the cursor on are left;
    - `order`, the classes with items left.
    Positions are indices into rows; groups and classes are in text order.
    Group gi tries kc items of class rows[order + j] per child, for kc up
    to kc_hi, and its child i is checked next; `picks` holds (j, class,
    kc, kc_hi) of each group before gi.
    """

    __slots__ = ("b", "pool", "pos", "t", "rows", "groups", "classes", "picks",
                 "gi", "j", "kc", "kc_hi", "i")

    def __init__(self, b: int, pool: list, pos: float):
        self.b, self.pool, self.pos, self.rows = b, pool, pos, None


def splinters(tprime: PeriodicMergeTree, tree: PeriodicMergeTree) -> bool:
    """True iff a height-preserving surjection tprime -> tree splits subtrees evenly.

    Root-down sweep: at every point of `tree` covered by k preimage beams of
    `tprime`, the k preimage subtrees must have identical canonical forms and
    carry exactly 1/k of the image monomial; preimage mergers not mirrored in
    `tree` grow k on the way down.  Where several assignments of preimages to
    children are possible, the first in the text order of their subtrees is
    taken.  The roots are the children of an assignment at t = inf, where a
    class of roots takes a whole group of preimage roots, and none may be
    left over.  Each tree is indexed once (`_TreeIndex`), and subtrees cut at
    one height are compared by their labels there.  The levels of the sweep
    are flat records (`_Level`) on one stack driven by one loop, and an
    assignment takes its preimages from its classes in place, so both depth
    and the children at one stop cost linear memory.
    """
    if tprime.dim != tree.dim:
        return False
    text = _Text()   # one memo: the heights of tprime are mostly those of tree
    P = _TreeIndex(tprime, text).labeled()
    T = P if tree is tprime else _TreeIndex(tree, text).labeled()
    inf = math.inf
    tbirth, tcut, tcoff, tstop, tlab, tact, tkcut = T.birth, T.cut, T.coff, T.stop, T.lab, T.act, T.kcut
    tkid, tstart, tsoff, tcoeff, texp = T.kid, T.start, T.soff, T.coeff, T.exp
    pbirth, pcut, pcoff, pstop, plab, pact, pkcut = P.birth, P.cut, P.coff, P.stop, P.lab, P.act, P.kcut
    pkid, pstart, psoff, pcoeff, pexp = P.kid, P.start, P.soff, P.coeff, P.exp

    def even_split(b: int, i: int, pool: list, ats: list, t: float, pos: float) -> bool:
        """On (t, pos) the monomials are constant; each preimage carries 1/k.
        i and ats are the last cuts below pos of b and of the pool beams,
        so each beam's span at t is the one active from its cut."""
        if pos <= t:
            return True
        r = tact[i] if i >= tcoff[b] and tcut[i] <= t else -1
        if r < 0:
            return False
        share, exp = tcoeff[r] / len(pool), texp[r]
        for w, k in zip(pool, ats):
            r = pact[k] if k >= pcoff[w] and pcut[k] <= t else -1
            if r < 0 or pexp[r] != exp or abs(pcoeff[r] - share) > TOL:
                return False
        return True

    def counts(c: int, x: int, g: int, m: int, t: float) -> tuple:
        """(first, last) preimage count per child, for a group of g image
        beams like c and a class of m preimages like x, pinned by the ratio
        of their monomials just below t; a root takes its share of a whole
        class.  first > last when there is none."""
        if t == inf:
            return (1, 0) if m % g else (m // g, m // g)
        i = bisect_left(tstart, t, tsoff[c], tsoff[c + 1]) - 1   # the last span below t
        k = bisect_left(pstart, t, psoff[x], psoff[x + 1]) - 1
        if i < tsoff[c] or k < psoff[x]:   # born at t
            return 1, m // g
        if pexp[k] != texp[i] or pcoeff[k] <= 0 or not math.isfinite(tcoeff[i] / pcoeff[k]):
            return 1, 0
        kc = round(tcoeff[i] / pcoeff[k])
        if kc < 1 or abs(tcoeff[i] / kc - pcoeff[k]) > TOL or g * kc > m:
            return 1, 0
        return kc, kc

    def grouped(X: _TreeIndex, xs: list, labels: list, t: float, young: float) -> tuple:
        """`xs`, image beams or preimage items of X with their labels at t,
        in groups of equal labels, and the group sizes.  The groups are in
        text order, but those whose beams are all born before `young` come
        last, in the order they first appear: no image child takes them."""
        if len(xs) == 1:
            return xs, [1]
        first: dict[int, int] = {}   # label -> its first item
        live: dict[int, int] = {}    # label -> its first beam born at young or later
        birth = X.birth
        for lab, x in zip(labels, xs):
            if lab not in first:
                first[lab] = x
            if lab not in live and birth[x if x >= 0 else ~x] >= young:
                live[lab] = x if x >= 0 else ~x
        if len(first) == 1:
            return xs, [len(xs)]
        keys = X.ordered(live, t) if len(live) > 1 else list(live)
        if len(keys) < len(first):
            keys += (lab for lab in first if lab not in live)
        if len(first) == len(xs):   # one item per group
            return [first[lab] for lab in keys], [1] * len(xs)
        members: dict[int, list] = {lab: [] for lab in keys}
        for lab, x in zip(labels, xs):
            members[lab].append(x)
        return [x for lab in keys for x in members[lab]], [len(members[lab]) for lab in keys]

    def assign(lv: _Level, t: float, kids: list, items: list, labels: list) -> None:
        """Start lv's assignment at t of the preimage `items`, with their
        labels at t, to the image beams `kids`."""
        kids, gsizes = grouped(T, kids, [tlab[tcoff[c + 1] + c] for c in kids], t, -inf)
        items, csizes = grouped(P, items, labels, t, min(map(tbirth.__getitem__, kids), default=inf))
        starts = list(accumulate(gsizes, initial=len(gsizes) + 1))
        ends = list(accumulate(csizes, initial=starts[-1] + len(csizes)))
        lv.rows = [*starts, *kids, *ends[1:], *items, *ends[:-1], *range(len(csizes))]
        lv.t, lv.groups, lv.classes, lv.picks = t, len(gsizes), len(csizes), None
        lv.gi, lv.j, lv.kc, lv.kc_hi, lv.i = 0, -1, 0, 0, 0

    def run(lv: _Level, ok):
        """Continue level lv, given the result `ok` of the child check it
        asked for (None on entry).  Returns the next child check, as a new
        level, or lv's own result."""
        while True:
            if lv.rows is None:   # no assignment open: find the next stop below pos
                b, pool, pos = lv.b, lv.pool, lv.pos
                i = bisect_left(tcut, pos, tcoff[b], tcoff[b + 1]) - 1   # b's last cut below pos
                t = tcut[i] if i >= tstop[b] else -inf
                ats = []   # the pool beams' last cuts below pos
                for w in pool:
                    k = bisect_left(pcut, pos, pcoff[w], pcoff[w + 1]) - 1
                    ats.append(k)
                    if k >= pstop[w] and pcut[k] > t:
                        t = pcut[k]
                if t == -inf:   # no stop below pos: down to b's birth
                    return (even_split(b, i, pool, ats, tbirth[b], pos)
                            and all(pbirth[w] == tbirth[b] for w in pool))
                if not even_split(b, i, pool, ats, t, pos):
                    return False
                # the candidate preimages, with their labels at t: children of
                # pool beams merging at t, then the pool beams sliding on
                kids = tkid[tkcut[i]:tkcut[i + 1]].tolist() if i >= tcoff[b] and tcut[i] == t else []
                items, labels, slides = [], [], []
                for w, k in zip(pool, ats):
                    if k >= pcoff[w] and pcut[k] == t:
                        for e in range(pkcut[k], pkcut[k + 1]):
                            c = pkid[e]
                            items.append(c)
                            labels.append(plab[pcoff[c + 1] + c])
                        slides.append(plab[k + w])
                    else:
                        slides.append(plab[k + 1 + w])
                if not kids:   # every preimage slides on, and all must have one label there
                    if len({*labels, *slides}) > 1:
                        return False
                    lv.pool, lv.pos = pool + items, t
                    continue
                assign(lv, t, kids, items + [~w for w in pool], labels + slides)
                lv.pool = None
                ok = None
            rows, gi, j, kc, kc_hi, i = lv.rows, lv.gi, lv.j, lv.kc, lv.kc_hi, lv.i
            ends = rows[lv.groups]   # where the class ends start
            cur = rows[ends + lv.classes - 1] if lv.classes else ends   # the cursors
            order = cur + lv.classes
            if ok:   # child i took its items
                i += 1
                g = rows[gi + 1] - rows[gi]
                if i == g:   # group gi is assigned: take its items, go on to the next
                    cls = rows[order + j]
                    rows[cur + cls] += g * kc
                    if rows[cur + cls] == rows[ends + cls]:   # a used-up class leaves order until a backtrack
                        del rows[order + j]
                    gi += 1
                    if gi < lv.groups:   # a later group may fail and come back to this one
                        if lv.picks is None:
                            lv.picks = []
                        lv.picks += (j, cls, kc, kc_hi)
                    j, kc, kc_hi = -1, 0, 0
            if not ok or i == g:
                if gi == lv.groups:   # every group is assigned
                    if lv.b < 0:
                        return len(rows) == order
                    if len(rows) != order + 1:   # the preimages left must have one label
                        return False
                    cls = rows[order]
                    rest = rows[rows[cur + cls]:rows[ends + cls]]
                    lv.pool = [~x for x in rest if x < 0] + [x for x in rest if x >= 0]
                    lv.pos, lv.rows = lv.t, None
                    continue
                while True:   # the next (class, count) for group gi
                    g = rows[gi + 1] - rows[gi]
                    if kc < kc_hi:
                        kc += 1
                        break
                    j += 1
                    while order + j < len(rows):
                        cls = rows[order + j]
                        m = rows[ends + cls] - rows[cur + cls]
                        x = rows[rows[cur + cls]]
                        x = x if x >= 0 else ~x
                        c = rows[rows[gi]]
                        if m >= g and pbirth[x] >= tbirth[c]:   # else x cannot go to c
                            kc, kc_hi = counts(c, x, g, m, lv.t)
                            if kc <= kc_hi:
                                break
                        j += 1
                    else:   # no class left for group gi: back to the group before
                        if gi == 0:
                            return False
                        gi -= 1
                        j, cls, kc, kc_hi = lv.picks[-4:]
                        del lv.picks[-4:]
                        if rows[cur + cls] == rows[ends + cls]:
                            rows.insert(order + j, cls)
                        rows[cur + cls] -= (rows[gi + 1] - rows[gi]) * kc
                        continue
                    break
                i = 0
            lv.gi, lv.j, lv.kc, lv.kc_hi, lv.i = gi, j, kc, kc_hi, i
            c = rows[rows[gi] + i]
            s = rows[cur + rows[order + j]] + i * kc
            ws = [x if x >= 0 else ~x for x in rows[s:s + kc]]
            if min(map(pbirth.__getitem__, ws)) < tbirth[c]:   # c is the eldest of its subtree
                ok = False
                continue
            return _Level(c, ws, lv.t)

    root = _Level(-1, None, inf)
    roots = tprime.roots()
    assign(root, inf, tree.roots(), roots, [plab[pcoff[r + 1] + r] for r in roots])
    stack = [root]
    res = run(root, None)
    while True:
        if res.__class__ is _Level:
            stack.append(res)
            res = run(res, None)
        else:
            stack.pop()
            if not stack:
                return res
            res = run(stack[-1], res)
