"""Incremental periodic merge tree construction.

Cells of the quotient graph are processed in the total order (value,
vertices-before-edges, id).  A union-find with constant-time find, inlined
in `build`, carries per vertex its root and the drift vector of the
spanning-tree path from the component root, and per root the size; the
root's beam holds the elder key and the integer basis V of the periodicity
lattice (the real basis is U.V).  Each drift is packed into one Python int
(`pack`, digits of `drift_bits` bits), so a relabel is one int addition and
an edge's drift one int expression, unpacked only for a lattice step.
Three event kinds drive the tree: appearances, mergers, and catenations.

The tree is held as columns, with no object per beam or epoch.  Beams are
numbered in elder order, (birth, birth_vertex), the order `build` makes
them in; per beam there are `birth`, `birth_vertex`, `death` (inf for a
root), `parent` (-1 for a root) and `merge_edge` (the edge of the merger
that ends a beam with a parent).  Epochs are beam-major, beam b's being
rows `offsets[b]:offsets[b + 1]` in increasing start, the first at its
birth; per epoch there are `start`, `coeff`, `exp`, `catenation` (the epoch
was opened by a catenation of the edge `cell`) and `basis`, its lattice,
one `SublatticeBasis` per lattice change shared by the epochs that keep it.
The event log, the spans and the child lists are derived on demand.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain, groupby, zip_longest
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import jsonfmt
from .jsonfmt import HOLE
from .lattice import SublatticeBasis, hnf_reduce, member, unit_ball_volume, volume
from .pgraph import PeriodicGraph

_START = itemgetter(0)


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

    __slots__ = ("dim", "birth", "birth_vertex", "death", "parent", "merge_edge",
                 "offsets", "start", "coeff", "exp", "catenation", "cell", "basis")

    def __init__(self, dim, *, birth, birth_vertex, death, parent, merge_edge,
                 offsets, start, coeff, exp, catenation, cell, basis):
        self.dim = dim
        self.birth = np.asarray(birth, dtype=float)
        self.birth_vertex = np.asarray(birth_vertex, dtype=np.int64)
        self.death = np.asarray(death, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.merge_edge = np.asarray(merge_edge, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.coeff = np.asarray(coeff, dtype=float)
        self.exp = np.asarray(exp, dtype=np.int64)
        self.catenation = np.asarray(catenation, dtype=bool)
        self.cell = np.asarray(cell, dtype=np.int64)
        self.basis = list(basis)

    @property
    def beams(self) -> range:
        """The beam indices."""
        return range(len(self.birth))

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
        return self.coeff[i].item(), self.exp[i].item(), self.basis[i]

    def _event_columns(self) -> tuple:
        """(kind, time, cell, row) per event, in build's processing order
        (value, vertices before edges, id; an edge's merger before its
        catenation), which one lexsort gives: kind 0 is the appearance of
        beam `row`, 1 the merger of beam `row` into its parent, and 2 the
        catenation that opens epoch `row`."""
        n = len(self.birth)
        child = np.flatnonzero(self.parent >= 0)
        cats = np.flatnonzero(self.catenation)
        kind = np.repeat(np.arange(3, dtype=np.int8), (n, len(child), len(cats)))
        time = np.concatenate((self.birth, self.death[child], self.start[cats]))
        cell = np.concatenate((self.birth_vertex, self.merge_edge[child], self.cell[cats]))
        order = np.lexsort((kind == 2, cell, kind > 0, time))
        # each column is reordered in turn, so one unsorted copy is held at a time
        time = time[order]
        cell = cell[order]
        row = np.concatenate((np.arange(n), child, cats))[order]
        return kind[order], time, cell, row

    def _event_beams(self, kind, row) -> np.ndarray:
        """Per event of `_event_columns`, the first of its beams: the beam
        that appears, the survivor of a merger, the beam a catenation is on."""
        beam = row.copy()
        merger, cat = kind == 1, kind == 2
        beam[merger] = self.parent[row[merger]]
        beam[cat] = np.searchsorted(self.offsets, row[cat], side="right") - 1
        return beam

    def _event_rows(self):
        """(kind, time, cell, beam, row) per event: `_event_columns` with
        `_event_beams`, as Python values."""
        kind, time, cell, row = self._event_columns()
        return zip(kind.tolist(), time.tolist(), cell.tolist(),
                   self._event_beams(kind, row).tolist(), row.tolist())

    @property
    def events(self) -> list:
        """Appearance, merger and catenation events in build's processing order."""
        coeff, exp = self.coeff, self.exp
        return [Event("appearance", t, c, (b,)) if k == 0
                else Event("merger", t, c, (b, r)) if k == 1
                else Event("catenation", t, c, (b,), coeff[r].item(), exp[r].item(), self.basis[r])
                for k, t, c, b, r in self._event_rows()]

    def to_json_dict(self) -> dict:
        """The reference dict form of `json_chunks`, which the CLI writes
        trees with; kept for the tests and the benchmark's tracer until
        ROADMAP item 1 step C."""
        start, coeff, exp = self.start.tolist(), self.coeff.tolist(), self.exp.tolist()
        offsets = self.offsets.tolist()
        kinds = ("appearance", "merger", "catenation")
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
                            "lattice": [list(c) for c in self.basis[i].columns],
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
                    "kind": kinds[k],
                    "time": t,
                    "cell": c,
                    "beams": [b] if k != 1 else [b, r],
                    **({"coeff": coeff[r], "exp": exp[r]} if k == 2 else {}),
                }
                for k, t, c, b, r in self._event_rows()
            ],
        }

    def _heads(self) -> tuple:
        """(head, texts): per epoch the index of its head in `texts`, which
        holds per distinct (coeff, exp, lattice) the texts of the coeff,
        display, exp and lattice.  The epochs are grouped by (coeff, exp,
        lattice object) with one lexsort, and the groups by value, so a
        lattice is hashed once per object."""
        by_rank = [jsonfmt.template([[HOLE] * self.dim] * p, 5) for p in range(self.dim + 1)]
        ident = np.fromiter(map(id, self.basis), np.uint64, len(self.basis))
        order = np.lexsort((self.coeff, self.exp, ident))
        key, coeff, exp = ident[order], self.coeff[order], self.exp[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (key[1:] != key[:-1]) | (exp[1:] != exp[:-1]) | (coeff[1:] != coeff[:-1])
        coeffs, exps = coeff[new].tolist(), exp[new].tolist()
        texts, by_value, group = [], {}, []
        for text, c, e, basis in zip(jsonfmt.floats(coeffs), coeffs, exps,
                                     map(self.basis.__getitem__, order[new].tolist())):
            h = by_value.setdefault((c, e, basis), len(texts))
            if h == len(texts):
                texts.append((text, encode_basestring_ascii(monomial_display(c, e)), e,
                              by_rank[basis.rank] % tuple(chain.from_iterable(basis.columns))))
            group.append(h)
        head = np.empty(len(order), dtype=np.int64)
        head[order] = np.array(group, dtype=np.int64)[np.cumsum(new) - 1]
        return head, texts

    def json_chunks(self):
        """Chunks of `jsonfmt.dumps(self.to_json_dict())`, one template fill
        per beam and per event; a beam of k epochs fills the beam template
        with k epochs inside.  The texts of an epoch's coeff, display, exp and
        lattice are written once per distinct (coeff, exp, lattice object),
        in effect once per lattice change, and all before the first chunk, so
        writing the chunks raises nothing.  The other texts are written one
        block of rows at a time (`jsonfmt.blocks`), as `jsonfmt.items` joins
        them, so the texts held at once are one block's."""
        head, heads = self._heads()
        by_count: dict = {}   # k -> the template of a beam of k epochs
        kinds = [jsonfmt.template(_EVENT_SHAPES[kind], 2)
                 for kind in ("appearance", "merger", "catenation")]

        def beam_texts():
            for a, z in jsonfmt.blocks(len(self.birth)):
                offsets = self.offsets[a:z + 1].tolist()
                lo, hi = offsets[0], offsets[-1]
                starts = jsonfmt.floats(self.start[lo:hi].tolist())
                hs = head[lo:hi].tolist()
                rows = zip(range(a, z), offsets, offsets[1:],
                           jsonfmt.floats(self.birth[a:z].tolist()),
                           self.birth_vertex[a:z].tolist(),
                           jsonfmt.floats([None if math.isinf(x) else x
                                           for x in self.death[a:z].tolist()]),
                           self.parent[a:z].tolist())
                for b, i, j, birth, vertex, death, parent in rows:
                    fills = []
                    for e in range(i - lo, j - lo):
                        fills += heads[hs[e]]
                        fills.append(starts[e])
                    text = by_count.get(j - i)
                    if text is None:
                        text = by_count[j - i] = jsonfmt.template(
                            {**_BEAM, "epochs": [_EPOCH] * (j - i)}, 2)
                    yield text % (birth, vertex, death, *fills, b,
                                  "null" if parent < 0 else parent)

        def event_texts():
            # made once the beams are written, so the two lists' state is never held at once
            kind, time, cell, row = self._event_columns()
            for a, z in jsonfmt.blocks(len(kind)):
                ks, rs = kind[a:z], row[a:z]
                rows = zip(ks.tolist(), jsonfmt.floats(time[a:z].tolist()), cell[a:z].tolist(),
                           self._event_beams(ks, rs).tolist(), rs.tolist(),
                           head[np.where(ks == 2, rs, 0)].tolist())
                for k, t, c, b, r, h in rows:
                    if k == 0:
                        yield kinds[0] % (b, c, t)
                    elif k == 1:
                        yield kinds[1] % (b, r, c, t)
                    else:
                        coeff, _, exp, _ = heads[h]
                        yield kinds[2] % (b, c, coeff, exp, t)

        return jsonfmt.chunks({"beams": HOLE, "dim": self.dim, "events": HOLE},
                              jsonfmt.items(beam_texts(), 1), jsonfmt.items(event_texts(), 1))

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
    stable argsort by beam makes the epoch columns beam-major.  A basis volume that is not
    a normal float, or a coefficient that is not finite, is a ValueError.

    Drifts and shifts are packed ints (`pack`) with digits wide enough for
    any sum of 2n shifts, so v is one int expression and `not v` its zero
    test; v is unpacked only for `member` and `hnf_reduce`.  A union
    relabels the members of the smaller cyclic list, adding v (or -v) to
    their drifts, so each vertex is relabeled at most log2(n) times.
    """
    d = graph.dim
    u = graph.basis
    vol_d = u.volume
    if not sys.float_info.min <= vol_d < math.inf:   # a subnormal has lost digits
        raise ValueError("basis volume out of float range")
    n = graph.n

    def coefficient(lat: SublatticeBasis) -> float:
        c = volume(u, lat) / vol_d
        if not math.isfinite(c):
            raise ValueError("monomial coefficient out of float range")
        return c

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

    empty = SublatticeBasis.empty(d)
    lattice = [empty] * n   # per beam, the lattice of its last epoch
    death, parent, merge_edge = [math.inf] * n, [-1] * n, [0] * n
    epochs = []   # past the birth epochs: (beam, start, coeff, exp, catenation, cell, basis)

    # union-find slots are vertex positions, as edge endpoints are; per
    # slot, its root, the next member of its component's cyclic list and its
    # packed drift from the root; per root slot, the component's size
    root, nxt, drift, size = list(range(n)), list(range(n)), [0] * n, [1] * n
    full = [False] * n  # per slot: component lattice is all of Z^d
    psh = dict.fromkeys(graph.shifts)   # distinct shift -> packed; most graphs have few
    bits = drift_bits(n, max((abs(c) for t in psh for c in t), default=0))
    for t in psh:
        psh[t] = pack(t, bits)
    # each edge's endpoints, packed shift, value and id, in processing order
    pos = walk - n
    edges = zip(graph.u[pos].tolist(), graph.v[pos].tolist(),
                map(psh.__getitem__, map(graph.shifts.__getitem__, pos.tolist())),
                graph.values[walk].tolist(), graph.ids[walk].tolist())

    for x, y, sh, t, eid in edges:
        r, s = root[x], root[y]
        if r == s and full[r]:
            continue
        pv = drift[x] + sh - drift[y]   # v = Drift(x) + Shift - Drift(y), packed
        if r == s:
            if not pv:
                continue
            sb = beam_of[r]
            cur = lattice[sb]
            v = unpack(pv, bits, d)
            if member(cur, v):
                continue
            new = hnf_reduce(cur.columns + (v,), dim=d)
            if new.is_full:
                full[r] = True
            lattice[sb] = new
            epochs.append((sb, t, coefficient(new), d - new.rank, True, eid, new))
        else:
            br, bs = beam_of[r], beam_of[s]
            base_r, base_s = lattice[br], lattice[bs]
            whole = full[r] or full[s]   # unless a reduction makes a new lattice
            if not base_s.columns:
                merged = base_r
            elif not base_r.columns:
                merged = base_s
            elif base_r is base_s or base_r == base_s:
                merged = base_r
            else:
                merged = hnf_reduce(base_r.columns + base_s.columns, dim=d)
                whole = merged.is_full
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
            full[r] = whole
            beam_of[r] = sb
            death[dying] = t
            parent[dying] = sb
            merge_edge[dying] = eid
            prevb = lattice[sb]
            if merged is not prevb and merged != prevb:
                lattice[sb] = merged
                # a lattice larger than both inputs is a catenation; one equal
                # to the absorbed beam's is only taken over
                cat = merged != base_r and merged != base_s
                epochs.append((sb, t, coefficient(merged), d - merged.rank, cat,
                               eid if cat else 0, merged))

    # the birth epochs first, so the stable argsort keeps each beam's epochs
    # in processing order, its birth epoch first
    beam, start, coeff, exp, cat, cell, basis = zip(*epochs) if epochs else ((),) * 7
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
        coeff=column(np.full(n, 1.0 / vol_d), coeff, float),
        exp=column(np.full(n, d), exp, np.int64), catenation=column(np.zeros(n, bool), cat, bool),
        cell=column(np.zeros(n, np.int64), cell, np.int64),
        basis=list(map(([empty] * n + list(basis)).__getitem__, rows.tolist())))



# ---------------------------------------------------------------------------
# canonical forms and the splintering check
# ---------------------------------------------------------------------------

TOL = 1e-9   # heights, coefficients and multiplicities this close are equal


class _Text(dict):
    """x -> x rounded to TOL, written with 12 significant digits; memoized.
    An x whose x / TOL overflows is written as it is, since TOL is far below its last digit."""

    def __missing__(self, x: float) -> str:
        q = x / TOL
        text = self[x] = f"{round(q) * TOL if math.isfinite(q) else x:.12g}"
        return text


def _text_order(items: list, text) -> list:
    """`items` sorted by their token streams `text(item)`, read lazily."""
    if len(items) < 2:
        return items

    def compare(x, y):
        for a, b in zip_longest(text(x), text(y)):
            if a != b:
                return -1 if a is None or (b is not None and a < b) else 1
        return 0
    return sorted(items, key=cmp_to_key(compare))


def _run(gen):
    """Result of generator `gen`, which yields the generators whose results it
    needs and receives each result back from its `yield`; the calls nest on an
    explicit stack, so their depth is bounded by memory, not the recursion limit."""
    stack = [gen]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


class _TreeText:
    """Text tables of one merge tree: what `canonical_form` reads.

    Per beam: birth, death, the normalized spans (its epochs of nonzero
    width, as flat start, end, coeff and exp lists, beam b's at rows
    first[b]:first[b + 1]) and the children, which the tables derive from
    parents and deaths, each as (merge height, child) in increasing order.
    `tokens(b, t)` writes the subtree below (beam b, cut height t): the
    birth of b, its spans starting below t (the last one cut at t) and the
    subtrees of the children merging below t.
    """

    def __init__(self, tree: PeriodicMergeTree):
        self.fmt = _Text().__getitem__
        self._kid_orders = {}
        self.birth = tree.birth.tolist()
        self.death = death = tree.death.tolist()
        self.kids = kids = [[] for _ in death]   # (merge height, child), sorted
        # a child joins its effective survivor: chained mergers at one height
        # are a processing-order artifact; all those beams join at one point.
        # A parent precedes its children, and a root never dies
        joins = [None] * len(death)   # the effective survivor of each child
        for b, p in enumerate(tree.parent.tolist()):
            if p >= 0:
                if death[p] == death[b]:
                    p = joins[p]
                joins[b] = p
                kids[p].append((death[b], b))
        for ks in kids:
            ks.sort()
        end = tree.epoch_ends()
        rows = np.flatnonzero(end > tree.start)
        self.first = np.searchsorted(rows, tree.offsets).tolist()
        self.start, self.end = tree.start[rows].tolist(), end[rows].tolist()
        self.coeff, self.exp = tree.coeff[rows].tolist(), tree.exp[rows].tolist()

    def monomial(self, b: int, t: float, below: bool = False):
        """(coeff, exp) of beam b's span active at height t, or just below t
        when `below` is set; None when the beam is not alive there."""
        lo = self.first[b]
        i = (bisect_left if below else bisect_right)(self.start, t, lo, self.first[b + 1]) - 1
        if i < lo:
            return None
        en = self.end[i]
        return (self.coeff[i], self.exp[i]) if (t <= en if below else t < en) else None

    def tokens(self, b: int, top: float):
        """The text of the subtree below (b, top), cut into tokens.

        The text is `[birth|spans|children]`, spans as start:end:coeff:exp
        joined by `;`, children as `height>subtree` in text order joined by
        `,`, numbers written by `fmt`.  Each token ends in its only separator
        character, so no token is a prefix of another, and comparing token
        streams orders the texts.  One stack holds the subtrees still to
        write, as (beam, cut), and the literal tokens that follow them.
        """
        fmt = self.fmt
        stack = [(b, top)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                yield item
                continue
            b, top = item
            yield "["
            yield fmt(self.birth[b]) + "|"
            lo = self.first[b]
            k = bisect_left(self.start, top, lo, self.first[b + 1])
            if k == lo:
                yield "|"
            for i in range(lo, k):
                yield fmt(self.start[i]) + ":"
                yield fmt(min(self.end[i], top)) + ":"
                yield fmt(self.coeff[i]) + ":"
                yield f"{self.exp[i]}{';' if i < k - 1 else '|'}"
            stack.append("]")
            kids = self._kid_order(b, bisect_left(self.kids[b], (top, -1)))
            for j in range(len(kids) - 1, -1, -1):   # pushed last to first
                h, c = kids[j]
                stack += ((c, h), fmt(h) + ">", ",") if j else ((c, h), fmt(h) + ">")

    def _kid_order(self, b: int, k: int) -> list:
        """b's first k children in the text order of `height>subtree`."""
        if k < 2:
            return self.kids[b][:k]
        kids = self._kid_orders.get((b, k))
        if kids is None:
            kids = self._kid_orders[b, k] = _text_order(
                self.kids[b][:k], lambda kid: chain((self.fmt(kid[0]) + ">",),
                                                    self.tokens(kid[1], kid[0])))
        return kids

    def ordered(self, reps: dict, top: float) -> list:
        """The digests in `reps` (digest -> a beam with it at top), in text order."""
        return _text_order(list(reps), lambda dg: self.tokens(reps[dg], top))


class _TreeIndex(_TreeText):
    """The text tables plus what `splinters` reads: interned subtree labels.

    Per beam: the exact heights of its events (spans starting, children
    merging) and a subtree label at each.  `digest(b, t)` names the subtree
    below (b, t) by (label, rounded cut), and two cuts have equal digests
    exactly when their texts `tokens(b, t)` are equal.  Labels are interned
    bottom-up, in decreasing beam index since a beam joins one made before
    it, one per group of events at one rounded height: (label below,
    rounded height, (coeff, exp) of the spans starting there, sorted digests
    of the children merging there).  Epochs are taken in increasing height,
    as `build` leaves them, and so are the children.  A cut between two
    exact heights of one group gets the label of the events below it.

    Labels are numbered per index: digests of two indexes are not comparable.
    """

    def __init__(self, tree: PeriodicMergeTree):
        super().__init__(tree)
        fmt = self.fmt
        interned = {}
        n = len(self.birth)
        self.base = [0] * n   # label of a beam's birth alone
        self.cuts = [()] * n  # exact event heights, increasing
        self.labels = [()] * n  # label of the events at or below each cut
        for b in range(n - 1, -1, -1):   # a beam joins one made before it
            events = [(self.start[i], 0, (fmt(self.coeff[i]), self.exp[i]))
                      for i in range(self.first[b], self.first[b + 1])]
            events += [(h, 1, self.digest(c, h)) for h, c in self.kids[b]]
            events.sort(key=_START)
            lab = self.base[b] = interned.setdefault((fmt(self.birth[b]),), len(interned))
            cuts, labels = [], []
            for rounded, group in groupby(events, key=lambda ev: fmt(ev[0])):
                below, spans, kids = lab, [], []
                for h, same in groupby(group, key=_START):
                    for _, kind, item in same:
                        (kids if kind else spans).append(item)
                    key = (below, rounded, tuple(spans), tuple(sorted(kids)))
                    lab = interned.setdefault(key, len(interned))
                    cuts.append(h)
                    labels.append(lab)
            self.cuts[b], self.labels[b] = tuple(cuts), tuple(labels)

    def digest(self, b: int, top: float) -> tuple:
        """(label, rounded cut) of the subtree below (b, top); the cut is None
        when no span starts below top."""
        i = bisect_left(self.cuts[b], top)
        lab = self.labels[b][i - 1] if i else self.base[b]
        lo = self.first[b]
        started = lo < self.first[b + 1] and self.start[lo] < top
        return lab, (self.fmt(min(top, self.death[b])) if started else None)

    def last_stop(self, b: int, pos: float) -> float:
        """Highest height below pos where b gains a child or starts a span
        after its birth; -inf when there is none."""
        cuts = self.cuts[b]
        i = bisect_left(cuts, pos) - 1   # no cut lies below the birth
        if i < 0 or cuts[i] == self.birth[b] and not self.children_at(b, cuts[i]):
            return -math.inf
        return cuts[i]

    def children_at(self, b: int, t: float) -> list:
        kids = self.kids[b]
        return [c for _, c in kids[bisect_left(kids, (t, -1)):bisect_left(kids, (t, math.inf))]]


def canonical_form(tree: PeriodicMergeTree) -> str:
    """Digest equal iff trees are identical up to reordering of siblings.

    The root subtree texts of `_TreeText.tokens`, sorted and joined by `&`;
    numbers are rounded to TOL and written with 12 significant digits.
    """
    idx = _TreeText(tree)
    return "&".join(sorted("".join(idx.tokens(r, math.inf)) for r in tree.roots()))


def splinters(tprime: PeriodicMergeTree, tree: PeriodicMergeTree) -> bool:
    """True iff a height-preserving surjection tprime -> tree splits subtrees evenly.

    Root-down sweep: at every point of `tree` covered by k preimage beams of
    `tprime`, the k preimage subtrees must have identical canonical forms and
    carry exactly 1/k of the image monomial; preimage mergers not mirrored in
    `tree` grow k on the way down.  Where several assignments of preimages to
    children are possible, the first in the text order of their subtrees is
    taken.  The roots are the children of an assignment at t = inf, where a
    class of roots takes a whole group of preimage roots, and none may be
    left over.  Each tree is indexed once (`_TreeIndex`), the checks nest on
    an explicit stack (`_run`), and an assignment takes its preimages from
    the pool in place, so the children at one stop cost linear memory.
    """
    if tprime.dim != tree.dim:
        return False
    P = _TreeIndex(tprime)
    T = P if tree is tprime else _TreeIndex(tree)

    def check(ws: list, b: int, top: float):
        # ws is one non-empty class of equal digests at top.  Every preimage
        # ends in the final pool of an image beam in b's subtree and has its
        # birth, and b is the eldest beam of its subtree
        if any(P.birth[w] < T.birth[b] for w in ws):
            return False
        pool_w = list(ws)
        pos = top
        while True:
            t = max(T.last_stop(b, pos), max(P.last_stop(w, pos) for w in pool_w))
            if t == -math.inf:   # no stop below pos: down to b's birth
                return (even_split(b, pool_w, T.birth[b], pos)
                        and all(P.birth[w] == T.birth[b] for w in pool_w))
            if not even_split(b, pool_w, t, pos):
                return False
            # candidate preimages: children of W-beams merging at t, plus
            # W-beams themselves sliding onto a child
            leftover = yield assignment(T.children_at(b, t), [
                *(("child", c2) for w in pool_w for c2 in P.children_at(w, t)),
                *(("slide", w) for w in pool_w)], t)
            if leftover is None:
                return False
            kept = {w for its in leftover.values() for kind, w in its if kind == "slide"}
            pool_w = [w for w in pool_w if w in kept]
            pool_w.extend(c for its in leftover.values() for kind, c in its if kind == "child")
            if not pool_w or len({P.digest(w, t) for w in pool_w}) != 1:
                return False
            pos = t

    def even_split(b: int, pool_w: list, t: float, pos: float) -> bool:
        """On (t, pos) the monomials are constant; each preimage carries 1/k."""
        if pos <= t:
            return True
        mb = T.monomial(b, t)
        if mb is None:
            return False
        k = len(pool_w)
        for w in pool_w:
            mw = P.monomial(w, t)
            if mw is None or mw[1] != mb[1] or abs(mw[0] - mb[0] / k) > TOL:
                return False
        return True

    def assignment(kids: list, items: list, t: float):
        """`assign_children` of the preimage `items` (kind, beam) to the
        image beams `kids` at t: the beams in groups of equal subtrees, the
        items in classes of equal subtrees, each taken in text order."""
        groups: dict[tuple, list] = {}
        for c in kids:
            groups.setdefault(T.digest(c, t), []).append(c)
        classes: dict[tuple, list] = {}
        for item in items:
            classes.setdefault(P.digest(item[1], t), []).append(item)
        return assign_children(
            [groups[dg] for dg in T.ordered({dg: cs[0] for dg, cs in groups.items()}, t)],
            P.ordered({dg: its[0][1] for dg, its in classes.items()}, t), t, 0, classes)

    def feasible_counts(cs: list, items: list, t: float):
        """Preimage count per child, pinned by the monomial ratio; a root
        takes its share of a whole class."""
        g = len(cs)
        if t == math.inf:
            return () if len(items) % g else (len(items) // g,)
        mc = T.monomial(cs[0], t, below=True)
        mx = P.monomial(items[0][1], t, below=True)
        if mc is None or mx is None:
            return range(1, len(items) // g + 1)
        if mx[1] != mc[1] or mx[0] <= 0 or not math.isfinite(mc[0] / mx[0]):
            return ()
        kc = round(mc[0] / mx[0])
        if kc < 1 or abs(mc[0] / kc - mx[0]) > TOL or g * kc > len(items):
            return ()
        return (kc,)

    def assign_children(group_list: list, order: list, t: float, gi: int, avail: dict):
        """Preimages left over by the first assignment to the child groups
        from gi on (classes tried in `order`), or None."""
        if gi == len(group_list):
            return avail
        cs = group_list[gi]
        g = len(cs)
        for j, dg in enumerate(order):
            items = avail[dg]
            if len(items) < g:
                continue
            for kc in feasible_counts(cs, items, t):
                for i, c in enumerate(cs):
                    if not (yield check([it[1] for it in items[i * kc:(i + 1) * kc]], c, t)):
                        break
                else:
                    avail[dg] = items[g * kc:]
                    if not avail[dg]:   # a used-up class leaves `order` until a backtrack
                        del order[j]
                    out = yield assign_children(group_list, order, t, gi + 1, avail)
                    if out is not None:
                        return out
                    if not avail[dg]:
                        order.insert(j, dg)
                    avail[dg] = items
        return None

    leftover = _run(assignment(tree.roots(), [("root", r) for r in tprime.roots()], math.inf))
    return leftover is not None and not any(leftover.values())
