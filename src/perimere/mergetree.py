"""Incremental periodic merge tree construction.

Cells of the quotient graph are processed in the total order (value,
vertices-before-edges, id).  A union-find structure with constant-time find
carries, per vertex, the drift vector of the spanning-tree path from the
component root, and, per root, the size; the root's beam holds the elder key
and the integer basis V of the periodicity lattice (the real basis is U.V).
Three event kinds drive the tree: appearances, mergers, and catenations.

The beams are the only record of the tree: a beam holds its birth vertex,
its death and merger edge, its parent, and its epochs, each epoch naming the
catenation edge that opened it.  The event log and the child lists are
derived from them on demand.
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
class Epoch:
    """Maximal beam interval of constant shadow monomial.

    `cell` is the edge whose catenation opened the epoch; None for a birth
    epoch and for a survivor taking over the lattice of the beam it absorbed.
    """
    start: float
    coeff: float
    exp: int
    basis: SublatticeBasis
    cell: int | None = None


@dataclass(frozen=True, slots=True)
class Event:
    """One critical event, derived from the beams (see PeriodicMergeTree.events)."""
    kind: str            # appearance | merger | catenation
    time: float
    cell: int            # vertex or edge id
    beams: tuple         # affected beam indices (survivor first)
    coeff: float | None = None
    exp: int | None = None
    basis: SublatticeBasis | None = None


class Beam:
    """One horizontal interval of the merge tree (a component's lifetime)."""

    __slots__ = ("index", "birth", "birth_vertex", "epochs", "death", "parent", "merge_edge")

    def __init__(self, index, birth, birth_vertex, epochs):
        self.index = index
        self.birth = birth
        self.birth_vertex = birth_vertex
        self.epochs = epochs
        self.death = math.inf
        self.parent = None
        self.merge_edge = None   # edge id of the merger that ends the beam

    def spans(self):
        """Normalized (start, end, coeff, exp, basis) spans; zero-width epochs dropped."""
        out = []
        eps = self.epochs
        for i, ep in enumerate(eps):
            end = eps[i + 1].start if i + 1 < len(eps) else self.death
            if end > ep.start:
                out.append((ep.start, end, ep.coeff, ep.exp, ep.basis))
        return out

    def monomial(self, t: float, below: bool = False):
        """(coeff, exp, basis) of the span active at height t, or just below t
        when `below` is set; None when the beam is not alive there."""
        return _monomial(self.spans(), t, below)


def _monomial(spans, t: float, below: bool = False):
    """`Beam.monomial` over the beam's normalized spans, by bisection."""
    i = (bisect_left if below else bisect_right)(spans, t, key=_START) - 1
    if i < 0:
        return None
    _, en, c, e, basis = spans[i]
    return (c, e, basis) if (t <= en if below else t < en) else None


class UnionFind:
    """Union-find with drift vectors: O(1) find, size-based list splicing.

    Vertices live in per-component singly linked lists; unions relabel the
    smaller list, so every vertex is relabeled at most log2(n) times.  Each of
    the n slots starts as its own component; `root[i]` is the root slot of
    slot i's component.
    """

    __slots__ = ("dim", "root", "nxt", "drift", "size")

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.root = list(range(n))
        self.nxt = [-1] * n
        self.drift = [[0] * dim for _ in range(n)]
        self.size = [1] * n

    def union(self, r: int, s: int, v) -> int:
        """Merge roots r and s; v is the drift correction for s's members.

        Returns the surviving root.  Callers must pass v = Drift(x) +
        Shift(a) - Drift(y) for an arc x -> y with Root(x) = r, Root(y) = s.
        """
        if self.size[s] > self.size[r]:
            r, s = s, r
            v = [-e for e in v]
        root, nxt, drift = self.root, self.nxt, self.drift
        z = s
        last = s
        while z != -1:
            root[z] = r
            dz = drift[z]
            for k in range(self.dim):
                dz[k] += v[k]
            last = z
            z = nxt[z]
        nxt[last] = nxt[r]
        nxt[r] = s
        self.size[r] += self.size[s]
        return r


class PeriodicMergeTree:
    """Beams with monomial epochs; the critical-event log is derived from them."""

    __slots__ = ("dim", "beams")

    def __init__(self, dim, beams):
        self.dim = dim
        self.beams = beams

    def roots(self):
        return [b.index for b in self.beams if b.parent is None]

    def _event_rows(self) -> list:
        """(time, is_edge, cell, is_catenation, kind, beams, epoch) per event.

        Sorted in build's processing order (value, vertices before edges, id;
        an edge's merger before its catenation); the first four entries are
        unique per event, so the sort never compares the rest.
        """
        rows = []
        for b in self.beams:
            rows.append((b.birth, 0, b.birth_vertex, 0, "appearance", (b.index,), None))
            if b.parent is not None:
                rows.append((b.death, 1, b.merge_edge, 0, "merger", (b.parent, b.index), None))
            for ep in b.epochs:
                if ep.cell is not None:
                    rows.append((ep.start, 1, ep.cell, 1, "catenation", (b.index,), ep))
        rows.sort()
        return rows

    @property
    def events(self) -> list:
        """Appearance, merger and catenation events in build's processing order."""
        return [Event(kind, t, cell, beams)
                if ep is None else Event(kind, t, cell, beams, ep.coeff, ep.exp, ep.basis)
                for t, _, cell, _, kind, beams, ep in self._event_rows()]

    def to_json_dict(self) -> dict:
        """The reference dict form of `json_chunks`, which the CLI writes
        trees with; kept for the tests and the benchmark's tracer until
        ROADMAP item 1 step C."""
        return {
            "dim": self.dim,
            "beams": [
                {
                    "index": b.index,
                    "birth": b.birth,
                    "birth_vertex": b.birth_vertex,
                    "death": None if math.isinf(b.death) else b.death,
                    "parent": b.parent,
                    "epochs": [
                        {
                            "start": ep.start,
                            "coeff": ep.coeff,
                            "exp": ep.exp,
                            "display": monomial_display(ep.coeff, ep.exp),
                            "lattice": [list(c) for c in ep.basis.columns],
                        }
                        for ep in b.epochs
                    ],
                }
                for b in self.beams
            ],
            "events": [
                {
                    "kind": kind,
                    "time": t,
                    "cell": cell,
                    "beams": list(beams),
                    **({} if ep is None else {"coeff": ep.coeff, "exp": ep.exp}),
                }
                for t, _, cell, _, kind, beams, ep in self._event_rows()
            ],
        }

    def json_chunks(self):
        """Chunks of `jsonfmt.dumps(self.to_json_dict())`, one template fill
        per beam and per event; a beam of k epochs fills the beam template
        with k epochs inside.  The texts of an epoch's coeff, display, exp and
        lattice are written once per distinct (coeff, exp, basis), in effect
        once per lattice, and all before the first chunk, so writing the
        chunks raises nothing."""
        beams, d = self.beams, self.dim
        by_count: dict = {}   # k -> the template of a beam of k epochs
        by_rank = [jsonfmt.template([[HOLE] * d] * p, 5) for p in range(d + 1)]
        kinds = {kind: jsonfmt.template(shape, 2) for kind, shape in _EVENT_SHAPES.items()}
        heads: dict = {}   # (coeff, exp, basis) -> texts of the coeff, display, exp, lattice
        fills = []   # per epoch, in beam order: its head texts, then its start
        epochs = [ep for b in beams for ep in b.epochs]
        for ep, start in zip(epochs, jsonfmt.floats([ep.start for ep in epochs])):
            key = (ep.coeff, ep.exp, ep.basis)
            head = heads.get(key)
            if head is None:
                lattice = by_rank[ep.basis.rank] % tuple(chain.from_iterable(ep.basis.columns))
                head = heads[key] = (
                    *jsonfmt.floats([ep.coeff]),
                    encode_basestring_ascii(monomial_display(ep.coeff, ep.exp)), ep.exp, lattice)
            fills += head
            fills.append(start)
        births = jsonfmt.floats([b.birth for b in beams])
        deaths = jsonfmt.floats([None if math.isinf(b.death) else b.death for b in beams])
        rows = self._event_rows()
        times = jsonfmt.floats([row[0] for row in rows])

        def beam_texts():
            at = 0
            for b, birth, death in zip(beams, births, deaths):
                k = len(b.epochs)
                text = by_count.get(k)
                if text is None:
                    text = by_count[k] = jsonfmt.template({**_BEAM, "epochs": [_EPOCH] * k}, 2)
                parent = "null" if b.parent is None else b.parent
                end = at + len(_EPOCH) * k
                yield text % (birth, b.birth_vertex, death, *fills[at:end], b.index, parent)
                at = end

        def event_texts():
            for (_, _, cell, _, kind, pair, ep), time in zip(rows, times):
                if ep is None:
                    yield kinds[kind] % (*pair, cell, time)
                else:
                    coeff, _, exp, _ = heads[ep.coeff, ep.exp, ep.basis]
                    yield kinds[kind] % (*pair, cell, coeff, exp, time)

        return jsonfmt.chunks({"beams": HOLE, "dim": d, "events": HOLE},
                              jsonfmt.items(beam_texts(), 1), jsonfmt.items(event_texts(), 1))

    def to_dot(self) -> str:
        lines = ["digraph mergetree {", "  rankdir=LR;"]
        for b in self.beams:
            label = f"b{b.index} t={b.birth:g}\\n" + "\\n".join(
                f"{ep.start:g}: {monomial_display(ep.coeff, ep.exp)}" for ep in b.epochs)
            lines.append(f'  n{b.index} [shape=box, label="{label}"];')
        for b in self.beams:
            if b.parent is not None:
                lines.append(f'  n{b.index} -> n{b.parent} [label="{b.death:g}"];')
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


def build(graph: PeriodicGraph) -> PeriodicMergeTree:
    """Construct the periodic merge tree of a quotient graph.

    Appearance: new beam with the zero periodicity lattice (coefficient
    1/vol_d, exponent d).  Loop edge: drift v = Drift(x) + Shift - Drift(y);
    no event when v lies in the current lattice, otherwise a catenation.
    Cross edge: merger under the elder rule; if the merged lattice strictly
    exceeds both inputs, a catenation happens at the same height.  Each event
    is recorded on a beam: its birth, its death and merger edge, or the cell
    of the epoch a catenation opens.  A basis volume that is not a normal
    float, or a coefficient that is not finite, is a ValueError.
    """
    d = graph.dim
    u = graph.basis
    vol_d = u.volume
    if not sys.float_info.min <= vol_d < math.inf:   # a subnormal has lost digits
        raise ValueError("basis volume out of float range")
    n, m = graph.n, graph.m

    def coefficient(lat: SublatticeBasis) -> float:
        c = volume(u, lat) / vol_d
        if not math.isfinite(c):
            raise ValueError("monomial coefficient out of float range")
        return c

    ids = graph.ids.tolist()
    vals = graph.values.tolist()
    kind = np.arange(n + m) >= n   # vertices before edges
    order = np.lexsort((graph.ids, kind, graph.values)).tolist()

    beams: list[Beam] = []
    coeff0 = 1.0 / vol_d
    empty = SublatticeBasis.empty(d)

    # union-find slots are vertex positions, as edge endpoints are; the
    # filter property guarantees both endpoints precede every edge.  Beams
    # are made in (birth, birth_vertex) order, so a beam's index is its elder
    # key; beam beam_of[root] holds, in its last epoch, the component's lattice
    uf = UnionFind(d, n)
    beam_of = [-1] * n
    full = [False] * n  # per slot: component lattice is all of Z^d

    ex, ey, eshift = graph.u.tolist(), graph.v.tolist(), graph.shifts

    root = uf.root
    drift = uf.drift
    rng_d = range(d)

    for oi in order:
        if oi < n:
            bi = len(beams)
            beams.append(Beam(bi, vals[oi], ids[oi], [Epoch(vals[oi], coeff0, d, empty)]))
            beam_of[oi] = bi
            continue

        p = oi - n
        x, y = ex[p], ey[p]
        r, s = root[x], root[y]
        if r == s and full[r]:
            continue
        sh = eshift[p]
        dx, dy = drift[x], drift[y]
        v = [dx[k] + sh[k] - dy[k] for k in rng_d]
        if r == s:
            if not any(v):
                continue
            sb = beams[beam_of[r]]
            cur = sb.epochs[-1].basis
            if member(cur, v):
                continue
            new = hnf_reduce(cur.columns + (tuple(v),), dim=d)
            if new.is_full:
                full[r] = True
            sb.epochs.append(Epoch(vals[oi], coefficient(new), d - new.rank, new, ids[oi]))
        else:
            t = vals[oi]
            eid = ids[oi]
            br, bs = beams[beam_of[r]], beams[beam_of[s]]
            base_r, base_s = br.epochs[-1].basis, bs.epochs[-1].basis
            if not base_s.columns:
                merged = base_r
            elif not base_r.columns:
                merged = base_s
            elif base_r is base_s or base_r == base_s:
                merged = base_r
            else:
                merged = hnf_reduce(base_r.columns + base_s.columns, dim=d)
            if br.index < bs.index:
                sb, dying = br, bs
            else:
                sb, dying = bs, br
            w = uf.union(r, s, v)
            full[w] = merged.is_full
            beam_of[w] = sb.index
            dying.death = t
            dying.parent = sb.index
            dying.merge_edge = eid
            prevb = sb.epochs[-1].basis
            if merged is not prevb and merged != prevb:
                coeff = coefficient(merged)
                exp = d - merged.rank
                # a lattice larger than both inputs is a catenation; one equal
                # to the absorbed beam's is only taken over
                cat = eid if merged != base_r and merged != base_s else None
                sb.epochs.append(Epoch(t, coeff, exp, merged, cat))
    return PeriodicMergeTree(d, beams)


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

    Per beam: birth, death, the normalized spans and the children, which
    the tables derive from parents and deaths, each as (merge height, child)
    in increasing order.  `tokens(b, t)` writes the subtree below (beam b,
    cut height t): the birth of b, its spans starting below t (the last one
    cut at t) and the subtrees of the children merging below t.
    """

    def __init__(self, tree: PeriodicMergeTree):
        self.fmt = _Text().__getitem__
        self._kid_orders = {}
        beams = tree.beams
        self.birth = [b.birth for b in beams]
        self.death = [b.death for b in beams]
        self.kids = kids = [[] for _ in beams]   # (merge height, child), sorted
        # a child joins its effective survivor: chained mergers at one height
        # are a processing-order artifact; all those beams join at one point.
        # A parent precedes its children, and a root never dies
        joins = [None] * len(beams)   # the effective survivor of each child
        for b in beams:
            if b.parent is not None:
                p = joins[b.parent] if self.death[b.parent] == b.death else b.parent
                joins[b.index] = p
                kids[p].append((b.death, b.index))
        for ks in kids:
            ks.sort()
        self.spans = [tuple(b.spans()) for b in beams]

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
            spans = self.spans[b]
            k = bisect_left(spans, top, key=_START)
            if not k:
                yield "|"
            for i, (st, en, c, e, _) in enumerate(spans[:k]):
                yield fmt(st) + ":"
                yield fmt(min(en, top)) + ":"
                yield fmt(c) + ":"
                yield f"{e}{';' if i < k - 1 else '|'}"
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
        n = len(tree.beams)
        self.base = [0] * n   # label of a beam's birth alone
        self.cuts = [()] * n  # exact event heights, increasing
        self.labels = [()] * n  # label of the events at or below each cut
        for b in range(n - 1, -1, -1):   # a beam joins one made before it
            events = [(st, 0, (fmt(c), e)) for st, _, c, e, _ in self.spans[b]]
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
        spans = self.spans[b]
        return lab, (self.fmt(min(top, self.death[b])) if spans and spans[0][0] < top else None)

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
        mb = _monomial(T.spans[b], t)
        if mb is None:
            return False
        k = len(pool_w)
        for w in pool_w:
            mw = _monomial(P.spans[w], t)
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
        mc = _monomial(T.spans[cs[0]], t, below=True)
        mx = _monomial(P.spans[items[0][1]], t, below=True)
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
