"""Incremental periodic merge tree construction.

Cells of the quotient graph are processed in the total order (value,
vertices-before-edges, id).  A union-find structure with constant-time find
carries, per vertex, the drift vector of the spanning-tree path from the
component root, and, per root, the size, the oldest (value, id) pair, and an
integer basis V of the periodicity lattice (the real basis is U.V).  Three
event kinds drive the tree: appearances, mergers, and catenations.

The beams are the only record of the tree: a beam holds its birth vertex,
its death and merger edge, its parent, and its epochs, each epoch naming the
catenation edge that opened it.  The event log is derived from them on
demand, in build's processing order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import SublatticeBasis, hnf_reduce, member, unit_ball_volume, volume
from .pgraph import PeriodicGraph


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

    __slots__ = ("index", "birth", "birth_vertex", "epochs", "death", "parent", "merge_edge",
                 "children")

    def __init__(self, index, birth, birth_vertex, epochs):
        self.index = index
        self.birth = birth
        self.birth_vertex = birth_vertex
        self.epochs = epochs
        self.death = math.inf
        self.parent = None
        self.merge_edge = None   # edge id of the merger that ends the beam
        self.children = []   # (merge height, child beam index), filled post-build

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
        for st, en, c, e, basis in self.spans():
            if (st < t <= en) if below else (st <= t < en):
                return c, e, basis
        return None


class UnionFind:
    """Union-find with drift vectors: O(1) find, size-based list splicing.

    Vertices live in per-component singly linked lists; unions relabel the
    smaller list, so every vertex is relabeled at most log2(n) times.  Slot i
    holds vertices[i], which starts as its own component.
    """

    __slots__ = ("dim", "root", "nxt", "drift", "size", "oldest", "basis", "beam",
                 "ids", "_index")

    def __init__(self, dim: int, vertices):
        n = len(vertices)
        self.dim = dim
        self.ids = [v.id for v in vertices]
        self._index = {v.id: i for i, v in enumerate(vertices)}
        self.root = list(range(n))
        self.nxt = [-1] * n
        self.drift = [[0] * self.dim for _ in range(n)]
        self.size = [1] * n
        self.oldest = [(v.value, v.id) for v in vertices]
        self.basis = [SublatticeBasis.empty(self.dim)] * n
        self.beam = [-1] * n

    def index(self, vertex_id: int) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise KeyError(f"unknown vertex {vertex_id}")

    def find(self, vertex_id: int) -> int:
        """Root vertex id of the component containing vertex_id (O(1))."""
        return self.ids[self.root[self.index(vertex_id)]]

    def union(self, r: int, s: int, v, merged_basis: SublatticeBasis) -> int:
        """Merge roots r and s; v is the drift correction for s's members.

        Returns the surviving root.  Callers must pass v = Drift(x) +
        Shift(a) - Drift(y) for an arc x -> y with Root(x) = r, Root(y) = s,
        and the reduced sum of the two components' periodicity lattices.
        """
        old = min(self.oldest[r], self.oldest[s])
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
        self.oldest[r] = old
        self.basis[r] = merged_basis
        return r


class PeriodicMergeTree:
    """Beams with monomial epochs; the critical-event log is derived from them."""

    __slots__ = ("dim", "vol_d", "beams")

    def __init__(self, dim, vol_d, beams):
        self.dim = dim
        self.vol_d = vol_d
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

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
    of the epoch a catenation opens.
    """
    d = graph.dim
    u = graph.basis
    vol_d = u.volume
    n, m = graph.n, graph.m

    vvals = np.fromiter((v.value for v in graph.vertices), dtype=float, count=n)
    evals = np.fromiter((e.value for e in graph.edges), dtype=float, count=m)
    vids = np.fromiter((v.id for v in graph.vertices), dtype=np.int64, count=n)
    eids = np.fromiter((e.id for e in graph.edges), dtype=np.int64, count=m)
    kind = np.concatenate([np.zeros(n, dtype=np.int8), np.ones(m, dtype=np.int8)])
    cid = np.concatenate([vids, eids])
    val = np.concatenate([vvals, evals])
    order = np.lexsort((cid, kind, val)).tolist()
    kinds = kind.tolist()
    poslist = np.concatenate([np.arange(n, dtype=np.int64), np.arange(m, dtype=np.int64)]).tolist()
    evlist = evals.tolist()
    eidlist = eids.tolist()

    beams: list[Beam] = []
    coeff0 = 1.0 / vol_d
    empty = SublatticeBasis.empty(d)

    # union-find slots follow graph order so edge endpoints index directly;
    # the filter property guarantees both endpoints precede every edge
    uf = UnionFind(d, graph.vertices)
    full = [False] * n  # per slot: component lattice is all of Z^d

    vindex = graph.vertex_index
    ex = [vindex(e.u) for e in graph.edges]
    ey = [vindex(e.v) for e in graph.edges]
    eshift = [e.shift for e in graph.edges]

    root = uf.root
    drift = uf.drift
    oldest = uf.oldest
    basis = uf.basis
    beam_of = uf.beam
    rng_d = range(d)

    for oi in order:
        p = poslist[oi]
        if kinds[oi] == 0:
            vtx = graph.vertices[p]
            bi = len(beams)
            beams.append(Beam(bi, vtx.value, vtx.id, [Epoch(vtx.value, coeff0, d, empty)]))
            beam_of[p] = bi
            continue

        x, y = ex[p], ey[p]
        r, s = root[x], root[y]
        if r == s:
            if full[r]:
                continue
            sh = eshift[p]
            dx, dy = drift[x], drift[y]
            v = [dx[k] + sh[k] - dy[k] for k in rng_d]
            if not any(v):
                continue
            cur = basis[r]
            if member(cur, v):
                continue
            new = hnf_reduce(cur.columns + (tuple(v),), dim=d)
            basis[r] = new
            if new.is_full:
                full[r] = True
            coeff = volume(u, new) / vol_d
            exp = d - new.rank
            beams[beam_of[r]].epochs.append(Epoch(evlist[p], coeff, exp, new, eidlist[p]))
        else:
            t = evlist[p]
            eid = eidlist[p]
            sh = eshift[p]
            dx, dy = drift[x], drift[y]
            v = [dx[k] + sh[k] - dy[k] for k in rng_d]
            base_r, base_s = basis[r], basis[s]
            was_full = full[r] or full[s]
            if not base_s.columns:
                merged = base_r
            elif not base_r.columns:
                merged = base_s
            elif base_r is base_s or base_r == base_s:
                merged = base_r
            else:
                merged = hnf_reduce(base_r.columns + base_s.columns, dim=d)
            if oldest[r] <= oldest[s]:
                surv_beam, dead_beam = beam_of[r], beam_of[s]
            else:
                surv_beam, dead_beam = beam_of[s], beam_of[r]
            w = uf.union(r, s, v, merged)
            if was_full or (merged.columns and merged.is_full):
                full[w] = True
            beam_of[w] = surv_beam
            dying = beams[dead_beam]
            dying.death = t
            dying.parent = surv_beam
            dying.merge_edge = eid
            sb = beams[surv_beam]
            prevb = sb.epochs[-1].basis
            if merged is not prevb and merged != prevb:
                coeff = volume(u, merged) / vol_d
                exp = d - merged.rank
                # a lattice larger than both inputs is a catenation; one equal
                # to the absorbed beam's is only taken over
                cat = eid if merged != base_r and merged != base_s else None
                sb.epochs.append(Epoch(t, coeff, exp, merged, cat))

    # children lists use the effective survivor: chains of mergers at one
    # height are a processing-order artifact, topologically all beams join
    # at a single point
    for b in beams:
        if b.parent is not None:
            p = b.parent
            while beams[p].parent is not None and beams[p].death == b.death:
                p = beams[p].parent
            beams[p].children.append((b.death, b.index))
    for b in beams:
        b.children.sort()
    return PeriodicMergeTree(d, vol_d, beams)


# ---------------------------------------------------------------------------
# canonical forms and the splintering check
# ---------------------------------------------------------------------------

def _rounded(x: float, tol: float) -> float:
    if math.isinf(x):
        return x
    return round(x / tol) * tol


def _digest(tree: PeriodicMergeTree, b: int, top: float, tol: float) -> str:
    """Order-insensitive serialization of the subtree hanging below (beam b, top)."""
    beam = tree.beams[b]
    spans = [(st, min(en, top), c, e) for st, en, c, e, _ in beam.spans() if st < top]
    body = ";".join(f"{_rounded(st, tol):.12g}:{_rounded(en, tol):.12g}:{_rounded(c, tol):.12g}:{e}"
                    for st, en, c, e in spans)
    kids = sorted(
        f"{_rounded(h, tol):.12g}>{_digest(tree, c, h, tol)}"
        for h, c in beam.children if h < top
    )
    return f"[{_rounded(beam.birth, tol):.12g}|{body}|{','.join(kids)}]"


def canonical_form(tree: PeriodicMergeTree, tol: float = 1e-9) -> str:
    """Digest equal iff trees are identical up to reordering of siblings."""
    parts = sorted(_digest(tree, r, math.inf, tol) for r in tree.roots())
    return "&".join(parts)


def _events_below(beam: Beam, top: float):
    """Heights < top at which the beam gains a child or changes epoch."""
    hs = {h for h, _ in beam.children if h < top}
    hs.update(st for st, _, _, _, _ in beam.spans() if beam.birth < st < top)
    return hs


def splinters(tprime: PeriodicMergeTree, tree: PeriodicMergeTree, tol: float = 1e-9) -> bool:
    """True iff a height-preserving surjection tprime -> tree splits subtrees evenly.

    Root-down sweep: at every point of `tree` covered by k preimage beams of
    `tprime`, the k preimage subtrees must have identical canonical forms and
    carry exactly 1/k of the image monomial; preimage mergers not mirrored in
    `tree` grow k on the way down.
    """
    if tprime.dim != tree.dim:
        return False

    def check(ws: list, b: int, top: float) -> bool:
        beam = tree.beams[b]
        if not ws:
            return False
        if len({_digest(tprime, w, top, tol) for w in ws}) != 1:
            return False
        pool_w = list(ws)
        pos = top
        while True:
            heights = set(_events_below(beam, pos))
            for w in pool_w:
                heights |= _events_below(tprime.beams[w], pos)
            t = max(heights) if heights else beam.birth
            # interval (t, pos): constant monomials, each preimage carries 1/k
            if pos > t:
                mb = beam.monomial(t)
                if mb is None:
                    return False
                k = len(pool_w)
                for w in pool_w:
                    mw = tprime.beams[w].monomial(t)
                    if mw is None or mw[1] != mb[1] or abs(mw[0] - mb[0] / k) > tol:
                        return False
            if not heights:
                return all(tprime.beams[w].birth == beam.birth for w in pool_w)

            b_children = [c for h, c in beam.children if h == t]
            groups: dict[str, list] = {}
            for c in b_children:
                groups.setdefault(_digest(tree, c, t, tol), []).append(c)
            group_list = [groups[dg] for dg in sorted(groups)]
            # candidate preimages for the children: children of W-beams merging
            # at t, plus W-beams themselves sliding onto a child
            classes: dict[str, list] = {}
            for w in pool_w:
                for h, c2 in tprime.beams[w].children:
                    if h == t:
                        classes.setdefault(_digest(tprime, c2, t, tol), []).append(("child", c2))
            for w in pool_w:
                classes.setdefault(_digest(tprime, w, t, tol), []).append(("slide", w))

            def feasible_counts(cs, items):
                """Preimage count per child, pinned by the monomial ratio."""
                g = len(cs)
                if len(items) < g:
                    return []
                mc = tree.beams[cs[0]].monomial(t, below=True)
                mx = tprime.beams[items[0][1]].monomial(t, below=True)
                if mc is None or mx is None:
                    return [kc for kc in range(1, len(items) // g + 1)]
                if mx[1] != mc[1] or mx[0] <= 0:
                    return []
                kc = round(mc[0] / mx[0])
                if kc < 1 or abs(mc[0] / kc - mx[0]) > tol or g * kc > len(items):
                    return []
                return [kc]

            def assign_children(gi: int, avail: dict):
                if gi == len(group_list):
                    return avail
                cs = group_list[gi]
                g = len(cs)
                for dg in sorted(avail):
                    items = avail[dg]
                    for kc in feasible_counts(cs, items):
                        take = items[: g * kc]
                        if not all(check([it[1] for it in take[i * kc:(i + 1) * kc]], c, t)
                                   for i, c in enumerate(cs)):
                            continue
                        rest = dict(avail)
                        rest[dg] = items[g * kc:]
                        out = assign_children(gi + 1, rest)
                        if out is not None:
                            return out
                return None

            leftover = assign_children(0, classes)
            if leftover is None:
                return False
            slid = set()
            joined = []
            for items in leftover.values():
                for kind, idx in items:
                    if kind == "child":
                        joined.append(idx)
            taken_slides = {idx for items in classes.values() for kind, idx in items
                            if kind == "slide"} - {idx for items in leftover.values()
                                                   for kind, idx in items if kind == "slide"}
            slid |= taken_slides
            pool_w = [w for w in pool_w if w not in slid]
            pool_w.extend(joined)
            if not pool_w:
                return False
            if len({_digest(tprime, w, t, tol) for w in pool_w}) != 1:
                return False
            pos = t

    troots = tree.roots()
    proots = tprime.roots()
    if not troots or not proots:
        return not troots and not proots
    classes: dict[str, list] = {}
    for r in troots:
        classes.setdefault(_digest(tree, r, math.inf, tol), []).append(r)
    pgroups: dict[str, list] = {}
    for r in proots:
        pgroups.setdefault(_digest(tprime, r, math.inf, tol), []).append(r)
    class_list = sorted(classes.values(), key=lambda rs: rs[0])
    remaining = {dg: list(rs) for dg, rs in pgroups.items()}

    def assign(ci: int) -> bool:
        if ci == len(class_list):
            return all(not rs for rs in remaining.values())
        cs = class_list[ci]
        g = len(cs)
        for dg in sorted(remaining):
            members = remaining[dg]
            if not members or len(members) % g:
                continue
            kc = len(members) // g
            taken = [members[i * kc:(i + 1) * kc] for i in range(g)]
            if all(check(taken[i], cs[i], math.inf) for i in range(g)):
                remaining[dg] = []
                if assign(ci + 1):
                    return True
                remaining[dg] = members
        return False

    return assign(0)
