"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: lattice membership by
bounded coefficient enumeration, optimal transport by unit-splitting plus the
Hungarian method, connectivity by breadth-first search.  The splinters
check and canonical form are the library's earlier recursive
implementation, `oracle_unroll` its earlier per-edge unroll,
`oracle_parse` its earlier record-by-record parse, and
`oracle_hnf_columns` its earlier HNF reduction carrying a separate transform
matrix, `oracle_w1` its earlier transport solver (one arc record per
pair, with the transport plan it can report), `oracle_extract` its earlier
barcode extraction (a dict of contributions per bar key, with its CSV and
JSON renderings), `oracle_volume` and `oracle_coefficient` sublattice
volumes and monomial coefficients from Fraction Gram determinants, each
rounded by checking a float against the midpoints to its neighbours, and
`oracle_build` its earlier merge tree (one `Beam` object per beam, one
`Epoch` per epoch, and `UnionFind`, with one list of d ints per drift);
all are kept as differential references for the current code.  `view` shows a columnar tree as those objects, for the
oracles and tests that walk beams and epochs.
"""
import functools
import heapq
import io
import itertools
import json
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np
from scipy.optimize import linear_sum_assignment

from perimere.lattice import (IntMatrix, RealBasis, SublatticeBasis, coset_reps,
                              hnf_reduce, hnf_transform, member, reduce_mod, solve)
from perimere.mergetree import Event, PeriodicMergeTree
from perimere.pgraph import (_ID_MAX, _ID_MIN, _TOP_KEYS, GraphError, PeriodicGraph, _bad_record,
                             _read_int, _read_shift, _read_value, parse)
from perimere.transport import _masses


def brute_member(columns, v, bound=30):
    """Is v an integer combination of `columns` with coefficients in [-bound, bound]?

    Meet-in-the-middle over the two column halves; exact integer arithmetic
    via packed int64 keys (entries stay far below the packing range).
    """
    cols = [tuple(int(e) for e in c) for c in columns]
    if not cols:
        return not any(v)
    d = len(cols[0])
    target = np.array(v, dtype=np.int64)
    half1 = cols[: len(cols) // 2]
    half2 = cols[len(cols) // 2:]

    def sums(cs):
        if not cs:
            return np.zeros((1, d), dtype=np.int64)
        coeffs = np.array(list(itertools.product(range(-bound, bound + 1), repeat=len(cs))),
                          dtype=np.int64)
        return coeffs @ np.array(cs, dtype=np.int64)

    def pack(pts):
        off = pts + 2 * bound * 10 * len(cols)  # shift well into positive range
        key = np.zeros(len(pts), dtype=np.int64)
        for j in range(d):
            key = key * 200003 + off[:, j]
        return key

    s1 = pack(sums(half1))
    s1.sort()
    rest = target[None, :] - sums(half2)
    k2 = pack(rest)
    idx = np.searchsorted(s1, k2)
    idx = np.clip(idx, 0, len(s1) - 1)
    return bool(np.any(s1[idx] == k2))


def assignment_w1(xi, eta):
    """Unit-splitting 1-Wasserstein oracle for small integer-mass instances.

    Splits every unit of mass into its own point, adds one diagonal slot per
    unit on the opposite side, and solves the square assignment problem.
    """
    xs = [p for p, m in sorted(xi.items()) for _ in range(int(round(m)))]
    ys = [p for p, m in sorted(eta.items()) for _ in range(int(round(m)))]
    inf_x = sorted(p[0] for p in xs if math.isinf(p[1]))
    inf_y = sorted(p[0] for p in ys if math.isinf(p[1]))
    if len(inf_x) != len(inf_y):
        return math.inf
    # infinite points can only pair among themselves; sorted pairing is
    # optimal for |b1 - b2| costs on the line
    inf_cost = sum(abs(a - b) for a, b in zip(inf_x, inf_y))
    xs = [p for p in xs if not math.isinf(p[1])]
    ys = [p for p in ys if not math.isinf(p[1])]
    nx, ny = len(xs), len(ys)
    size = nx + ny
    if size == 0:
        return float(inf_cost)
    cost = np.zeros((size, size))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            cost[i, j] = abs(x[0] - y[0]) + abs(x[1] - y[1])
        cost[i, ny:] = abs(x[1] - x[0])
    for j, y in enumerate(ys):
        cost[nx:, j] = abs(y[1] - y[0])
    cost[nx:, ny:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() + inf_cost)


@dataclass
class TransportPlan:
    """Feasible plan for Eq-style marginals: flows pi, absorptions chi/upsilon."""
    flows: dict        # (x, y) -> mass
    source_diag: dict  # x -> mass absorbed into the diagonal
    sink_diag: dict    # y -> mass emitted from the diagonal
    cost: float

    def to_json_dict(self) -> dict:
        def key(pt):
            return [pt[0], None if math.isinf(pt[1]) else pt[1]]
        return {
            "cost": self.cost,
            "flows": [
                {"from": key(x), "to": key(y), "mass": m}
                for (x, y), m in sorted(self.flows.items())
            ],
            "source_diagonal": [{"point": key(x), "mass": m} for x, m in sorted(self.source_diag.items())],
            "sink_diagonal": [{"point": key(y), "mass": m} for y, m in sorted(self.sink_diag.items())],
        }


class _MinCostFlow:
    """Successive shortest paths with potentials (non-negative float costs)."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []
        self.cost = []

    def add(self, u, v, cap, cost):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return len(self.to) - 2

    def solve(self, src, dst, want):
        """Ship `want` units src -> dst; returns (shipped, cost)."""
        n = self.n
        pot = [0.0] * n
        shipped = 0
        total = 0.0
        INF = math.inf
        while shipped < want:
            dist = [INF] * n
            par = [-1] * n
            dist[src] = 0.0
            pq = [(0.0, src)]
            while pq:
                dd, u = heapq.heappop(pq)
                if dd > dist[u] + 1e-12:
                    continue
                for ai in self.head[u]:
                    if self.cap[ai] <= 0:
                        continue
                    v = self.to[ai]
                    nd = dd + max(self.cost[ai] + pot[u] - pot[v], 0.0)
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        par[v] = ai
                        heapq.heappush(pq, (nd, v))
            if par[dst] < 0:
                break
            for v in range(n):
                if dist[v] < INF:
                    pot[v] += dist[v]
            push = want - shipped
            v = dst
            while v != src:
                ai = par[v]
                push = min(push, self.cap[ai])
                v = self.to[ai ^ 1]
            v = dst
            while v != src:
                ai = par[v]
                self.cap[ai] -= push
                self.cap[ai ^ 1] += push
                total += push * self.cost[ai]
                v = self.to[ai ^ 1]
            shipped += push
        return shipped, total


def _pair_cost(x, y) -> float:
    xinf, yinf = math.isinf(x[1]), math.isinf(y[1])
    if xinf and yinf:
        return abs(x[0] - y[0])
    if xinf or yinf:
        return math.inf
    return abs(x[0] - y[0]) + abs(x[1] - y[1])


def _diag_cost(x) -> float:
    return abs(x[1] - x[0])


def oracle_w1(xi: dict, eta: dict, with_plan: bool = False):
    """The library's earlier dense successive-shortest-path `w1`.

    1-Wasserstein distance between non-negative multiplicity functions.

    xi and eta map (birth, death) -> mass >= 0; death may be math.inf.
    Returns math.inf iff the total infinite-death masses differ by more
    than TOL; the masses are rounded as the library rounds them.
    """
    masses = _masses(xi, eta)
    if masses is None:
        return (math.inf, None) if with_plan else math.inf
    sx, sy, scale = masses
    xs = sorted(sx)
    ys = sorted(sy)

    nx, ny = len(xs), len(ys)
    src, dst, diag = nx + ny, nx + ny + 1, nx + ny + 2
    net = _MinCostFlow(nx + ny + 3)
    supply = 0
    x_arcs = {}
    y_arcs = {}
    pair_arcs = {}
    diag_x = {}
    diag_y = {}
    for i, x in enumerate(xs):
        net.add(src, i, sx[x], 0.0)
        supply += sx[x]
        if not math.isinf(x[1]):
            diag_x[x] = net.add(i, diag, sx[x], _diag_cost(x))
    for j, y in enumerate(ys):
        net.add(nx + j, dst, sy[y], 0.0)
        if not math.isinf(y[1]):
            diag_y[y] = net.add(diag, nx + j, sy[y], _diag_cost(y))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            c = _pair_cost(x, y)
            if math.isfinite(c):
                pair_arcs[(x, y)] = net.add(i, nx + j, min(sx[x], sy[y]), c)
    # the diagonal also absorbs the source/sink imbalance
    demand = sum(sy.values())
    if demand > supply:
        net.add(src, diag, demand - supply, 0.0)
        supply = demand
    elif supply > demand:
        net.add(diag, dst, supply - demand, 0.0)

    shipped, cost = net.solve(src, dst, supply)
    if shipped < supply:
        return (math.inf, None) if with_plan else math.inf
    dist = cost / scale
    if not with_plan:
        return dist
    flows = {}
    for (x, y), ai in pair_arcs.items():
        f = net.cap[ai ^ 1]
        if f:
            flows[(x, y)] = f / scale
    chi = {x: net.cap[ai ^ 1] / scale for x, ai in diag_x.items() if net.cap[ai ^ 1]}
    ups = {y: net.cap[ai ^ 1] / scale for y, ai in diag_y.items() if net.cap[ai ^ 1]}
    return dist, TransportPlan(flows, chi, ups, dist)


def bfs_components(n_ids, edge_pairs):
    """Partition of vertex ids into connected components (frozensets)."""
    adj = {i: [] for i in n_ids}
    for u, v in edge_pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for start in n_ids:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            for w in adj[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return set(comps)


# ---------------------------------------------------------------------------
# reference splinters check: the recursive string-digest implementation that
# `perimere.mergetree` replaced, kept verbatim (it raises RecursionError on
# trees a few hundred beams deep and grows like n^2)
# ---------------------------------------------------------------------------

def _rounded(x: float, tol: float) -> float:
    if math.isinf(x):
        return x
    return round(x / tol) * tol


@functools.lru_cache(maxsize=4)
def children(tree: PeriodicMergeTree) -> list:
    """Per beam, its (merge height, child) pairs in increasing order.

    Derived from `parent` and `death` alone; a child is listed under its
    effective survivor, the first ancestor that outlives the merger height,
    since mergers chained at one height join all their beams at one point.
    """
    beams = view(tree)
    kids = [[] for _ in beams]
    for beam in beams:
        p = beam.parent
        if p is None:
            continue
        while beams[p].parent is not None and beams[p].death == beam.death:
            p = beams[p].parent
        kids[p].append((beam.death, beam.index))
    return [sorted(ks) for ks in kids]


def _digest(tree: PeriodicMergeTree, b: int, top: float, tol: float) -> str:
    """Order-insensitive serialization of the subtree hanging below (beam b, top)."""
    beam = view(tree)[b]
    spans = [(st, min(en, top), c, e) for st, en, c, e, _ in beam.spans() if st < top]
    body = ";".join(f"{_rounded(st, tol):.12g}:{_rounded(en, tol):.12g}:{_rounded(c, tol):.12g}:{e}"
                    for st, en, c, e in spans)
    kids = sorted(
        f"{_rounded(h, tol):.12g}>{_digest(tree, c, h, tol)}"
        for h, c in children(tree)[b] if h < top
    )
    return f"[{_rounded(beam.birth, tol):.12g}|{body}|{','.join(kids)}]"


def canonical_form(tree: PeriodicMergeTree, tol: float = 1e-9) -> str:
    """Digest equal iff trees are identical up to reordering of siblings."""
    parts = sorted(_digest(tree, r, math.inf, tol) for r in tree.roots())
    return "&".join(parts)


def _events_below(tree: PeriodicMergeTree, b: int, top: float):
    """Heights < top at which beam b gains a child or changes epoch."""
    beam = view(tree)[b]
    hs = {h for h, _ in children(tree)[b] if h < top}
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

    beams, pbeams = view(tree), view(tprime)

    def check(ws: list, b: int, top: float) -> bool:
        beam = beams[b]
        if not ws:
            return False
        if len({_digest(tprime, w, top, tol) for w in ws}) != 1:
            return False
        pool_w = list(ws)
        pos = top
        while True:
            heights = set(_events_below(tree, b, pos))
            for w in pool_w:
                heights |= _events_below(tprime, w, pos)
            t = max(heights) if heights else beam.birth
            # interval (t, pos): constant monomials, each preimage carries 1/k
            if pos > t:
                mb = beam.monomial(t)
                if mb is None:
                    return False
                k = len(pool_w)
                for w in pool_w:
                    mw = pbeams[w].monomial(t)
                    if mw is None or mw[1] != mb[1] or abs(mw[0] - mb[0] / k) > tol:
                        return False
            if not heights:
                return all(pbeams[w].birth == beam.birth for w in pool_w)

            b_children = [c for h, c in children(tree)[b] if h == t]
            groups: dict[str, list] = {}
            for c in b_children:
                groups.setdefault(_digest(tree, c, t, tol), []).append(c)
            group_list = [groups[dg] for dg in sorted(groups)]
            # candidate preimages for the children: children of W-beams merging
            # at t, plus W-beams themselves sliding onto a child
            classes: dict[str, list] = {}
            for w in pool_w:
                for h, c2 in children(tprime)[w]:
                    if h == t:
                        classes.setdefault(_digest(tprime, c2, t, tol), []).append(("child", c2))
            for w in pool_w:
                classes.setdefault(_digest(tprime, w, t, tol), []).append(("slide", w))

            def feasible_counts(cs, items):
                """Preimage count per child, pinned by the monomial ratio."""
                g = len(cs)
                if len(items) < g:
                    return []
                mc = beams[cs[0]].monomial(t, below=True)
                mx = pbeams[items[0][1]].monomial(t, below=True)
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


def edge_shifts(g: PeriodicGraph) -> list:
    """The shift tuple of each edge, in edge order: g's table read through
    its per-edge positions."""
    return [g.table[i] for i in g.which.tolist()]


def oracle_unroll(g: PeriodicGraph, s: IntMatrix) -> PeriodicGraph:
    """Quotient of the same periodic complex over the sublattice S.Z^d.

    Vertices become (v, c) for every coset representative c of Z^d modulo
    S.Z^d; an edge (u -> v, shift t) spawns one copy per representative c,
    ending at (v, c') with c' the canonical representative of c + t and a
    new shift solving S.shift' = c + t - c'.  The result has |det S| times
    the vertices and edges of g, with basis U.S.
    """
    if s.rows != g.dim or s.cols != g.dim:
        raise GraphError("sublattice matrix must be d x d")
    h, certs = hnf_transform(s)
    if h.rank != g.dim:
        raise GraphError("singular sublattice matrix")
    reps = coset_reps(s)
    k = len(reps)
    rep_index = {r: i for i, r in enumerate(reps)}
    new_cols = [
        [sum(g.basis.matrix[r, c] * s.columns[j][c] for c in range(g.dim)) for r in range(g.dim)]
        for j in range(g.dim)
    ]
    n = g.n
    ids = g.ids.tolist()
    values = g.values.tolist()
    for pos, tok in g.raw.items():
        values[pos] = tok
    vertices = []
    for vid, value in zip(ids[:n], values[:n]):
        for ci in range(k):
            vertices.append({"id": vid * k + ci, "value": value})
    edges = []
    for eid, pu, pv, value, shift in zip(ids[n:], g.u.tolist(), g.v.tolist(), values[n:],
                                        edge_shifts(g)):
        for ci, c in enumerate(reps):
            w = tuple(a + b for a, b in zip(c, shift))
            c2 = reduce_mod(h, w)
            diff = tuple(a - b for a, b in zip(w, c2))
            y = solve(h, diff)
            if y is None:
                raise AssertionError("coset reduction left a non-lattice difference")
            # H = S . certs, so S . (certs . y) = diff
            t = tuple(
                sum(certs[col][i] * y[col] for col in range(len(y))) for i in range(g.dim)
            )
            edges.append({"id": eid * k + ci, "u": ids[pu] * k + ci,
                          "v": ids[pv] * k + rep_index[c2], "value": value, "shift": list(t)})
    return parse({"dim": g.dim, "basis": new_cols, "vertices": vertices, "edges": edges})


_DIGITS = frozenset("0123456789")


def _is_decimal(text: str) -> bool:
    """Whether `text` is an ASCII decimal: an optional sign, digits with at
    most one point and at least one digit, then optionally e or E, a sign
    and digits.  Read by partitions, not by the library's pattern."""
    mantissa, e, exponent = text.replace("E", "e").partition("e")
    if exponent[:1] in ("+", "-"):
        exponent = exponent[1:]
    if mantissa[:1] in ("+", "-"):
        mantissa = mantissa[1:]
    whole, _, frac = mantissa.partition(".")
    return (bool(whole or frac) and set(whole + frac) <= _DIGITS
            and (not e or bool(exponent) and set(exponent) <= _DIGITS))


def _oracle_value(value, what):
    """`_read_value`, with a decimal string checked again by `_is_decimal`."""
    val = _read_value(value, what)
    if isinstance(value, str) and not _is_decimal(value):
        raise GraphError(f"{what}: bad decimal string {value!r}")
    return val


def oracle_parse(source) -> PeriodicGraph:
    """The library's earlier `parse`: one loop over the records, reading and
    checking each value as it comes."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise GraphError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphError("document root must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        # cells above dimension 1 (or anything else unrecognized) are rejected
        raise GraphError(f"unsupported keys in document: {sorted(extra)}")
    try:
        dim = _read_int(doc["dim"], "dim")
        basis_cols = doc["basis"]
        vlist = doc["vertices"]
        elist = doc["edges"]
    except KeyError as missing:
        raise GraphError(f"missing required key {missing}")
    if dim < 1:
        raise GraphError("dim must be >= 1")
    if (not isinstance(basis_cols, (list, tuple)) or len(basis_cols) != dim
            or any(not isinstance(c, (list, tuple)) or len(c) != dim for c in basis_cols)):
        raise GraphError("basis must be a list of d columns of d reals")
    try:
        finite = all(isinstance(e, (int, float)) and type(e) is not bool and math.isfinite(e)
                     for c in basis_cols for e in c)
    except OverflowError:
        finite = False
    if not finite:
        raise GraphError("basis entries must be finite numbers")
    try:
        basis = RealBasis(basis_cols)
    except ValueError as exc:
        raise GraphError(str(exc))
    for key, recs in (("vertices", vlist), ("edges", elist)):
        if not isinstance(recs, (list, tuple)):
            raise GraphError(f"{key} must be a list of records, not {type(recs).__name__}")
    ids, values, raw = [], [], {}   # raw: cell position -> decimal-string token
    index = {}   # vertex id -> position
    for pos, rec in enumerate(vlist):
        try:
            vid, value = rec["id"], rec["value"]
        except (KeyError, TypeError):
            raise _bad_record("vertex", pos, rec, ("id", "value"))
        if type(vid) is not int or not _ID_MIN <= vid <= _ID_MAX:   # in-range ints skip the call
            vid = _read_int(vid, f"vertex record {pos}: id")
        if isinstance(value, str):
            raw[pos] = value
        index[vid] = pos
        ids.append(vid)
        values.append(_oracle_value(value, f"vertex {vid}"))
    us, vs, shifts = [], [], []
    for pos, rec in enumerate(elist):
        try:
            eid, u, v, value, shift = rec["id"], rec["u"], rec["v"], rec["value"], rec["shift"]
        except (KeyError, TypeError):
            raise _bad_record("edge", pos, rec, ("id", "u", "v", "value", "shift"))
        if type(eid) is not int or not _ID_MIN <= eid <= _ID_MAX:
            eid = _read_int(eid, f"edge record {pos}: id")
        what = f"edge {eid}"
        if type(u) is not int:   # an endpoint out of range matches no vertex
            u = _read_int(u, f"{what}: u")
        if type(v) is not int:
            v = _read_int(v, f"{what}: v")
        if isinstance(value, str):
            raw[len(values)] = value
        ids.append(eid)
        values.append(_oracle_value(value, what))
        us.append(index.get(u, -1))
        vs.append(index.get(v, -1))
        shifts.append(_read_shift(shift, what))
    n = len(vlist)
    if len(index) != n:
        raise GraphError("duplicate vertex id")
    if len(set(ids[n:])) != len(elist):
        raise GraphError("duplicate edge id")
    for eid, val, a, b, shift in zip(ids[n:], values[n:], us, vs, shifts):
        if a < 0 or b < 0:
            raise GraphError(f"edge {eid} references a missing vertex")
        if len(shift) != dim:
            raise GraphError(f"edge {eid} has a shift of wrong length")
        lo = max(values[a], values[b])
        if val < lo:
            raise GraphError(
                f"edge {eid} violates the filter property: value {val} below endpoint value {lo}")
    table = list(dict.fromkeys(shifts))   # the distinct shifts, in order of first use
    position = {t: i for i, t in enumerate(table)}
    return PeriodicGraph(dim, basis, ids, values, raw, us, vs, table, [position[t] for t in shifts])


def oracle_hnf_columns(dim: int, columns, with_transform: bool = False):
    """Column-operation HNF reduction (negate / swap / subtract a multiple).

    Returns (basis_columns, all_columns, transform) where transform[k] gives
    integer coefficients x with  input_matrix . x = all_columns[k]; the
    trailing all-zero columns therefore index a basis of the integer kernel.
    """
    cols = [list(c) for c in columns]
    c = len(cols)
    trans = [[1 if i == k else 0 for i in range(c)] for k in range(c)] if with_transform else None
    j = 0
    for i in range(dim):
        pivot = None
        for l in range(j, c):
            if cols[l][i]:
                pivot = l
                break
        if pivot is None:
            continue
        cols[j], cols[pivot] = cols[pivot], cols[j]
        if trans is not None:
            trans[j], trans[pivot] = trans[pivot], trans[j]
        if cols[j][i] < 0:
            cols[j] = [-e for e in cols[j]]
            if trans is not None:
                trans[j] = [-e for e in trans[j]]
        for k in range(j + 1, c):
            if cols[k][i] < 0:
                cols[k] = [-e for e in cols[k]]
                if trans is not None:
                    trans[k] = [-e for e in trans[k]]
            # Euclid on the i-th entries of columns j and k.
            while cols[j][i] and cols[k][i]:
                q = cols[j][i] // cols[k][i]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
                    if trans is not None:
                        trans[j] = [a - q * b for a, b in zip(trans[j], trans[k])]
                cols[j], cols[k] = cols[k], cols[j]
                if trans is not None:
                    trans[j], trans[k] = trans[k], trans[j]
            if cols[j][i] == 0 and cols[k][i]:
                cols[j], cols[k] = cols[k], cols[j]
                if trans is not None:
                    trans[j], trans[k] = trans[k], trans[j]
        # canonical: entries left of the pivot reduced into [0, pivot)
        for k in range(j):
            q = cols[k][i] // cols[j][i]
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
                if trans is not None:
                    trans[k] = [a - q * b for a, b in zip(trans[k], trans[j])]
        j += 1
    basis = tuple(tuple(col) for col in cols[:j])
    if with_transform:
        return basis, [tuple(col) for col in cols], [tuple(t) for t in trans]
    return basis, None, None


def oracle_extract(tree: PeriodicMergeTree) -> list:
    """Per era 0..d, the (birth, death, mult) bars in (birth, death) order.

    Every span of a beam adds +coeff to the key (exp, birth, end) and
    -coeff to (exp, birth, start) when those bars are not empty; each key's
    mult is the `math.fsum` of its values, and zero mults drop out.
    """
    contribs: dict = {}
    for beam in view(tree):
        birth = beam.birth
        for start, end, coeff, exp, _ in beam.spans():
            if end > birth:
                contribs.setdefault((exp, birth, end), []).append(coeff)
            if start > birth:
                contribs.setdefault((exp, birth, start), []).append(-coeff)
    eras = [[] for _ in range(tree.dim + 1)]
    for (exp, birth, death) in sorted(contribs, key=lambda k: (k[1], k[2], k[0])):
        mult = math.fsum(sorted(contribs[(exp, birth, death)]))
        if mult != 0.0:
            eras[exp].append((birth, death, mult))
    return eras


def oracle_csv(eras: list) -> str:
    """`oracle_extract`'s bars as CSV rows, sorted by (birth, death, era)."""
    rows = sorted((birth, death, exp, mult)
                  for exp, era in enumerate(eras) for birth, death, mult in era)
    out = io.StringIO()
    out.write("era,birth,death,mult\n")
    for birth, death, exp, mult in rows:
        dtxt = "inf" if math.isinf(death) else repr(death)
        out.write(f"{exp},{birth!r},{dtxt},{mult!r}\n")
    return out.getvalue()


def oracle_json(eras: list) -> str:
    """`oracle_extract`'s bars as the indent-2, sorted-key barcode JSON."""
    return json.dumps({
        "dim": len(eras) - 1,
        "eras": [{"exp": exp, "bars": [
            {"birth": birth, "death": None if math.isinf(death) else death, "mult": mult}
            for birth, death, mult in era]} for exp, era in enumerate(eras)],
    }, indent=2, sort_keys=True)


def _fraction_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def _even(x: float) -> bool:
    """x's last significand bit is 0: a tie rounds to such a float."""
    return Fraction(x) / Fraction(math.ulp(x)) % 2 == 0


def nearest_root(q: Fraction) -> float:
    """The float nearest sqrt(q) for an exact q > 0, ties to even, inf past
    the float range: a float candidate, moved to a neighbour until sqrt(q)
    lies between the midpoints to its two neighbours (compared as squares)."""
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        x = math.ldexp(math.sqrt(float(q / Fraction(4) ** e)), e)
    except OverflowError:
        x = sys.float_info.max
    while True:
        down, up = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
        lo = (Fraction(x) + Fraction(down)) / 2
        hi = (Fraction(x) + (Fraction(2 ** 1024) if up == math.inf else Fraction(up))) / 2
        if q < lo * lo or (q == lo * lo and not _even(x)):
            x = down
        elif q > hi * hi or (q == hi * hi and not _even(x)):
            x = up
            if x == math.inf:
                return x
        else:
            return x


def _gram_fraction(u: RealBasis, l: SublatticeBasis) -> Fraction:
    """det(G^T G) for G = U . columns(L), U read exactly from its floats."""
    m = [[Fraction(x) for x in row] for row in u.matrix.tolist()]
    g = [[sum(row[c] * col[c] for c in range(u.dim)) for row in m] for col in l.columns]
    return _fraction_det([[sum(x * y for x, y in zip(a, b)) for b in g] for a in g])


def oracle_volume(u: RealBasis, l: SublatticeBasis) -> float:
    """sqrt(det(G^T G)), G = U . columns(L), correctly rounded: the Gram
    determinant in Fractions, then `nearest_root`."""
    return nearest_root(_gram_fraction(u, l))


def oracle_coefficient(u: RealBasis, l: SublatticeBasis) -> float:
    """vol_p(U . L) / vol_d(U), correctly rounded: the exact square
    det(G^T G) / det(U)^2 in Fractions, then `nearest_root`."""
    det = _fraction_det([[Fraction(x) for x in row] for row in u.matrix.tolist()])
    return nearest_root(_gram_fraction(u, l) / (det * det))


# ---------------------------------------------------------------------------
# reference merge tree: the object-per-beam-and-epoch `build` that
# `perimere.mergetree` replaced with columns, kept verbatim, and a view of a
# columnar tree as the same objects
# ---------------------------------------------------------------------------

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


_START = itemgetter(0)


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

    def __eq__(self, other):
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def __repr__(self):
        return "Beam(%s)" % ", ".join(f"{a}={getattr(self, a)!r}" for a in self.__slots__)

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
        spans = self.spans()
        i = (bisect_left if below else bisect_right)(spans, t, key=_START) - 1
        if i < 0:
            return None
        _, en, c, e, basis = spans[i]
        return (c, e, basis) if (t <= en if below else t < en) else None


class ObjectTree:
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


class UnionFind:
    """Union-find with drift vectors: O(1) find, size-based list splicing;
    `build`'s earlier union-find, one list of d ints per drift.

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


def oracle_build(graph: PeriodicGraph) -> ObjectTree:
    """Construct the periodic merge tree of a quotient graph.

    Appearance: new beam with the zero periodicity lattice (coefficient
    1/vol_d, exponent d).  Loop edge: drift v = Drift(x) + Shift - Drift(y);
    no event when v lies in the current lattice, otherwise a catenation.
    Cross edge: merger under the elder rule; if the merged lattice strictly
    exceeds both inputs, a catenation happens at the same height.  Each event
    is recorded on a beam: its birth, its death and merger edge, or the cell
    of the epoch a catenation opens.  A coefficient that rounds to 0.0 or
    past the float range is a ValueError.
    """
    d = graph.dim
    u = graph.basis
    n, m = graph.n, graph.m

    def coefficient(lat: SublatticeBasis) -> float:
        c = oracle_coefficient(u, lat)
        if not 0.0 < c < math.inf:
            raise ValueError("monomial coefficient out of float range")
        return c

    ids = graph.ids.tolist()
    vals = graph.values.tolist()
    kind = np.arange(n + m) >= n   # vertices before edges
    order = np.lexsort((graph.ids, kind, graph.values)).tolist()

    beams: list[Beam] = []
    empty = SublatticeBasis.empty(d)
    coeff0 = coefficient(empty)

    # union-find slots are vertex positions, as edge endpoints are; the
    # filter property guarantees both endpoints precede every edge.  Beams
    # are made in (birth, birth_vertex) order, so a beam's index is its elder
    # key; beam beam_of[root] holds, in its last epoch, the component's lattice
    uf = UnionFind(d, n)
    beam_of = [-1] * n
    full = [False] * n  # per slot: component lattice is all of Z^d

    ex, ey, eshift = graph.u.tolist(), graph.v.tolist(), edge_shifts(graph)

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
    return ObjectTree(d, beams)


@functools.lru_cache(maxsize=4)
def view(tree: PeriodicMergeTree) -> list:
    """The beams of a columnar tree as `Beam`s with their `Epoch`s, in index
    order: what `oracle_build` makes of the same graph."""
    start, coeff, exp = tree.start.tolist(), tree.coeff.tolist(), tree.exp.tolist()
    cell = [c if cat else None for c, cat in zip(tree.cell.tolist(), tree.catenation.tolist())]
    offsets = tree.offsets.tolist()
    basis = list(map(tree.lattices.__getitem__, tree.lattice.tolist()))
    beams = []
    for b, (birth, vertex, death, parent, edge) in enumerate(zip(
            tree.birth.tolist(), tree.birth_vertex.tolist(), tree.death.tolist(),
            tree.parent.tolist(), tree.merge_edge.tolist())):
        beam = Beam(b, birth, vertex, [Epoch(start[i], coeff[i], exp[i], basis[i], cell[i])
                                       for i in range(offsets[b], offsets[b + 1])])
        beam.death = death
        if parent >= 0:
            beam.parent, beam.merge_edge = parent, edge
        beams.append(beam)
    return beams


def tree_of(dim: int, beams: list) -> PeriodicMergeTree:
    """The columnar tree of `Beam`s given in index order (the inverse of `view`),
    its epochs' (lattice, coeff) pairs interned by value into the table in
    order of first use: a hand-built tree may give one lattice several
    coefficients, and then lists it once per coefficient.  An epoch's exp is
    d minus its lattice's rank."""
    epochs = [ep for b in beams for ep in b.epochs]
    table = {}   # (lattice, coeff) -> its table index
    lattice = [table.setdefault((ep.basis, ep.coeff), len(table)) for ep in epochs]
    return PeriodicMergeTree(
        dim,
        birth=[b.birth for b in beams], birth_vertex=[b.birth_vertex for b in beams],
        death=[b.death for b in beams],
        parent=[-1 if b.parent is None else b.parent for b in beams],
        merge_edge=[0 if b.merge_edge is None else b.merge_edge for b in beams],
        offsets=np.cumsum([0] + [len(b.epochs) for b in beams]),
        start=[ep.start for ep in epochs], catenation=[ep.cell is not None for ep in epochs],
        cell=[0 if ep.cell is None else ep.cell for ep in epochs],
        lattice=lattice, lattices=[lat for lat, _ in table], coeffs=[c for _, c in table])
