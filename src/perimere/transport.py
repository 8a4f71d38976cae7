"""Exact 1-Wasserstein and alternating 1-Wasserstein distances between
multiplicity functions on the birth-death half-plane.

Real masses are scaled by 10^9 and rounded to integers, then shipped by a
successive-shortest-path min-cost flow with one diagonal node of unlimited
capacity.  Ground cost between support points is the l1 plane distance,
the diagonal absorbs mass at cost |death - birth|, points with infinite
death pair only with each other (at cost |birth1 - birth2|), so the
distance is +infinity exactly when the infinite-death masses differ in
total by more than TOL.  Finite masses are rounded one by one; the
infinite-death masses of both sides are rounded to one common total, so
that equal totals stay equal after rounding.  A call with a nonzero mass
below 10^-3 scales by a larger power of ten, so that no mass keeps fewer
than 10^6 units (six digits) and none is rounded away.

The residual arcs out of the X nodes, the sink and the diagonal into the Y
nodes, source, sink and diagonal live in one cost matrix, the kx * ky pair
arcs among them, an entry inf while its arc is full; every other arc (the
source's, the Y nodes', the diagonal's back to X) is an entry of one
{head: cost} dict per node while it has capacity.  Capacities and flows stay
exact Python ints (scaled masses can pass 2^63) and are held per arc only
once an arc carries flow.  Each augmenting path is found by a Dijkstra with
potentials.  Its first wave, every X node with supply left, sits at label
exactly 0 and is relaxed as one matrix pass; the other pops go through a
heap, a popped X node, the sink or the diagonal relaxing its matrix row as
one vector operation and every popped node its dict.  A distance costs
(number of augmenting paths, about one per support point) x (one kx * ky
array pass + a heap over the remaining pops).

The last digits of the distance depend on the augmenting paths and on the
order their costs are summed: the same optimal plan summed along other paths
can differ in the last place.  So the search is the plain arc-by-arc
successive-shortest-path search done in bulk, its order kept: nodes numbered
X, Y, source, sink, diagonal and popped in (label, node) order, a label
replaced only by one smaller by more than 1e-15 (of near-equal offers the
first popped wins), potentials raised for every reached node, and each path's
cost summed from the sink back.  `tests/oracles.py` keeps the plain search as
`oracle_w1`, and the tests hold the two to the same float.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .barcode import PeriodicBarcode
from .mergetree import TOL
from .pgraph import PeriodicGraph, max_shift_magnitude

MASS_SCALE = 10**9   # the scale of masses, unless one is small (see _mass_scale)
MASS_UNITS = 10**6   # the fewest units a nonzero mass is scaled to
SLACK = 1e-15   # a label is replaced only by one smaller by more than this


def _mass_scale(xi: dict, eta: dict) -> int:
    """MASS_SCALE, or the least larger power of ten at which every nonzero
    mass of xi and eta is at least MASS_UNITS units.  A mass range past the
    float range is an OverflowError."""
    small = min((m for mf in (xi, eta) for m in mf.values() if m > 0), default=1.0)
    scale = MASS_SCALE
    while small * scale < MASS_UNITS:
        scale *= 10
    return scale


def _scaled(mf: dict, what: str, scale: int) -> tuple:
    """(finite, essential) masses of mf, checked: the finite masses (death <
    inf) rounded one by one to integer multiples of 1/scale, zeros dropped,
    and the essential masses (death = inf) as given."""
    out, essential = {}, {}
    for (b, dth), m in mf.items():
        if m < 0:
            raise ValueError(f"{what}: negative mass at {(b, dth)}")
        if b == dth:
            raise ValueError(f"{what}: support touches the diagonal at {(b, dth)}")
        key = (float(b), float(dth))
        if math.isinf(key[1]):
            if m:
                essential[key] = essential.get(key, 0.0) + m
            continue
        s = round(m * scale)
        if s:
            out[key] = out.get(key, 0) + s
    return out, essential


def _apportion(scaled: dict, total: int) -> dict:
    """Integer masses summing to `total` by the largest-remainder method:
    each scaled mass its floor, then one unit more for the masses of the
    largest remainders (ties in key order); `total` is at least the sum of
    the floors."""
    out = {p: math.floor(x) for p, x in scaled.items()}
    q, r = divmod(total - sum(out.values()), len(out))
    for rank, p in enumerate(sorted(out, key=lambda p: (out[p] - scaled[p], p))):
        out[p] += q + (rank < r)
    return {p: s for p, s in out.items() if s}


def _masses(xi: dict, eta: dict):
    """(sx, sy, scale): both sides' masses as {point: integer multiple of
    1/scale}, with `_mass_scale`'s scale; or None when their essential
    totals differ by more than TOL.

    The essential masses of each side are apportioned to one common total,
    the mean of the two scaled totals rounded (raised, if need be, to each
    side's sum of floors), so that equal totals stay equal; where rounding
    each mass on its own already reaches that total, the masses are the
    same.  Essential masses on one side only, within TOL of none, are
    dropped.
    """
    scale = _mass_scale(xi, eta)
    (sx, ex), (sy, ey) = _scaled(xi, "xi", scale), _scaled(eta, "eta", scale)
    if abs(math.fsum(ex.values()) - math.fsum(ey.values())) > TOL:
        return None
    if ex and ey:
        ex, ey = ({p: m * scale for p, m in e.items()} for e in (ex, ey))
        total = max(round(math.fsum([*ex.values(), *ey.values()]) / 2),
                    *(sum(map(math.floor, e.values())) for e in (ex, ey)))
        sx.update(_apportion(ex, total))
        sy.update(_apportion(ey, total))
    return sx, sy, scale


def _first_wins(w):
    """Label and row per column when the rows of w relax one after another.

    A row replaces the kept label only when smaller by more than SLACK, so
    the column minimum at its first row wins unless a larger entry lies
    within SLACK of it; such columns are replayed row by row.
    """
    best = w.min(axis=0)
    rows = w.argmin(axis=0)
    near = (w > best) & (w - SLACK <= best)
    for j in near.any(axis=0).nonzero()[0].tolist() if near.any() else ():
        cur, row = math.inf, -1
        for r, v in enumerate(w[:, j].tolist()):
            if v < cur - SLACK:
                cur, row = v, r
        best[j], rows[j] = cur, row
    return best, rows


def _ship(xs: list, mx: list, ys: list, my: list):
    """Min-cost flow from the points xs (masses mx) to ys (masses my).

    Nodes are X (0..nx-1), Y (nx..nx+ny-1), source, sink and diagonal; the
    diagonal also takes up the difference between supply and demand.
    Returns (shipped, wanted, cost) in scaled mass units.
    """
    nx, ny = len(xs), len(ys)
    n = nx + ny + 3
    src, dst, diag = nx + ny, nx + ny + 1, nx + ny + 2
    inf = math.inf
    xb, xd = np.array([p[0] for p in xs], dtype=float), np.array([p[1] for p in xs], dtype=float)
    yb, yd = np.array([p[0] for p in ys], dtype=float), np.array([p[1] for p in ys], dtype=float)
    xfin, yfin = np.isfinite(xd), np.isfinite(yd)
    # l1 ground cost; infinite deaths pair only with each other, at the birth gap
    apart = xfin[:, None] != yfin
    with np.errstate(over="ignore"):
        pair = np.abs(xb[:, None] - yb) + np.abs(np.where(xfin, xd, 0.0)[:, None] - np.where(yfin, yd, 0.0))
        fits = ((np.isfinite(pair) | apart).all() and np.isfinite(xd[xfin] - xb[xfin]).all()
                and np.isfinite(yd[yfin] - yb[yfin]).all())
    if not fits:   # an infinite cost would read as an arc without capacity
        raise OverflowError("transport cost out of float range")
    pair[apart] = inf

    # Residual arc costs by head.  `out` has one row per X node, then the
    # sink's and the diagonal's, over the heads from nx on (Y nodes, source,
    # sink, diagonal), inf while an arc has no capacity left; `adj[u]` holds
    # every other arc of u with capacity as {head: cost}.
    out = np.full((nx + 2, ny + 3), inf)
    out[:nx, :ny] = pair
    adj = [{} for _ in range(n)]
    # capacity and cost by (tail, head), both directions of every arc; a pair
    # arc enters on its first use
    res, arc_cost = {}, {}

    def show(u, v):
        c = arc_cost[(u, v)] if res[(u, v)] else inf
        if v >= nx and (u < nx or u >= dst):
            out[u if u < nx else u - dst + nx, v - nx] = c
        elif c < inf:
            adj[u][v] = c
        else:
            adj[u].pop(v, None)

    def add(u, v, cap, c):
        res[(u, v)], res[(v, u)] = cap, 0
        arc_cost[(u, v)], arc_cost[(v, u)] = c, -c
        show(u, v)

    for i, x in enumerate(xs):
        add(src, i, mx[i], 0.0)
        if xfin[i]:
            add(i, diag, mx[i], abs(x[1] - x[0]))
    for j, y in enumerate(ys):
        add(nx + j, dst, my[j], 0.0)
        if yfin[j]:
            add(diag, nx + j, my[j], abs(y[1] - y[0]))
    supply, demand = sum(mx), sum(my)
    if demand > supply:
        add(src, diag, demand - supply, 0.0)
    elif supply > demand:
        add(diag, dst, supply - demand, 0.0)
    want = max(supply, demand)

    pot = np.zeros(n)
    lim = np.empty(n)   # a node's label - SLACK: what a new label must beat
    lim_y = lim[nx:]

    def relax_all(nd, u):
        """Give node nx + t the label nd[t] from u wherever that beats its label."""
        hit = (nd < lim_y).nonzero()[0]
        if hit.size:
            got = nd[hit]
            hit += nx
            lim[hit] = got - SLACK
            for v, d in zip(hit.tolist(), got.tolist()):
                dist[v], par[v] = d, u
                heapq.heappush(heap, (d, v))

    shipped, total = 0, 0.0
    while shipped < want:
        potl = pot.tolist()
        red = out + np.concatenate((pot[:nx], pot[dst:]))[:, None]
        red -= pot[nx:]
        np.maximum(red, 0.0, out=red)
        dist = [inf] * n
        lim.fill(inf)
        par = [-1] * n
        done = [False] * n
        heap = []

        # The source is popped first, then every X node it still reaches, at
        # label exactly 0 and in index order: that wave relaxes as one matrix.
        dist[src], lim[src], done[src] = 0.0, -SLACK, True
        free = np.array(sorted(v for v in adj[src] if v < nx), dtype=int)
        for i in free.tolist():
            dist[i], par[i], done[i] = 0.0, src, True
        if diag in adj[src]:
            dist[diag], par[diag], lim[diag] = 0.0, src, -SLACK
            heap.append((0.0, diag))
        if free.size:
            best, rows = _first_wins(red[free])
            for v, d, r in zip(range(nx, n), best.tolist(), free[rows].tolist()):
                if d < dist[v] - SLACK:
                    dist[v], par[v], lim[v] = d, r, d - SLACK
                    heap.append((d, v))
        heapq.heapify(heap)

        while heap:
            dd, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u < nx or u >= dst:   # a row of `out`: an X node, the sink, the diagonal
                relax_all(dd + red[u if u < nx else u - dst + nx], u)
            pu = potl[u]
            for v, c in adj[u].items():
                nd = dd + max(c + pu - potl[v], 0.0)
                if nd < dist[v] - SLACK:
                    dist[v], par[v], lim[v] = nd, u, nd - SLACK
                    heapq.heappush(heap, (nd, v))
        if par[dst] < 0:
            break
        reached = np.array(dist)
        np.add(pot, reached, out=pot, where=reached < inf)

        path = []
        v = dst
        while v != src:
            path.append((par[v], v))
            v = par[v]
        push = want - shipped
        for u, v in path:
            if (u, v) not in res:
                add(u, v, min(mx[u], my[v - nx]), float(pair[u, v - nx]))
            push = min(push, res[(u, v)])
        for u, v in path:
            total += push * arc_cost[(u, v)]
            res[(u, v)] -= push
            res[(v, u)] += push
            show(u, v)
            show(v, u)
        shipped += push
    return shipped, want, total


def w1(xi: dict, eta: dict) -> float:
    """1-Wasserstein distance between non-negative multiplicity functions.

    xi and eta map (birth, death) -> mass >= 0; death may be math.inf.
    Returns math.inf iff the total infinite-death masses differ by more than
    TOL; a cost that should be finite but leaves the float range is an
    OverflowError.
    """
    masses = _masses(xi, eta)
    if masses is None:
        return math.inf
    sx, sy, scale = masses
    xs, ys = sorted(sx), sorted(sy)
    shipped, want, cost = _ship(xs, [sx[x] for x in xs], ys, [sy[y] for y in ys])
    if shipped < want:
        return math.inf
    if not math.isfinite(cost):
        raise OverflowError("transport cost out of float range")
    return cost / scale


def positive_negative_split(mf: dict):
    """Canonical split xi = xi+ - xi- with disjoint supports."""
    pos = {p: m for p, m in mf.items() if m > 0}
    neg = {p: -m for p, m in mf.items() if m < 0}
    return pos, neg


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for p, m in b.items():
        out[p] = out.get(p, 0.0) + m
    return out


def w1_alt(xi: dict, eta: dict) -> float:
    """Alternating 1-Wasserstein distance; signed multiplicities allowed."""
    xp, xn = positive_negative_split(xi)
    yp, yn = positive_negative_split(eta)
    return w1(_add(xp, yn), _add(xn, yp))


def barcode_distance(b1: PeriodicBarcode, b2: PeriodicBarcode, per_era: bool = False):
    """Sum of alternating 1-Wasserstein distances over the d+1 eras."""
    if b1.dim != b2.dim:
        raise ValueError("dimension mismatch")
    eras = [w1_alt(b1.era_function(e), b2.era_function(e)) for e in range(b1.dim + 1)]
    total = math.fsum(eras) if all(math.isfinite(e) for e in eras) else math.inf
    if per_era:
        return total, eras
    return total


def multiplicity_bound(g: PeriodicGraph) -> float:
    """Upper bound (d^2.5 * D * m * ||U^-1||)^d on any bar's |multiplicity|;
    an OverflowError that names it when it is past the float range."""
    d = g.dim
    try:   # a D past the float range, or the power's overflow, raise
        bound = (d ** 2.5 * max_shift_magnitude(g) * g.m * g.basis.inverse_norm) ** d
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise OverflowError("multiplicity bound out of float range")
    return bound
