"""Periodic quotient graphs: data model, JSON ingestion, and sublattice unrolling.

A periodic graph is stored as its finite quotient: vertices and edges on the
d-torus, each edge carrying the integer shift vector of its u -> v direction
(the v -> u direction uses the negation).  Filter values may arrive as JSON
numbers or as decimal strings; the original token is kept so serialization
round-trips bit-exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from .lattice import IntMatrix, RealBasis, coset_reps, hnf_transform, reduce_mod, solve


class GraphError(ValueError):
    """Malformed or invalid periodic-graph input."""


@dataclass(frozen=True)
class Vertex:
    id: int
    value: float
    raw: str | None = None


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    value: float
    shift: tuple
    raw: str | None = None


class PeriodicGraph:
    """Finite quotient of a periodic filtered graph."""

    __slots__ = ("dim", "basis", "vertices", "edges", "_vindex")

    def __init__(self, dim: int, basis: RealBasis, vertices, edges):
        self.dim = dim
        self.basis = basis
        self.vertices = list(vertices)
        self.edges = list(edges)
        self._vindex = {v.id: i for i, v in enumerate(self.vertices)}
        self._validate()

    def _validate(self):
        if self.basis.dim != self.dim:
            raise GraphError("basis dimension does not match dim")
        if len(self._vindex) != len(self.vertices):
            raise GraphError("duplicate vertex id")
        eids = {e.id for e in self.edges}
        if len(eids) != len(self.edges):
            raise GraphError("duplicate edge id")
        for e in self.edges:
            if e.u not in self._vindex or e.v not in self._vindex:
                raise GraphError(f"edge {e.id} references a missing vertex")
            if len(e.shift) != self.dim:
                raise GraphError(f"edge {e.id} has a shift of wrong length")
            lo = max(self.vertices[self._vindex[e.u]].value, self.vertices[self._vindex[e.v]].value)
            if e.value < lo:
                raise GraphError(
                    f"edge {e.id} violates the filter property: value {e.value} below endpoint value {lo}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_index(self, vid: int) -> int:
        return self._vindex[vid]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v.id: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        seen = {self.vertices[0].id}
        stack = [self.vertices[0].id]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


_TOP_KEYS = {"dim", "basis", "vertices", "edges"}
_ID_MIN, _ID_MAX = -2 ** 63, 2 ** 63 - 1   # ids are int64 in build
_INT = frozenset({int})   # the entry types of a shift read as is


def _read_value(obj, what):
    if isinstance(obj, str):
        try:
            val = float(obj)
        except ValueError:
            raise GraphError(f"{what}: bad decimal string {obj!r}")
        if not math.isfinite(val):
            raise GraphError(f"{what}: value must be finite")
        return val, obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise GraphError(f"{what}: value must be a number or decimal string")
    try:
        val = float(obj)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise GraphError(f"{what}: value must be finite")
    return val, None


def _read_int(obj, what):
    """A signed 64-bit integer id, endpoint or dim; an integral float such as
    2.0 is accepted, anything else (a fraction, a string, null, a bool, an
    integer out of range) is an error, never truncated or coerced."""
    if type(obj) is not int:
        if not (isinstance(obj, float) and obj.is_integer()):
            raise GraphError(f"{what} must be an integer, got {obj!r}")
        obj = int(obj)
    if not _ID_MIN <= obj <= _ID_MAX:
        raise GraphError(f"{what} must fit in a signed 64-bit integer, got {obj}")
    return obj


def _read_shift(obj, what):
    """Integer shift vector; an integral float such as 2.0 is read as 2, a
    non-integral, boolean or non-numeric entry is an error, never truncated
    or coerced."""
    try:
        shift = tuple(obj)
        types = set(map(type, shift))
        if types <= _INT:
            return shift
        if bool not in types:
            ints = tuple(map(int, shift))
            if ints == shift:
                return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise GraphError(f"{what}: shift must be a list of integers, got {obj!r}")


def _bad_record(kind, pos, rec, keys) -> GraphError:
    if not isinstance(rec, dict):
        return GraphError(f"{kind} record {pos} is not an object")
    missing = ", ".join(k for k in keys if k not in rec)
    return GraphError(f"{kind} record {pos} (id {rec.get('id')!r}) lacks {missing}")


def parse(source) -> PeriodicGraph:
    """Parse and validate a periodic graph from a path or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
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
        finite = all(type(e) is not bool and math.isfinite(float(e))
                     for c in basis_cols for e in c)
    except (TypeError, ValueError, OverflowError):
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
    vertices = []
    for pos, rec in enumerate(vlist):
        try:
            vid, value = rec["id"], rec["value"]
        except (KeyError, TypeError):
            raise _bad_record("vertex", pos, rec, ("id", "value"))
        if type(vid) is not int or not _ID_MIN <= vid <= _ID_MAX:   # in-range ints skip the call
            vid = _read_int(vid, f"vertex record {pos}: id")
        val, raw = _read_value(value, f"vertex {vid}")
        vertices.append(Vertex(vid, val, raw))
    edges = []
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
        val, raw = _read_value(value, what)
        edges.append(Edge(eid, u, v, val, _read_shift(shift, what), raw))
    return PeriodicGraph(dim, basis, vertices, edges)


def serialize(g: PeriodicGraph) -> dict:
    """JSON-ready dict; decimal-string values reuse their original token."""
    return {
        "dim": g.dim,
        "basis": [[float(x) for x in g.basis.matrix[:, j]] for j in range(g.dim)],
        "vertices": [
            {"id": v.id, "value": v.raw if v.raw is not None else v.value} for v in g.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "u": e.u,
                "v": e.v,
                "value": e.raw if e.raw is not None else e.value,
                "shift": list(e.shift),
            }
            for e in g.edges
        ],
    }


def max_shift_magnitude(g: PeriodicGraph) -> int:
    """D = largest absolute shift entry over all edges (0 without edges)."""
    return max((abs(s) for e in g.edges for s in e.shift), default=0)


def cellular_l1(f: PeriodicGraph, g: PeriodicGraph) -> float:
    """Sum over all cells of |value_f - value_g| for two filters on one complex."""
    if f.dim != g.dim or f.n != g.n or f.m != g.m:
        raise GraphError("graphs do not share combinatorics")
    total = 0.0
    for a, b in zip(f.vertices, g.vertices):
        if a.id != b.id:
            raise GraphError("vertex ids differ")
        total += abs(a.value - b.value)
    for a, b in zip(f.edges, g.edges):
        if (a.id, a.u, a.v, a.shift) != (b.id, b.u, b.v, b.shift):
            raise GraphError("edge combinatorics differ")
        total += abs(a.value - b.value)
    return total


def unroll(g: PeriodicGraph, s: IntMatrix) -> PeriodicGraph:
    """Quotient of the same periodic complex over the sublattice S.Z^d.

    Vertices become (v, c) for every coset representative c of Z^d modulo
    S.Z^d; an edge (u -> v, shift t) spawns one copy per representative c,
    ending at (v, c') with c' the canonical representative of c + t and a
    new shift solving S.shift' = c + t - c'.  The result has |det S| times
    the vertices and edges of g, with basis U.S.  The copies of an edge
    depend on its shift alone, so the coset work is done once per distinct
    shift and representative; the rest costs one record per copy.
    """
    if s.rows != g.dim or s.cols != g.dim:
        raise GraphError("sublattice matrix must be d x d")
    h, certs = hnf_transform(s)
    if h.rank != g.dim:
        raise GraphError("singular sublattice matrix")
    k = math.prod(col[i] for i, col in enumerate(h.columns))   # |det S|, from the pivots
    ids = [v.id for v in g.vertices] + [e.id for e in g.edges]
    if ids and not (_ID_MIN <= min(ids) * k and max(ids) * k + k - 1 <= _ID_MAX):
        raise GraphError(f"ids times the sublattice index {k} leave the signed 64-bit range")
    reps = coset_reps(s)
    rep_index = {r: i for i, r in enumerate(reps)}
    new_cols = [
        [sum(g.basis.matrix[r, c] * s.columns[j][c] for c in range(g.dim)) for r in range(g.dim)]
        for j in range(g.dim)
    ]

    def hops(shift):
        """(target representative index, new shift) for every representative."""
        row = []
        for c in reps:
            w = tuple(a + b for a, b in zip(c, shift))
            c2 = reduce_mod(h, w)
            y = solve(h, tuple(a - b for a, b in zip(w, c2)))
            if y is None:
                raise AssertionError("coset reduction left a non-lattice difference")
            # H = S . certs, so S . (certs . y) = w - c2
            t = tuple(sum(certs[col][i] * y[col] for col in range(len(y))) for i in range(g.dim))
            row.append((rep_index[c2], t))
        return row

    vertices = [Vertex(v.id * k + ci, v.value, v.raw) for v in g.vertices for ci in range(k)]
    edges = []
    rows: dict = {}
    for e in g.edges:
        row = rows.get(e.shift)
        if row is None:
            row = rows[e.shift] = hops(e.shift)
        eid, u, v = e.id * k, e.u * k, e.v * k
        edges.extend(Edge(eid + ci, u + ci, v + c2, e.value, t, e.raw)
                     for ci, (c2, t) in enumerate(row))
    return PeriodicGraph(g.dim, RealBasis(new_cols), vertices, edges)
