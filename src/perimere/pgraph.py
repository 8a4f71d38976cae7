"""Periodic quotient graphs: data model, JSON ingestion, and sublattice unrolling.

A periodic graph is stored as its finite quotient: vertices and edges on the
d-torus, each edge carrying the integer shift vector of its u -> v direction
(the v -> u direction uses the negation).  A graph has few distinct shifts
over many edges, so it holds each distinct shift once, in a table that the
edges index (`number_shifts` makes both).  Filter values may arrive as JSON
numbers or as decimal strings; the original token of a string value is kept,
for that cell only, so serialization round-trips bit-exactly.
"""
from __future__ import annotations

import json
import math
import re
from itertools import chain, compress, count, product, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter

import numpy as np

from . import jsonfmt
from .jsonfmt import HOLE
from .lattice import IntMatrix, RealBasis, hnf_transform, reduce_many


class GraphError(ValueError):
    """Malformed or invalid periodic-graph input."""


def number_shifts(rows) -> tuple:
    """(table, which) of an iterable of hashable shift tuples: the distinct
    ones in order of first appearance, and per row its table position as an
    int64 array.  Each row is hashed once."""
    number = {}   # shift -> position; len(number) is the next one
    which = np.fromiter(map(number.setdefault, rows, map(len, repeat(number))), np.int64)
    return list(number), which


class PeriodicGraph:
    """Finite quotient of a periodic filtered graph, stored as columns.

    The cells are the n vertices followed by the m edges: `ids` (int64) and
    `values` (float64) hold one entry per cell, and `raw` maps the position
    of each cell whose value was read from a decimal string to that token
    (empty when every value was a number).  The j-th edge runs from vertex
    position `u[j]` to vertex position `v[j]` (int64) along the shift
    `table[which[j]]`: `table` lists the distinct shifts, each a tuple of
    exact ints, and `which` (int64) holds one table position per edge.  The
    order of the table is not part of the graph.  `parse` validates outside
    input; `unroll` and `synthetic` build valid graphs directly.
    """

    __slots__ = ("dim", "basis", "ids", "values", "raw", "u", "v", "table", "which")

    def __init__(self, dim: int, basis: RealBasis, ids, values, raw: dict, u, v,
                 table: list, which):
        self.dim = dim
        self.basis = basis
        self.ids = np.asarray(ids, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.raw = raw
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.table = table
        self.which = np.asarray(which, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.ids) - len(self.which)

    @property
    def m(self) -> int:
        return len(self.which)

    def is_connected(self) -> bool:
        if not self.n:
            return True
        adj = [[] for _ in range(self.n)]
        for a, b in zip(self.u.tolist(), self.v.tolist()):
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


_TOP_KEYS = {"dim", "basis", "vertices", "edges"}
_ID_MIN, _ID_MAX = -2 ** 63, 2 ** 63 - 1   # ids are int64 in build
_INT = frozenset({int})   # the types of ids and shift entries read as they are
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")   # float() takes more
_SEQUENCE = (list, tuple)   # the types a shift may have


def _read_value(obj, what):
    if isinstance(obj, bool) or not isinstance(obj, (int, float, str)):
        raise GraphError(f"{what}: value must be a number or decimal string")
    try:
        val = float(obj)
    except ValueError:
        raise GraphError(f"{what}: bad decimal string {obj!r}")
    except OverflowError:   # an int past the float range
        val = math.inf
    if not math.isfinite(val):
        raise GraphError(f"{what}: value must be finite")
    if isinstance(obj, str) and not _DECIMAL.fullmatch(obj):
        raise GraphError(f"{what}: bad decimal string {obj!r}")
    return val


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
    or coerced, and so is a shift that is not a list or tuple, such as a
    dict or a set, whose entries would come in key or hash order."""
    try:
        if not isinstance(obj, _SEQUENCE):
            raise TypeError
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
    cols = _columns(dim, vlist, elist)
    if cols is None:
        _name_fault(dim, vlist, elist)
    return PeriodicGraph(dim, basis, *cols)


_ID, _VALUE, _U, _V, _SHIFT = map(itemgetter, ("id", "value", "u", "v", "shift"))


def _integral(types) -> bool:
    """Whether entries of these types can be int64 ids or endpoints: ints,
    or floats that are then checked to be integral (never bools)."""
    return all(t is int or issubclass(t, float) for t in types)


def _columns(dim, vlist, elist):
    """(ids, values, raw, u, v, table, which) of the records, each field read in
    one pass straight into its column; None when any check fails.

    The type checks come first, since `np.fromiter` would read True as 1
    and '1e999' as inf; finiteness, duplicate ids, endpoints, shift lengths,
    the filter property and decimal strings are then checked on columns.
    """
    n, m = len(vlist), len(elist)

    def cells(get):   # one field over the vertex records, then the edge records
        return chain(map(get, vlist), map(get, elist))

    try:
        id_types = set(map(type, cells(_ID)))
        value_types = set(map(type, cells(_VALUE)))
        end_types = set(map(type, chain(map(_U, elist), map(_V, elist))))
        shift_types = set(map(type, map(_SHIFT, elist)))   # a dict or a set has no order
        entry_types = set(map(type, chain.from_iterable(map(_SHIFT, elist))))
        if not (_integral(id_types) and _integral(end_types)
                and all(issubclass(t, _SEQUENCE) for t in shift_types) and bool not in entry_types
                and all(issubclass(t, (int, float, str)) and t is not bool for t in value_types)):
            return None
        index = dict(zip(map(_ID, vlist), range(n)))   # vertex id -> position
        if len(index) != n:
            return None
        u = np.fromiter(map(index.get, map(_U, elist), repeat(-1)), np.int64, m)
        v = np.fromiter(map(index.get, map(_V, elist), repeat(-1)), np.int64, m)
        del index   # freed before the other columns are made
        if m and min(u.min(), v.min()) < 0:   # an endpoint that matches no vertex id
            return None
        if id_types <= _INT:   # out of the int64 range raises
            ids = np.fromiter(cells(_ID), np.int64, n + m)
        else:
            if not all(map(eq, map(int, cells(_ID)), cells(_ID))):
                return None
            ids = np.fromiter(map(int, cells(_ID)), np.int64, n + m)
        if not np.diff(np.sort(ids[n:])).all():   # a zero step: a duplicate edge id
            return None
        plain = value_types <= {int, float}   # else every value goes through float()
        values = np.fromiter(cells(_VALUE) if plain else map(float, cells(_VALUE)),
                             np.float64, n + m)
        raw = {}   # cell position -> decimal-string token
        if not plain:
            def strings():
                return map(isinstance, cells(_VALUE), repeat(str))
            raw = dict(zip(compress(count(), strings()), compress(cells(_VALUE), strings())))
        if not (np.isfinite(values).all() and all(map(_DECIMAL.fullmatch, raw.values()))):
            return None
        if (values[n:] < np.maximum(values[u], values[v])).any():
            return None
        rows = map(tuple, map(_SHIFT, elist))
        if not entry_types <= _INT:   # integral floats (or other numbers) read as ints
            def int_rows():
                return map(tuple, map(map, repeat(int), map(_SHIFT, elist)))
            if not all(map(eq, int_rows(), rows)):
                return None
            rows = int_rows()
        table, which = number_shifts(rows)
        if any(len(t) != dim for t in table):
            return None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return ids, values, raw, u, v, table, which


def _name_fault(dim, vlist, elist):
    """Raise the error of the records' first fault, found by walking them in
    order with the one-value readers: each vertex record, then each edge
    record (its keys, id, u, v, value and shift), then duplicate vertex ids
    and duplicate edge ids, then per edge a missing vertex, the shift length
    and the filter property.  Called only after a column check failed."""
    vertex_values = {}   # vertex id -> value
    for pos, rec in enumerate(vlist):
        try:
            vid, value = rec["id"], rec["value"]
        except (KeyError, TypeError):
            raise _bad_record("vertex", pos, rec, ("id", "value"))
        vid = _read_int(vid, f"vertex record {pos}: id")
        vertex_values[vid] = _read_value(value, f"vertex {vid}")
    edges = []
    for pos, rec in enumerate(elist):
        try:
            eid, u, v, value, shift = rec["id"], rec["u"], rec["v"], rec["value"], rec["shift"]
        except (KeyError, TypeError):
            raise _bad_record("edge", pos, rec, ("id", "u", "v", "value", "shift"))
        eid = _read_int(eid, f"edge record {pos}: id")
        what = f"edge {eid}"
        if type(u) is not int:   # an endpoint out of range matches no vertex
            u = _read_int(u, f"{what}: u")
        if type(v) is not int:
            v = _read_int(v, f"{what}: v")
        edges.append((eid, u, v, _read_value(value, what), _read_shift(shift, what)))
    if len(vertex_values) != len(vlist):
        raise GraphError("duplicate vertex id")
    if len({e[0] for e in edges}) != len(edges):
        raise GraphError("duplicate edge id")
    for eid, u, v, val, shift in edges:
        if u not in vertex_values or v not in vertex_values:
            raise GraphError(f"edge {eid} references a missing vertex")
        if len(shift) != dim:
            raise GraphError(f"edge {eid} has a shift of wrong length")
        lo = max(vertex_values[u], vertex_values[v])
        if val < lo:
            raise GraphError(
                f"edge {eid} violates the filter property: value {val} below endpoint value {lo}")
    raise AssertionError("a column check failed on records without a fault")


def serialize(g: PeriodicGraph) -> dict:
    """JSON-ready dict; decimal-string values reuse their original token.

    The reference dict form of `json_chunks`, which the CLI writes graphs
    with; kept for the tests and the benchmark's tracer until ROADMAP item 1
    step C.
    """
    n = g.n
    ids, values = g.ids.tolist(), g.values.tolist()   # jsonfmt writes Python ints and floats
    shifts = map(g.table.__getitem__, g.which.tolist())
    for pos, tok in g.raw.items():
        values[pos] = tok
    return {
        "dim": g.dim,
        "basis": [[float(x) for x in g.basis.matrix[:, j]] for j in range(g.dim)],
        "vertices": [{"id": i, "value": x} for i, x in zip(ids[:n], values[:n])],
        "edges": [
            {"id": i, "u": a, "v": b, "value": x, "shift": list(t)} for i, a, b, x, t
            in zip(ids[n:], g.ids[g.u].tolist(), g.ids[g.v].tolist(), values[n:], shifts)
        ],
    }


_VERTEX = {"id": HOLE, "value": HOLE}
_EDGE = {"id": HOLE, "shift": HOLE, "u": HOLE, "v": HOLE, "value": HOLE}


def json_chunks(g: PeriodicGraph):
    """Chunks of `jsonfmt.dumps(serialize(g))`, written from the columns:
    one record template per cell kind, one text per table shift and one per
    distinct value (`jsonfmt.distinct`), which each cell indexes; a
    decimal-string token has a text of its own that only its cells index.
    The edge fields are listed a block at a time (`jsonfmt.blocks`), so the
    writer holds these texts, the ids and one text index per cell, not a
    value text per cell."""
    n = g.n
    ids = g.ids.tolist()
    texts, index = jsonfmt.distinct(g.values)
    tokens = {}   # decimal-string token -> position of its text
    for pos, tok in g.raw.items():
        index[pos] = tokens.setdefault(tok, len(texts) + len(tokens))
    texts += map(encode_basestring_ascii, tokens)
    vector = jsonfmt.template([HOLE] * g.dim, 3)
    shifts = [vector % t for t in g.table]
    vertex, edge = jsonfmt.template(_VERTEX, 2), jsonfmt.template(_EDGE, 2)

    def values(a, z):   # the value texts of cells a to z
        return map(texts.__getitem__, index[a:z].tolist())

    def edges():
        for a, z in jsonfmt.blocks(g.m):
            yield from zip(ids[n + a:n + z], map(shifts.__getitem__, g.which[a:z].tolist()),
                           g.ids[g.u[a:z]].tolist(), g.ids[g.v[a:z]].tolist(), values(n + a, n + z))
    return jsonfmt.chunks(
        {"basis": [[float(x) for x in g.basis.matrix[:, j]] for j in range(g.dim)],
         "dim": g.dim, "edges": HOLE, "vertices": HOLE},
        jsonfmt.items(map(edge.__mod__, edges()), 1),
        jsonfmt.items(map(vertex.__mod__, zip(ids[:n], values(0, n))), 1))


def max_shift_magnitude(g: PeriodicGraph) -> int:
    """D = largest absolute shift entry over all edges (0 without edges)."""
    return max((abs(s) for t in g.table for s in t), default=0)


def cellular_l1(f: PeriodicGraph, g: PeriodicGraph) -> float:
    """Sum over all cells of |value_f - value_g| for two filters on one complex.

    The edges' shifts are compared by value, since two tables may list the
    same shifts in different orders."""
    if f.dim != g.dim or f.n != g.n or f.m != g.m:
        raise GraphError("graphs do not share combinatorics")
    n = f.n
    if not np.array_equal(f.ids[:n], g.ids[:n]):
        raise GraphError("vertex ids differ")
    if not (np.array_equal(f.ids[n:], g.ids[n:]) and np.array_equal(f.u, g.u)
            and np.array_equal(f.v, g.v)
            and list(map(f.table.__getitem__, f.which.tolist()))
            == list(map(g.table.__getitem__, g.which.tolist()))):
        raise GraphError("edge combinatorics differ")
    total = 0.0
    for x in np.abs(f.values - g.values).tolist():   # left to right, as the cells come
        total += x
    return total


def unroll(g: PeriodicGraph, s: IntMatrix) -> PeriodicGraph:
    """Quotient of the same periodic complex over the sublattice S.Z^d.

    Vertices become (v, c) for every coset representative c of Z^d modulo
    S.Z^d; an edge (u -> v, shift t) spawns one copy per representative c,
    ending at (v, c') with c' the canonical representative of c + t and a
    new shift solving S.shift' = c + t - c'.  The result has |det S| times
    the vertices and edges of g, with basis U.S.  The copies of an edge
    depend on its shift alone, so the coset work is done once per table
    shift t and representative c: all the vectors c + t are reduced along
    the HNF H's pivots in one pass over an object array of exact ints
    (`reduce_many`), whose quotients y are the certificate H.y = c + t - c'
    and give shift' = certs.y.  The new shifts of those (t, c) rows, fewer
    distinct than rows, make the new table, and the copies are written as
    (cells x representatives) arrays that index it.
    """
    if s.rows != g.dim or s.cols != g.dim:
        raise GraphError("sublattice matrix must be d x d")
    h, certs = hnf_transform(s)
    if h.rank != g.dim:
        raise GraphError("singular sublattice matrix")
    pivots = [col[i] for i, col in enumerate(h.columns)]   # H is lower triangular
    k = math.prod(pivots)   # |det S|
    if g.ids.size and not (_ID_MIN <= int(g.ids.min()) * k
                           and int(g.ids.max()) * k + k - 1 <= _ID_MAX):
        raise GraphError(f"ids times the sublattice index {k} leave the signed 64-bit range")
    new_cols = [
        [sum(g.basis.matrix[r, c] * s.columns[j][c] for c in range(g.dim)) for r in range(g.dim)]
        for j in range(g.dim)
    ]
    if not g.n:   # no cells, no copies: the index need not fit an array
        return PeriodicGraph(g.dim, RealBasis(new_cols), g.ids, g.values, {}, g.u, g.v,
                             [], g.which)
    # only edge copies need the representatives, the digit vectors below the pivots
    reps = np.array([*product(*map(range, pivots))] if g.m else [], dtype=object).reshape(-1, g.dim)
    w = (np.array(g.table, dtype=object).reshape(-1, 1, g.dim) + reps).reshape(-1, g.dim)
    c2, y = reduce_many(h, w)   # row j * k + i: table shift j from representative i
    if not np.array_equal(y.dot(np.array(h.columns, dtype=object)), w - c2):
        raise AssertionError("coset reduction left a non-lattice difference")
    if not ((c2 >= 0) & (c2 < pivots)).all():
        raise AssertionError("coset reduction left a non-canonical representative")
    # c2's digits, mixed radix over the pivots, are its index in `reps`
    targets = (c2.astype(np.int64) @ np.cumprod([1, *pivots[:0:-1]])[::-1]).reshape(-1, k)
    # H = S . certs, so S . (certs . y) = c + t - c2
    table, position = number_shifts(map(tuple, y.dot(np.array(certs, dtype=object)).tolist()))
    cis = np.arange(k)
    return PeriodicGraph(
        g.dim, RealBasis(new_cols),
        (g.ids[:, None] * k + cis).ravel(), np.repeat(g.values, k),
        {pos * k + c: tok for pos, tok in g.raw.items() for c in range(k)},
        (g.u[:, None] * k + cis).ravel(), (g.v[:, None] * k + targets[g.which]).ravel(),
        table, position[(g.which[:, None] * k + cis).ravel()])
