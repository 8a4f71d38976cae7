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

import io
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
    number = {}
    which = _number(rows, number)
    return list(number), which


def _number(rows, number: dict) -> np.ndarray:
    """Per row, its position in `number` (shift -> position; len(number) is
    the next one), which the new rows are added to."""
    return np.fromiter(map(number.setdefault, rows, map(len, repeat(number))), np.int64)


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
_DECODER = json.JSONDecoder()

# the plain form of a document's bytes that `_scan` reads; the whitespace is
# JSON's, never `\s`, which also takes \f, \v and U+00A0
_WS = re.compile(rb"[ \t\n\r]*")
_KEY = re.compile(rb'"(dim|basis|vertices|edges)"[ \t\n\r]*:[ \t\n\r]*')
_SMALL = re.compile(rb'[^"}]*')   # a value up to the next key or the object's end
_LIST = re.compile(rb"\[[ \t\n\r]*")
_LAST = re.compile(rb"\}[ \t\n\r]*\]")   # a record list's end
_NEXT = re.compile(rb"\}[ \t\n\r]*,[ \t\n\r]*\{")   # between two records
_BLOCK = 1 << 15   # bytes of records decoded at a time

# JSON's number grammar, in the slots of a record layout's regex: possessive
# (Python 3.11), so that the regex engine keeps no backtracking state per
# slot or per record; a greedy regex held up to 0.4 MiB more per window and
# parsed 22 % slower.  An int slot takes at most 18 digits, so that it fits
# in an int64; a value slot does not take the int -0, which json reads as 0
# and float() as -0.0.  `_NUMBER` splits a record at the same grammar, which
# a search finds as a greedy one would.
_JSON_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_INT_SLOT = rb"-?+(?:0|[1-9][0-9]{0,17}+)"
_REAL_SLOT = rb"(?!-0(?![.eE]))" + _JSON_NUMBER
_NUMBER = re.compile(b"(%s)" % _JSON_NUMBER)   # to split a record's text at
_NUMERALS = bytes(c if c in b"0123456789+-.eE" else 32 for c in range(256))   # the rest to spaces
_JSON_WS = b" \t\n\r"
_NUMERIC = b"0123456789+-."   # what a layout's key drops: of a number, at most e or E is left
_LAYOUTS = {}   # (first record without _NUMERIC, separator, fields, dim) -> _Layout


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
    """Parse and validate a periodic graph from a path or a dict.

    A path's bytes are read once, and `_read` takes their record lists a
    window of about `_BLOCK` bytes at a time (`_blocks`).  A window in the
    layout of its list's first record (one key order, fixed whitespace,
    plain numbers) costs one regex check and a split of its number tokens
    into columns (`_Layout`); any other window is decoded by json and read
    by the column helpers, at about twice the cost per byte.  A document
    that `_read` does not take, every faulty one among them, is decoded
    whole from the same bytes (`_load`) and parsed as a dict, so a fault is
    named one way, whichever way the document came.
    """
    if not isinstance(source, dict):
        with open(source, "rb") as fh:
            data = fh.read()
        g = _read(data)
        if g is not None:
            return g
        source = _load(data)
        del data
    dim, basis, vlist, elist = _head(source)
    for key, recs in (("vertices", vlist), ("edges", elist)):
        if not isinstance(recs, (list, tuple)):
            raise GraphError(f"{key} must be a list of records, not {type(recs).__name__}")
    cols = _columns(dim, (vlist,), (elist,))
    if cols is None:
        _name_fault(dim, vlist, elist)
    return PeriodicGraph(dim, basis, *cols)


def _load(data: bytes):
    """The document of a file's bytes, read whole by `json.load` as from the
    file opened as UTF-8 text (so line ends are translated alike)."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except RecursionError:
        raise GraphError("document nested too deeply") from None


def _head(doc) -> tuple:
    """(dim, basis, vertex records, edge records) of a document, whose keys,
    dim and basis are checked here."""
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
    return dim, basis, vlist, elist


def _read(data: bytes) -> PeriodicGraph | None:
    """The graph of a document's bytes, its record lists read a window at a
    time (`_blocks`), so no more than one window's tokens or records are
    held beside the columns; None for a document read otherwise: any
    fault, and the rare valid documents outside `_scan`'s plain form or
    with separator text inside a record's string or nested value."""
    try:
        doc = _scan(data)
        if doc is None:
            return None
        dim, basis, vspan, espan = _head(doc)
        cols = _columns(dim, _blocks(data, *vspan, _VERTEX_FIELDS, dim),
                        _blocks(data, *espan, _EDGE_FIELDS, dim))
    except (ValueError, RecursionError):   # JSON, UTF-8 and graph errors among them
        return None
    return None if cols is None else PeriodicGraph(dim, basis, *cols)


def _scan(data: bytes) -> dict | None:
    """The top-level object of a document's bytes, its record lists given as
    spans (a, z): from the first record's `{` to the last one's `}`, a == z
    when empty.  Keys are read as the four literal names and small values by
    `raw_decode` of their ASCII text; anything else (another key, an escape
    in a key, a key twice, a record list that does not start with a record,
    text past the object) is None."""
    doc = {}
    pos = _WS.match(data).end()
    if data[pos:pos + 1] != b"{":
        return None
    pos = _WS.match(data, pos + 1).end()
    while True:
        key = _KEY.match(data, pos)
        name = key and key[1].decode()
        if not name or name in doc:
            return None
        pos = key.end()
        if name in ("vertices", "edges"):
            opened = _LIST.match(data, pos)
            if opened is None:
                return None
            a = opened.end()
            last = data[a:a + 1] == b"{" and _LAST.search(data, a)
            if last:
                doc[name], pos = (a, last.start() + 1), last.end()
            elif data[a:a + 1] == b"]":   # an empty list
                doc[name], pos = (a, a), a + 1
            else:
                return None
        else:
            text = data[pos:_SMALL.match(data, pos).end()].decode("ascii")
            doc[name], end = _DECODER.raw_decode(text)
            pos += end
        pos = _WS.match(data, pos).end()
        sep = data[pos:pos + 1]
        pos = _WS.match(data, pos + 1).end()
        if sep == b"}":
            return doc if pos == len(data) else None
        if sep != b",":
            return None


def _blocks(data: bytes, a: int, z: int, fields: tuple, dim: int):
    """The records of data[a:z], a window of about `_BLOCK` bytes at a time:
    the `_Cut` of a window that the list's `_layout` matches whole, the
    list of records that json decodes from any other.

    A window ends only at a `}` that JSON whitespace, a comma, JSON
    whitespace and a `{` follow.  Such a cut inside a string or a nested
    value leaves a window that ends inside it, which neither matches nor
    decodes, so a wrong cut cannot pass silently; and windows that all
    match or decode, joined by their commas, are the list's text.
    """
    layout = _layout(data, a, z, fields, dim) if a < z else None
    while a < z:
        cut = _NEXT.search(data, a + _BLOCK, z)
        end = z if cut is None else cut.start() + 1
        if layout is not None and layout.regex.fullmatch(data, a, end):
            yield layout.cut(data, a, end)
        else:
            yield _records(data[a:end])
        a = z if cut is None else cut.end() - 1


def _records(window: bytes) -> list:
    """The records of a window of a record list, decoded by json."""
    return json.loads("[" + window.decode("utf-8") + "]")


_VERTEX_FIELDS = ("id", "value")
_EDGE_FIELDS = ("id", "u", "v", "value", "shift")


class _Cut(tuple):
    """The columns of a window of records that its layout matched: ids and
    values, then for edges the u ids, the v ids and the shift rows (an
    int64 array of dim columns)."""


class _Layout:
    """One record layout of a record list: its keys in one order, its
    whitespace and the separator between two records, every id, endpoint
    and shift entry an int and the value a number.

    `regex` fullmatches a window of records in this layout.  Such a window,
    its bytes other than number characters made spaces, splits into
    `width` tokens per record: its numbers and the letters `e` of its keys.
    `cut` reads the value tokens by float() and the int tokens by one
    `np.fromstring`, into the columns of a `_Cut`.
    """

    __slots__ = ("regex", "width", "value", "drop", "columns")

    def __init__(self, pieces: list, slots: list, sep: bytes, fields: tuple, dim: int):
        # pieces: the text around the record's number tokens; slots: each token's field
        rec = b"".join(re.escape(p) + (_REAL_SLOT if f == "value" else _INT_SLOT)
                       for p, f in zip(pieces, slots)) + re.escape(pieces[-1])
        self.regex = re.compile(b"(?:%s%s)*+%s" % (rec, re.escape(sep), rec))
        at, width = [], 0   # per slot, the position of its token among a record's
        for piece in pieces[:-1]:
            width += len(piece.translate(_NUMERALS).split())   # the e of "value"
            at.append(width)
            width += 1
        self.width = width + len(pieces[-1].translate(_NUMERALS).split())
        self.value = at[slots.index("value")]
        drop = sorted(set(range(self.width)) - {p for p, f in zip(at, slots) if f != "value"})
        # deleted from the last column: each deletion leaves one token fewer per record
        self.drop = [(col, self.width - i) for i, col in enumerate(reversed(drop))]
        ints = [f for f in slots if f != "value"]   # the int slots' fields, in text order
        self.columns = [slice(ints.index(f), ints.index(f) + dim) if f == "shift" else ints.index(f)
                        for f in fields if f != "value"]

    def cut(self, data: bytes, a: int, z: int) -> _Cut:
        """The columns of the window data[a:z], which `regex` matches, so
        its text is ASCII and splits as str (a bytes join would hold a
        buffer of 80 B per token)."""
        toks = data[a:z].translate(_NUMERALS).decode("ascii").split()
        values = np.fromiter(map(float, toks[self.value::self.width]), np.float64)
        for col, stride in self.drop:
            del toks[col::stride]
        ints = np.fromstring(" ".join(toks), np.int64, sep=" ").reshape(len(values), -1)
        ids, *rest = (ints[:, col] for col in self.columns)
        return _Cut((ids.copy(), values, *rest))   # a view of `ints` would keep it to the join


def _layout(data: bytes, a: int, z: int, fields: tuple, dim: int) -> _Layout | None:
    """The layout of the record list data[a:z] (not empty), which its first
    record and the separator after it fix; None when that record is not
    exactly `fields` holding plain numbers, a shift of `dim` of them.

    Layouts found are kept per process (the last 64 at most), keyed by the
    first record's text without its digits, signs and points, so only a new
    layout pays json's decode of that record and the regex build: about
    35 us a list, which is a fifth of parsing a 7-18 KB document (measured
    on 2 cores, Python 3.11.7).  A key stands for its layout only as a
    guess, which each window's `fullmatch` checks."""
    cut = _NEXT.search(data, a, z)
    if cut is None:   # one record: the separator is never met
        first, sep = data[a:z], b", "
    else:
        first, sep = data[a:cut.start() + 1], data[cut.start() + 1:cut.end() - 1]
    key = first.translate(None, _NUMERIC), sep, fields, dim
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _new_layout(first, sep, fields, dim)
        if layout is not None:
            if len(_LAYOUTS) >= 64:
                _LAYOUTS.clear()
            _LAYOUTS[key] = layout
    return layout


def _new_layout(first: bytes, sep: bytes, fields: tuple, dim: int) -> _Layout | None:
    """`_layout` of a record list whose first record has this text: json
    decodes it for its keys, and its text compacted must then be exactly
    `{"key":#,...}` with a number for each #."""
    try:
        rec = json.loads(first)
    except ValueError:
        return None
    if type(rec) is not dict or set(rec) != set(fields):
        return None
    slots = [f for f in rec for _ in range(dim if f == "shift" else 1)]
    compact = ",".join(f'"{f}":' + ("[%s]" % ",".join("#" * dim) if f == "shift" else "#")
                       for f in rec)
    pieces = _NUMBER.split(first)[::2]   # with the tokens at the odd places
    if [p.translate(None, _JSON_WS) for p in pieces] != ("{%s}" % compact).encode().split(b"#"):
        return None
    return _Layout(pieces, slots, sep, fields, dim)


_ID, _VALUE, _U, _V, _SHIFT = map(itemgetter, ("id", "value", "u", "v", "shift"))


def _integral(types) -> bool:
    """Whether entries of these types can be int64 ids or endpoints: ints,
    or floats that are then checked to be integral (never bools)."""
    return all(t is int or issubclass(t, float) for t in types)


def _ints(recs, get) -> np.ndarray:
    """The int64 column of one id field of the records: ints, or integral
    floats (never bools); a ValueError or OverflowError for anything else."""
    types = set(map(type, map(get, recs)))
    if types <= _INT:   # out of the int64 range raises
        return np.fromiter(map(get, recs), np.int64, len(recs))
    if not (_integral(types) and all(map(eq, map(int, map(get, recs)), map(get, recs)))):
        raise ValueError("not an integer")
    return np.fromiter(map(int, map(get, recs)), np.int64, len(recs))


def _floats(recs, raw: dict, at: int) -> np.ndarray:
    """The float64 column of the records' values: numbers, or strings that
    go through float() and into `raw` at their record position plus `at`
    (the decimal form is checked on the whole column)."""
    types = set(map(type, map(_VALUE, recs)))
    if not all(issubclass(t, (int, float, str)) and t is not bool for t in types):
        raise TypeError("not a value")
    if types <= {int, float}:
        return np.fromiter(map(_VALUE, recs), np.float64, len(recs))

    def strings():
        return map(isinstance, map(_VALUE, recs), repeat(str))
    raw.update(zip(compress(count(at), strings()), compress(map(_VALUE, recs), strings())))
    return np.fromiter(map(float, map(_VALUE, recs)), np.float64, len(recs))


def _shifts(recs, number: dict) -> np.ndarray:
    """The records' shifts numbered through `number` (`_number`): lists or
    tuples (a dict or a set has no order) of ints, or of integral floats,
    read as ints (never bools)."""
    if not all(issubclass(t, _SEQUENCE) for t in set(map(type, map(_SHIFT, recs)))):
        raise TypeError("not a shift")
    types = set(map(type, chain.from_iterable(map(_SHIFT, recs))))
    if bool in types:
        raise TypeError("not a shift")
    rows = map(tuple, map(_SHIFT, recs))
    if not types <= _INT:   # integral floats (or other numbers) read as ints
        def int_rows():
            return map(tuple, map(map, repeat(int), map(_SHIFT, recs)))
        if not all(map(eq, int_rows(), rows)):
            raise ValueError("not a shift")
        rows = int_rows()
    return _number(rows, number)


def _join(blocks: list) -> np.ndarray:
    """One column of its blocks, which are dropped."""
    col = np.concatenate(blocks)
    blocks.clear()
    return col


def _columns(dim, vblocks, eblocks):
    """(ids, values, raw, u, v, table, which) of the records, given as
    blocks, the vertex blocks before the edge blocks; None when any check
    fails.  A block is a list of records (a dict's record lists are one
    block each) or the `_Cut` of a window that its layout matched.

    Each field of a list of records is type-checked and then written into a
    block column in one pass, since `np.fromiter` would read True as 1 and
    '1e999' as inf; the shifts of all blocks are numbered through one dict.
    Once the vertex ids are known, one stable argsort orders them, and each
    edge block's endpoint ids are found among them by `searchsorted`.  The
    block columns are then joined, and duplicate ids, finiteness, decimal
    strings, the filter property and shift lengths are checked on whole
    columns.
    """
    number, raw = {}, {}   # shift -> table position; cell position -> decimal-string token
    # per column, its blocks: ids and values of the vertices then the edges,
    # and per edge its endpoint positions and table position
    cols = tuple([np.empty(0, dtype)] for dtype in (np.int64, np.float64, np.int64, np.int64,
                                                     np.int64))
    ids, values = cols[:2]
    try:
        n = m = 0
        for block in vblocks:
            if not isinstance(block, _Cut):   # records
                block = _ints(block, _ID), _floats(block, raw, n)
            ids.append(block[0])
            values.append(block[1])
            n += len(block[0])
        vertex_ids = np.concatenate(ids)
        order = np.argsort(vertex_ids, kind="stable")
        known = vertex_ids[order]   # the vertex ids, increasing
        if not np.diff(known).all():   # a zero step: a duplicate vertex id
            return None

        def positions(ends):   # of the vertices with these ids; an id of none raises
            at = known.searchsorted(ends)
            if len(ends) and not (n and (known.take(at, mode="clip") == ends).all()):
                raise ValueError("no such vertex")
            return order[at]
        for block in eblocks:
            if isinstance(block, _Cut):
                block = (*block[:2], positions(block[2]), positions(block[3]),
                         _number(zip(*block[4].T.tolist()), number))
            else:   # records
                block = (_ints(block, _ID), _floats(block, raw, n + m), positions(_ints(block, _U)),
                         positions(_ints(block, _V)), _shifts(block, number))
            for col, x in zip(cols, block):
                col.append(x)
            m += len(block[0])
        block = x = None   # the last block's columns, before the join
        ids, values, u, v, which = map(_join, cols)
        del cols
        if not np.diff(np.sort(ids[n:])).all():   # a duplicate edge id
            return None
        if not (np.isfinite(values).all() and all(map(_DECIMAL.fullmatch, raw.values()))):
            return None
        if (values[n:] < np.maximum(values[u], values[v])).any():
            return None
        if any(len(t) != dim for t in number):
            return None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return ids, values, raw, u, v, list(number), which


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
    The basis fills a template sized by the dimension, so the document's
    shell is laid out once per dimension, not once per basis.
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
    basis = jsonfmt.template([[HOLE] * g.dim] * g.dim, 1) % tuple(
        map(float.__repr__, g.basis.matrix.T.ravel().tolist()))   # a basis is finite
    vertex, edge = jsonfmt.template(_VERTEX, 2), jsonfmt.template(_EDGE, 2)

    def values(a, z):   # the value texts of cells a to z
        return map(texts.__getitem__, index[a:z].tolist())

    def edges():
        for a, z in jsonfmt.blocks(g.m):
            yield from zip(ids[n + a:n + z], map(shifts.__getitem__, g.which[a:z].tolist()),
                           g.ids[g.u[a:z]].tolist(), g.ids[g.v[a:z]].tolist(), values(n + a, n + z))
    return jsonfmt.chunks(
        {"basis": HOLE, "dim": g.dim, "edges": HOLE, "vertices": HOLE}, basis,
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
    u = g.basis.matrix.tolist()   # Python floats: a product past the float range is inf, unwarned
    new_cols = [[sum(u[r][c] * s.columns[j][c] for c in range(g.dim)) for r in range(g.dim)]
                for j in range(g.dim)]
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
