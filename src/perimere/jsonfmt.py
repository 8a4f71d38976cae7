"""Indent-2, sorted-key JSON for perimere's output.

`dumps(obj)` is the standard library's `json.dumps(obj, indent=2,
sort_keys=True)`.  Every document is written from record templates, the
large ones (merge trees, graphs, barcodes) with no dict per record:
`template(shape, depth)` lays a record shape out exactly as `dumps` would
at that depth, with a `%s` for each `HOLE`, so a record costs one `%` with
its fills.  `items` lays a list out
around the texts of its items, putting `separator` between two of them,
`blocks` splits a writer's rows into the blocks it makes texts for at a
time, `floats` writes a column of floats, `distinct` writes each distinct
value of a float64 column once (as JSON, or in a writer's own format,
as the barcode CSV's), and `chunks` fills the holes of a whole
document, yielding its text in pieces that can be written one after
another.  The depth of a value is the number of containers around it: a
top-level key's value has depth 1.

A shape is laid out once per process for each distinct (shape, depth):
`template` and `chunks` keep every layout they make, keyed by the shape's
`repr` and the depth, since `dumps`' indenting encoder costs tens of
microseconds per shape and leaves a reference cycle each time it runs.  The
writers keep their shapes constant or sized by the dimension and rank (a
graph's basis and a tree's beam of k epochs are filled in, not laid out),
so the memo stays small however many documents a process writes.  Two
threads may lay the same shape out at once; both store the same layout.
"""
from __future__ import annotations

import json
import math
import re
from itertools import islice

import numpy as np

HOLE = math.nan   # a value `template` leaves open, filled per record
# a HOLE's text: a bare NaN that ends its line, which no key or string can
# write (a string's text ends with a quote and holds no raw line break)
_HOLES = re.compile(r"NaN(?=,?$)", re.MULTILINE)


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _float(o) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


_LAID: dict = {}   # (repr(shape), depth) -> (the texts between its HOLEs, its template)


def _laid_out(shape, depth: int) -> tuple:
    """The texts around the HOLEs of `dumps(shape)` laid out `depth`
    containers deep, and its template; made once per process."""
    key = repr(shape), depth
    laid = _LAID.get(key)
    if laid is None:
        parts = tuple(_HOLES.split(dumps(shape).replace("\n", "\n" + "  " * depth)))
        laid = _LAID[key] = parts, "%s".join(part.replace("%", "%%") for part in parts)
    return laid


def template(shape, depth: int) -> str:
    """`dumps(shape)` as the value of a key or item `depth` containers deep,
    as a %-format: each HOLE is a `%s`, filled in text order (sorted keys,
    depth first) by an exact int or a JSON text (one of `floats`, `items`'
    joined chunks, a quoted string, another template's fill or a
    constant).  A HOLE is a NaN, so a shape may hold any keys and strings
    but no NaN of its own.  It is keyed by its `repr`, so it holds only
    dicts, lists, strings, ints, floats, bools and None of the builtin
    types, whose `repr` tells them apart."""
    return _laid_out(shape, depth)[1]


def floats(xs: list) -> list:
    """The JSON texts of a list of floats, where None is null."""
    try:
        if all(map(math.isfinite, xs)):
            return list(map(float.__repr__, xs))
    except TypeError:   # a None
        pass
    return [_float(x) if x is not None else "null" for x in xs]


def distinct(column, write=None) -> tuple:
    """(texts, index) of a float64 array: the texts of its distinct values,
    and per entry the position of its text (an int64 array).  Values are
    keyed by their exact bits, so -0.0 and 0.0 keep a text each.  The texts
    are `write(values)` of the distinct values, a float64 array in the
    order of their bits, or by default their JSON texts (`floats`)."""
    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    return floats(values.tolist()) if write is None else write(values), index


_BLOCK = 256   # items joined per chunk, and rows a record writer turns into texts at once


def blocks(n: int):
    """The ranges (a, b) that split range(n) into blocks of `_BLOCK` rows:
    a writer that makes its texts a block at a time holds one block's, as
    `items` does."""
    return ((a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK))


def separator(depth: int) -> str:
    """The text between two items of a list `depth` containers deep, as
    `items` joins them."""
    return ",\n" + "  " * (depth + 1)


def items(texts, depth: int):
    """Chunks of the list, `depth` containers deep, whose items have these
    texts (each laid out `depth + 1` deep, as `template` does).  The texts
    are joined `_BLOCK` at a time; a block's list is dropped before its text
    is yielded, and that text before the next block is read, so at most one
    block is held, twice."""
    it = iter(texts)
    block = list(islice(it, _BLOCK))
    if not block:
        yield "[]"
        return
    sep = separator(depth)
    yield "[" + sep[1:]
    while block:
        text = sep.join(block)
        block = None
        yield text
        text = None
        block = list(islice(it, _BLOCK))
        if block:
            yield sep
    yield "\n" + "  " * depth + "]"


def chunks(shape, *fills):
    """Chunks of `dumps(shape)` with its HOLEs replaced, in text order, by
    `fills`: each a JSON text or an iterable of chunks (such as `items`)."""
    parts = _laid_out(shape, 0)[0]
    yield parts[0]
    for fill, part in zip(fills, parts[1:], strict=True):
        if isinstance(fill, str):
            yield fill
        else:
            yield from fill
        yield part
