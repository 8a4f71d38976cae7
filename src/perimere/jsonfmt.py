"""Indent-2, sorted-key JSON for perimere's output.

`dumps(obj)` is the standard library's `json.dumps(obj, indent=2,
sort_keys=True)`; it writes the small documents (distance, bounds,
count-shadows) and the record shapes below.

The large documents (merge trees, graphs, barcodes) are written from record
templates, with no dict per record: `template(shape, depth)` lays a record
shape out once, exactly as `dumps` would at that depth, with a `%s` for each
`HOLE`, so a record costs one `%` with its fills.  `items` lays a list out
around the texts of its items, `blocks` splits a writer's rows into the
blocks it makes texts for at a time, `floats` writes a column of floats,
`distinct` writes each distinct value of a float64 column once, a
`TextStore` keeps the texts of one pass for a later one in little room, and
`chunks` fills the holes of a whole document, yielding its text in pieces
that can be written one after another.  The depth of a value is the
number of containers around it: a top-level key's value has depth 1.
"""
from __future__ import annotations

import json
import math
import re
from array import array
from itertools import accumulate, islice

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


def template(shape, depth: int) -> str:
    """`dumps(shape)` as the value of a key or item `depth` containers deep,
    as a %-format: each HOLE is a `%s`, filled in text order (sorted keys,
    depth first) by an exact int or a JSON text (one of `floats`, `items`'
    joined chunks, a quoted string, another template's fill or a constant).
    A HOLE is a NaN, so a shape may hold any keys and strings but no NaN of
    its own."""
    text = dumps(shape).replace("\n", "\n" + "  " * depth)
    return "%s".join(part.replace("%", "%%") for part in _HOLES.split(text))


def floats(xs: list) -> list:
    """The JSON texts of a list of floats, where None is null."""
    try:
        if all(map(math.isfinite, xs)):
            return list(map(float.__repr__, xs))
    except TypeError:   # a None
        pass
    return [_float(x) if x is not None else "null" for x in xs]


def distinct(column) -> tuple:
    """(texts, index) of a float64 array: the JSON texts of its distinct
    values, and per entry the position of its text (an int64 array).  Values
    are keyed by their exact bits, so -0.0 and 0.0 keep a text each."""
    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    return floats(keys.view(np.float64).tolist()), index


_BLOCK = 256   # items joined per chunk, and rows a record writer turns into texts at once


def blocks(n: int):
    """The ranges (a, b) that split range(n) into blocks of `_BLOCK` rows:
    a writer that makes its texts a block at a time holds one block's, as
    `items` does."""
    return ((a, min(a + _BLOCK, n)) for a in range(0, n, _BLOCK))


class TextStore:
    """Texts kept from one pass of a writer for a later one, in little room:
    the texts are added a block at a time and held as one string per block
    of at most `_BLOCK` texts, with per text its end in that string.  A text
    costs its characters and two bytes, so a text must be short: a block's
    string stays below 2^16 characters (a float's text has at most 24)."""

    __slots__ = ("first", "strings", "ends", "size")

    def __init__(self, n: int):
        """A store for n texts."""
        self.first = array("q")   # per block, the index of its first text
        self.strings = []   # per block, its texts joined
        self.ends = np.empty(n, dtype=np.uint16)   # per text, its end in its block's string
        self.size = 0

    def add(self, texts: list) -> None:
        """Append `texts`, the next ones in index order."""
        for a, z in blocks(len(texts)):
            block = texts[a:z]
            self.first.append(self.size)
            self.strings.append("".join(block))
            self.ends[self.size:self.size + z - a] = list(accumulate(map(len, block)))
            self.size += z - a

    def take(self, rows) -> list:
        """The texts at the indices `rows` (an int array)."""
        first = np.frombuffer(self.first, dtype=np.int64)
        block = np.searchsorted(first, rows, side="right") - 1
        ends = self.ends[rows]
        starts = np.where(rows == first[block], 0, self.ends[rows - 1])
        return list(map(str.__getitem__, map(self.strings.__getitem__, block.tolist()),
                        map(slice, starts.tolist(), ends.tolist())))


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
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    yield "[" + pad
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
    parts = _HOLES.split(dumps(shape))
    yield parts[0]
    for fill, part in zip(fills, parts[1:], strict=True):
        if isinstance(fill, str):
            yield fill
        else:
            yield from fill
        yield part
