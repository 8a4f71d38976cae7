"""The one indent-2, sorted-key JSON writer behind perimere's JSON output.

`dumps(obj)` returns exactly `json.dumps(obj, indent=2, sort_keys=True)`
(ASCII escapes, `float.__repr__`, `Infinity`/`NaN`) for documents made of
str-keyed dicts, lists, tuples, str, int, float, bool and None, and raises
TypeError on anything else.  The standard library writes indented JSON with
its pure-Python generator encoder; this writer appends one chunk per line to
a list instead, a container of scalars becomes one chunk, and the sorted,
quoted keys of each distinct dict shape are computed once per call.  It does
not detect reference cycles.  `dumps` writes the small documents.

The large documents (merge trees, graphs, barcodes) are written from record
templates, with no dict per record: `template(shape, depth)` lays a record
shape out once, exactly as `dumps` would at that depth, with a `%s` for each
`HOLE`, so a record costs one `%` with its fills.  `items` lays a list out
around the texts of its items, `nested` writes a value that repeats (such
as a shift) for the caller to keep, `floats` writes a column of floats, and
`chunks` fills the holes of a whole document, yielding its text in pieces
that can be written one after another.  The depth of a value is the number
of containers around it: a top-level key's value has depth 1.
"""
from __future__ import annotations

import math
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote

_INF = float("inf")


def _float(o) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


class _Hole:
    """The type of HOLE."""


HOLE = _Hole()   # a value `template` leaves open, filled per record
_MARK = "\0"     # a hole's text inside `dumps`; a str's NUL is written escaped

# exact scalar types; subclasses take the isinstance path in _scalar
_EXACT = {str: _quote, int: int.__repr__, float: _float,
          bool: lambda o: "true" if o else "false", type(None): lambda o: "null",
          _Hole: lambda o: _MARK}


def _scalar(o) -> str | None:
    """JSON text of a scalar, or None when `o` is not one."""
    text = _EXACT.get(type(o))
    if text is not None:
        return text(o)
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):   # bool is exact, so this is an int subclass
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, written directly."""
    out: list = []
    put = out.append
    shapes: dict = {}   # a dict's keys in insertion order -> sorted (key, quoted key)

    def sorted_keys(o) -> list:
        shape = tuple(o)
        keys = shapes.get(shape)
        if keys is None:
            for k in shape:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
            keys = shapes[shape] = [(k, _quote(k) + ": ") for k in sorted(shape)]
        return keys

    def write(o, pad: str, head: str, tail: str) -> None:
        # the lines of o at indent pad; head (a quoted key) opens the first
        # line, tail (a comma or nothing) closes the last
        if isinstance(o, dict):
            if not o:
                return put(f"{pad}{head}{{}}{tail}")
            put(f"{pad}{head}{{")
            inner, keys = pad + "  ", sorted_keys(o)
            last = len(keys) - 1
            for i, (k, quoted) in enumerate(keys):
                v, comma = o[k], "," if i < last else ""
                text = _EXACT.get(type(v))
                if text is not None:
                    put(f"{inner}{quoted}{text(v)}{comma}")
                else:
                    write(v, inner, quoted, comma)
            return put(f"{pad}}}{tail}")
        if isinstance(o, (list, tuple)):
            if not o:
                return put(f"{pad}{head}[]{tail}")
            inner, last = pad + "  ", len(o) - 1
            if not isinstance(o[0], (dict, list, tuple)):
                texts = list(map(_scalar, o))
                if None not in texts:
                    body = (",\n" + inner).join(texts)
                    return put(f"{pad}{head}[\n{inner}{body}\n{pad}]{tail}")
            put(f"{pad}{head}[")
            for i, x in enumerate(o):
                write(x, inner, "", "," if i < last else "")
            return put(f"{pad}]{tail}")
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        put(f"{pad}{head}{text}{tail}")

    write(obj, "", "", "")
    return "\n".join(out)


def nested(obj, depth: int) -> str:
    """`dumps(obj)` as the value of a key or item `depth` containers deep."""
    return dumps(obj).replace("\n", "\n" + "  " * depth)


def template(shape, depth: int) -> str:
    """`nested(shape, depth)` as a %-format: each HOLE is a `%s`, filled in
    text order (sorted keys, depth first) by an exact int or a JSON text
    (one of `floats`, `nested`, `items`' joined chunks, or a constant)."""
    return "%s".join(part.replace("%", "%%") for part in nested(shape, depth).split(_MARK))


def floats(xs: list) -> list:
    """The JSON texts of a list of floats, where None is null."""
    try:
        if all(map(math.isfinite, xs)):
            return list(map(float.__repr__, xs))
    except TypeError:   # a None
        pass
    return [_float(x) if x is not None else "null" for x in xs]


_BLOCK = 4096   # items joined per chunk


def items(texts, depth: int):
    """Chunks of the list, `depth` containers deep, whose items have these
    texts (each laid out `depth + 1` deep, as `template` and `nested` do)."""
    it = iter(texts)
    block = list(islice(it, _BLOCK))
    if not block:
        yield "[]"
        return
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    yield "[" + pad + sep.join(block)
    while block := list(islice(it, _BLOCK)):
        yield sep + sep.join(block)
    yield "\n" + "  " * depth + "]"


def chunks(shape, *fills):
    """Chunks of `dumps(shape)` with its HOLEs replaced, in text order, by
    `fills`: each a JSON text or an iterable of chunks (such as `items`)."""
    parts = dumps(shape).split(_MARK)
    yield parts[0]
    for fill, part in zip(fills, parts[1:], strict=True):
        if isinstance(fill, str):
            yield fill
        else:
            yield from fill
        yield part
