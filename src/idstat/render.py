"""Deterministic output rendering: canonical JSON (sorted keys, 17
significant digits for floats), CSV tables, and plain-text reports."""

from __future__ import annotations

import io
import math
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable

try:
    from _json import encode_basestring_ascii  # the C encoder, without loading the json package
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from .errors import InputError


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"cannot render non-finite float {x!r}")
    return format(float(x) + 0.0, ".17g")  # + 0.0 turns -0.0 into 0.0


#: The text of each value of one exact scalar type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: fmt_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(obj) -> str:
    text = _SCALARS.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, dict):
        try:
            pairs = [encode_basestring_ascii(key) + ":" + _json(obj[key]) for key in sorted(obj)]
        except TypeError:  # sorted() or the encoder meets a key that is not a str
            for key in obj:
                if not isinstance(key, str):
                    raise InputError(f"JSON object keys must be strings, got {key!r}") from None
            raise
        return "{" + ",".join(pairs) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_column(obj)) + "]"
    if isinstance(obj, str):  # a str enum: its value
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):  # an int subclass: its own str()
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    raise InputError(f"cannot render {type(obj).__name__} as JSON")


def _column(values) -> list:
    """The JSON text of each value in a list.

    A run of one exact scalar type is formatted once per distinct value.
    Rows of plain ints or of plain strs are joined row by row.  Plain dicts
    that share one set of str keys are rendered key by key, each key's
    values again one column.  Anything else is rendered value by value."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    text = _SCALARS.get(kind)
    if text is not None:
        distinct = set(values)
        return list(map(dict(zip(distinct, map(text, distinct))).__getitem__, values))
    if kind is list:
        items = set(map(type, chain.from_iterable(values)))
        if items <= {int}:  # no bool, float or int subclass for repr to render differently
            return list(map(str.replace, map(repr, values), repeat(" "), repeat("")))
        if items == {str}:
            return ["[" + ",".join(map(encode_basestring_ascii, row)) + "]" for row in values]
    elif kind is dict and values[0] and len(set(map(len, values))) == 1:
        try:  # a key that is not a str, or a dict as long as the first that lacks one of its keys
            keys = sorted(values[0])
            heads = ["," + encode_basestring_ascii(key) + ":" for key in keys]
            columns = [list(map(itemgetter(key), values)) for key in keys]
        except (TypeError, KeyError):
            pass  # each dict renders (or is refused) alone
        else:
            heads[0] = "{" + heads[0][1:]
            cells = [map(head.__add__, _column(column)) for head, column in zip(heads, columns)]
            return list(map("".join, zip(*cells, repeat("}"))))
    return list(map(_json, values))


def canonical_json(obj) -> str:
    """Byte-deterministic JSON: keys sorted, floats at 17 significant
    digits, no insignificant whitespace."""
    return _json(obj)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def table_text(rows, indent: str = "  ") -> str:
    """Column-aligned plain-text table."""
    cells = [[_cell(v) for v in row] for row in rows]
    if not cells:
        return ""
    widths = [max(len(r[i]) for r in cells if i < len(r)) for i in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class Report:
    """One command result: `data` is the JSON output, and the CSV rows and
    the pretty text are functions of it, built only for the format asked
    for."""

    __slots__ = ("data", "rows", "text")

    def __init__(self, data: dict, rows: Callable[[dict], list], text: Callable[[dict], str]):
        self.data, self.rows, self.text = data, rows, text

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return canonical_json(self.data)
        if fmt == "csv":
            return csv_text(self.rows(self.data))
        if fmt == "pretty":
            return self.text(self.data)
        raise InputError(f"unknown output format {fmt!r}")
