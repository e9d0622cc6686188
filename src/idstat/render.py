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


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise InputError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if types == {str}:  # plain strs, no str enums: one join
            out.append(_str_list(obj))
            return
        if types == {list} and set(map(type, chain.from_iterable(obj))) == {int}:
            # rows of plain ints, such as occupation vectors: no float, bool
            # or key for the C encoder to render differently
            import json

            out.append(json.dumps(obj, separators=(",", ":")))
            return
        if types == {dict} and _emit_records(obj, out):
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise InputError(f"cannot render {type(obj).__name__} as JSON")


#: The text of each value of one exact scalar type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: fmt_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _str_list(items: list) -> str:
    return "[" + ",".join(map(encode_basestring_ascii, items)) + "]"


def _column(values: list) -> list:
    """The JSON text of each value.  When all values share one scalar
    type, its formatter is applied once per distinct value, and a column of
    lists of plain strs is joined list by list; any other column renders
    value by value."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind is list and set(map(type, chain.from_iterable(values))) <= {str}:
        return list(map(_str_list, values))
    text = _SCALARS.get(kind)
    if text is None:
        return list(map(canonical_json, values))
    distinct = set(values)
    return list(map(dict(zip(distinct, map(text, distinct))).__getitem__, values))


def _emit_records(records: list, out: list) -> bool:
    """Emit a list of plain dicts that share one set of two or more str
    keys, which are sorted and encoded once for the list, column by column.
    Emit nothing and return False for any other list of dicts."""
    keys = sorted(key for key in records[0] if isinstance(key, str))
    if len(keys) < 2 or set(map(len, records)) != {len(keys)}:
        return False
    try:
        columns = [list(map(itemgetter(key), records)) for key in keys]
    except KeyError:  # a dict with other keys
        return False
    heads = ["{" + encode_basestring_ascii(keys[0]) + ":"]
    heads += ["," + encode_basestring_ascii(key) + ":" for key in keys[1:]]
    cells = [map(head.__add__, _column(column)) for head, column in zip(heads, columns)]
    out.append("[" + ",".join(map("".join, zip(*cells, repeat("}")))) + "]")
    return True


def canonical_json(obj) -> str:
    """Byte-deterministic JSON: keys sorted, floats at 17 significant
    digits, no insignificant whitespace."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


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
