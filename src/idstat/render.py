"""Deterministic output rendering: canonical JSON (sorted keys, 17
significant digits for floats), CSV tables, and plain-text reports."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable

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
            out.append("[" + ",".join(map(encode_basestring_ascii, obj)) + "]")
            return
        if types == {list} and set(map(type, chain.from_iterable(obj))) == {int}:
            # rows of plain ints, such as occupation vectors: no float, bool
            # or key for the C encoder to render differently
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


def _emit_records(records: list, out: list) -> bool:
    """Emit a list of plain dicts that share one set of two or more str
    keys, which are sorted and encoded once for the list.  Emit nothing and
    return False for any other list of dicts."""
    keys = sorted(key for key in records[0] if isinstance(key, str))
    if len(keys) < 2 or set(map(len, records)) != {len(keys)}:
        return False
    try:
        rows = list(map(itemgetter(*keys), records))
    except KeyError:  # a dict with other keys
        return False
    heads = ["{" + encode_basestring_ascii(keys[0]) + ":"]
    heads += ["," + encode_basestring_ascii(key) + ":" for key in keys[1:]]
    out.append("[")
    for i, row in enumerate(rows):
        if i:
            out.append(",")
        for head, value in zip(heads, row):
            out.append(head)
            _emit(value, out)
        out.append("}")
    out.append("]")
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


@dataclass(frozen=True)
class Report:
    """One command result: `data` is the JSON output, and the CSV rows and
    the pretty text are functions of it, built only for the format asked
    for."""

    data: dict
    rows: Callable[[dict], list]
    text: Callable[[dict], str]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return canonical_json(self.data)
        if fmt == "csv":
            return csv_text(self.rows(self.data))
        if fmt == "pretty":
            return self.text(self.data)
        raise InputError(f"unknown output format {fmt!r}")
