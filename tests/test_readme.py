"""The README's library example runs as written, and each line it prints is
the trailing comment of the `print` call that wrote it."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            _, sep, comment = line.rpartition("#")
            assert sep, f"no trailing comment: {line}"
            expected.append(comment.strip())
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
