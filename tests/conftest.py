"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import idstat


@pytest.fixture
def fresh_python():
    """Run `python -c code argv...` in a new interpreter that imports the
    idstat under test, with stdin open on the null device; returns the
    completed process, output as bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(idstat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=120,
                              stdin=subprocess.DEVNULL)

    return run
