"""Shared fixtures, and helpers the tests import from here."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import idstat
from idstat.observables import OneBodyOperator
from idstat.symmetry import StateVector


def matrix(rows) -> OneBodyOperator:
    """The operator whose entries are read from a square table.  Only the
    upper triangle is read."""
    rows = [list(row) for row in rows]
    return OneBodyOperator(lambda i, j: rows[i][j], len(rows))


def sign(p) -> int:
    """+1 for an even permutation, -1 for an odd one, by inversion count."""
    m = p.mapping
    return -1 if sum(x > y for i, x in enumerate(m) for y in m[i + 1:]) % 2 else 1


def moved(v: StateVector, p) -> StateVector:
    """`v` with each term's state moved by `p.apply` (particle i's level to
    slot p.mapping[i]), in v's own values and scale."""
    return StateVector._trusted(v.n_particles, {p.apply(s): a for s, a in v._amps.items()}, v.basis_size, v._scale)


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
