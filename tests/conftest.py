"""Shared fixtures, and helpers the tests import from here."""

from __future__ import annotations

import os
import subprocess
import sys
from operator import itemgetter

import pytest

import idstat
from idstat.observables import OneBodyOperator
from idstat.symmetry import StateVector


def matrix(rows) -> OneBodyOperator:
    """The operator whose entries are read from a square table.  Only the
    upper triangle is read."""
    rows = [list(row) for row in rows]
    return OneBodyOperator(lambda i, j: rows[i][j], len(rows))


def sign(mapping) -> int:
    """+1 for an even permutation, -1 for an odd one, by inversion count."""
    return -1 if sum(x > y for i, x in enumerate(mapping) for y in mapping[i + 1:]) % 2 else 1


def mover(mapping):
    """The map of a state tuple that moves particle i's level to slot
    mapping[i]: one getter, reading the inverse mapping (slot k reads the
    slot i with mapping[i] == k)."""
    inverse = sorted(range(len(mapping)), key=mapping.__getitem__)
    return itemgetter(*inverse) if len(inverse) > 1 else tuple  # one getter index would yield a bare level


def moved(v: StateVector, mapping) -> StateVector:
    """`v` with each term's state moved by `mover(mapping)`, in v's own
    values and scale."""
    return StateVector._trusted(v.n_particles, dict(zip(map(mover(mapping), v._amps), v._amps.values())),
                                v.basis_size, v._scale)


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
