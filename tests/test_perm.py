"""Symmetric group enumeration, parity, state action, witnesses."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from idstat.errors import CapacityExceeded, LengthMismatch
from idstat.perm import (
    MAX_ENUM_N,
    Permutation,
    enumerate_permutations,
)


@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
def test_enumeration_count_and_lexicographic_order(n, count):
    perms = list(enumerate_permutations(n))
    assert len(perms) == count
    assert len(set(p.mapping for p in perms)) == count
    maps = [p.mapping for p in perms]
    assert maps == sorted(maps)


def test_enumeration_streams_and_caps():
    it = enumerate_permutations(3)
    assert next(it).mapping == (0, 1, 2)
    with pytest.raises(CapacityExceeded):
        enumerate_permutations(MAX_ENUM_N + 1)


def test_sign_examples():
    assert Permutation.identity(4).sign() == 1
    assert Permutation.transposition(3, 0, 1).sign() == -1
    assert Permutation((1, 2, 0)).sign() == 1  # 3-cycle


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_homomorphism_exhaustive(n):
    perms = list(enumerate_permutations(n))
    for p in perms:
        for q in perms:
            assert p.compose(q).sign() == p.sign() * q.sign()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_axioms_exhaustive(n):
    perms = list(enumerate_permutations(n))
    table = set(p.mapping for p in perms)
    e = Permutation.identity(n)
    for p in perms:
        assert p.compose(p.inverse()) == e
        assert p.inverse().compose(p) == e
        for q in perms:
            assert p.compose(q).mapping in table


def test_apply_convention():
    # particle i's level lands in slot p(i)
    p = Permutation((2, 0, 1))
    s = ("a", "b", "c")
    out = p.apply(s)
    for i in range(3):
        assert out[p(i)] == s[i]
    assert out == ("b", "c", "a")


def test_apply_composition_consistency():
    s = (10, 20, 30, 40)
    for p in enumerate_permutations(4):
        for q in [Permutation((1, 0, 3, 2)), Permutation((3, 2, 1, 0))]:
            assert p.compose(q).apply(s) == p.apply(q.apply(s))


def test_apply_preserves_multiset():
    s = (5, 5, 1, 3)
    for p in enumerate_permutations(4):
        assert sorted(p.apply(s)) == sorted(s)


def test_apply_length_mismatch():
    with pytest.raises(LengthMismatch):
        Permutation((0, 1)).apply((1, 2, 3))


def test_transposition_swap():
    p = Permutation.transposition(2, 0, 1)
    assert p.apply(("a", "b")) == ("b", "a")


def test_noncommutation_witness():
    # (1 2) and (2 3) do not commute, so S_n is not abelian for n >= 3
    for n in (3, 5):
        p, q = Permutation.transposition(n, 0, 1), Permutation.transposition(n, 1, 2)
        assert p.compose(q) != q.compose(p)


def test_cycle_notation():
    assert Permutation((1, 0, 2)).cycle_notation() == "(1 2)(3)"
    assert Permutation.identity(3).cycle_notation() == "(1)(2)(3)"
    assert Permutation((1, 2, 0)).cycle_notation() == "(1 2 3)"


def test_json_form():
    data = Permutation((1, 0, 2)).to_json()
    assert data == {"image": [1, 0, 2], "cycles": "(1 2)(3)", "sign": -1}


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


def test_inverse_is_involution_on_group():
    for p in enumerate_permutations(4):
        assert p.inverse().inverse() == p
