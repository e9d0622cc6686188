"""Permutations: parity, the action on product states, validation."""

from __future__ import annotations

import itertools

import pytest

from idstat.errors import InputError
from idstat.perm import Permutation


def all_perms(n):
    return [Permutation(m) for m in itertools.permutations(range(n))]


def after(p, q):
    """p after q, as a mapping: i -> p(q(i))."""
    return Permutation(tuple(p(q(i)) for i in range(p.n)))


def test_sign_examples():
    assert Permutation((0, 1, 2, 3)).sign() == 1
    assert Permutation.transposition(3, 0, 1).sign() == -1
    assert Permutation((1, 2, 0)).sign() == 1  # 3-cycle


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_homomorphism_exhaustive(n):
    perms = all_perms(n)
    for p in perms:
        for q in perms:
            assert after(p, q).sign() == p.sign() * q.sign()


def test_apply_convention():
    # particle i's level lands in slot p(i)
    p = Permutation((2, 0, 1))
    s = ("a", "b", "c")
    out = p.apply(s)
    for i in range(3):
        assert out[p(i)] == s[i]
    assert out == ("b", "c", "a")
    s = (10, 20, 30, 40)
    for p in all_perms(4):
        out = p.apply(s)
        assert all(out[p(i)] == s[i] for i in range(4))


def test_apply_composition_consistency():
    s = (10, 20, 30, 40)
    for p in all_perms(4):
        for q in [Permutation((1, 0, 3, 2)), Permutation((3, 2, 1, 0))]:
            assert after(p, q).apply(s) == p.apply(q.apply(s))


def test_apply_preserves_multiset():
    s = (5, 5, 1, 3)
    for p in all_perms(4):
        assert sorted(p.apply(s)) == sorted(s)


def test_apply_length_mismatch():
    with pytest.raises(InputError):
        Permutation((0, 1)).apply((1, 2, 3))


def test_transposition_swap():
    p = Permutation.transposition(2, 0, 1)
    assert p.apply(("a", "b")) == ("b", "a")


def test_noncommutation_witness():
    # (1 2) and (2 3) do not commute, so S_n is not abelian for n >= 3
    for n in (3, 5):
        p, q = Permutation.transposition(n, 0, 1), Permutation.transposition(n, 1, 2)
        s = tuple(range(n))
        assert p.apply(q.apply(s)) != q.apply(p.apply(s))


def test_rejects_non_permutation():
    with pytest.raises(InputError):
        Permutation((0, 0, 2))
