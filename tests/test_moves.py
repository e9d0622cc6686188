"""Slot moves by mapping tuples: the `sign`, `mover` and `moved` helpers of
conftest, which the symmetry tests read as their oracle."""

from __future__ import annotations

import itertools

import pytest

from conftest import moved, mover, sign
from idstat.exactnum import ONE
from idstat.symmetry import product_state_vector, symmetrize


def all_mappings(n):
    return list(itertools.permutations(range(n)))


def after(p, q):
    """p after q, as a mapping: i -> p(q(i))."""
    return tuple(p[j] for j in q)


def test_sign_examples():
    assert sign((0, 1, 2, 3)) == 1
    assert sign((1, 0, 2)) == -1  # a transposition
    assert sign((1, 2, 0)) == 1  # 3-cycle


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_homomorphism_exhaustive(n):
    mappings = all_mappings(n)
    for p in mappings:
        for q in mappings:
            assert sign(after(p, q)) == sign(p) * sign(q)


def test_mover_convention():
    # particle i's level lands in slot mapping[i]
    p = (2, 0, 1)
    s = ("a", "b", "c")
    out = mover(p)(s)
    for i in range(3):
        assert out[p[i]] == s[i]
    assert out == ("b", "c", "a")
    s = (10, 20, 30, 40)
    for p in all_mappings(4):
        out = mover(p)(s)
        assert all(out[p[i]] == s[i] for i in range(4))


def test_mover_composition_consistency():
    s = (10, 20, 30, 40)
    for p in all_mappings(4):
        for q in [(1, 0, 3, 2), (3, 2, 1, 0), (1, 2, 3, 0)]:
            assert mover(after(p, q))(s) == mover(p)(mover(q)(s))


def test_mover_preserves_multiset():
    s = (5, 5, 1, 3)
    for p in all_mappings(4):
        assert sorted(mover(p)(s)) == sorted(s)


def test_mover_orbit_is_every_ordering():
    # the images of one ordering under S_N are exactly its distinct orderings
    for levels in [(0, 1, 2, 3), (2, 2, 0, 1), (1, 1, 1)]:
        assert {mover(p)(levels) for p in all_mappings(len(levels))} == set(itertools.permutations(levels))


def test_transposition_swap():
    assert mover((1, 0))(("a", "b")) == ("b", "a")


def test_one_particle_mover_yields_a_tuple():
    # a getter of one index would yield the bare level, not a state tuple
    assert mover((0,))((7,)) == (7,)
    assert moved(product_state_vector((3,)), (0,)) == product_state_vector((3,))


def test_noncommutation_witness():
    # (1 2) and (2 3) do not commute, so S_n is not abelian for n >= 3
    for n in (3, 5):
        rest = tuple(range(3, n))
        p, q = (1, 0, 2) + rest, (0, 2, 1) + rest
        s = tuple(range(n))
        assert mover(p)(mover(q)(s)) != mover(q)(mover(p)(s))


def test_moved_keeps_values_and_scale():
    # a moved vector holds the same values on the moved states, in v's scale
    v = symmetrize((0, 1, 2), "A").vector
    for p in all_mappings(3):
        w = moved(v, p)
        assert w._scale == v._scale and w.norm_squared() == ONE
        assert {mover(p)(s): a for s, a in v._amps.items()} == w._amps
