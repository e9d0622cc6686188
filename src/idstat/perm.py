"""Permutations of particle labels and their action on product states.

Positions are 0-based.  The action convention is
``p.apply(s)[p.mapping[i]] == s[i]``: particle ``i``'s level moves to slot
``p.mapping[i]``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, count, items, shown


class Permutation:
    """A permutation of 0..n-1 as the tuple of its images; two are equal
    when their tuples are."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        mapping = tuple([count(i, "permutation entry") for i in items(mapping, "permutation")])
        if sorted(mapping) != list(range(len(mapping))):
            raise InputError(f"not a permutation of 0..{len(mapping) - 1}: {shown(mapping)}")
        self.mapping: tuple[int, ...] = mapping

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def apply(self, state: Sequence) -> tuple:
        """Transport levels: result[mapping[i]] = state[i]."""
        state = items(state, "state")
        if len(state) != self.n:
            raise InputError(f"state length {len(state)} != permutation order {self.n}")
        out = [None] * self.n
        for i, level in enumerate(state):
            out[self.mapping[i]] = level
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation{self.mapping}"
