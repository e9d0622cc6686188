"""Permutations of particle labels and their action on product states.

Positions are 0-based.  The action convention is
``p.apply(s)[p.mapping[i]] == s[i]``: particle ``i``'s level moves to slot
``p.mapping[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, count, items, shown


@dataclass(frozen=True)
class Permutation:
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple([count(i, "permutation entry") for i in items(self.mapping, "permutation")])
        if sorted(mapping) != list(range(len(mapping))):
            raise InputError(f"not a permutation of 0..{len(mapping) - 1}: {shown(mapping)}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def apply(self, state: Sequence) -> tuple:
        """Transport levels: result[mapping[i]] = state[i]."""
        if len(state) != self.n:
            raise InputError(f"state length {len(state)} != permutation order {self.n}")
        out = [None] * self.n
        for i, level in enumerate(state):
            out[self.mapping[i]] = level
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation{self.mapping}"
