"""Permutations of particle labels and their action on product states.

Positions are 0-based.  The action convention is ``p.apply(s)[p(i)] ==
s[i]``: particle ``i``'s level moves to slot ``p(i)``.
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

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        n, i, j = count(n, "permutation size"), count(i, "slot i"), count(j, "slot j")
        if max(i, j) >= n:
            raise InputError(f"slots {shown(i)} and {shown(j)} must be below the size {shown(n)}")
        m = list(range(n))
        m[i], m[j] = m[j], m[i]
        return cls(tuple(m))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def sign(self) -> int:
        """+1 for even, -1 for odd, by inversion count."""
        inv = sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.mapping[i] > self.mapping[j]
        )
        return -1 if inv % 2 else 1

    def apply(self, state: Sequence) -> tuple:
        """Transport levels: result[p(i)] = state[i]."""
        if len(state) != self.n:
            raise InputError(f"state length {len(state)} != permutation order {self.n}")
        out = [None] * self.n
        for i, level in enumerate(state):
            out[self.mapping[i]] = level
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation{self.mapping}"
