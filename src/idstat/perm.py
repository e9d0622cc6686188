"""Permutations of particle labels and their action on product states.

Positions are 0-based internally; cycle notation is rendered 1-based for
display.  The action convention is ``p.apply(s)[p(i)] == s[i]``: particle
``i``'s level moves to slot ``p(i)``, so ``p.compose(q).apply(s) ==
p.apply(q.apply(s))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityExceeded, LengthMismatch

#: Hard cap on the symmetric group order for enumeration (10! = 3.6M).
MAX_ENUM_N = 10

ProductState = tuple  # ordered tuple of level indices, one slot per particle


@dataclass(frozen=True)
class Permutation:
    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.mapping}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        m = list(range(n))
        m[i], m[j] = m[j], m[i]
        return cls(tuple(m))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if self.n != other.n:
            raise LengthMismatch(f"orders differ: {self.n} vs {other.n}")
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.n)))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

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
            raise LengthMismatch(f"state length {len(state)} != permutation order {self.n}")
        out = [None] * self.n
        for i, level in enumerate(state):
            out[self.mapping[i]] = level
        return tuple(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (0-based), fixed points included, ordered by
        smallest element."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.mapping[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.mapping[j]
            out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        """1-based cycle string, e.g. ``(1 2)(3)``."""
        return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in self.cycles())

    def to_json(self) -> dict:
        return {"image": list(self.mapping), "cycles": self.cycle_notation(), "sign": self.sign()}

    def __repr__(self) -> str:
        return f"Permutation{self.mapping}"


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order of the image tuple; streaming."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUM_N:
        raise CapacityExceeded(f"permutation enumeration capped at n = {MAX_ENUM_N}")
    return (Permutation(m) for m in itertools.permutations(range(n)))
