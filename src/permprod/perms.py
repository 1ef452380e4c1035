"""Permutations of the ground set {1, ..., n}, and the whole symmetric group.

A permutation is stored as the tuple of its images (sigma(1), ...,
sigma(n)), one-line notation. Values are immutable and hashable, so
they can be shared freely and used as dictionary keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Permutation", "all_permutations"]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}; ``images[i - 1]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("a permutation needs a ground set of size >= 1")
        seen = bytearray(n)
        for x in self.images:
            if not isinstance(x, int) or not 1 <= x <= n or seen[x - 1]:
                raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")
            seen[x - 1] = 1

    @property
    def n(self) -> int:
        return len(self.images)


def all_permutations(n: int) -> Iterator[Permutation]:
    """Yield every element of the symmetric group on {1, ..., n}."""
    if n < 1:
        raise ValueError("all_permutations needs n >= 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
