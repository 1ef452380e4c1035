"""Permutation algebra and cycle statistics on the ground set {1, ..., n}.

One-line notation throughout: a permutation is stored as the tuple of
images (sigma(1), ..., sigma(n)). Values are immutable and hashable and
every operation returns a fresh value, so everything here can be shared
freely between threads and used as dictionary keys.

Composition convention: ``compose(a, b)`` applies ``b`` first, that is
``compose(a, b)(x) == a(b(x))``. Products written left to right
elsewhere in the package follow the same rule, so the product "sigma
times rho" is ``compose(sigma, rho)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Permutation",
    "CycleCounts",
    "identity",
    "all_permutations",
    "compose",
    "inverse",
    "conjugate",
    "cycle_of",
    "cycle_counts",
    "cycle_type",
    "trace_power",
]


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

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        return self.images[i - 1]

    @classmethod
    def from_line(cls, text: str) -> "Permutation":
        """Parse one-line notation, e.g. ``"2 3 1"``."""
        parts = text.split()
        if not parts:
            raise ValueError("empty one-line notation")
        try:
            images = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad one-line notation {text!r}") from exc
        return cls(images)

    def to_line(self) -> str:
        """Serialize to one-line notation, e.g. ``"2 3 1"``."""
        return " ".join(str(x) for x in self.images)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from a list of cycles; indices absent from every cycle are fixed."""
        images = list(range(1, n + 1))
        touched = set()
        for cyc in cycles:
            if len(set(cyc)) != len(cyc) or touched.intersection(cyc):
                raise ValueError(f"overlapping or repeated cycle entries in {cyc!r}")
            for x in cyc:
                if not 1 <= x <= n:
                    raise ValueError(f"cycle entry {x} outside 1..{n}")
            touched.update(cyc)
            for pos, x in enumerate(cyc):
                images[x - 1] = cyc[(pos + 1) % len(cyc)]
        return cls(tuple(images))

    def __repr__(self) -> str:
        return f"Permutation({self.to_line()!r})"


@dataclass(frozen=True)
class CycleCounts:
    """Cycle-length multiplicities of a permutation of {1, ..., n}.

    ``items`` holds (length, count) pairs, sorted by length, counts all
    positive. The weighted sum of lengths always equals ``n``.
    """

    n: int
    items: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        total = 0
        prev = 0
        for length, count in self.items:
            if length <= prev or count <= 0 or length > self.n:
                raise ValueError(f"malformed cycle counts {self.items!r}")
            prev = length
            total += length * count
        if total != self.n:
            raise ValueError(
                f"cycle lengths sum to {total}, expected {self.n}: {self.items!r}"
            )

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "CycleCounts":
        items = tuple(sorted((k, c) for k, c in mapping.items() if c))
        return cls(n, items)

    def get(self, length: int) -> int:
        for k, c in self.items:
            if k == length:
                return c
        return 0

    @property
    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def num_cycles(self) -> int:
        return sum(c for _, c in self.items)

    @property
    def partition(self) -> tuple[int, ...]:
        """Cycle lengths with multiplicity, largest first."""
        out: list[int] = []
        for k, c in sorted(self.items, reverse=True):
            out.extend([k] * c)
        return tuple(out)


def identity(n: int) -> Permutation:
    if n < 1:
        raise ValueError("identity needs n >= 1")
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Yield every element of the symmetric group on {1, ..., n}."""
    if n < 1:
        raise ValueError("all_permutations needs n >= 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Return the product applying ``b`` first: ``compose(a, b)(x) == a(b(x))``."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    ai = a.images
    return Permutation(tuple(ai[x - 1] for x in b.images))


def inverse(a: Permutation) -> Permutation:
    out = [0] * a.n
    for pos, img in enumerate(a.images, start=1):
        out[img - 1] = pos
    return Permutation(tuple(out))


def conjugate(a: Permutation, t: Permutation) -> Permutation:
    """Return ``t^-1 o a o t`` under the composition convention above."""
    if a.n != t.n:
        raise ValueError(f"size mismatch: {a.n} vs {t.n}")
    tinv = inverse(t)
    return compose(compose(tinv, a), t)


def cycle_of(a: Permutation, m: int) -> tuple[int, ...]:
    """The cycle of ``a`` through ``m``: (m, a(m), a(a(m)), ...)."""
    images = a.images
    if not 1 <= m <= len(images):
        raise ValueError(f"index {m} outside 1..{len(images)}")
    out = [m]
    x = images[m - 1]
    while x != m:
        out.append(x)
        x = images[x - 1]
    return tuple(out)


def cycle_counts(a: Permutation) -> CycleCounts:
    """Count cycles of each length in one pass over the ground set."""
    n = a.n
    seen = bytearray(n)
    counts: dict[int, int] = {}
    images = a.images
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        x = start
        while not seen[x - 1]:
            seen[x - 1] = 1
            length += 1
            x = images[x - 1]
        counts[length] = counts.get(length, 0) + 1
    return CycleCounts.from_mapping(n, counts)


def cycle_type(a: Permutation) -> tuple[int, ...]:
    """Cycle lengths with multiplicity, largest first."""
    return cycle_counts(a).partition


def trace_power(a: Permutation | CycleCounts, k: int) -> int:
    """Number of fixed points of the k-th power of ``a``.

    Computed through the cycle decomposition: an index in a j-cycle is
    fixed by ``a^k`` exactly when j divides k, so the result is the sum
    of j times the number of j-cycles over divisors j of k. ``a`` may be
    given by its :class:`CycleCounts`, so that a caller asking for many
    powers decomposes the permutation once.
    """
    if k < 1:
        raise ValueError("trace_power needs k >= 1")
    counts = a if isinstance(a, CycleCounts) else cycle_counts(a)
    return sum(j * c for j, c in counts.items if k % j == 0)
