"""Seeded samplers for the permutation families under study.

Four families, all invariant under relabeling of the ground set:

* ``uniform``: the uniform law on the symmetric group;
* ``ewens``: the theta-biased cycle measure, drawn by sequential
  insertion (element i either opens a new cycle with probability
  theta / (theta + i - 1) or is inserted after a uniformly chosen
  earlier element);
* ``sqrt_fixed``: a fixed count of fixed points plus one long cycle,
  uniformly relabeled;
* ``matching_heavy``: a prescribed share of 2-cycles plus one long
  cycle on the leftovers, uniformly relabeled.

The last two have deterministic cycle type, so relabeling uniformly is
exactly the uniform law on that conjugacy class.

Randomness comes from :class:`RngStream`, keyed by (seed, stream_id);
identical keys reproduce identical draw sequences. The batch entry
points return integer arrays with zero-based rows (row r maps x to
``rows[r, x]``) and are the fast path for Monte Carlo work; the scalar
entry points wrap batches of one and return :class:`Permutation` values
in the package's one-based convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from permprod.perms import Permutation

__all__ = [
    "RngStream",
    "SamplerSpec",
    "sample_uniform",
    "sample_ewens",
    "sample_sqrt_fixed",
    "sample_matching_heavy",
    "uniform_rows",
    "ewens_rows",
    "sqrt_fixed_rows",
    "matching_heavy_rows",
    "perm_from_row",
    "row_from_perm",
    "product_rows",
    "small_cycle_counts",
    "total_cycle_counts",
]

_KINDS = ("uniform", "ewens", "sqrt_fixed", "matching_heavy")


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.generator = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            )
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ValueError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class SamplerSpec:
    """Declarative description of one sampler.

    ``n`` may be left unset and bound later (convergence scans reuse one
    spec across a grid). ``fixed_count`` accepts the symbolic value
    ``"sqrt"``, resolved to isqrt(n) at draw time. A spec holds no seed:
    callers pass the stream to draw from.
    """

    kind: str
    n: int | None = None
    theta: Fraction | None = None
    fixed_count: int | str | None = None
    two_cycle_fraction: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        needed = {
            "uniform": (),
            "ewens": ("theta",),
            "sqrt_fixed": ("fixed_count",),
            "matching_heavy": ("two_cycle_fraction",),
        }[self.kind]
        for field in ("theta", "fixed_count", "two_cycle_fraction"):
            value = getattr(self, field)
            if field in needed and value is None:
                raise ValueError(f"sampler kind {self.kind!r} needs {field}")
            if field not in needed and value is not None:
                raise ValueError(f"sampler kind {self.kind!r} does not take {field}")
        if self.theta is not None:
            object.__setattr__(self, "theta", _as_fraction(self.theta))
            if self.theta < 0:
                raise ValueError("theta must be non-negative")
        if self.two_cycle_fraction is not None:
            object.__setattr__(
                self, "two_cycle_fraction", _as_fraction(self.two_cycle_fraction)
            )
            if not 0 <= self.two_cycle_fraction <= Fraction(1, 2):
                raise ValueError("two_cycle_fraction must lie in [0, 1/2]")
        if self.fixed_count is not None and self.fixed_count != "sqrt":
            if not isinstance(self.fixed_count, int) or self.fixed_count < 0:
                raise ValueError("fixed_count must be a non-negative integer or 'sqrt'")

    def bind(self, n: int | None = None) -> "SamplerSpec":
        out = self
        if n is not None:
            out = replace(out, n=n)
        if out.n is None:
            raise ValueError("sampler spec has no ground-set size bound")
        return out

    def resolved_fixed_count(self) -> int:
        if self.kind != "sqrt_fixed":
            raise ValueError("resolved_fixed_count only applies to sqrt_fixed")
        if self.n is None:
            raise ValueError("bind n before resolving fixed_count")
        if self.fixed_count == "sqrt":
            return math.isqrt(self.n)
        return int(self.fixed_count)

    def label(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "ewens":
            return f"ewens({self.theta})"
        if self.kind == "sqrt_fixed":
            raw = self.fixed_count
            return f"sqrt_fixed({raw})"
        return f"matching_heavy({self.two_cycle_fraction})"

    def draw_batch(self, rng: RngStream, size: int) -> np.ndarray:
        if self.n is None:
            raise ValueError("bind n before drawing")
        if size < 1:
            raise ValueError("batch size must be >= 1")
        n = self.n
        if self.kind == "uniform":
            return uniform_rows(rng, size, n)
        if self.kind == "ewens":
            return ewens_rows(rng, size, n, float(self.theta))
        if self.kind == "sqrt_fixed":
            return sqrt_fixed_rows(rng, size, n, self.resolved_fixed_count())
        return matching_heavy_rows(rng, size, n, self.two_cycle_fraction)

    def draw(self, rng: RngStream) -> Permutation:
        return perm_from_row(self.draw_batch(rng, 1)[0])


def perm_from_row(row: np.ndarray) -> Permutation:
    return Permutation(tuple(int(x) + 1 for x in row))


def row_from_perm(perm: Permutation) -> np.ndarray:
    return np.asarray([x - 1 for x in perm.images], dtype=np.int64)


def uniform_rows(rng: RngStream, size: int, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    base = np.tile(np.arange(n, dtype=np.int64), (size, 1))
    return rng.generator.permuted(base, axis=1)


def ewens_rows(rng: RngStream, size: int, n: int, theta: float) -> np.ndarray:
    """Sequential-insertion construction, vectorized across the batch.

    At step i (zero-based), draw u uniform on [0, theta + i): below
    theta the element opens a new cycle, otherwise it is inserted after
    existing element floor(u - theta).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    gen = rng.generator
    sig = np.zeros((size, n), dtype=np.int64)
    rows = np.arange(size)
    for i in range(1, n):
        u = gen.random(size) * (theta + i)
        fresh = u < theta
        old = ~fresh
        sig[rows[fresh], i] = i
        r = rows[old]
        j = np.clip((u[old] - theta).astype(np.int64), 0, i - 1)
        sig[r, i] = sig[r, j]
        sig[r, j] = i
    return sig


def _conjugated_rows(rng: RngStream, size: int, base: np.ndarray) -> np.ndarray:
    # Rows are t^-1 o base o t with t a fresh uniform permutation per row.
    n = base.size
    t = rng.generator.permuted(np.tile(np.arange(n, dtype=np.int64), (size, 1)), axis=1)
    tinv = np.argsort(t, axis=1)
    return np.take_along_axis(tinv, base[t], axis=1)


def sqrt_fixed_rows(rng: RngStream, size: int, n: int, fixed_count: int) -> np.ndarray:
    if not 0 <= fixed_count <= n:
        raise ValueError(f"fixed_count {fixed_count} outside 0..{n}")
    if n - fixed_count == 1:
        raise ValueError("n - fixed_count = 1 leaves a length-1 'long cycle'")
    base = np.arange(n, dtype=np.int64)
    if n - fixed_count >= 2:
        base[fixed_count : n - 1] = np.arange(fixed_count + 1, n, dtype=np.int64)
        base[n - 1] = fixed_count
    return _conjugated_rows(rng, size, base)


def matching_heavy_rows(rng: RngStream, size: int, n: int, fraction) -> np.ndarray:
    fraction = _as_fraction(fraction)
    if not 0 <= fraction <= Fraction(1, 2):
        raise ValueError("two_cycle_fraction must lie in [0, 1/2]")
    m = (fraction.numerator * n) // fraction.denominator if fraction else 0
    rest = n - 2 * m
    if rest in (1, 2):
        raise ValueError(
            f"two_cycle_fraction {fraction} at n = {n} leaves {rest} spare points; "
            "the spare block must be empty or a cycle of length >= 3"
        )
    base = np.arange(n, dtype=np.int64)
    for i in range(m):
        base[2 * i] = 2 * i + 1
        base[2 * i + 1] = 2 * i
    if rest >= 3:
        base[2 * m : n - 1] = np.arange(2 * m + 1, n, dtype=np.int64)
        base[n - 1] = 2 * m
    return _conjugated_rows(rng, size, base)


def sample_uniform(n: int, rng: RngStream) -> Permutation:
    """One uniform permutation of {1, ..., n}."""
    return perm_from_row(uniform_rows(rng, 1, n)[0])


def sample_ewens(n: int, theta, rng: RngStream) -> Permutation:
    """One draw from the theta-biased cycle measure; theta = 0 degenerates
    to a uniform n-cycle."""
    theta = _as_fraction(theta)
    if theta < 0:
        raise ValueError("theta must be non-negative")
    return perm_from_row(ewens_rows(rng, 1, n, float(theta))[0])


def sample_sqrt_fixed(n: int, fixed_count: int, rng: RngStream) -> Permutation:
    """Uniform permutation with ``fixed_count`` fixed points and one cycle
    on the remaining points."""
    return perm_from_row(sqrt_fixed_rows(rng, 1, n, fixed_count)[0])


def sample_matching_heavy(n: int, two_cycle_fraction, rng: RngStream) -> Permutation:
    """Uniform permutation with floor(fraction * n) 2-cycles and one cycle
    on the remaining points."""
    return perm_from_row(matching_heavy_rows(rng, 1, n, two_cycle_fraction)[0])


def product_rows(factor_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise left-to-right product of equal-shape batches."""
    if not factor_rows:
        raise ValueError("need at least one factor")
    prod = factor_rows[0]
    for rows in factor_rows[1:]:
        if rows.shape != prod.shape:
            raise ValueError("factor batches must share a shape")
        prod = np.take_along_axis(prod, rows, axis=1)
    return prod


def small_cycle_counts(rows: np.ndarray, kmax: int) -> np.ndarray:
    """Per-row counts of d-cycles for d = 1..kmax, exact integer output.

    Uses fixed-point counts of the first kmax powers and divisor
    inversion; cost kmax compositions, no full cycle decomposition.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    size, n = rows.shape
    idx = np.arange(n, dtype=np.int64)
    fixed = np.empty((size, kmax), dtype=np.int64)
    power = rows
    fixed[:, 0] = (power == idx).sum(axis=1)
    for k in range(2, kmax + 1):
        power = np.take_along_axis(power, rows, axis=1)
        fixed[:, k - 1] = (power == idx).sum(axis=1)
    counts = np.empty((size, kmax), dtype=np.int64)
    for d in range(1, kmax + 1):
        acc = fixed[:, d - 1].copy()
        for e in range(1, d):
            if d % e == 0:
                acc -= e * counts[:, e - 1]
        counts[:, d - 1] = acc // d
    return counts


def total_cycle_counts(rows: np.ndarray) -> np.ndarray:
    """Per-row total number of cycles, by explicit traversal."""
    size, n = rows.shape
    out = np.empty(size, dtype=np.int64)
    for r in range(size):
        images = rows[r]
        seen = bytearray(n)
        total = 0
        for start in range(n):
            if seen[start]:
                continue
            total += 1
            x = start
            while not seen[x]:
                seen[x] = 1
                x = images[x]
        out[r] = total
    return out
