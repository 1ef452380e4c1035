"""Seeded samplers for the permutation families under study.

Four families, all invariant under relabeling of the ground set:

* ``uniform``: the uniform law on the symmetric group;
* ``ewens``: the theta-biased cycle measure;
* ``sqrt_fixed``: a fixed count of fixed points plus one long cycle;
* ``matching_heavy``: a prescribed share of 2-cycles plus one long
  cycle on the leftovers.

Each law is its cycle-type law followed by a uniform relabeling, and one
kernel draws them that way: it lays the cycles on consecutive blocks of
positions and carries the blocks onto a uniform arrangement of the ground
set. Ewens cycle types come from the Feller coupling (position j >= 1
opens a block with probability theta / (theta + j)); the last two laws
have one fixed cycle type. ``uniform`` rows are the kernel's arrangements
themselves, and a uniform cycle type is Ewens(1).

The kernel works through a chunk a few rows at a time: it shuffles one
reused block of rows (``_BLOCK_ELEMENTS`` entries), carries that block's
cycles onto it and scatters the result into the chunk's rows, so no
(size, n) temporary exists beside the output. The generator shuffles
row by row, so the blocks draw the same rows, and leave the generator
in the same state, as one whole-chunk shuffle. Before any shuffle, an
Ewens chunk draws its Feller openings for all rows together: one
uniform per cycle, each jumping a row from one opening to the next
(``_feller_ends``), so only the openings, not every position, are
drawn. The product and the small-cycle counts walk the same row blocks:
each block's rows are offset by r * n into one reused intp block of
flat indices, and every gather is a 1-D ``np.take`` into a reused or
output buffer, so neither layer holds a (size, n) temporary either.

Every quantity the Monte Carlo reports is a class function of the
product and of the first factor. For independent conjugation-invariant
factors, replacing the first factor by any member of its class leaves
the law of the product's class unchanged (the representative reduction
that the brute-force product law in ``tests/brute.py`` relies on), so
consumers of class functions draw the first factor unrelabeled, as its
blocks alone (:meth:`SamplerSpec.draw_blocks`, a :class:`CycleBlocks`):
the Feller ends of every row for Ewens and uniform laws, the shared
base of a fixed cycle type. No (size, n) array of it is ever built. Its
own small-cycle counts are one bincount of its block lengths
(:meth:`CycleBlocks.cycle_counts`). Nor do consumers build any later
factor: :func:`product_cycle_counts` walks every later factor's kernel
row blocks, pairs (arrangement, successor values), side by side,
carries factor 0's rows for each row block through them in turn and
counts the small cycles per block, with the same draws as full draws.
``sample`` prints the factors themselves and draws every factor in
full. Cycle counts stop at the ground-set size: no permutation of n
points has a cycle longer than n, so ``kmax`` above n walks and stores
n columns only.

Randomness comes from :class:`RngStream`, keyed by (seed, stream_id);
identical keys reproduce identical draw sequences. The samplers draw
batches: int32 arrays with zero-based rows (row r maps x to
``rows[r, x]``), which halves the memory traffic of int64 and holds any
n below 2**31.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from permprod.oracle import _as_fraction

__all__ = [
    "RngStream",
    "SamplerSpec",
    "CycleBlocks",
    "uniform_rows",
    "ewens_rows",
    "sqrt_fixed_rows",
    "matching_heavy_rows",
    "product_rows",
    "small_cycle_counts",
    "product_cycle_counts",
]

_KINDS = ("uniform", "ewens", "sqrt_fixed", "matching_heavy")

# Row entries are positions 0..n-1, so int32 rows hold every n up to _MAX_N.
_ROW_DTYPE = np.int32
_MAX_N = int(np.iinfo(_ROW_DTYPE).max)


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

    def fixed_cycle_type(self) -> tuple[int, ...] | None:
        """Cycle lengths of a bound ``sqrt_fixed`` or ``matching_heavy`` law.

        The lengths come in the order of the consecutive blocks that the
        row samplers conjugate: the fixed points or 2-cycles, then the
        cycle on the remaining points, if any. Laws without a fixed cycle
        type give None. Raises ValueError if the type does not exist at n.
        """
        if self.kind not in ("sqrt_fixed", "matching_heavy"):
            return None
        n = self.bind().n
        if self.kind == "sqrt_fixed":
            short, count = 1, self.resolved_fixed_count()
        else:
            frac = self.two_cycle_fraction
            short, count = 2, (frac.numerator * n) // frac.denominator
        rest = n - short * count
        if rest < 0:
            raise ValueError(f"{self.label()} infeasible at n={n}: more fixed points than n")
        if 0 < rest <= short:
            name = "fixed points" if short == 1 else "2-cycles"
            raise ValueError(
                f"{self.label()} infeasible at n={n}: {count} {name} leave a block of "
                f"size {rest}, which must be empty or one cycle longer than {short}"
            )
        return (short,) * count + ((rest,) if rest else ())

    def label(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "ewens":
            return f"ewens({self.theta})"
        if self.kind == "sqrt_fixed":
            raw = self.fixed_count
            return f"sqrt_fixed({raw})"
        return f"matching_heavy({self.two_cycle_fraction})"

    def _drawn_theta(self) -> float:
        """theta as the float the Ewens kernel draws with. ``exact`` takes
        any rational theta, but one above the largest float cannot be
        drawn: ValueError rather than the conversion's OverflowError."""
        try:
            return float(self.theta)
        except OverflowError:
            raise ValueError(
                f"theta above {sys.float_info.max:.6g}, the largest float, cannot be drawn"
            ) from None

    def _bound_n(self, size: int) -> int:
        # n of a draw of ``size`` rows.
        if self.n is None:
            raise ValueError("bind n before drawing")
        if size < 1:
            raise ValueError("batch size must be >= 1")
        return self.n

    def draw_batch(self, rng: RngStream, size: int) -> np.ndarray:
        """``size`` rows of this law."""
        n = self._bound_n(size)
        if self.kind == "uniform":
            return uniform_rows(rng, size, n)
        if self.kind == "ewens":
            return ewens_rows(rng, size, n, self._drawn_theta())
        if self.kind == "sqrt_fixed":
            return sqrt_fixed_rows(rng, size, n, self.resolved_fixed_count())
        return matching_heavy_rows(rng, size, n, self.two_cycle_fraction)

    def draw_blocks(self, rng: RngStream, size: int) -> "CycleBlocks":
        """``size`` draws of this law's cycle-type law, as their blocks.

        Ewens rows draw their Feller ends; a uniform permutation's cycle
        type is Ewens(1), so ``uniform`` draws Ewens(1) ends. The fixed-type
        laws draw nothing: every row is their one base.
        """
        n = self._bound_n(size)
        if self.kind in ("uniform", "ewens"):
            theta = 1.0 if self.kind == "uniform" else self._drawn_theta()
            return CycleBlocks(size, n, ends=_feller_ends(rng.generator, size, n, theta))
        return CycleBlocks(size, n, succ=_block_base(self.fixed_cycle_type()))


@dataclass(frozen=True, eq=False)
class CycleBlocks:
    """``size`` permutations of {0..n-1} held as their cycles, never as rows.

    Each cycle is a block of consecutive positions, each mapped to the
    next and the last back to the first: a class representative. The
    blocks come either as ``succ``, one (n,) base shared by every row,
    with ``succ[j]`` the position after j in its block; or as ``ends`` =
    (r, last, first), the last and first position of every block of row
    r, sorted by r, for rows with blocks of their own. ``shape`` is that
    of the int32 rows the blocks stand for.
    """

    size: int
    n: int
    succ: np.ndarray | None = None
    ends: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.n)

    def rows(self, s: int, e: int) -> np.ndarray:
        """Rows s..e-1 of blocks held as ``ends``, built fresh as an
        (e - s, n) int32 array, so a caller that takes a row block at a
        time holds no more than that. A shared base is read as ``succ``."""
        r, last, first = self._ends_of(s, e)
        rows = np.empty((e - s, self.n), dtype=_ROW_DTYPE)
        # Off the block ends, j maps to j + 1.
        rows[:] = np.arange(1, self.n + 1, dtype=_ROW_DTYPE)
        rows[r, last] = first
        return rows

    def _ends_of(self, s: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The ends of rows s..e-1, with rows counted from s.
        lo, hi = np.searchsorted(self.ends[0], (s, e))
        r, last, first = (part[lo:hi] for part in self.ends)
        return r - s, last, first

    def _carried(self, arr: np.ndarray, s: int) -> np.ndarray:
        # arr[i, succ_{s+i}[j]] for the len(arr) rows from s on: off the
        # block ends the successor of j is j + 1, so a shifted copy of arr
        # is right everywhere else.
        if self.succ is not None:
            return np.take(arr, self.succ, axis=1)
        r, last, first = self._ends_of(s, s + len(arr))
        vals = np.empty(arr.shape, dtype=_ROW_DTYPE)
        vals[:, :-1] = arr[:, 1:]
        vals[r, last] = arr[r, first]
        return vals

    def cycle_counts(self, kmax: int) -> np.ndarray:
        """Per-row counts of d-cycles for d = 1..min(kmax, n), one bincount
        of the block lengths."""
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        k = min(kmax, self.n)
        if self.succ is not None:
            last = np.flatnonzero(self.succ <= np.arange(self.n))
            lengths = last - self.succ[last] + 1
            row = np.bincount(lengths[lengths <= k] - 1, minlength=k)
            return np.tile(row, (self.size, 1))
        r, last, first = self.ends
        lengths = last - first + 1
        short = lengths <= k
        cells = r[short].astype(np.intp) * k + lengths[short] - 1
        return np.bincount(cells, minlength=self.size * k).reshape(self.size, k)


# int64 entries in the one reused shuffle block (512 KiB).
_BLOCK_ELEMENTS = 1 << 16


def _block_rows(n: int) -> int:
    # Rows per block; a single row longer than the budget is its own block.
    return max(1, _BLOCK_ELEMENTS // n)


def _shuffled_blocks(gen: np.random.Generator, size: int, n: int):
    """Yield (s, e, arr): uniform arrangements of rows s..e-1, in order.

    ``arr`` is an int64 view of one reused block, valid until the next
    step. permuted shuffles int64 rows faster than int32 ones, with the
    same draws, and it consumes the stream row by row, so the blocks draw
    what one (size, n) shuffle would.
    """
    step = _block_rows(n)
    base = np.arange(n, dtype=np.int64)
    buf = np.empty((min(size, step), n), dtype=np.int64)
    for s in range(0, size, step):
        arr = buf[: min(step, size - s)]
        arr[...] = base
        gen.permuted(arr, axis=1, out=arr)
        yield s, s + len(arr), arr


def _arranged(gen: np.random.Generator, blocks: CycleBlocks) -> np.ndarray:
    """The kernel: the rows of ``blocks`` carried onto uniform arrangements.

    Each row draws a uniform arrangement arr and maps arr[j] to
    arr[succ[j]], for succ the row's successor map, which is a uniform
    member of the row's conjugacy class; the row blocks of
    ``_arrangement_blocks`` are scattered into the output one at a time.
    """
    size, n = blocks.shape
    rows = np.empty((size, n), dtype=_ROW_DTYPE)
    flat = rows.reshape(-1)
    # Offsets within one block stay below max(_BLOCK_ELEMENTS, n), so int32.
    offsets = np.arange(0, _block_rows(n) * n, n, dtype=_ROW_DTYPE)[:, None]
    for s, e, arr, vals in _arrangement_blocks(gen, size, n, blocks):
        # rows[s + i, arr[i, j]] = vals[i, j], scattered through flat
        # indices: faster than put_along_axis, most of all at large n.
        arr += offsets[: e - s]
        flat[s * n : e * n][arr] = vals
    return rows


def _arrangement_blocks(
    gen: np.random.Generator, size: int, n: int, blocks: CycleBlocks | None
):
    """Yield (s, e, arr, vals): relabelled rows s..e-1 of the kernel, in order.

    Row s + i maps ``arr[i, j]`` to ``vals[i, j]``. ``arr`` is the row
    block's uniform arrangement from ``_shuffled_blocks`` and ``vals``
    its successor values under ``blocks``, both fresh int32 blocks.
    Without blocks, the rows are the arrangements themselves
    (``uniform``): ``arr`` is a read-only broadcast of the identity and
    ``vals`` the shuffled int64 block, valid until the next step.
    """
    identity = np.arange(n, dtype=_ROW_DTYPE)
    for s, e, block in _shuffled_blocks(gen, size, n):
        if blocks is None:
            yield s, e, np.broadcast_to(identity, block.shape), block
            continue
        arr = block.astype(_ROW_DTYPE)
        yield s, e, arr, blocks._carried(arr, s)


def uniform_rows(rng: RngStream, size: int, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.empty((size, n), dtype=_ROW_DTYPE)
    for s, e, arr in _shuffled_blocks(rng.generator, size, n):
        rows[s:e] = arr
    return rows


def ewens_rows(rng: RngStream, size: int, n: int, theta: float) -> np.ndarray:
    """Blocks from the Feller coupling (Arratia, Barbour and Tavare 2003).

    Position j >= 1 opens a block with probability theta / (theta + j),
    independently, and each block runs up to the next opening; the block
    lengths have the Ewens(theta) cycle-type law. Rows jump from one
    opening to the next (``_feller_ends``), one uniform per block, so the
    cost grows with the number of cycles, 1 + sum_{j<n} theta / (theta + j)
    a row on average: about theta * ln(n) for theta well below n, and
    about n, in as many rounds per chunk, for theta far above it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= theta < math.inf:
        raise ValueError("theta must be finite and non-negative")
    gen = rng.generator
    return _arranged(gen, CycleBlocks(size, n, ends=_feller_ends(gen, size, n, theta)))


def _feller_ends(
    gen: np.random.Generator, size: int, n: int, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, last, first) of every block of every row, sorted by r.

    Every row opens a block at 0 and then jumps from one opening to the
    next. No position in j+1..m opens with probability
    prod_{i=j+1..m} i / (theta + i) = exp(drop[j] - drop[m]), where drop
    is the table of sum_{i<=m} (log(theta + i) - log(i)): finite for every
    finite theta, where log1p(-theta / (theta + i)) would reach -inf once
    theta / (theta + i) rounds to 1. So a row at opening j draws V in
    (0, 1], and its next opening is the first m with
    drop[m] > drop[j] - log V, or none. Round t draws one uniform per row
    still open, in row order, and one searchsorted jumps them all: one
    uniform per block.
    """
    positions = np.arange(1, n)
    drop = np.zeros(n)
    np.cumsum(np.log(theta + positions) - np.log(positions), out=drop[1:])
    rows = np.arange(size)
    at = np.zeros(size, dtype=np.intp)
    parts = []
    while len(rows):
        nxt = np.searchsorted(drop, drop[at] - np.log(1 - gen.random(len(rows))), side="right")
        # The block opened at ``at`` ends before the next opening, or at n - 1.
        parts.append((rows, nxt - 1, at))
        more = nxt < n
        rows, at = rows[more], nxt[more]
    # Round t lists block t of each row still open, so that block goes to
    # the row's offset plus t. A stable argsort by row would do as well,
    # but it pages in about 128 kB of numpy sort code, which peak RSS counts.
    r, last, first = (np.concatenate(part) for part in zip(*parts))
    counts = np.bincount(r, minlength=size)
    rounds = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])
    place = (np.cumsum(counts) - counts)[r] + rounds
    ends = np.empty((3, len(r)), dtype=_ROW_DTYPE)
    for out, part in zip(ends, (r, last, first)):
        out[place] = part
    return tuple(ends)


def _block_base(cycle_type: Sequence[int]) -> np.ndarray:
    # One cycle on each block of consecutive points, in the given order:
    # o -> o + 1 -> ... -> o + L - 1 -> o for the block of length L at o.
    lengths = np.asarray(cycle_type, dtype=np.int64)
    ends = np.cumsum(lengths)
    base = np.arange(1, ends[-1] + 1, dtype=_ROW_DTYPE)
    base[ends - 1] = ends - lengths
    return base


def sqrt_fixed_rows(rng: RngStream, size: int, n: int, fixed_count: int) -> np.ndarray:
    spec = SamplerSpec("sqrt_fixed", n=n, fixed_count=fixed_count)
    return _arranged(rng.generator, spec.draw_blocks(rng, size))


def matching_heavy_rows(rng: RngStream, size: int, n: int, fraction) -> np.ndarray:
    spec = SamplerSpec("matching_heavy", n=n, two_cycle_fraction=fraction)
    return _arranged(rng.generator, spec.draw_blocks(rng, size))


def product_rows(factor_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise left-to-right product of equal-shape batches.

    Row r of the result maps x to ``f0[r, f1[r, ... fk[r, x]]]``. Each
    step fills a fresh output of the running product's dtype one row
    block at a time: the factor's block, offset into flat indices
    (``_flat_blocks``), drives one 1-D ``np.take`` from the product's
    block into the output's.
    """
    if not factor_rows:
        raise ValueError("need at least one factor")
    prod = factor_rows[0]
    for rows in factor_rows[1:]:
        if rows.shape != prod.shape:
            raise ValueError("factor batches must share a shape")
        out = np.empty(prod.shape, dtype=prod.dtype)
        flat = out.reshape(-1)
        n = prod.shape[1]
        for s, e, idx in _flat_blocks(rows):
            np.take(prod[s:e], idx, out=flat[s * n : e * n], mode="wrap")
        prod = out
    return prod


def _flat_blocks(rows: np.ndarray):
    """Yield (s, e, idx): rows s..e-1 as flat indices into their own block.

    ``idx[i * n + x]`` is ``rows[s + i, x] + i * n``, in one reused intp
    block of ``_block_rows(n)`` rows, valid until the next step. An intp
    index spares ``np.take`` the intp copy it makes of any other index;
    every entry is in range, so ``mode="wrap"`` never acts, and unlike
    the default mode it does not buffer the output.
    """
    size, n = rows.shape
    step = _block_rows(n)
    offsets = np.arange(0, step * n, n, dtype=np.intp)[:, None]
    buf = np.empty(min(size, step) * n, dtype=np.intp)
    for s in range(0, size, step):
        e = min(size, s + step)
        idx = buf[: (e - s) * n]
        np.add(rows[s:e], offsets[: e - s], out=idx.reshape(e - s, n))
        yield s, e, idx


def small_cycle_counts(rows: np.ndarray, kmax: int) -> np.ndarray:
    """Per-row counts of d-cycles for d = 1..min(kmax, n), exact integer output.

    Counts the fixed points of the first min(kmax, n) powers, then
    inverts over divisors; no full cycle decomposition. A count of one
    is one comparison. Otherwise each row block is offset into flat
    indices once (``_flat_blocks``) and its powers counted by
    ``_power_fixed_points``.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    size, n = rows.shape
    fixed = np.empty((size, min(kmax, n)), dtype=np.int64)
    if fixed.shape[1] == 1:
        fixed[:, 0] = (rows == np.arange(n, dtype=rows.dtype)).sum(axis=1)
    else:
        scratch = _power_scratch(min(size, _block_rows(n)) * n)
        for s, e, base in _flat_blocks(rows):
            _power_fixed_points(base, fixed[s:e], scratch)
    return _cycle_counts(fixed)


def product_cycle_counts(
    first: CycleBlocks, specs: Sequence[SamplerSpec], streams: Sequence[RngStream], kmax: int
) -> np.ndarray:
    """``small_cycle_counts(product_rows([f0, f1, ...]), kmax)`` for f0 the
    rows of ``first`` and each later factor ``spec.draw_batch(rng,
    first.size)``, one (spec, rng) pair of ``specs`` and ``streams`` each,
    without building a factor or the product.

    It takes the same draws and leaves every stream in the same state:
    the later factors' kernels (``_arrangement_blocks``) walk side by side,
    each consuming its own stream row by row. For one row block, the
    product so far starts as the rows of ``first``: its shared base, or
    ``first.rows``. A factor that maps arr to vals carries it to
    left[vals], one flat ``np.take``, scattered at arr into one reused
    block (for ``uniform``, arr is the identity, so a copy). After the
    last factor, ``_power_fixed_points`` counts the block; for
    min(kmax, n) = 1 the last factor is not scattered, and the fixed
    points are the entries whose image equals arr.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not specs:
        raise ValueError("need a factor after the first")
    size, n = first.shape
    if any(spec.bind().n != n for spec in specs):
        raise ValueError(f"factor 0 has n={n}, later specs {[spec.n for spec in specs]}")
    kmax = min(kmax, n)
    kernels = [
        _arrangement_blocks(
            rng.generator, size, n, None if spec.kind == "uniform" else spec.draw_blocks(rng, size)
        )
        for spec, rng in zip(specs, streams, strict=True)
    ]
    step = min(size, _block_rows(n))
    offsets = np.arange(0, step * n, n, dtype=np.intp)[:, None]
    idx = np.empty((step, n), dtype=np.intp)
    img = np.empty((step, n), dtype=_ROW_DTYPE)
    # Each buffer only where it is read: peak RSS counts every one.
    prod = np.empty((step, n), dtype=_ROW_DTYPE) if len(specs) > 1 else None
    if kmax == 1:
        hits = np.empty((step, n), dtype=bool)
    else:
        scratch = _power_scratch(step * n)
        base = np.empty((step, n), dtype=np.intp)
    fixed = np.empty((size, kmax), dtype=np.int64)
    for s in range(0, size, step):
        e = min(size, s + step)
        b = e - s
        left = first.succ if first.succ is not None else first.rows(s, e)
        for f, kernel in enumerate(kernels, 1):
            arr, vals = next(kernel)[2:]
            if left.ndim == 1:
                np.take(left, vals, out=img[:b], mode="wrap")
            else:
                np.add(vals, offsets[:b], out=idx[:b])
                np.take(left, idx[:b], out=img[:b], mode="wrap")
            if f == len(kernels) and kmax == 1:
                fixed[s:e, 0] = np.equal(img[:b], arr, out=hits[:b]).sum(axis=1)
            else:
                # left[i, arr[i, j]] = img[i, j], through flat indices; the
                # identity arrangement of ``uniform`` needs no scatter.
                left = (prod if f < len(kernels) else base)[:b]
                if arr.strides[0] == 0:
                    np.copyto(left, img[:b])
                else:
                    np.add(arr, offsets[:b], out=idx[:b])
                    left.reshape(-1)[idx[:b].reshape(-1)] = img[:b].reshape(-1)
            # Drop this factor's blocks before the next kernel draws its own.
            del arr, vals
        if kmax > 1:
            left += offsets[:b]
            _power_fixed_points(left.reshape(-1), fixed[s:e], scratch)
        del left
    return _cycle_counts(fixed)


def _power_scratch(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # A flat identity block and two power blocks of m intp entries, and
    # one bool block of hits.
    return (
        np.arange(m, dtype=np.intp),
        np.empty((2, m), dtype=np.intp),
        np.empty(m, dtype=bool),
    )


def _power_fixed_points(
    base: np.ndarray, fixed: np.ndarray, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> None:
    """Set ``fixed[i, k - 1]`` to the fixed points of power k of row i,
    for k = 1..kmax, kmax = ``fixed.shape[1]``.

    ``base`` is a row block as flat indices into itself (entry i * n + x
    is row i's image of x, plus i * n). Power k is one 1-D ``np.take`` of
    power k - 1 by ``base``, alternating between the two power blocks of
    ``scratch`` (``_power_scratch``), and its fixed points are the
    entries equal to the flat identity block.
    """
    identity, powers, hits = scratch
    m = len(base)
    rows, kmax = fixed.shape
    power = base
    for k in range(1, kmax + 1):
        if k > 1:
            power = np.take(power, base, out=powers[k % 2, :m], mode="wrap")
        np.equal(power, identity[:m], out=hits[:m])
        fixed[:, k - 1] = hits[:m].reshape(rows, -1).sum(axis=1)


def _cycle_counts(fixed: np.ndarray) -> np.ndarray:
    # Counts of d-cycles from the fixed points of powers 1..kmax: the
    # fixed points of power d are the sum of e * (e-cycles) over e | d.
    size, kmax = fixed.shape
    counts = np.empty((size, kmax), dtype=np.int64)
    for d in range(1, kmax + 1):
        acc = fixed[:, d - 1].copy()
        for e in range(1, d):
            if d % e == 0:
                acc -= e * counts[:, e - 1]
        counts[:, d - 1] = acc // d
    return counts
