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
themselves, and a uniform cycle type is Ewens(1). So
:meth:`SamplerSpec.draw_batch` has one path for every other law: its
blocks (:meth:`SamplerSpec.draw_blocks`) through the kernel
(``_arranged``). ``ewens_rows`` and ``sqrt_fixed_rows`` are that path
for one law each, with the same draws.

The kernel works through a chunk a few rows at a time: it shuffles one
reused intp block of rows (``_BLOCK_ELEMENTS`` entries, 256 KiB) and
scatters the block's cycles through it into the chunk's rows
(``_carry``), so no (size, n) temporary exists beside the output. The
block is filled with the flat identity (row r holds r * n .. r * n +
n - 1) before it is shuffled, so its arrangements are born as flat
indices into the block; the shuffle makes the same swaps whatever the
values. (Full ``uniform`` draws shuffle rows of 0..n-1 instead, and
write them out as they are.) The generator shuffles row by row, so the
blocks draw the same rows, and leave the generator in the same state, as
one whole-chunk shuffle. Before any shuffle, an Ewens chunk draws its Feller openings
for all rows together, as int32: one uniform per cycle, each jumping a
row from one opening to the next (``_feller_ends``).
:func:`product_cycle_counts` composes and counts in the same row blocks
as flat indices: every gather is a 1-D ``np.take`` into a reused buffer
and every scatter runs over the block's rows run together, so it holds
no (size, n) temporary either. A power has a few fixed points a row, so
they are counted from their flat positions, cut at the row starts.
:func:`product_rows` and :func:`small_cycle_counts` take built rows and
work on the whole array at once: ``sample`` composes the factors it
prints with the first, and no job calls the second.

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
factor: :func:`product_cycle_counts` carries factor 0's rows through
every later factor's kernel, one row block at a time, and counts the
small cycles per block, with the same draws as full draws.
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
from functools import cached_property
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
            count = self.fixed_count
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
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
        """``size`` rows of this law: its cycle blocks carried onto uniform
        arrangements, or, for ``uniform``, the arrangements themselves."""
        if self.kind == "uniform":
            return uniform_rows(rng, size, self._bound_n(size))
        return _arranged(rng.generator, self.draw_blocks(rng, size))

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
    of the int32 rows the blocks stand for; no code builds them, as
    ``_ends_of`` gives the ends of a few rows in either form.
    """

    size: int
    n: int
    succ: np.ndarray | None = None
    ends: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.n)

    @cached_property
    def _base_ends(self) -> tuple[np.ndarray, np.ndarray]:
        # (last, first) of every block of the shared base.
        last = np.flatnonzero(self.succ <= np.arange(self.n))
        return last, self.succ[last]

    def _ends_of(self, s: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (r, last, first) of the blocks of rows s..e-1, with r counted
        # from s. A shared base gives r as a slice of every row, to index
        # the columns of its one row of ends.
        if self.succ is not None:
            return (slice(None), *self._base_ends)
        lo, hi = np.searchsorted(self.ends[0], (s, e))
        r, last, first = (part[lo:hi] for part in self.ends)
        return r - s, last, first

    def cycle_counts(self, kmax: int) -> np.ndarray:
        """Per-row counts of d-cycles for d = 1..min(kmax, n), one bincount
        of the block lengths."""
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        k = min(kmax, self.n)
        if self.succ is not None:
            last, first = self._base_ends
            lengths = last - first + 1
            row = np.bincount(lengths[lengths <= k] - 1, minlength=k)
            return np.tile(row, (self.size, 1))
        r, last, first = self.ends
        lengths = last - first + 1
        short = lengths <= k
        cells = r[short].astype(np.intp) * k + lengths[short] - 1
        return np.bincount(cells, minlength=self.size * k).reshape(self.size, k)


# intp entries in the one reused shuffle block (256 KiB). A smaller
# block holds less beside a chunk but costs more numpy calls per chunk.
_BLOCK_ELEMENTS = 1 << 15


def _block_rows(n: int) -> int:
    # Rows per block; a single row longer than the budget is its own block.
    return max(1, _BLOCK_ELEMENTS // n)


def _flat_identity(rows: int, n: int) -> np.ndarray:
    # (rows, n) intp, row i holding i * n .. i * n + n - 1: the identity
    # of each row as flat indices into the block.
    return np.arange(rows * n, dtype=np.intp).reshape(rows, n)


def _shuffled_blocks(
    gen: np.random.Generator,
    size: int,
    n: int,
    buf: np.ndarray | None = None,
    fill: np.ndarray | None = None,
):
    """Yield (s, e, arr): uniform arrangements of rows s..e-1, in order.

    Each step copies ``fill`` into a view of one reused intp block, ``buf``
    if given, and shuffles it there; arr is valid until the next step.
    ``fill`` is by default the flat identity (``_flat_identity``), so the
    arrangements are born as flat indices into the block: row i of arr is
    a shuffle of i * n .. i * n + n - 1. A caller that passes ``buf`` as
    its own fill must leave the identity in it after each step, and no
    copy is made. permuted makes the same swaps whatever the values,
    shuffles intp rows faster than int32 ones, and consumes the stream row
    by row, so the blocks draw what one (size, n) shuffle of 0..n-1 would.
    """
    step = _block_rows(n)
    fill = _flat_identity(min(size, step), n) if fill is None else fill
    buf = np.empty(fill.shape, dtype=np.intp) if buf is None else buf
    for s in range(0, size, step):
        arr = buf[: min(step, size - s)]
        if fill is not buf:
            np.copyto(arr, fill[: len(arr)])
        gen.permuted(arr, axis=1, out=arr)
        yield s, s + len(arr), arr


def _carry(out: np.ndarray, arr: np.ndarray, h: np.ndarray, ends) -> None:
    """Set entry arr[i, j] of the flat ``out`` to h[i, succ(j)]: for h the
    product so far gathered at arr, the product after a factor mapping
    arr[i, j] to arr[i, succ(j)]. Off the block ends (r, last, first)
    ``ends``, succ(j) = j + 1, so one shifted scatter over the block's
    rows run together sets all the rest. Where a row meets the next, it
    carries h[i + 1, 0] to arr[i, n - 1]; but column n - 1 ends the last
    block of every row, so the ends scatter after it rewrites that entry."""
    flat = out.reshape(-1)
    flat[arr.reshape(-1)[:-1]] = h.reshape(-1)[1:]
    r, last, first = ends
    flat[arr[r, last]] = h[r, first]


def _arranged(gen: np.random.Generator, blocks: CycleBlocks) -> np.ndarray:
    """The kernel: the rows of ``blocks`` carried onto uniform arrangements.

    Each row draws a uniform arrangement arr and maps arr[j] to
    arr[succ[j]], for succ the row's successor map, which is a uniform
    member of the row's conjugacy class. Each row block is written by
    ``_carry`` through flat indices, faster than put_along_axis, most of
    all at large n: the arrangements, born as flat indices, give the
    positions and the values at once, and the offsets come off the values
    after.
    """
    size, n = blocks.shape
    rows = np.empty((size, n), dtype=_ROW_DTYPE)
    # Offsets within one block stay below max(_BLOCK_ELEMENTS, n), so int32
    # to take off the rows.
    shifts = np.arange(0, _block_rows(n) * n, n, dtype=_ROW_DTYPE)[:, None]
    for s, e, arr in _shuffled_blocks(gen, size, n):
        _carry(rows[s:e], arr, arr, blocks._ends_of(s, e))
        rows[s:e] -= shifts[: e - s]
    return rows


def uniform_rows(rng: RngStream, size: int, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.empty((size, n), dtype=_ROW_DTYPE)
    # Rows of 0..n-1 are shuffled as they are: a cast copy writes them
    # out, where flat indices would also need their offsets taken off.
    ramp = np.broadcast_to(np.arange(n, dtype=np.intp), (min(size, _block_rows(n)), n))
    for s, e, arr in _shuffled_blocks(rng.generator, size, n, fill=ramp):
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
    uniform per block. Each round keeps its rows and openings as int32
    and, once every row's block count is known, goes straight to its place.
    """
    positions = np.arange(1, n)
    drop = np.zeros(n)
    np.cumsum(np.log(theta + positions) - np.log(positions), out=drop[1:])
    rows = np.arange(size, dtype=_ROW_DTYPE)
    at = np.zeros(size, dtype=_ROW_DTYPE)
    counts = np.zeros(size, dtype=np.intp)
    rounds = []
    while len(rows):
        rounds.append((rows, at))
        counts[rows] += 1
        nxt = np.searchsorted(drop, drop[at] - np.log(1 - gen.random(len(rows))), side="right")
        more = nxt < n
        rows, at = rows[more], nxt[more].astype(_ROW_DTYPE)
    # Round t opens block t of each row in it, so that block goes to the
    # row's offset plus t. A stable argsort by row would do as well, but
    # it pages in about 128 kB of numpy sort code, which peak RSS counts.
    start = np.cumsum(counts) - counts
    r, last, first = np.empty((3, start[-1] + counts[-1]), dtype=_ROW_DTYPE)
    for t, (rows, at) in enumerate(rounds):
        place = start[rows] + t
        r[place] = rows
        first[place] = at
    # A block ends before the next one opens. Only a row's first block
    # opens at 0, so the block before it, at start - 1 (the very last
    # block for row 0), ends its row, at n - 1.
    np.subtract(first[1:], 1, out=last[:-1])
    last[start - 1] = n - 1
    return r, last, first


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


def _in_range(rows: np.ndarray) -> np.ndarray:
    # ``rows``, once every entry is known to lie in 0..n-1.
    n = rows.shape[1]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"row entries must lie in 0..{n - 1}")
    return rows


def product_rows(factor_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise left-to-right product of equal-shape batches.

    Row r of the result maps x to ``f0[r, f1[r, ... fk[r, x]]]``, in the
    first factor's dtype: one ``np.take_along_axis`` per later factor.
    """
    if not factor_rows:
        raise ValueError("need at least one factor")
    prod = _in_range(factor_rows[0])
    for rows in factor_rows[1:]:
        if rows.shape != prod.shape:
            raise ValueError("factor batches must share a shape")
        prod = np.take_along_axis(prod, _in_range(rows), axis=1)
    return prod


def small_cycle_counts(rows: np.ndarray, kmax: int) -> np.ndarray:
    """Per-row counts of d-cycles for d = 1..min(kmax, n), exact integer output.

    Counts the fixed points of the first min(kmax, n) powers over the
    whole array (``_power_walk``), then inverts over divisors; no full
    cycle decomposition.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _cycle_counts(_power_walk(_in_range(rows), min(kmax, rows.shape[1])))


def product_cycle_counts(
    first: CycleBlocks, specs: Sequence[SamplerSpec], streams: Sequence[RngStream], kmax: int
) -> np.ndarray:
    """``small_cycle_counts(product_rows([f0, f1, ...]), kmax)`` for f0 the
    rows of ``first`` and each later factor ``spec.draw_batch(rng,
    first.size)``, one (spec, rng) pair of ``specs`` and ``streams`` each,
    without building a factor or the product.

    It takes the same draws and leaves every stream in the same state:
    per row block, each later factor shuffles its arrangement arr, born
    as flat indices, from its own stream, row by row, into one shared
    intp block. The product so far, flat indices into its own block,
    starts as the rows of ``first``, built from the flat identity. h
    gathers the product at arr, and ``_carry`` scatters h back into the
    spent product block (for ``uniform``, h is the product). At
    min(kmax, n) = 1 the last factor is not scattered: its fixed points
    are the j with h[succ(j)] = arr[j]. Otherwise ``_power_fixed_points``
    counts the product against the identity.

    One flat identity block is the fill of every shuffle, factor 0's
    start and what the powers are compared with. For kmax >= 3 it is a
    block of its own, and the spent shuffle block is the second power
    block. Below that the identity is rebuilt in the shuffle block after
    each factor, ready for the next shuffle, so no block is added.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not specs:
        raise ValueError("need a factor after the first")
    size, n = first.shape
    if any(spec.bind().n != n for spec in specs):
        raise ValueError(f"factor 0 has n={n}, later specs {[spec.n for spec in specs]}")
    kmax = min(kmax, n)
    step = min(size, _block_rows(n))
    # Each block only where it is read, as peak RSS counts every one.
    identity = _flat_identity(step, n)
    arr = np.empty_like(identity) if kmax > 2 else identity
    later = [
        (
            None if spec.kind == "uniform" else spec.draw_blocks(rng, size),
            _shuffled_blocks(rng.generator, size, n, arr, identity),
        )
        for spec, rng in zip(specs, streams, strict=True)
    ]
    compare = kmax == 1 and later[-1][0] is not None
    ramp = np.arange(n, dtype=np.intp)
    offsets = identity[:, :1].copy()
    # The product and its gather.
    blocks = np.empty((2, step * n), dtype=np.intp)
    fixed = np.empty((size, kmax), dtype=np.int64)
    for s in range(0, size, step):
        e = min(size, s + step)
        b = e - s
        prod, h = (x[: b * n].reshape(b, n) for x in blocks)
        ident = identity[:b]
        if first.succ is None:
            # Off its block ends, factor 0 maps j to j + 1.
            np.add(ident, 1, out=prod)
            r, last, head = first._ends_of(s, e)
            prod[r, last] = ident[r, head]
        else:
            np.add(offsets[:b], first.succ, out=prod)
        for f, (factor, kernel) in enumerate(later, 1):
            a = next(kernel)[2]
            np.take(prod, a, out=h, mode="wrap")
            if factor is None:
                # A uniform row maps x to arr[x], so the gather is the product.
                prod, h = h, prod
            elif f < len(later) or not compare:
                _carry(prod, a, h, factor._ends_of(s, e))
            else:
                # Compared along the rows run together, then at the block
                # ends, column n - 1 among them, as in _carry.
                r, last, head = factor._ends_of(s, e)
                hit = np.empty((b, n), dtype=bool)
                np.equal(h.reshape(-1)[1:], a.reshape(-1)[:-1], out=hit.reshape(-1)[:-1])
                hit[r, last] = h[r, head] == a[r, last]
                fixed[s:e, 0] = _row_counts(hit)
            if arr is identity:
                # The next shuffle starts from the flat identity.
                np.add(offsets[:b], ramp, out=a)
        if kmax > 1:
            # Power 2 goes to h, and power 3 on to the spent shuffle block,
            # which holds the identity only where kmax = 2 reads no power 3.
            powers = (h.reshape(-1), a.reshape(-1))
            _power_fixed_points(prod.reshape(-1), fixed[s:e], (ident.reshape(-1), powers))
        elif not compare:
            fixed[s:e, 0] = _row_counts(prod == ident)
    return _cycle_counts(fixed)


def _flat(block: np.ndarray) -> np.ndarray:
    # Entry i * n + x is row i's image of x, plus i * n.
    b, n = block.shape
    return (block + np.arange(0, b * n, n)[:, None]).reshape(-1)


def _power_walk(block: np.ndarray, max_power: int) -> np.ndarray:
    """``fixed[i, k - 1]``, the fixed points of power k of row i of
    ``block``, for k = 1..max_power: each power is one flat ``np.take``
    of the last (``_power_fixed_points``), its fixed points the entries
    equal to the identity. No cycle logic is used: no walk stops at its
    first return or reads a cycle length. The whole block is walked at
    once, with a flat copy of it, a flat identity and two power blocks
    beside it."""
    base = _flat(block)
    fixed = np.empty((len(block), max_power), dtype=np.int64)
    scratch = np.arange(base.size, dtype=np.intp), np.empty((2, base.size), dtype=np.intp)
    _power_fixed_points(base, fixed, scratch)
    return fixed


def _power_fixed_points(
    base: np.ndarray, fixed: np.ndarray, scratch: tuple[np.ndarray, Sequence[np.ndarray]]
) -> None:
    """Set ``fixed[i, k - 1]`` to the fixed points of power k of row i,
    for k = 1..kmax, kmax = ``fixed.shape[1]``.

    ``base`` is a row block as flat indices into itself (entry i * n + x
    is row i's image of x, plus i * n). ``scratch`` is a flat identity
    and two power blocks (read from k = 2 and 3 on), none shorter than
    ``base``. Power k is one 1-D ``np.take`` of power k - 1 by ``base``,
    into the power blocks in turn, and its fixed points are the entries
    equal to the identity, counted per row from their few flat positions
    (``_row_counts``).
    """
    identity, powers = scratch
    m = len(base)
    rows, kmax = fixed.shape
    power = base
    for k in range(1, kmax + 1):
        if k > 1:
            power = np.take(power, base, out=powers[k % 2][:m], mode="wrap")
        fixed[:, k - 1] = _row_counts((power == identity[:m]).reshape(rows, -1))


def _row_counts(hits: np.ndarray) -> np.ndarray:
    # Per-row counts of the true entries of a (rows, n) bool block. A
    # power has a few fixed points a row, so their flat positions, cut at
    # the row starts, cost less than a row sum over every entry.
    rows, n = hits.shape
    cuts = np.searchsorted(np.flatnonzero(hits), np.arange(0, rows * n + 1, n))
    return cuts[1:] - cuts[:-1]


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
