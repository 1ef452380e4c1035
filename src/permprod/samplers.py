"""Seeded samplers for the permutation families under study.

Four families, all invariant under relabeling of the ground set:

* ``uniform``: the uniform law on the symmetric group;
* ``ewens``: the theta-biased cycle measure;
* ``sqrt_fixed``: a fixed count of fixed points plus one long cycle;
* ``matching_heavy``: a prescribed share of 2-cycles plus one long
  cycle on the leftovers.

Each law is its cycle-type law followed by a uniform relabeling: its
cycles lie on consecutive blocks of positions, carried onto a uniform
arrangement of the ground set. Ewens cycle types come from the Feller
coupling (position j >= 1 opens a block with probability
theta / (theta + j)); the last two laws have one fixed cycle type, and a
``uniform`` row is the arrangement itself.

One kernel, the fold (``_fold``), composes a first factor with later
ones that way, one reused 256 KiB block of rows at a time, into the
product's int32 rows or its small-cycle counts, with no (size, n)
temporary beside the output. A full draw (:meth:`SamplerSpec.draw_batch`,
and ``ewens_rows`` and ``sqrt_fixed_rows`` for one law each) is the fold
of one factor from the identity; a product
(:func:`product_cycle_counts`) the fold of every later factor from the
first. An Ewens chunk draws its Feller openings for all rows together
before any shuffle (``_feller_ends``). :func:`product_rows` and
:func:`small_cycle_counts` take built rows and work on the whole array
at once: ``sample`` composes the factors it prints with the first, and
no job calls the second.

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
factor: :func:`product_cycle_counts` folds every later factor onto
factor 0's rows and counts the small cycles per block, with the same
draws as full draws.
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


def _check_batch(size: int, n: int) -> None:
    # Every full draw passes this before it draws anything.
    if n < 1:
        raise ValueError("n must be >= 1")
    if size < 1:
        raise ValueError("batch size must be >= 1")


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
        _check_batch(size, self.n)
        return self.n

    def draw_batch(self, rng: RngStream, size: int) -> np.ndarray:
        """``size`` rows of this law: its cycle blocks carried onto uniform
        arrangements, or, for ``uniform``, the arrangements themselves.
        Either is the fold of this one factor from the identity."""
        return _fold(size, self._bound_n(size), [self._factor(rng, size)])

    def _factor(self, rng: RngStream, size: int) -> tuple[CycleBlocks | None, np.random.Generator]:
        # A factor of ``size`` rows as the fold takes it: its blocks, none
        # for ``uniform``, and the generator of its arrangements.
        return (None if self.kind == "uniform" else self.draw_blocks(rng, size)), rng.generator

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


def _fold(
    size: int,
    n: int,
    later: Sequence[tuple[CycleBlocks | None, np.random.Generator]],
    first: CycleBlocks | None = None,
    kmax: int = 1,
) -> np.ndarray:
    """The kernel: factor 0 composed with each factor of ``later`` in
    turn, one row block at a time.

    A later factor is its blocks (None for ``uniform``) and the generator
    of its arrangements. Per row block it shuffles its arrangement arr
    into one reused intp block (``_BLOCK_ELEMENTS`` entries), filled with
    the flat identity, so arr is born as flat indices into the block.
    permuted makes the same swaps whatever the values, shuffles intp rows
    faster than int32 ones, and consumes the stream row by row, so the
    blocks draw what one (size, n) shuffle of 0..n-1 would. The factor
    maps arr[j] to arr[succ(j)], succ its row's successor map: a uniform
    member of the row's class. h gathers the product so far at arr, one
    1-D ``np.take``, and ``_carry`` scatters h back into the spent
    product block; a uniform row maps x to arr[x], so h is the product.

    Given ``first``, the product starts as its rows and the fold gives
    the product's cycle counts up to ``kmax``, at most n. At kmax = 1 the
    last factor is not scattered: its fixed points are the j with
    h[succ(j)] = arr[j]. Otherwise ``_power_fixed_points`` counts each
    power against the identity. For kmax >= 3 the identity is a block of
    its own, and the spent shuffle block is the second power block; below
    that it is rebuilt in the shuffle block after each factor, so no
    block is added.

    Without ``first`` the product starts as the identity, whose gather at
    arr is arr, and ``later`` is one factor: a full draw. The fold carries
    straight into its int32 rows and takes the row offsets off after; a
    uniform factor, which carries nothing, shuffles rows of 0..n-1
    instead and writes them out as they are.
    """
    step = min(size, _block_rows(n))
    ramp = np.arange(n, dtype=np.intp)
    # Shuffles start from the flat identity, row i holding i * n .. i * n
    # + n - 1; a full uniform draw's rows are its arrangements of 0..n-1,
    # so it shuffles those and holds no identity block.
    if first is None and later[0][0] is None:
        identity = np.broadcast_to(ramp, (step, n))
    else:
        identity = np.arange(step * n, dtype=np.intp).reshape(step, n)
    # Each block only where it is read, as peak RSS counts every one.
    arr = identity if first is not None and kmax <= 2 else np.empty((step, n), dtype=np.intp)
    if first is None:
        out = np.empty((size, n), dtype=_ROW_DTYPE)
    else:
        # The product and its gather.
        blocks = np.empty((2, step * n), dtype=np.intp)
        out = np.empty((size, kmax), dtype=np.int64)
    # Row offsets, in the dtype of the rows they are added to or taken
    # off; below max(_BLOCK_ELEMENTS, n), so int32 holds them.
    offsets = identity[:, :1].astype(_ROW_DTYPE if first is None else np.intp)
    compare = first is not None and kmax == 1 and later[-1][0] is not None
    for s in range(0, size, step):
        e = min(size, s + step)
        b = e - s
        ident, a = identity[:b], arr[:b]
        if first is None:
            rows = prod = out[s:e]
        else:
            prod, h = (x[: b * n].reshape(b, n) for x in blocks)
            if first.succ is None:
                # Off its block ends, factor 0 maps j to j + 1.
                np.add(ident, 1, out=prod)
                r, last, head = first._ends_of(s, e)
                prod[r, last] = ident[r, head]
            else:
                np.add(offsets[:b], first.succ, out=prod)
        for f, (factor, gen) in enumerate(later, 1):
            if arr is not identity:
                np.copyto(a, ident)
            gen.permuted(a, axis=1, out=a)
            # Without first, the product so far is the identity: its gather is arr.
            h = a if first is None else np.take(prod, a, out=h, mode="wrap")
            if factor is None:
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
                out[s:e, 0] = _row_counts(hit)
            if arr is identity:
                # The next shuffle starts from the flat identity.
                np.add(offsets[:b], ramp, out=a)
        if first is None:
            if prod is rows:
                rows -= offsets[:b]
            else:
                # A uniform row is its arrangement, still in the shuffle block.
                np.copyto(rows, prod)
        elif kmax > 1:
            # Power 2 goes to h, and power 3 on to the spent shuffle block,
            # which holds the identity only where kmax = 2 reads no power 3.
            powers = (h.reshape(-1), a.reshape(-1))
            _power_fixed_points(prod.reshape(-1), out[s:e], (ident.reshape(-1), powers))
        elif not compare:
            out[s:e, 0] = _row_counts(prod == ident)
    return out if first is None else _cycle_counts(out)


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
    _check_batch(size, n)
    if not 0 <= theta < math.inf:
        raise ValueError("theta must be finite and non-negative")
    gen = rng.generator
    return _fold(size, n, [(CycleBlocks(size, n, ends=_feller_ends(gen, size, n, theta)), gen)])


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
    return _fold(size, n, [spec._factor(rng, size)])


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
    folded (``_fold``) without building a factor or the product: the same
    draws, and every stream left where the full draws leave it."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not specs:
        raise ValueError("need a factor after the first")
    size, n = first.shape
    if any(spec.bind().n != n for spec in specs):
        raise ValueError(f"factor 0 has n={n}, later specs {[spec.n for spec in specs]}")
    later = [spec._factor(rng, size) for spec, rng in zip(specs, streams, strict=True)]
    return _fold(size, n, later, first, min(kmax, n))


def _flat(block: np.ndarray) -> np.ndarray:
    # Entry i * n + x is row i's image of x, plus i * n.
    b, n = block.shape
    return (block + np.arange(0, b * n, n)[:, None]).reshape(-1)


def _power_walk(block: np.ndarray, max_power: int) -> np.ndarray:
    """``fixed[i, k - 1]``, the fixed points of power k of row i of
    ``block``, for k = 1..max_power (``_power_fixed_points``), with no
    cycle logic: no walk stops at its first return or reads a cycle
    length. The whole block is walked at once, beside a flat copy of it,
    a flat identity and two power blocks."""
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
