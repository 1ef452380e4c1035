"""Monte Carlo estimators and Poisson reference laws.

The reference law for the vector of small-cycle counts is a product of
independent Poisson variables with mean 1/d in coordinate d. Joint laws
are dense arrays on the truncated lattice {0..T}^k with one extra
overflow cell that lumps all mass outside the box, and total-variation
distance includes that overflow cell.

Sampling is chunked, all of it in :func:`draw_chunks`. With F factors,
factor f of chunk c at grid point g draws from the stream
(seed, g * 2**32 + c * F + f); a lone estimate is grid point 0. So
results are reproducible bit for bit for a fixed chunk size, and two
grid points never share a stream. Every row a grid point reports (each
moment and each ``tv:k``) reads the same single draw. The estimators read
only the small-cycle counts of the product, so they take those counts
straight from the chunk loop: factor 0 comes as the cycle blocks of its
class representatives (``samplers.CycleBlocks``), never as rows, and no
later factor is built as rows either. A single factor's counts are
read off its block lengths. No permutation of n points has a cycle
longer than n, so a count table holds the cycle lengths up to n that
some estimate reads (:func:`_depth`), and a d-cycle count for d > n
reads 0 without a column (:func:`_column`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from permprod.samplers import (
    CycleBlocks,
    RngStream,
    SamplerSpec,
    product_cycle_counts,
)

__all__ = [
    "JointPmf",
    "MomentEstimate",
    "Functional",
    "ScanRow",
    "ScanResult",
    "parse_functional",
    "poisson_pmf",
    "eta_joint_pmf",
    "empirical_joint_pmf",
    "tv_distance",
    "draw_chunks",
    "sample_joint_counts",
    "estimates_from_counts",
    "moment_estimates",
    "convergence_scan",
]

_CHUNK = 8192
# Cap on elements per batch array so large n does not blow up memory, and
# on the (truncation + 1)^k cells of a joint pmf that a config may ask for.
_CHUNK_ELEMENTS = 1 << 22
_GRID_STRIDE = 2**32
# Fewest samples a mean and standard error are estimated from.
_MIN_ESTIMATE_SAMPLES = 100


def _chunk_size(n: int) -> int:
    return max(1, min(_CHUNK, _CHUNK_ELEMENTS // max(n, 1)))


@dataclass
class JointPmf:
    """Probability masses on {0..T}^k plus one overflow cell.

    ``mass`` is a dense array of shape (T + 1,) * k whose entry at index
    (c_1, ..., c_k) is the mass of that count vector; ``k`` and
    ``truncation`` (T) are read from its shape.
    """

    mass: np.ndarray
    overflow: float

    def __post_init__(self) -> None:
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.mass.ndim < 1 or len(set(self.mass.shape)) != 1:
            raise ValueError(f"mass must be a non-empty cube, got shape {self.mass.shape}")
        if self.overflow < 0 or (self.mass < 0).any():
            raise ValueError("negative mass")
        total = self.mass.sum() + self.overflow
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total!r}, expected 1")

    @property
    def k(self) -> int:
        return self.mass.ndim

    @property
    def truncation(self) -> int:
        return self.mass.shape[0] - 1


@dataclass
class MomentEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int
    spec: str

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("an estimate needs at least two samples")
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")


@dataclass(frozen=True)
class Functional:
    """What to average per sampled product.

    * ``product_cycle_counts``: product over v_vec of the number of
      v-cycles of the product permutation (all factors multiplied).
    * ``scaled_fixed_point_moment``: (fixed points / sqrt(n))^power of a
      single factor.
    * ``scaled_two_cycle_rate``: (number of 2-cycles) / n of a single
      factor.
    """

    kind: str
    v_vec: tuple[int, ...] = ()
    power: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (
            "product_cycle_counts",
            "scaled_fixed_point_moment",
            "scaled_two_cycle_rate",
        ):
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.kind == "product_cycle_counts":
            if not self.v_vec or any(v < 1 for v in self.v_vec):
                raise ValueError(f"cycle lengths must be >= 1: {self.v_vec!r}")
        if self.power < 1:
            raise ValueError("power must be >= 1")

    @classmethod
    def product_cycle_counts(cls, v_vec: Sequence[int]) -> "Functional":
        return cls(kind="product_cycle_counts", v_vec=tuple(v_vec))

    @classmethod
    def scaled_fixed_point_moment(cls, power: int) -> "Functional":
        return cls(kind="scaled_fixed_point_moment", power=power)

    @classmethod
    def scaled_two_cycle_rate(cls) -> "Functional":
        return cls(kind="scaled_two_cycle_rate")

    def label(self) -> str:
        if self.kind == "product_cycle_counts":
            return "product:" + "*".join(str(v) for v in self.v_vec)
        if self.kind == "scaled_fixed_point_moment":
            return f"fixed-moment:{self.power}"
        return "two-cycle-rate"

    @property
    def kmax(self) -> int:
        if self.kind == "product_cycle_counts":
            return max(self.v_vec)
        return 2 if self.kind == "scaled_two_cycle_rate" else 1


def parse_functional(text: str) -> Functional:
    """Parse a functional descriptor, the inverse of ``Functional.label``."""
    t = text.strip()
    if t == "two-cycle-rate":
        return Functional.scaled_two_cycle_rate()
    if t.startswith("fixed-moment:"):
        return Functional.scaled_fixed_point_moment(int(t.removeprefix("fixed-moment:")))
    if t.startswith("product:"):
        body = t.removeprefix("product:")
        return Functional.product_cycle_counts(
            tuple(int(part) for part in body.split("*"))
        )
    raise ValueError(f"unknown functional descriptor {text!r}")


def poisson_pmf(lam: float, j: int) -> float:
    if j < 0:
        raise ValueError("j must be >= 0")
    try:
        return math.exp(-lam) * lam**j / math.factorial(j)
    except OverflowError:
        # j! (from j = 171) or lam**j no longer fits a float: take the
        # term in log space.
        if lam == 0:
            return 0.0
        return math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))


def eta_joint_pmf(k: int, truncation: int = 8) -> JointPmf:
    """Product of independent Poisson(1/d) laws for d = 1..k, truncated."""
    if k < 1 or truncation < 0:
        raise ValueError("need k >= 1 and truncation >= 0")
    marginals = [
        np.array([poisson_pmf(1.0 / d, j) for j in range(truncation + 1)])
        for d in range(1, k + 1)
    ]
    mass = functools.reduce(np.multiply.outer, marginals)
    return JointPmf(mass=mass, overflow=max(0.0, 1.0 - float(mass.sum())))


def empirical_joint_pmf(samples, truncation: int = 8) -> JointPmf:
    """Relative frequencies of integer count vectors on the truncated box."""
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("samples must be a non-empty 2d array of count vectors")
    size, k = arr.shape
    shape = (truncation + 1,) * k
    inside = ((arr >= 0) & (arr <= truncation)).all(axis=1)
    cells = np.ravel_multi_index(arr[inside].T, shape)
    mass = np.bincount(cells, minlength=math.prod(shape)) / size
    return JointPmf(mass=mass.reshape(shape), overflow=float((~inside).sum()) / size)


def tv_distance(p: JointPmf, q: JointPmf) -> float:
    """Half the l1 distance over the truncated box and the overflow cell."""
    if p.mass.shape != q.mass.shape:
        raise ValueError(f"shape mismatch: {p.mass.shape} vs {q.mass.shape}")
    total = np.abs(p.mass - q.mass).sum() + abs(p.overflow - q.overflow)
    return float(total) / 2


def _resolved_specs(
    specs: Sequence[SamplerSpec], n: int | None
) -> tuple[list[SamplerSpec], int]:
    if not specs:
        raise ValueError("need at least one sampler spec")
    ns = {spec.n for spec in specs if spec.n is not None}
    if n is not None:
        ns.add(n)
    if len(ns) != 1:
        raise ValueError(f"ambiguous or missing ground-set size: {sorted(ns)}")
    size = ns.pop()
    return [spec.bind(n=size) for spec in specs], size


def draw_chunks(
    bound: Sequence[SamplerSpec],
    samples: int,
    seed: int,
    consume: Callable[..., None],
    stream_base: int = 0,
    kmax: int | None = None,
) -> None:
    """Draw ``samples`` products of the factors, one chunk at a time.

    ``bound`` holds specs bound to one ground-set size. Factor f of chunk
    c draws from the stream (seed, stream_base + c * F + f), and ``pos``
    below is the sample index of the chunk's first row. Only the
    ``consume`` call holds a chunk's arrays, so each chunk is freed
    before the next one is drawn.

    Without ``kmax``, ``consume(pos, factor_rows)`` gets every factor's
    rows, each a full relabeled draw. A consumer that reads only class
    functions of the product and of factor 0 passes ``kmax``, and
    ``consume(pos, counts, first)`` gets the product's counts of
    d-cycles, d = 1..min(kmax, n), and factor 0 as the
    ``samplers.CycleBlocks`` of its class representatives, drawn
    unshuffled: ``first.cycle_counts(k)`` reads its own counts off its
    block lengths, and no (size, n) array of it is built. A single
    factor's counts are those. Otherwise one ``product_cycle_counts``
    call composes every later factor with factor 0 and counts the
    product, one row block at a time, so no factor and no product is
    built as a (size, n) array either.
    """
    num = len(bound)
    chunk = _chunk_size(bound[0].n)
    chunks = -(-samples // chunk)
    if chunks * num > _GRID_STRIDE:
        raise ValueError(f"{chunks} chunks of {num} factors overrun the grid stride")
    for c, pos in enumerate(range(0, samples, chunk)):
        size = min(chunk, samples - pos)
        streams = [RngStream(seed, stream_base + c * num + f) for f in range(num)]
        if kmax is None:
            consume(pos, [spec.draw_batch(rng, size) for spec, rng in zip(bound, streams)])
            continue
        first = bound[0].draw_blocks(streams[0], size)
        if num == 1:
            counts = first.cycle_counts(kmax)
        else:
            counts = product_cycle_counts(first, bound[1:], streams[1:], kmax)
        consume(pos, counts, first)


def _product_counts(
    bound: Sequence[SamplerSpec], kmax: int, samples: int, seed: int, stream_base: int
) -> np.ndarray:
    # Counts of d-cycles, d = 1..min(kmax, n), of every sampled product.
    out = np.empty((samples, min(kmax, bound[0].n)), dtype=np.int64)

    def consume(pos: int, counts: np.ndarray, first: CycleBlocks) -> None:
        out[pos : pos + counts.shape[0]] = counts

    draw_chunks(bound, samples, seed, consume, stream_base, kmax)
    return out


def sample_joint_counts(
    specs: Sequence[SamplerSpec],
    k: int,
    samples: int,
    seed: int,
    n: int | None = None,
) -> np.ndarray:
    """Count vectors (1-cycles, ..., k-cycles) of the sampled products."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    bound, size = _resolved_specs(specs, n)
    return _columns(_product_counts(bound, k, samples, seed, 0), k, size)


def _depth(functionals: Sequence[Functional], tv_orders: Sequence[int], n: int) -> int:
    """The longest cycle length up to n whose counts the estimates read.

    A ``tv:k`` reads lengths 1..k; a functional, the lengths it
    multiplies (or 1 or 2). Lengths above n are never counted.
    """
    lengths = [min(k, n) for k in tv_orders]
    for f in functionals:
        lengths += f.v_vec if f.kind == "product_cycle_counts" else (f.kmax,)
    return max((d for d in lengths if d <= n), default=1)


def _column(counts: np.ndarray, d: int, n: int) -> np.ndarray:
    # The d-cycle counts of permutations of n points: none for d > n,
    # which has no column.
    if d > n:
        return np.zeros(counts.shape[0], dtype=counts.dtype)
    return counts[:, d - 1]


def _columns(counts: np.ndarray, k: int, n: int) -> np.ndarray:
    # Count vectors (1-cycles, ..., k-cycles) of permutations of n points.
    if k <= n:
        return counts[:, :k]
    return np.column_stack([_column(counts, d, n) for d in range(1, k + 1)])


def _functional_values(
    functional: Functional, counts: np.ndarray, n: int
) -> np.ndarray:
    if functional.kind == "product_cycle_counts":
        values = np.ones(counts.shape[0], dtype=np.float64)
        for v in functional.v_vec:
            values *= _column(counts, v, n)
        return values
    if functional.kind == "scaled_fixed_point_moment":
        return (_column(counts, 1, n) / math.sqrt(n)) ** functional.power
    return _column(counts, 2, n) / n


def estimates_from_counts(
    functionals: Sequence[Functional],
    counts: np.ndarray,
    bound: Sequence[SamplerSpec],
    seed: int,
) -> list[MomentEstimate]:
    """Mean and standard error of each functional over rows of cycle counts.

    ``counts`` holds one row (1-cycles, 2-cycles, ...) per sample of the
    law ``bound`` describes, with a column for every cycle length up to n
    that the functionals read (:func:`_depth`); a length above n reads 0.
    """
    samples = counts.shape[0]
    if samples < _MIN_ESTIMATE_SAMPLES:
        raise ValueError(f"moment estimates need samples >= {_MIN_ESTIMATE_SAMPLES}")
    n = bound[0].n
    label = " x ".join(s.label() for s in bound)
    values = [_functional_values(f, counts, n) for f in functionals]
    return [
        MomentEstimate(
            value=float(row.mean()),
            stderr=float(row.std(ddof=1) / math.sqrt(samples)),
            samples=samples,
            seed=seed,
            spec=f"{functional.label()} | {label} | n={n}",
        )
        for functional, row in zip(functionals, values)
    ]


def _check_functionals(functionals: Sequence[Functional], num: int) -> None:
    bad = [f.label() for f in functionals if f.kind != "product_cycle_counts"]
    if num != 1 and bad:
        raise ValueError(f"functional {bad[0]} applies to a single sampler, got {num}")


def moment_estimates(
    specs: Sequence[SamplerSpec],
    functionals: Sequence[Functional],
    samples: int,
    seed: int,
    n: int | None = None,
) -> list[MomentEstimate]:
    """Monte Carlo estimates of several functionals from one set of draws.

    All product functionals are evaluated on the product of every factor;
    single-factor functionals require exactly one sampler spec. Sharing
    draws keeps a multi-functional run at the cost of a single one and
    does not change any individual estimate: the streams are keyed the
    same way as for a lone estimate.
    """
    funcs = list(functionals)
    if not funcs:
        raise ValueError("need at least one functional")
    bound, _ = _resolved_specs(specs, n)
    _check_functionals(funcs, len(bound))
    counts = _product_counts(bound, _depth(funcs, (), bound[0].n), samples, seed, 0)
    return estimates_from_counts(funcs, counts, bound, seed)


@dataclass
class ScanRow:
    n: int
    functional: str
    value: float
    stderr: float | None
    samples: int
    seed: int


@dataclass
class ScanResult:
    rows: list[ScanRow] = field(default_factory=list)
    trend: dict = field(default_factory=dict)


def _trend_verdict(points: list[tuple[float, float]]) -> str:
    # points: (value, slack); non-increasing up to per-step slack.
    for (prev, _), (cur, slack) in zip(points, points[1:]):
        if cur > prev + slack:
            return "non-monotone"
    return "non-increasing"


def convergence_scan(
    specs: Sequence[SamplerSpec],
    functionals: Sequence[Functional],
    n_grid: Sequence[int],
    samples: int,
    seed: int,
    truncation: int = 8,
    tv_orders: Sequence[int] = (),
) -> ScanResult:
    """Evaluate functionals and optional reference-law distances on a grid.

    ``tv_orders`` lists joint orders k; for each, the scan reports the
    total-variation distance between the empirical joint law of the
    first k cycle counts of the product and the Poisson reference law.
    Each grid point draws its products once, at the largest order any
    row needs, and every row of that point reads those counts.
    """
    grid = list(n_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be strictly increasing: {grid!r}")
    if not functionals and not tv_orders:
        raise ValueError("nothing to scan")
    _check_functionals(functionals, len(specs))
    result = ScanResult()
    series: dict[str, list[tuple[float, float]]] = {}
    for gi, n in enumerate(grid):
        bound, _ = _resolved_specs(specs, n)
        kmax = _depth(functionals, tv_orders, n)
        counts = _product_counts(bound, kmax, samples, seed, gi * _GRID_STRIDE)
        estimates = (
            estimates_from_counts(functionals, counts, bound, seed)
            if functionals
            else []
        )
        for functional, est in zip(functionals, estimates):
            result.rows.append(
                ScanRow(
                    n=n,
                    functional=functional.label(),
                    value=est.value,
                    stderr=est.stderr,
                    samples=samples,
                    seed=seed,
                )
            )
            series.setdefault(functional.label(), []).append(
                (est.value, 2.0 * est.stderr)
            )
        for k in tv_orders:
            emp = empirical_joint_pmf(_columns(counts, k, n), truncation)
            ref = eta_joint_pmf(k, truncation)
            dist = tv_distance(emp, ref)
            label = f"tv:{k}"
            result.rows.append(
                ScanRow(
                    n=n,
                    functional=label,
                    value=dist,
                    stderr=None,
                    samples=samples,
                    seed=seed,
                )
            )
            occupied = max(1, np.count_nonzero(emp.mass))
            noise = 2.0 * math.sqrt(occupied / samples)
            series.setdefault(label, []).append((dist, noise))
    for label, points in series.items():
        if len(points) >= 2:
            result.trend[label] = _trend_verdict(points)
    return result
