"""Exhaustive verification suites over small symmetric groups.

Each sweep enumerates a full population (all permutations, all ordered
pairs, all partial-injection graphs) and checks one structural claim on
every member, reporting a case count and a violation count. Nothing here
samples; a non-zero violation count means the claim is false as stated,
not that a tolerance was missed.

Where a claim reads no labels, or only those of its starts, a sweep
checks one member of each orbit of conjugation and counts it as many
times as its orbit has members (:func:`_conjugation_orbits` and the
``weight`` of ``_Tally.record``). Four identities make this exact:

* Permutations. The fixed points of (pi a pi^-1)^k are pi applied to
  those of a^k, and the divisor-sum formula reads the cycle counts
  alone, so the trace sweep checks one permutation per cycle type.
* Pairs. For any permutation pi, traversal(pi sigma pi^-1, pi rho pi^-1,
  pi(m)) is traversal(sigma, rho, m) with every index x renamed pi(x),
  and so are its two graphs. Traversal-encoding, shared-cycle,
  reversal-exchange and two-vertex-components read no label, and
  conjugation maps the starts m to pi(m) bijectively, so a pair's tally
  over all its starts (or start pairs) equals that of its conjugate.
  This holds for every pi, those commuting with sigma included, so the
  pairs are taken one per orbit of simultaneous conjugation
  (:func:`_pair_orbits`): sigma runs over one permutation per cycle
  type, rho over one per orbit of conjugation by sigma's centraliser,
  and each tally is weighted by the class size times rho's orbit size.
  That is sum over cycle types lambda of z_lambda pairs, 161 of the
  14,400 at n = 5. These four suites build no traversal records or
  graph objects either: they walk their pairs in numpy blocks with
  event-factorization's walk, every start at once, and check each claim
  on the walk arrays and labelled edge masks (:func:`_pair_verdicts`).
* Graphs. Relabel-dichotomy holds for (E, tau) exactly when it holds for
  (pi E, pi tau pi^-1), and everything ``verify_bounds`` reads under a
  conjugation-invariant law (the membership probability, the component,
  vertex and loop counts, the shape cases) is unchanged by relabeling.
  The components of a partial injection are paths and cycles, and two
  partial injections are relabelings of each other exactly when they
  have the same multiset of component shapes. So one graph per shape,
  built with its components on consecutive vertices
  (:func:`_graph_orbits`), stands for all the graphs of that shape, and
  its orbit size has a closed form: no partial injection is listed.
* Starts. Event-factorization keys its fibers by the labelled graph
  tuples over the starts 1..k, which conjugation moves unless pi fixes
  every start. So with K the largest start count, sigma runs over one
  permutation per orbit of conjugation by the permutations fixing
  1..K pointwise (:func:`_stabiliser_orbits`), rho over all of S_n,
  and each pair is weighted by the orbit size. Such a pi maps each
  start's walk, tuple and fiber onto its pi-image, with the same pair
  count and rectangle size, so each tuple is keyed canonically: the
  vertices outside 1..K are renamed in order of first appearance along
  the walks, and one key stands for all the labelled tuples of its
  orbit. It builds no graph objects and no traversal records: it walks
  its pairs in numpy blocks, every start of every pair at once, and
  reads each couple's edges, labelled and renamed, off the walk arrays.
  Its fibers are kept as counts only, in one sorted table of key rows
  over the starts 1..K, each the renamed couples' side masks as int64
  words, with a pair count and a first failing start per row; the keys
  over fewer starts are the rows' prefixes.
  A tuple whose count is its union's rectangle size, with no such pair,
  fills that rectangle, so no other tuple can share its union; a second
  one would be a non-empty, disjoint fiber inside the same rectangle,
  and fail the count itself.

A run with violations names, in its examples, the representatives it
checked; the trace sweep names the first failing permutations in
lexicographic order instead, as a walk of all of S_n would.

The membership bounds run on every union graph, either side, of a
non-empty start set of any pair. Those are exactly the non-empty partial
injections of {1..n}, so no walk is needed to list them. Let C be the
union of the cycles of sigma^-1 rho through the starts: the sigma-side
union is sigma restricted to C, since sigma(i_{l+1}) = j_l, and the
rho-side union is rho restricted to C. Conversely, a partial injection E
extends to a permutation pi, and sigma = rho = pi with start set dom(E)
gives E on both sides, as sigma^-1 rho is the identity.

The defaults finish in seconds: pair sweeps run at n = 5 (1.4e4 ordered
pairs) and single-permutation sweeps at n = 7. S_n is listed once per
n, as one cached table (:func:`_table`) that the orbit finders,
relabel-dichotomy and event-factorization read; a permutation, a
generator included, is named by its row. ``verify-lemmas`` caps the
pair sweeps at n = 7 (``_PAIR_MAX_N``), where event-factorization walks
1.5 million of the 25.4 million ordered pairs, and the trace sweep at
n = 30 (``_SINGLE_MAX_N``), with 5,604 cycle types. The four reduced pair
suites walk their orbit pairs in blocks of ``_PAIR_BLOCK``, three times
each: as (sigma, rho), swapped and inverted. Event-factorization
walks its (sigma, rho) rows in blocks of ``_PAIR_BLOCK`` that run across
sigmas, merges each block's key rows into its table as it goes, reads
every start count's keys off that one table by one sort, and counts the
permutations satisfying each distinct side mask once, in numpy, against
the n! permutation masks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from permprod.cyclegraphs import DirectedGraph, profile, shape, shape_orbit_size
from permprod.oracle import (
    ExactDistribution,
    _shape_counter,
    class_size,
    ewens_prefix_fixed_prob,
    partitions,
    prefix_fixed_prob,
    verify_bounds,
)
from permprod.samplers import _block_base, _flat, _power_walk

__all__ = [
    "SweepSummary",
    "sweep_pairs",
    "sweep_trace_identity",
    "sweep_traversal_consistency",
    "sweep_shared_cycle",
    "sweep_reversal_symmetry",
    "sweep_small_components",
    "sweep_event_factorization",
    "sweep_relabel_dichotomy",
    "sweep_membership_bounds",
    "sweep_prefix_decay",
    "run_all",
]

_EXAMPLE_CAP = 5

# Event-factorization walks one sigma per orbit under the stabiliser of
# its starts against every rho, and is most of a run past n = 5. On one
# core of a 2-core machine: 108,000 pairs (72,780 key rows) in 0.6 s at
# n = 6; 1.54 million pairs (807,468 key rows) in 6-9 s at n = 7, where
# a whole run takes 6.8-7.2 s and 162-183 MB, the other suites under
# 0.3 s in all. At n = 8 it would walk 23.2 million pairs, about 100 s of
# walking, into some 9 million key rows of 57 bytes: a 0.5 GB table, and
# a peak near 1.2 GB if it grows as it does at n = 7.
_PAIR_MAX_N = 7
# The trace sweep checks one permutation per cycle type: 5,604 at n = 30,
# in 0.45 s on one core of a 2-core machine, but 37,338 at n = 40.
_SINGLE_MAX_N = 30
# Event-factorization walks its pairs in blocks of _PAIR_BLOCK rows,
# whose temporaries peak at 0.2 MiB at n = 5 and 0.6 MiB at n = 7. It
# merges the blocks' key rows into its table once the rows walked since
# the last merge number _MERGE_ROWS and half the table's rows: at n = 7
# that holds the peak to about 2.4 times the table's 46 MB. It compares
# side masks with the n! permutation masks in blocks of at most
# _MASK_BLOCK_ELEMENTS entries.
_PAIR_BLOCK = 256
_MERGE_ROWS = 1 << 14
_MASK_BLOCK_ELEMENTS = 1 << 10


@dataclass
class SweepSummary:
    """Outcome of one exhaustive suite."""

    suite: str
    n: int
    cases: int
    violations: int
    detail: str
    examples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0


class _Tally:
    def __init__(self) -> None:
        self.cases = 0
        self.violations = 0
        self.examples: list[str] = []

    def record(self, ok: bool, describe, weight: int = 1) -> None:
        self.cases += weight
        if not ok:
            self.violations += weight
            if len(self.examples) < _EXAMPLE_CAP:
                self.examples.append(describe())


def _summary(suite: str, n: int, tally: _Tally, detail: str) -> SweepSummary:
    return SweepSummary(
        suite=suite,
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=detail,
        examples=tally.examples,
    )


@functools.lru_cache(maxsize=1)
def _table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """S_n, read-only, for the last n asked: its (n!, n) 0-based images
    in lexicographic (``itertools.permutations``) order and each row's
    :func:`_codes`, which therefore ascend with the rows."""
    images = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))), dtype=np.intp
    ).reshape(-1, n)
    codes = _codes(images)
    images.flags.writeable = codes.flags.writeable = False
    return images, codes


def _codes(images: np.ndarray) -> np.ndarray:
    # Rows of 0-based images as base-n numbers, the first image leading.
    n = images.shape[-1]
    return (images * n ** np.arange(n - 1, -1, -1)).sum(axis=-1)


def _rows(images: np.ndarray) -> np.ndarray:
    # The table rows of permutations given as rows of 0-based images.
    return np.searchsorted(_table(images.shape[-1])[1], _codes(images))


def _line(images: Sequence[int]) -> str:
    # 0-based images in 1-based one-line notation, e.g. "2 3 1".
    return " ".join(str(x + 1) for x in images)


def sweep_trace_identity(n: int = 7, max_power: int | None = None) -> SweepSummary:
    """Fixed points of every power, computed twice.

    The divisor-sum formula through the cycle decomposition must agree
    with direct iteration for every permutation and every power. Both
    sides are class functions, so one permutation per cycle type is
    checked, its cycles on consecutive blocks of points
    (``samplers._block_base``), walked by ``samplers._power_walk``, and
    each (perm, k) cell counts as many cases as the class has members. The
    examples are the first failing cells of S_n in lexicographic order,
    k-minor (:func:`_first_failures`).
    """
    if max_power is None:
        max_power = 2 * n
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    classes = list(partitions(n))
    direct = _power_walk(np.stack([_block_base(lengths) for lengths in classes]), max_power)
    failing: dict[tuple[int, ...], list[int]] = {}  # each type's failing powers
    tally = _Tally()
    for lengths, fixed in zip(classes, direct.tolist()):
        failing[lengths] = [k for k, got in enumerate(fixed, 1) if _trace_power(lengths, k) != got]
        size = class_size(lengths, n)
        tally.cases += size * max_power
        tally.violations += size * len(failing[lengths])
    tally.examples = _first_failures(n, {c: ks for c, ks in failing.items() if ks})
    return _summary(
        "trace-power-identity", n, tally, f"all {n}! permutations, powers 1..{max_power}"
    )


def _trace_power(lengths: Sequence[int], k: int) -> int:
    # Fixed points of a^k for a of cycle type ``lengths``: a point on a
    # d-cycle is fixed exactly when d divides k.
    return sum(d for d in lengths if k % d == 0)


def _first_failures(n: int, failing: dict[tuple[int, ...], list[int]]) -> list[str]:
    """The first ``_EXAMPLE_CAP`` cells (perm, k) of S_n, perm-major in
    lexicographic order, k among the powers ``failing`` gives perm's
    cycle type. S_n is not listed: images are chosen point by point,
    least first, and a prefix grows only while a failing type holds a
    partial injection of its shape, which the count restricted to that
    shape tells (``oracle._shape_counter``) without listing any other."""
    examples: list[str] = []

    def extend(prefix: list[int]) -> None:
        for y in sorted(set(range(n)).difference(prefix)):
            grown = prefix + [y]
            kinds = shape(DirectedGraph(n, frozenset((x + 1, z + 1) for x, z in enumerate(grown))))
            holds = _shape_counter(kinds)
            types = [lengths for lengths in failing if holds(lengths)]
            if types and len(grown) < n:
                extend(grown)
            elif types:
                examples.extend(f"perm={_line(grown)} k={k}" for k in failing[types[0]])
            if len(examples) >= _EXAMPLE_CAP:
                return

    extend([])
    return examples[:_EXAMPLE_CAP]


def _mask_edges(mask: int, n: int) -> list[tuple[int, int]]:
    # The edges of a mask, edge (a, b) being bit (a - 1) * n + (b - 1),
    # in sorted order.
    return [
        (bit // n + 1, bit % n + 1) for bit in range(n * n) if mask >> bit & 1
    ]


def _conjugation_orbits(n: int, generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of S_n under conjugation by the group that the table
    rows ``generators`` generate, in table order: the table row of each
    orbit's first member, which stands for it, and each orbit's size.

    Each permutation is labelled with its own row, and labels are lowered
    to the least label one generator step away, then to their own
    label's label, until none moves. A label stays in its orbit and only
    falls, and a label no step lowers is constant along every orbit,
    which the steps connect, so each orbit ends labelled with its first
    member. Each generator costs one gather of the table and one search.
    """
    images = _table(n)[0]
    # (pi sigma pi^-1)(y) = pi(sigma(pi^-1(y))), for every sigma at once.
    steps = [_rows(np.take(pi, images[:, np.argsort(pi)])) for pi in images[generators]]
    label = np.arange(len(images))
    while True:
        lowered = label
        for step in steps:
            lowered = np.minimum(lowered, lowered[step])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    label.sort()
    firsts = _run_starts(label[:, None])
    return label[firsts], np.diff(firsts, append=len(images))


def _symmetric_generators(n: int, points: Sequence[int]) -> np.ndarray:
    """The table rows of a transposition and a cycle of ``points``
    (0-based), which generate every permutation of them that fixes the
    other points; both are the identity for fewer than two points."""
    points = list(points)
    swap, cycle = generators = np.tile(np.arange(n), (2, 1))
    swap[points[:2]] = points[1::-1]
    cycle[points] = np.roll(points, -1)
    return _rows(generators)


def _centraliser_generators(sigma: np.ndarray) -> np.ndarray:
    """The table rows of generators of the permutations commuting with
    sigma, given as 0-based images: sigma on one of its cycles and the
    identity elsewhere, for each cycle, and the swap, point by point
    along them, of each two consecutive cycles of one length. They
    rotate each cycle and reorder the cycles of each length, which is
    every such permutation."""
    n, cycles = len(sigma), []
    for m in range(n):
        if all(m not in cycle for cycle in cycles):
            cycles.append([m])
            while sigma[cycles[-1][-1]] != m:
                cycles[-1].append(int(sigma[cycles[-1][-1]]))
    cycles.sort(key=len)
    out = []
    for a, b in zip(cycles, cycles[1:] + [[]]):
        out.append(np.arange(n))
        out[-1][a] = sigma[a]
        if len(a) == len(b):
            out.append(np.arange(n))
            out[-1][a], out[-1][b] = b, a
    return _rows(np.stack(out))


def _stabiliser_orbits(n: int, fixed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_conjugation_orbits` under the permutations that fix
    1..fixed pointwise."""
    return _conjugation_orbits(n, _symmetric_generators(n, range(fixed, n)))


def _pair_orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table rows of sigma and rho, and the orbit size, of one pair
    per orbit of simultaneous conjugation on S_n x S_n: sigma runs over
    one permutation per cycle type, and rho over one per orbit of
    conjugation by sigma's centraliser, since conjugating the pair by pi
    keeps sigma exactly when pi commutes with it. The orbit has (class
    size) x (rho's orbit size) members."""
    orbits = []
    for sigma, size in zip(*_conjugation_orbits(n, _symmetric_generators(n, range(n)))):
        rhos, sizes = _conjugation_orbits(n, _centraliser_generators(_table(n)[0][sigma]))
        orbits.append((np.full(len(rhos), sigma), rhos, size * sizes))
    return tuple(map(np.concatenate, zip(*orbits)))


def sweep_pairs(n: int = 4, start_counts: Sequence[int] = (1, 2, 3)) -> list[SweepSummary]:
    """The five pair suites over S_n x S_n.

    The first four check one pair per orbit of simultaneous conjugation,
    sigma once per cycle type and rho once per orbit of conjugation by
    sigma's centraliser, and weight each tally by the orbit size (see the
    module docstring); each such pair is walked from every start m at
    once, in numpy (:func:`_pair_verdicts`), and each suite keeps its own
    tally. In suite order:

    * traversal-encoding: the index walk equals the cycle of
      inverse(sigma) o rho through m, the companion sequence is its
      rho-image, and the two graphs have one edge per step and are
      satisfied by the very pair that produced them;
    * shared-cycle-graphs: two starts on one cycle, each walked on its
      own, induce identical graphs;
    * reversal-exchange: the exchange identities with the walks of
      (rho, sigma) from m and of (rho^-1, sigma^-1) from rho(m), both
      walked for the check;
    * two-vertex-components: no 2-cycles when every component has two
      vertices;
    * event-factorization, over one sigma per orbit of conjugation by
      the permutations fixing its starts, against every rho: see
      :func:`sweep_event_factorization`, which owns ``start_counts``.
    """
    factorization = sweep_event_factorization(n, start_counts)
    return [*_reduced_pair_suites(n), factorization]


def _reduced_pair_suites(n: int) -> list[SweepSummary]:
    """The first four suites of :func:`sweep_pairs`, without
    event-factorization.

    The orbit pairs are walked in blocks of ``_PAIR_BLOCK`` rows, every
    start at once (:func:`_pair_verdicts`). Each verdict counts its
    pair's orbit size, and the failures are recorded pair-major and
    start-minor (start-pair-minor for shared-cycle-graphs), so the
    examples are the first failures in that order.
    """
    images = _table(n)[0]
    sigma_rows, rho_rows, sizes = _pair_orbits(n)
    sigmas, rhos = images[sigma_rows], images[rho_rows]
    start_pairs = [f"m1={a + 1} m2={b + 1}" for a, b in itertools.combinations(range(n), 2)]
    per_start = [f"m={m}" for m in range(1, n + 1)]
    tallies = [_Tally() for _ in range(4)]
    columns = [per_start, start_pairs, per_start, per_start]
    for start in range(0, len(sizes), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        weights = sizes[block]
        for tally, ok, names in zip(tallies, _pair_verdicts(sigmas[block], rhos[block]), columns):
            tally.cases += int((ok.sum(axis=1) * weights).sum())
            for cell in np.flatnonzero(~ok).tolist():
                row, column = divmod(cell, ok.shape[1])
                pair = start + row
                tally.record(
                    False,
                    lambda ss=sigmas[pair], rr=rhos[pair], c=names[column]: (
                        f"sigma={_line(ss.tolist())} rho={_line(rr.tolist())} {c}"
                    ),
                    int(sizes[pair]),
                )
    encoding, shared, reversal, small = tallies
    detail = f"all ordered pairs at n={n}, every start index"
    return [
        _summary("traversal-encoding", n, encoding, detail),
        _summary(
            "shared-cycle-graphs", n, shared,
            f"all ordered pairs at n={n}, every unordered start pair",
        ),
        _summary("reversal-exchange", n, reversal, detail),
        _summary("two-vertex-components", n, small, detail),
    ]


def _pair_verdicts(sigma: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """The verdicts of the four reduced suites on a block of pairs of
    0-based images, in suite order: bool arrays with one row per pair and
    one column per start (per start pair, in ``itertools.combinations``
    order, for shared-cycle-graphs).

    The pairs are walked from every start by :func:`_walk_pairs`, as
    (sigma, rho), swapped as (rho, sigma), and inverted as (rho^-1,
    sigma^-1), whose walk from rho(m) goes with the start m. The couples
    are read as labelled edge masks (:func:`_side_masks`), each also with
    every edge reversed.
    """
    rows, n = rho.shape
    sigma_inv, rho_inv = np.argsort(sigma, axis=1), np.argsort(rho, axis=1)
    walks, tails, heads = _walk_pairs(sigma_inv, rho, n)
    # Every vertex keeps its label; the -1 padding reads column n.
    labels = np.tile(np.append(np.arange(n), 0), (rows, n, 1))
    masks = _side_masks(tails, heads, labels)
    flipped = _side_masks(heads, tails, labels)
    swapped = _walk_pairs(rho_inv, sigma, n)[0]
    _, inverted_tails, inverted_heads = _walk_pairs(rho, sigma_inv, n)
    inverted = _side_masks(inverted_tails, inverted_heads, labels)[:, :, 1]
    return (
        _encoding_verdicts(sigma, sigma_inv, rho, walks, tails, heads, masks),
        _shared_cycle_verdicts(walks, masks),
        _reversal_verdicts(walks, swapped, flipped[:, :, 0], np.take_along_axis(inverted, rho, 1)),
        _two_vertex_verdicts(masks, flipped, n),
    )


def _walk_lengths(walks: np.ndarray) -> np.ndarray:
    # k of each walk of a block of _walk_pairs: its unpadded steps.
    return (walks[:, :, 0] >= 0).sum(axis=2)


def _encoding_verdicts(
    sigma: np.ndarray,
    sigma_inv: np.ndarray,
    rho: np.ndarray,
    walks: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """Traversal-encoding: the index walk is the cycle of sigma^-1 rho
    through its start, walked here on its own, one flat gather of the
    product per step; the companion sequence is its rho-image; each side
    of the couple has k distinct edges (set bits of its mask); and sigma
    and rho hold every edge of their sides."""
    rows, n = rho.shape
    product = np.take(_flat(sigma_inv), _flat(rho))
    start = np.arange(rows * n).reshape(rows, n)
    cycle = np.empty((rows, n, n), dtype=np.intp)
    back = np.empty((rows, n, n), dtype=bool)
    point = start
    for l in range(n):
        cycle[:, :, l] = point
        point = np.take(product, point)
        np.equal(point, start, out=back[:, :, l])
    cycle -= start[:, :1, None]
    # Written from the last step down, each cycle keeps its first return.
    length = np.full((rows, n), n)
    for l in range(n - 1, 0, -1):
        length[back[:, :, l - 1]] = l
    cycle[np.arange(n) >= length[:, :, None]] = -1
    k = _walk_lengths(walks)
    ok = (walks[:, :, 0] == cycle).all(axis=2)
    ok &= (_images_of(rho[:, None], walks[:, :, :1]) == walks[:, :, 1:]).all(axis=(2, 3))
    ok &= (_bit_counts(masks) == k[:, :, None]).all(axis=2)
    ok &= ~_unsatisfied(sigma, rho, tails, heads)
    return ok


def _shared_cycle_verdicts(walks: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Shared-cycle-graphs, for each start pair a < b: when start a lies
    on start b's walk, the two starts' labelled masks are equal."""
    n = walks.shape[1]
    # on[r, a, b]: start a + 1 is on the index walk of start b + 1.
    on = (walks[:, None, :, 0] == np.arange(n)[:, None, None]).any(axis=3)
    same = (masks[:, :, None] == masks[:, None]).all(axis=3)
    first, second = np.triu_indices(n, 1)
    return (~on | same)[:, first, second]


def _reversal_verdicts(
    walks: np.ndarray, swapped: np.ndarray, reversed_sigma_side: np.ndarray, inverted: np.ndarray
) -> np.ndarray:
    """Reversal-exchange: with s the walk of (rho, sigma) from the same
    start, of the same length k, s.j reverses the companion sequence
    (s.j[l] = j[k - 1 - l]) and s.i the index walk off the anchor (s.i[l]
    = i[k - l] for l >= 1); both walks start at m; and the sigma side,
    every edge reversed, is the rho side of the inverted walk from
    rho(m)."""
    n = walks.shape[1]
    k = _walk_lengths(walks)[:, :, None]
    steps = np.arange(n)

    def reversed_walk(seq: np.ndarray, shift: int) -> np.ndarray:
        # seq[(k - shift - l) mod k] at step l < k, and -1 padding past k.
        at = (k - shift - steps) % k
        return np.where(steps < k, np.take_along_axis(seq, at, axis=2), -1)

    ok = (swapped[:, :, 1] == reversed_walk(walks[:, :, 1], 1)).all(axis=2)
    ok &= (swapped[:, :, 0] == reversed_walk(walks[:, :, 0], 0)).all(axis=2)
    ok &= (walks[:, :, 0, 0] == steps) & (swapped[:, :, 0, 0] == steps)
    ok &= reversed_sigma_side == inverted
    return ok


def _two_vertex_verdicts(masks: np.ndarray, flipped: np.ndarray, n: int) -> np.ndarray:
    """Two-vertex-components, on a block's edge masks ``masks[r, s, side]``
    and the same with every edge reversed: when every component of both
    sides has two vertices, neither side has a 2-cycle.

    Every component has two vertices when each vertex has at most one
    neighbour other than itself, in either direction, and each loop's
    vertex has one; a 2-cycle is a non-loop edge whose reverse is an edge.
    The masks are read as uint64, so that all n * n <= 64 bits are plain
    bits.
    """
    masks, flipped = masks.view(np.uint64), flipped.view(np.uint64)
    loops = np.uint64(sum(1 << v * (n + 1) for v in range(n)))
    plain, plain_flipped = masks & ~loops, flipped & ~loops
    shifts = np.arange(n, dtype=np.uint64) * np.uint64(n)
    # neighbours[r, s, side, v]: the other vertices v has an edge with.
    neighbours = ((plain | plain_flipped)[..., None] >> shifts) & np.uint64((1 << n) - 1)
    looped = (masks[..., None] >> shifts + np.arange(n, dtype=np.uint64)) & np.uint64(1)
    paired = (neighbours & neighbours - np.uint64(1)) == 0
    paired &= (looped == 0) | (neighbours != 0)
    two_cycle = ((plain & plain_flipped) != 0).any(axis=2)
    return ~paired.all(axis=(2, 3)) | ~two_cycle


def sweep_traversal_consistency(n: int = 4) -> SweepSummary:
    """Traversal records against their definition; see :func:`sweep_pairs`."""
    return _reduced_pair_suites(n)[0]


def sweep_shared_cycle(n: int = 4) -> SweepSummary:
    """Start indices on one traversal cycle must induce identical graphs."""
    return _reduced_pair_suites(n)[1]


def sweep_reversal_symmetry(n: int = 4) -> SweepSummary:
    """The exchange identities between (sigma, rho) and (rho, sigma)."""
    return _reduced_pair_suites(n)[2]


def sweep_small_components(n: int = 4) -> SweepSummary:
    """No 2-cycles in traversal graphs whose components all have 2 vertices."""
    return _reduced_pair_suites(n)[3]


def _walk_pairs(
    sigma_inv: np.ndarray, rho: np.ndarray, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walks of a block of pairs from the starts 1..last, and the
    edges of their graph couples, all 0-based: row r is the pair whose
    sigma^-1 has the images ``sigma_inv[r]`` and whose rho has ``rho[r]``.

    Every row walks every start at once, for n steps: i_0 = m, j_l =
    rho(i_l) and i_{l+1} = sigma^-1(j_l), until i_{l+1} is m again after
    k steps. ``walks[r, s]`` is start s + 1's traversal record, its index
    walk then its companion sequence, each padded with -1 to n entries.
    ``tails[r, s, side]`` and ``heads[r, s, side]`` are the edges of that
    start's couple, side 0 for sigma and 1 for rho, padded with -1: step
    l gives the sigma-side edge (i_{l+1}, j_l), which for the last step
    is the wrap edge (i_0, j_{k-1}), and the rho-side edge (i_l, j_l).
    """
    rows, n = rho.shape
    offset = np.arange(0, rows * n, n)[:, None]
    # Flat indices: entry r * n + x of rho_at is that of rho_r(x).
    rho_at = (rho + offset).ravel()
    sigma_inv_at = (sigma_inv + offset).ravel()
    # Step l of every row and start, (i_l, j_l, i_{l+1}) as flat indices.
    steps = np.empty((n, 3, rows, last), dtype=np.intp)
    i = offset + np.arange(last)
    for l in range(n):
        steps[l, 0] = i
        np.take(rho_at, i, out=steps[l, 1])
        i = np.take(sigma_inv_at, steps[l, 1], out=steps[l, 2])
    steps -= offset
    steps = steps.transpose(2, 3, 1, 0)
    # A walk's k steps run up to its first return to m.
    k = np.argmax(steps[:, :, 2] == np.arange(last)[:, None], axis=2) + 1
    np.copyto(steps, -1, where=(np.arange(n) >= k[..., None])[:, :, None])
    return steps[:, :, :2], steps[:, :, 2::-2], steps[:, :, [1, 1]]


def _vertex_names(walks: np.ndarray, fixed: int) -> np.ndarray:
    """The vertex names for the walks of a block of :func:`_walk_pairs`.

    Vertices below ``fixed`` keep their labels, and the others are named
    fixed, fixed + 1, ... in order of first appearance along each row's
    walks: start by start, the index walk before its companion sequence.
    ``names[r, s, v]`` is row r's name for vertex v at start s + 1, or
    n * n, which names no vertex, while no walk of starts 1..s+1 has
    reached v. Column n, which the -1 padding reads, is 0.
    """
    rows, last, _, n = walks.shape
    # Each vertex also appears once past the end of row r's walks.
    every = np.broadcast_to(np.arange(n), (rows, n))
    seq = np.concatenate([walks.reshape(rows, -1), every], axis=1)
    # first[r, v]: where v first appears in row r's walks, or past their
    # end if it never does; -1 for the fixed vertices.
    first = np.full((rows, n), -1, dtype=np.intp)
    for v in range(fixed, n):
        first[:, v] = np.argmax(seq == v, axis=1)
    late = first[:, fixed:]
    names = np.zeros((rows, n + 1), dtype=np.intp)
    names[:, :fixed] = np.arange(fixed)
    names[:, fixed:n] = fixed + (late[:, None, :] < late[:, :, None]).sum(axis=2)
    # Start s's walks end at position 2n(s + 1).
    reached = first[:, None, :] < 2 * n * np.arange(1, last + 1)[:, None]
    padded = np.concatenate([reached, np.ones((rows, last, 1), dtype=bool)], axis=2)
    return np.where(padded, names[:, None, :], n * n)


def _side_masks(tails: np.ndarray, heads: np.ndarray, names: np.ndarray) -> np.ndarray:
    """``masks[r, s, side]``: that side (0 sigma, 1 rho) of start s + 1's
    couple in a block of :func:`_walk_pairs` as an int64 edge mask, each
    edge (a, b) renamed by ``names[r, s]`` (:func:`_vertex_names`) and
    set as bit a * n + b. An edge on a vertex that no walk up to its
    start has reached raises KeyError rather than being dropped.
    """
    rows, last, _, _ = tails.shape
    n = names.shape[2] - 1
    # Entry (r * last + s) * (n + 1) + v of names.ravel() is the name of
    # v at row r and start s; -1 padding reads a column n, named 0.
    at = np.arange(0, rows * last * (n + 1), n + 1).reshape(rows, last, 1, 1)
    bit = np.take(names, tails + at)
    bit *= n
    bit += np.take(names, heads + at)
    # A vertex named n * n puts its edge's bit past n * n.
    if np.count_nonzero(bit >= n * n):
        r, s = np.argwhere((bit >= n * n).any(axis=(2, 3)))[0]
        raise KeyError(f"an edge of start {s + 1} in row {r} is on a vertex no walk has reached")
    edges = np.left_shift(1, bit, dtype=np.int64)
    edges[tails < 0] = 0
    return np.bitwise_or.reduce(edges, axis=3)


def _images_of(perms: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``out[r, s, p, l]``: permutation p of row r, ``perms[r, p]`` as
    0-based images, at ``points[r, s, p, l]``, and -1 at -1 padding."""
    rows, count, n = perms.shape
    # Each permutation is followed by a -1, which the -1 padding of the
    # next one reads (of the last, for the first).
    images = np.full((rows, count, n + 1), -1)
    images[:, :, :n] = perms
    at = np.arange(0, rows * count * (n + 1), n + 1).reshape(rows, 1, count, 1)
    return np.take(images, points + at)


def _unsatisfied(
    sigma: np.ndarray, rho: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """``out[r, s]``: whether, in a block of :func:`_walk_pairs`, sigma
    misses an edge of the sigma side of start s + 1's couple, or rho one
    of its rho side."""
    rows, last = tails.shape[:2]
    return (_images_of(np.stack([sigma, rho], axis=1), tails) != heads).reshape(
        rows, last, -1
    ).any(axis=2)


# The set bits of each byte value.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)


def _bit_counts(masks: np.ndarray) -> np.ndarray:
    # The set bits of each int64 mask, byte by byte.
    return np.take(_BYTE_BITS, masks.view(np.uint8)).reshape(*masks.shape, 8).sum(axis=-1)


def _key_rows(
    sigma: np.ndarray, sigma_inv: np.ndarray, rho: np.ndarray, last: int, fixed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The key rows of a block of pairs of 0-based images, and each row's
    first failing start, or last + 1.

    Row r holds, start by start, the sigma-side and rho-side masks of
    each start's renamed couple (:func:`_side_masks`), 2 * last int64
    words: a tuple's key over the starts 1..k is its row's first 2k
    words. A start fails when sigma or rho misses an edge of its
    labelled couple.
    """
    walks, tails, heads = _walk_pairs(sigma_inv, rho, last)
    masks = _side_masks(tails, heads, _vertex_names(walks, fixed))
    missed = _unsatisfied(sigma, rho, tails, heads)
    fail = np.where(missed.any(axis=1), missed.argmax(axis=1) + 1, last + 1)
    return masks.reshape(len(rho), -1), fail.astype(np.int8)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    # The first row of each run of equal rows.
    change = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=change[1:])
    return np.flatnonzero(change)


def _merge_keys(columns: tuple[list[np.ndarray], ...]) -> None:
    """Merge in place the pieces of each column of the table (key rows,
    pair count, first row, first failing start) into one, sorted by key
    with each key once: its counts summed, its least first row and
    failing start kept. Keys sort as byte strings, so rows sharing their
    first k starts' masks are contiguous for every k; the stable sort
    finds a sorted piece, such as the last table, as one run."""
    keys, pairs, first, fail = map(np.concatenate, columns)
    for column in columns:
        column.clear()
    order = np.argsort(keys.view(f"V{8 * keys.shape[1]}").ravel(), kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    columns[0].append(keys[starts])
    del keys
    reducers = (np.add, np.minimum, np.minimum)
    for column, values, ufunc in zip(columns[1:], (pairs, first, fail), reducers):
        column.append(ufunc.reduceat(values[order], starts))


def _fixing_counts(n: int) -> list[int]:
    # (n - e)! for e = 0..n * n: the permutations of S_n holding e given
    # edges of a partial injection, and none past n edges.
    return [math.factorial(n - e) if e <= n else 0 for e in range(n * n + 1)]


def sweep_event_factorization(
    n: int = 4, start_counts: Sequence[int] = (1, 2, 3)
) -> SweepSummary:
    """Fibers of the graph-tuple map are full membership rectangles.

    For each k in ``start_counts``, the pairs whose graph couples over
    the starts 1..k form a given tuple must be exactly {sigma satisfying
    G1} x {rho satisfying G2}, where (G1, G2) is the tuple's union
    couple, with both factor counts found by brute force and matching
    (n - edges)!. Each case is one labelled graph tuple.

    With K = max(start_counts), conjugating a pair by a pi that fixes
    1..K maps each start's walk, and so each tuple and its fiber, onto
    its pi-image (see the module docstring). So sigma runs over one
    permutation per orbit of that conjugation, weighted by the orbit
    size, and rho over all of S_n, walked from the starts 1..K. Each
    tuple is keyed canonically: vertices 1..K keep their labels (all n
    of them when K = n - 1) and the others are renamed K+1, K+2, ... in
    order of first appearance along the records of starts 1..K (the
    index walk, then its companion sequence). A couple gives back its
    record, so a tuple and its pi-images share one key. The key over k
    starts is the first k renamed couples. With u the count of renamed
    vertices they touch, it stands for (n-K)!/(n-K-u)! labelled tuples,
    which share its fiber size, so its weighted pair total must divide
    by that count, and the tally counts each key that many times. A run
    with violations names the renamed tuples in its examples.

    The pairs are walked sigma-major and rho-minor, in numpy blocks of
    ``_PAIR_BLOCK`` rows that run across sigmas, every start at once
    (:func:`_walk_pairs`). No graph objects are built: a row becomes
    one key row, the two int64 side masks of each start's renamed
    couple, and its first failing start (:func:`_key_rows`). One sorted
    table keeps the distinct rows with their weighted pair counts, first
    rows and first failing starts; blocks are merged into it whenever
    the rows walked since reach half its size (:func:`_merge_keys`). The
    keys over k starts are the runs of the table's first 2k words, and
    their counts, first rows and failing starts are reduced over each
    run. Examples follow the first rows, the order in which the pairs
    first meet the keys.

    A fiber is kept as its pair count only, and as whether one of its
    pairs fails its own union. A tuple passes when its count equals the
    rectangle's size and none of its pairs fails, which makes the fiber
    the whole rectangle. That the tuple is then the only one with its
    union follows: a second tuple with the same union would have a
    non-empty fiber, disjoint from the first, of pairs satisfying that
    union, so inside the same rectangle. The unions, and u, are read off
    the key rows (:func:`_key_unions`); each distinct side mask is
    counted once against every permutation's mask
    (:func:`_satisfying_counts`), and compared with (n - edges)!
    (:func:`_fixing_counts`).
    """
    ks = list(start_counts)
    if not ks or any(k < 1 or k > n for k in ks):
        raise ValueError(f"start counts must lie in 1..{n}: {ks!r}")
    if n * n > 64:
        raise ValueError(f"edge masks hold n * n <= 64 bits, so n <= 8: n = {n}")
    last = max(ks)
    # The points that every permutation fixing the starts fixes: fixing
    # all points but one fixes that one too.
    fixed = n if n - last == 1 else last
    reps, sizes = _stabiliser_orbits(n, fixed)
    # S_n as rows of 0-based images and as edge masks.
    images = _table(n)[0]
    perm_masks = np.bitwise_or.reduce(1 << (images + np.arange(0, n * n, n)), axis=1)
    sigmas = images[reps]
    sigma_invs = np.argsort(sigmas, axis=1)
    sizes = sizes.astype(np.int32)
    total = len(sigmas) * len(images)
    # The table, once merged, then the blocks walked since. A pair count
    # fits in 32 bits up to n = 8, as does a row's index.
    columns: tuple[list[np.ndarray], ...] = ([], [], [], [])
    table_rows = pending = 0
    for start in range(0, total, _PAIR_BLOCK):
        row = np.arange(start, min(start + _PAIR_BLOCK, total), dtype=np.int32)
        orbit, r = np.divmod(row, len(images))
        keys, fail = _key_rows(sigmas[orbit], sigma_invs[orbit], images[r], last, fixed)
        for column, piece in zip(columns, (keys, sizes[orbit], row, fail)):
            column.append(piece)
        pending += len(row)
        if pending >= max(_MERGE_ROWS, table_rows // 2):
            _merge_keys(columns)
            table_rows, pending = len(columns[0][0]), 0
    _merge_keys(columns)
    keys, pairs, first, fail = (column.pop() for column in columns)

    free = _fixing_counts(n)
    arrangements = np.array([math.perm(n - fixed, u) for u in range(n - fixed + 1)])
    # The side masks met so far, sorted, and for each the number of
    # permutations holding all its edges, shifted above 32 bits that
    # hold (n - edges)!.
    known = counts = np.empty(0, dtype=np.int64)
    factorization = _Tally()

    def check(k: int) -> None:
        # The keys over k starts, one per run of the table's first k
        # starts; at k = last every row is its own run.
        nonlocal known, counts
        heads = keys[:, : 2 * k]
        starts = _run_starts(heads)
        u, e1, e2 = _key_unions(heads[starts] if len(starts) < len(keys) else heads, k, n, fixed)
        tuples = arrangements[u]
        del u
        masks = np.sort(np.concatenate([e1, e2]))
        masks = masks[_run_starts(masks[:, None])]
        if len(known):
            masks = masks[np.take(known, np.searchsorted(known, masks), mode="clip") != masks]
        if len(masks):
            edges = [free[mask.bit_count()] for mask in masks.view(np.uint64).tolist()]
            at = np.searchsorted(known, masks)
            known = np.insert(known, at, masks)
            counts = np.insert(counts, at, _satisfying_counts(masks, perm_masks) << 32 | edges)
        del masks
        side1, side2 = (np.take(counts, np.searchsorted(known, side)) for side in (e1, e2))
        expected = (side1 >> 32) * (side2 >> 32)
        ok = expected == (side1 & 0xFFFFFFFF) * (side2 & 0xFFFFFFFF)
        fiber_size, spread = np.divmod(np.add.reduceat(pairs, starts), tuples)
        ok &= (spread == 0) & (fiber_size == expected)
        ok &= np.minimum.reduceat(fail, starts) > k
        factorization.cases += int(tuples[ok].sum())
        bad = np.flatnonzero(~ok)
        bad = bad[np.argsort(np.minimum.reduceat(first, starts)[bad])]
        for index in bad.tolist():
            factorization.record(
                False,
                lambda a=int(e1[index]), b=int(e2[index]): (
                    f"k={k} sides {_mask_edges(a, n)} / {_mask_edges(b, n)}"
                ),
                int(tuples[index]),
            )

    for k in ks:
        check(k)
    return _summary(
        "event-factorization", n, factorization,
        f"{factorization.cases} realized graph tuples over start counts "
        f"{tuple(ks)} at n={n}",
    )


def _key_unions(keys: np.ndarray, k: int, n: int, fixed: int) -> tuple[np.ndarray, ...]:
    """u, and the sigma-side and rho-side unions of the renamed couples
    of the first k starts as int64 edge masks, of each key row
    (:func:`_key_rows`). Every vertex a walk reaches is an end of one of
    its rho-side edges, so u, the count of renamed vertices the couples
    touch, is that of the vertices from ``fixed`` up with a rho-side edge
    out or in."""
    sigma_side, rho_side = np.bitwise_or.reduce(
        keys[:, : 2 * k].reshape(len(keys), k, 2), axis=1
    ).T
    # Bit a * n + v for every a: the edges into v, shifted down by v.
    into = sum(1 << a * n for a in range(n))
    u = np.zeros(len(keys), dtype=np.intp)
    for v in range(fixed, n):
        u += (rho_side >> v * n & (1 << n) - 1 != 0) | (rho_side >> v & into != 0)
    return u, sigma_side, rho_side


def _satisfying_counts(masks: np.ndarray, perm_masks: np.ndarray) -> np.ndarray:
    """For each int64 edge mask, the number of permutation masks holding
    all its edges: one comparison per block of masks against every
    permutation, at most ``_MASK_BLOCK_ELEMENTS`` entries a block."""
    wanted = masks[:, None]
    step = max(1, _MASK_BLOCK_ELEMENTS // len(perm_masks))
    out = np.empty(len(wanted), dtype=np.int64)
    for s in range(0, len(wanted), step):
        block = wanted[s : s + step]
        out[s : s + step] = ((block & perm_masks) == block).sum(axis=1)
    return out


def _graph_orbits(n: int) -> list[list]:
    """[representative, orbit size] for each relabeling orbit of the
    partial injections of {1..n}, the empty graph first.

    An orbit is a shape: a multiset of components, each an l-cycle
    (l vertices, l edges) or a path with l edges (l + 1 vertices), with
    v vertices in all. Its representative lays the components out on
    consecutive vertices from 1, and its size is ``shape_orbit_size``.
    """
    # Kinds of component as (vertex count, edge count); a shape is listed
    # once, as a non-decreasing tuple of kinds.
    kinds = sorted([(v, v) for v in range(1, n + 1)] + [(v, v - 1) for v in range(2, n + 1)])
    out = []

    def extend(shape: list, first: int, free: int) -> None:
        edges = []
        start = 1
        for verts, edge_count in shape:
            block = range(start, start + verts)
            edges.extend(zip(block, block[1:]))
            if edge_count == verts:
                edges.append((block[-1], start))
            start += verts
        out.append([DirectedGraph(n, frozenset(edges)), shape_orbit_size(shape, n)])
        for index in range(first, len(kinds)):
            if kinds[index][0] <= free:
                extend([*shape, kinds[index]], index, free - kinds[index][0])

    extend([], 0, n)
    return out


def sweep_relabel_dichotomy(n: int = 4) -> SweepSummary:
    """Relabeling with a fixed point per component: frozen or inconsistent.

    Covers every graph whose edges form a partial injection and every
    relabeling permutation; cases where some component avoids the fixed
    points are vacuous and still counted. The dichotomy holds for (E, tau)
    exactly when it holds for (pi E, pi tau pi^-1), so one graph per
    relabeling orbit, weighted by the orbit size, is tried against every
    tau of the table at once (:func:`_relabel_verdicts`). Failures are
    recorded graph-major, tau in table order.
    """
    taus = _table(n)[0]
    tally = _Tally()
    for g, size in _graph_orbits(n):
        premise, frozen, inconsistent = _relabel_verdicts(g, taus)
        ok = ~premise | frozen | inconsistent
        tally.cases += size * int(ok.sum())
        for row in np.flatnonzero(~ok).tolist():
            tally.record(
                False,
                lambda ee=g.edges, t=taus[row]: f"edges={sorted(ee)} tau={_line(t.tolist())}",
                size,
            )
    return _summary(
        "relabel-dichotomy", n, tally,
        f"all partial-injection graphs at n={n} times all relabelings",
    )


def _relabel_verdicts(g: DirectedGraph, taus: np.ndarray) -> tuple[np.ndarray, ...]:
    """(premise, frozen, inconsistent) for the partial injection g and
    each row of ``taus``, 0-based images: each component of g holds a
    fixed point of tau; tau maps g's edges onto themselves; an edge
    (tau(a), tau(b)) leaves a tail, or enters a head, that an edge of g
    leaves for another head or enters from another tail, so that no
    permutation holds both. The dichotomy fails where only the premise holds."""
    tails, heads = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2).T - 1
    head_of, tail_of = np.full(g.n, -1), np.full(g.n, -1)
    head_of[tails], tail_of[heads] = heads, tails
    fixed = taus == np.arange(g.n)
    premise = np.ones(len(taus), dtype=bool)
    for verts, _ in profile(g):
        premise &= fixed[:, [v - 1 for v in verts]].any(axis=1)
    tail, head = taus[:, tails], taus[:, heads]
    out, into = head_of[tail], tail_of[head]
    clash = ((out >= 0) & (out != head)) | ((into >= 0) & (into != tail))
    return premise, (out == head).all(axis=1), clash.any(axis=1)


_FAMILY_OF_CHECK = {
    "membership-upper-weighted": "membership-upper-bounds",
    "membership-upper-plain": "membership-upper-bounds",
    "two-cycle-upper": "two-cycle-upper-bounds",
    "matching-sandwich-lower": "matching-sandwich-bounds",
    "matching-sandwich-upper": "matching-sandwich-bounds",
}


def sweep_membership_bounds(
    n: int = 5,
    thetas: Sequence | None = ("1/2", "1", "2"),
) -> list[SweepSummary]:
    """Exact probability bounds on every realizable union graph.

    The union graphs of all ordered pairs at this n are the non-empty
    partial injections of {1..n}: each side of a union is sigma or rho
    restricted to the cycles of sigma^-1 rho through the starts, and a
    partial injection E is both sides of its own union for sigma = rho
    any permutation extending E, with start set dom(E). Every applicable
    inequality covers each of them under the theta-biased law for each
    theta (plus the uniform law when ``thetas`` includes None). The laws
    are conjugation invariant, so every value a check reads is constant
    on a relabeling orbit: one graph per orbit is checked, weighted by
    the orbit size, and its shape is worked out once for every law.
    Returns one summary per bound family, exact arithmetic throughout.
    """
    laws = []
    for theta in thetas or ():
        if theta is None:
            laws.append(ExactDistribution.uniform(n))
        else:
            laws.append(ExactDistribution.ewens(n, Fraction(theta)))
    if not laws:
        raise ValueError("need at least one law")
    orbits = [(g, size, shape(g)) for g, size in _graph_orbits(n) if g.edges]
    tallies = {family: _Tally() for family in set(_FAMILY_OF_CHECK.values())}
    for g, size, g_kinds in orbits:
        for law in laws:
            for check in verify_bounds(law, g, g_kinds):
                family = _FAMILY_OF_CHECK[check.check_id]
                tallies[family].record(
                    check.holds,
                    lambda c=check, gg=g, lw=law: (
                        f"{c.check_id} law={lw.kind} edges={sorted(gg.edges)} "
                        f"lhs={c.lhs} rhs={c.rhs}"
                    ),
                    size,
                )
    graphs = sum(size for _, size, _ in orbits)
    kinds = ", ".join(law.kind for law in laws)
    return [
        _summary(family, n, tally, f"{graphs} union graphs at n={n}; laws: {kinds}")
        for family, tally in sorted(tallies.items())
    ]


def sweep_prefix_decay(
    n_values: Sequence[int] = (4, 5, 6, 7, 8, 9),
    prefix_lengths: Sequence[int] = (1, 2),
    thetas: Sequence = ("1/2", "1", "2"),
) -> SweepSummary:
    """Prefix-fixing probabilities: closed form and scaled decay.

    For each theta and prefix length f, the probability of fixing 1..f
    read off the law's class masses (``prefix_fixed_prob``) must match
    the closed form exactly, and P(fix 1..f)^2 * n^f must strictly
    decrease along n_values. The square keeps the comparison rational;
    it is equivalent to decay of P * n^(f/2). Each theta's laws are
    built once, for every f.
    """
    ns = list(n_values)
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_values must be strictly increasing: {ns!r}")
    tally = _Tally()
    for theta in thetas:
        theta = Fraction(theta)
        laws = [ExactDistribution.ewens(n, theta) for n in ns]
        for f in prefix_lengths:
            values = []
            for n, law in zip(ns, laws):
                closed = ewens_prefix_fixed_prob(n, f, theta)
                typed = prefix_fixed_prob(law, f)
                tally.record(
                    typed == closed,
                    lambda nn=n, ff=f, th=theta: f"theta={th} f={ff} n={nn} closed-form mismatch",
                )
                values.append(closed * closed * n**f)
            for (n_prev, prev), (n_cur, cur) in zip(
                zip(ns, values), zip(ns[1:], values[1:])
            ):
                tally.record(
                    cur < prev,
                    lambda a=n_prev, b=n_cur, ff=f, th=theta: (
                        f"theta={th} f={ff} no decay from n={a} to n={b}"
                    ),
                )
    return _summary(
        "prefix-fixing-decay", max(ns), tally,
        f"n in {tuple(ns)}, prefix lengths {tuple(prefix_lengths)}, "
        f"thetas {tuple(str(t) for t in thetas)}",
    )


def run_all(
    pair_n: int = 5,
    single_n: int = 7,
    thetas: Sequence = ("1/2", "1", "2"),
) -> list[SweepSummary]:
    """Run every suite: the pair suites, relabel-dichotomy and the
    membership bounds at pair_n, the power sweep at single_n.

    pair_n must be at least 3, the largest start count of
    event-factorization, which walks the starts 1..3; ``verify-lemmas``
    caps it at ``_PAIR_MAX_N``.
    """
    out = [sweep_trace_identity(single_n)]
    out.extend(sweep_pairs(pair_n))
    out.append(sweep_relabel_dichotomy(pair_n))
    out.extend(sweep_membership_bounds(pair_n, thetas))
    out.append(sweep_prefix_decay(thetas=thetas))
    return out
