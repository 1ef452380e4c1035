"""Exhaustive verification suites over small symmetric groups.

Each sweep enumerates a full population (all permutations, all ordered
pairs, all partial-injection graphs) and checks one structural claim on
every member, reporting a case count and a violation count. Nothing here
samples; a non-zero violation count means the claim is false as stated,
not that a tolerance was missed.

Where a claim reads no labels, or only those of its starts, a sweep
checks one member of each orbit of conjugation and counts it as many
times as its orbit has members (:func:`_conjugation_orbits` and the
``weight`` of ``_Tally.record``). Three identities make this exact:

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
  14,400 at n = 5.
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
  Its fibers are kept as counts only: a pair count per key, and the
  keys holding a pair that fails its own union.
  A tuple whose count is its union's rectangle size, with no such pair,
  fills that rectangle, so no other tuple can share its union; a second
  one would be a non-empty, disjoint fiber inside the same rectangle,
  and fail the count itself.

A run with violations names, in its examples, the representatives it
checked.

The membership bounds run on every union graph, either side, of a
non-empty start set of any pair. Those are exactly the non-empty partial
injections of {1..n}, so no walk is needed to list them. Let C be the
union of the cycles of sigma^-1 rho through the starts: the sigma-side
union is sigma restricted to C, since sigma(i_{l+1}) = j_l, and the
rho-side union is rho restricted to C. Conversely, a partial injection E
extends to a permutation pi, and sigma = rho = pi with start set dom(E)
gives E on both sides, as sigma^-1 rho is the identity.

The defaults finish in seconds: pair sweeps run at n = 5 (1.4e4 ordered
pairs) and single-permutation sweeps at n = 7. ``verify-lemmas`` caps
the pair sweeps at n = 7 (``_PAIR_MAX_N``), where event-factorization
walks 1.5 million of the 25.4 million ordered pairs. It also caps the
single-permutation sweep at n = 10 (``_SINGLE_MAX_N``), since that
sweep walks all n! permutations. The trace sweep walks them in numpy
blocks of ``_TRACE_BLOCK_ROWS`` rows, each block twice: once for the
fixed points of every power and once for each row's cycle type, whose
divisor-sum formula is evaluated once per type. Event-factorization
walks each sigma against the rhos in blocks of at most ``_PAIR_BLOCK``
pairs, and counts the permutations satisfying each distinct side mask
once, in numpy, against the n! permutation masks.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from permprod.cyclegraphs import (
    DirectedGraph,
    graphs_from_record,
    membership,
    no_two_cycles_when_components_small,
    profile,
    relabel_dichotomy_holds,
    reversal_identities_hold,
    shape_orbit_size,
    shared_cycle_graphs_match,
    traversal,
)
from permprod.oracle import (
    ExactDistribution,
    ewens_prefix_fixed_prob,
    prefix_fixed_prob,
    verify_bounds,
)
from permprod.perms import (
    CycleCounts,
    all_permutations,
    compose,
    cycle_of,
    inverse,
    trace_power,
)
from permprod.samplers import _power_fixed_points, _power_scratch

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
# core of a 2-core machine: 108,000 pairs (970,776 graph tuples) in
# 0.8 s and 45 MB resident at n = 6, where a whole verify-lemmas run
# takes 0.9 s; 1.54 million pairs (42,186,823 tuples) in 10-12 s and
# 217 MB at n = 7, where a whole run takes 11 s and 222 MB. There the
# four other pair suites (5,579 pairs) take 1.4 s, relabel-dichotomy
# 1.1 s and the bounds 0.09 s (110 graph shapes). At n = 8 it would walk
# 23.2 million pairs, and its per-k key tables, about 200 MB at n = 7,
# would grow about 15-fold.
_PAIR_MAX_N = 7
# The trace sweep walks all single_n! permutations: on one core of a
# 2-core machine, 0.09 s at n = 8, 0.8 s at n = 9 and 8.7 s at n = 10,
# so about 2 minutes at n = 11.
_SINGLE_MAX_N = 10
# Rows per block of the trace sweep: a block and its temporaries take
# about 0.3 MiB at n = 8.
_TRACE_BLOCK_ROWS = 512
# Event-factorization walks one sigma against at most _PAIR_BLOCK rhos
# at a time: all of S_5 in one block, whose temporaries peak at about
# 0.2 MiB, and 1.1 MiB at n = 7. It checks its keys in blocks of
# _KEY_BLOCK, and compares side masks with the n! permutation masks in
# blocks of at most _MASK_BLOCK_ELEMENTS entries. Every key is held while
# they run, so their temporaries are kept to tens of kB.
_PAIR_BLOCK = 512
_KEY_BLOCK = 256
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


def _permutation_blocks(n: int, rows: int):
    """Yield S_n in ``itertools.permutations`` order, as (b, n) intp blocks
    of at most ``rows`` rows of 0-based images."""
    perms = itertools.permutations(range(n))
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(perms, rows)), dtype=np.intp
        )
        if not flat.size:
            return
        yield flat.reshape(-1, n)


def _flat(block: np.ndarray) -> np.ndarray:
    # Entry i * n + x is row i's image of x, plus i * n.
    b, n = block.shape
    return (block + np.arange(0, b * n, n)[:, None]).reshape(-1)


def _power_walk(block: np.ndarray, max_power: int) -> np.ndarray:
    """``fixed[i, k - 1]``, the fixed points of power k of row i of
    ``block``, for k = 1..max_power: each power is one flat ``np.take``
    of the last (``samplers._power_fixed_points``), its fixed points the
    entries equal to the identity. No cycle logic is used: no walk stops
    at its first return or reads a cycle length."""
    base = _flat(block)
    fixed = np.empty((len(block), max_power), dtype=np.int64)
    _power_fixed_points(base, fixed, 1, _power_scratch(base.size))
    return fixed


def _cycle_type_keys(block: np.ndarray) -> np.ndarray:
    """One integer per row of ``block`` naming its cycle type: the sum of
    (n + 1) ** (r - 1) over its points, r a point's first-return length.
    A d-cycle has d points of length d, so digit d - 1 in base n + 1 is d
    times the number of d-cycles. Each point walks the block on its own,
    n flat gathers, apart from :func:`_power_walk`."""
    n = block.shape[1]
    base = _flat(block)
    start = np.arange(base.size)
    returned = np.empty((n, base.size), dtype=bool)
    point = base
    for r in range(n):
        np.equal(point, start, out=returned[r])
        point = np.take(base, point)
    # Written from the last step down, each point keeps its first return.
    length = np.zeros(base.size, dtype=np.intp)
    for r in range(n, 0, -1):
        length[returned[r - 1]] = r
    # weight[r] = (n + 1) ** (r - 1); a point that never returned would
    # weigh 0 and leave the digits short of n.
    weight = np.array([0] + [(n + 1) ** r for r in range(n)], dtype=np.int64)
    return np.take(weight, length).reshape(-1, n).sum(axis=1)


def _cycle_counts_of_key(key: int, n: int) -> CycleCounts:
    counts = {}
    for d in range(1, n + 1):
        key, points = divmod(key, n + 1)
        counts[d] = points // d
    return CycleCounts.from_mapping(n, counts)


def sweep_trace_identity(n: int = 7, max_power: int | None = None) -> SweepSummary:
    """Fixed points of every power, computed twice.

    The divisor-sum formula through the cycle decomposition must agree
    with direct iteration for every permutation and every power. S_n is
    walked in blocks of ``_TRACE_BLOCK_ROWS`` rows, in
    ``itertools.permutations`` order, each walked twice: by
    :func:`_power_walk` for the direct counts, and by
    :func:`_cycle_type_keys` for each row's cycle type. The formula is a
    function of the cycle counts alone, so it is evaluated once per cycle
    type. Only the (perm, k) cells that disagree are recorded one by one,
    perm-major and k-minor, so the examples are the first mismatches in
    that order.
    """
    if max_power is None:
        max_power = 2 * n
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    powers = range(1, max_power + 1)
    # The formula's values for each cycle type met, in order of meeting,
    # and each type's key mapped to its row.
    formulas: list[list[int]] = []
    types: dict[int, int] = {}
    tally = _Tally()
    for block in _permutation_blocks(n, _TRACE_BLOCK_ROWS):
        type_of_row = []
        for key in _cycle_type_keys(block).tolist():
            if key not in types:
                counts = _cycle_counts_of_key(key, n)
                types[key] = len(formulas)
                formulas.append([trace_power(counts, k) for k in powers])
            type_of_row.append(types[key])
        want = np.take(np.array(formulas, dtype=np.int64), type_of_row, axis=0)
        bad = np.flatnonzero(want != _power_walk(block, max_power))
        tally.cases += want.size - bad.size
        for cell in bad.tolist():
            row, k = divmod(cell, max_power)
            tally.record(
                False,
                lambda images=block[row], kk=k + 1: (
                    f"perm={' '.join(map(str, (images + 1).tolist()))} k={kk}"
                ),
            )
    return _summary(
        "trace-power-identity", n, tally, f"all {n}! permutations, powers 1..{max_power}"
    )


def _edge_mask(edges, n: int) -> int:
    # Edge (a, b) is bit (a - 1) * n + (b - 1), so ascending bits are
    # edges in sorted order.
    mask = 0
    for a, b in edges:
        mask |= 1 << ((a - 1) * n + b - 1)
    return mask


def _mask_edges(mask: int, n: int) -> list[tuple[int, int]]:
    return [
        (bit // n + 1, bit % n + 1) for bit in range(n * n) if mask >> bit & 1
    ]


def _conjugation_orbits(perms: list, group: list) -> list[list]:
    """[representative, orbit size] for each orbit of conjugation by the
    permutations in ``group``, in first-seen order: each permutation of
    ``perms`` not yet marked stands for its orbit and marks all of it.
    ``perms`` must be closed under that conjugation."""
    n = perms[0].n
    movers = []
    for pi in group:
        pi_inv = [0] * n
        for x, image in enumerate(pi.images, start=1):
            pi_inv[image - 1] = x
        movers.append(((0, *pi.images), pi_inv))
    marked: set = set()
    out = []
    for sigma in perms:
        images = sigma.images
        if images in marked:
            continue
        # (pi sigma pi^-1)(y) = pi(sigma(pi^-1(y))).
        orbit = {tuple(pi[images[x - 1]] for x in pi_inv) for pi, pi_inv in movers}
        marked |= orbit
        out.append([sigma, len(orbit)])
    return out


def _stabiliser_orbits(perms: list, fixed: int) -> list[list]:
    """[representative, orbit size] for each orbit of conjugation by the
    permutations that fix 1..fixed pointwise, in first-seen order."""
    prefix = tuple(range(1, fixed + 1))
    return _conjugation_orbits(perms, [p for p in perms if p.images[:fixed] == prefix])


def _pair_orbits(perms: list):
    """(sigma, rho, orbit size) for each orbit of simultaneous conjugation
    on S_n x S_n: sigma runs over one permutation per cycle type, and rho
    over one per orbit of conjugation by sigma's centraliser, since
    conjugating the pair by pi keeps sigma exactly when pi commutes with
    it. The orbit has (class size) x (rho's orbit size) members."""
    for sigma, class_size in _conjugation_orbits(perms, perms):
        images = sigma.images
        # pi(sigma(i)) == sigma(pi(i)) for every i.
        centraliser = [
            pi
            for pi in perms
            if all(pi.images[s - 1] == images[p - 1] for p, s in zip(pi.images, images))
        ]
        for rho, orbit_size in _conjugation_orbits(perms, centraliser):
            yield sigma, rho, class_size * orbit_size


def sweep_pairs(n: int = 4, start_counts: Sequence[int] = (1, 2, 3)) -> list[SweepSummary]:
    """The five pair suites over S_n x S_n.

    The first four check one pair per orbit of simultaneous conjugation,
    sigma once per cycle type and rho once per orbit of conjugation by
    sigma's centraliser, and weight each tally by the orbit size (see the
    module docstring); for each such pair and every start m,
    traversal(sigma, rho, m) is walked and its graph couple built once,
    and each suite keeps its own tally.
    In suite order:

    * traversal-encoding: the index walk equals the cycle of
      inverse(sigma) o rho through m, the companion sequence is its
      rho-image, and the two graphs have one edge per step and are
      satisfied by the very pair that produced them;
    * shared-cycle-graphs: two starts on one cycle, each walked on its
      own, induce identical graphs;
    * reversal-exchange: the exchange identities with traversal(rho,
      sigma, m) and traversal(rho^-1, sigma^-1, rho(m)), both walked
      afresh for the check;
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
    event-factorization."""
    perms = list(all_permutations(n))
    starts = range(1, n + 1)
    start_pairs = list(itertools.combinations(range(n), 2))
    encoding, shared, reversal, small = _Tally(), _Tally(), _Tally(), _Tally()
    for sigma, rho, size in _pair_orbits(perms):
        sigma_inv = inverse(sigma)
        rho_inv = inverse(rho)
        prod = compose(sigma_inv, rho)
        rho_images = rho.images
        records = [traversal(sigma, rho, m) for m in starts]
        graphs = [graphs_from_record(r, n) for r in records]
        for r, (g1, g2) in zip(records, graphs):
            m = r.m

            def describe(ss=sigma, rr=rho, mm=m):
                return f"sigma={ss.to_line()} rho={rr.to_line()} m={mm}"

            encoding.record(
                r.i_seq == cycle_of(prod, m)
                and r.j_seq == tuple(rho_images[x - 1] for x in r.i_seq)
                and len(g1.edges) == r.k
                and len(g2.edges) == r.k
                and membership(sigma, g1)
                and membership(rho, g2),
                describe,
                size,
            )
            back = traversal(rho, sigma, m)
            h2 = graphs_from_record(traversal(rho_inv, sigma_inv, rho_images[m - 1]), n)[1]
            reversal.record(reversal_identities_hold(r, g1, back, h2), describe, size)
            small.record(no_two_cycles_when_components_small(g1, g2), describe, size)
        for i, j in start_pairs:
            shared.record(
                shared_cycle_graphs_match(records[i], graphs[i], records[j], graphs[j]),
                lambda ss=sigma, rr=rho, m1=i + 1, m2=j + 1: (
                    f"sigma={ss.to_line()} rho={rr.to_line()} m1={m1} m2={m2}"
                ),
                size,
            )
    per_start = f"all ordered pairs at n={n}, every start index"
    return [
        _summary("traversal-encoding", n, encoding, per_start),
        _summary(
            "shared-cycle-graphs", n, shared,
            f"all ordered pairs at n={n}, every unordered start pair",
        ),
        _summary("reversal-exchange", n, reversal, per_start),
        _summary("two-vertex-components", n, small, per_start),
    ]


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


def _vertex_names(walks: np.ndarray, fixed: int) -> tuple[np.ndarray, np.ndarray]:
    """(names, u) for the walks of a block of :func:`_walk_pairs`.

    Vertices below ``fixed`` keep their labels, and the others are named
    fixed, fixed + 1, ... in order of first appearance along each row's
    walks: start by start, the index walk before its companion sequence.
    ``names[r, s, v]`` is row r's name for vertex v at start s + 1, or
    n * n, which names no vertex, while no walk of starts 1..s+1 has
    reached v. Column n, which the -1 padding reads, is 0. ``u[r, s]``
    counts the vertices named by the walks of starts 1..s+1.
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
    return np.where(padded, names[:, None, :], n * n), reached[:, :, fixed:].sum(axis=2)


def _couple_bits(tails: np.ndarray, heads: np.ndarray, names: np.ndarray, spare: int) -> np.ndarray:
    """The edge bits of the couples of a block of :func:`_walk_pairs`,
    both ends of each edge (a, b) renamed by ``names[r, s]``
    (:func:`_vertex_names`), as bit a * n + b of its side (the bits of
    :func:`_edge_mask`, 0-based).

    Row r holds n * n bools for each side of each start, from the first
    column up: the couples of starts last..1, each its rho side before
    its sigma side, then ``spare`` columns left False. An edge on a
    vertex that no walk up to its start has reached raises KeyError
    rather than being dropped.
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
    width = 2 * last * n * n + spare
    # Start s's side has the ((last - 1 - s) * 2 + 1 - side)-th n * n bits.
    block = (2 * last - 1 - np.arange(2 * last)).reshape(last, 2, 1) * n * n
    bit += np.arange(0, rows * width, width).reshape(rows, 1, 1, 1) + block
    bits = np.zeros((rows, width), dtype=bool)
    bits.reshape(-1)[bit[tails >= 0]] = True
    return bits


def _block_keys(
    sigma: np.ndarray, sigma_inv: np.ndarray, rho: np.ndarray, ks: list[int], fixed: int
) -> list[tuple[list[int], list[int], set[int]]]:
    """For each k, the keys of a block of pairs over the starts 1..k in
    order of first appearance (:func:`_key_ints`), the number of rows
    holding each, and the keys of the rows whose pair fails its own
    union (see :func:`sweep_event_factorization`). Rows are pairs of
    0-based images.

    A key is, from its lowest bit up, the couples of starts k..1 as
    :func:`_couple_bits` lays them out, so that start 1's sigma side,
    which names the fewest vertices, is near the top, and above them
    n - fixed - u in binary, which is mostly 0 at the largest k.
    """
    rows, n = rho.shape
    last = max(ks)
    width = (n - fixed).bit_length()
    walks, tails, heads = _walk_pairs(sigma_inv, rho, last)
    names, u = _vertex_names(walks, fixed)
    bits = _couple_bits(tails, heads, names, width)
    # Start s fails its own pair when sigma or rho misses an edge of its
    # couple, and so does every tuple over more than s starts.
    images = np.concatenate([sigma, rho], axis=1).ravel()
    at = np.arange(0, rows * 2 * n, n).reshape(rows, 1, 2, 1)
    missed = (np.take(images, tails + at) != heads) & (tails >= 0)
    missed = missed.sum(axis=(2, 3))
    unnamed_bits = ((n - fixed - u[:, :, None]) >> np.arange(width)) & 1 == 1
    out = []
    for k in ks:
        bits[:, bits.shape[1] - width :] = unnamed_bits[:, k - 1]
        packed = np.packbits(bits[:, 2 * (last - k) * n * n :], axis=1, bitorder="little")
        rows_keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()
        tally = Counter(rows_keys)
        failing = np.flatnonzero(missed[:, :k].sum(axis=1)).tolist()
        out.append(
            (
                list(_key_ints(tally)),
                list(tally.values()),
                set(_key_ints(rows_keys[r] for r in failing)),
            )
        )
    return out


def _key_ints(keys):
    """The packed keys of :func:`_block_keys`, as ints, negated.
    ``int.from_bytes`` sizes an int by its bytes, which can take one
    30-bit digit more than its value: negating copies it at its own
    size, 16 bytes less for most keys at n = 7."""
    return map(operator.neg, map(int.from_bytes, keys, itertools.repeat("little")))


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
    starts holds the first k renamed couples and u, the count of renamed
    vertices they touch; it stands for (n-K)!/(n-K-u)! labelled tuples,
    which share its fiber size, so its weighted pair total must divide
    by that count, and the tally counts each key that many times. A run
    with violations names the renamed tuples in its examples.

    The pairs are walked sigma-major and rho-minor, in numpy blocks of
    one sigma against at most ``_PAIR_BLOCK`` rhos, every start of every
    row at once (:func:`_walk_pairs`). No graph objects are built: each
    block's couples are renamed (:func:`_vertex_names`) and set as edge
    bits (:func:`_couple_bits`), and a key packs u and those bits over
    the first k starts into an int (:func:`_block_keys`). Whether a
    start's couple fails its own pair is read off its labelled edges. A
    block's keys are counted within the block, then merged in order of
    first appearance into one running table per k, so the tables keep
    the keys in the order in which the pairs first meet them.

    A fiber is kept as its pair count only, with one set per k of the
    keys whose tuples have a pair failing its own union. A tuple passes
    when its count equals the rectangle's size and none of its pairs
    fails, which makes the fiber the whole rectangle. That the tuple is
    then the only one with its union follows: a second tuple with the
    same union would have a non-empty fiber, disjoint from the first, of
    pairs satisfying that union, so inside the same rectangle.

    The keys are checked in blocks of ``_KEY_BLOCK``, their unions read
    off in numpy (:func:`_key_unions`). The side masks a block meets for
    the first time are counted together, each against every
    permutation's mask in one numpy comparison
    (:func:`_satisfying_counts`), so each distinct mask is counted once.
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
    perms = list(all_permutations(n))
    orbits = _stabiliser_orbits(perms, fixed)
    perm_array = _as_int64([_edge_mask(enumerate(p.images, start=1), n) for p in perms])
    # The walks read S_n as rows of 0-based images, in the same order,
    # and need no permutation objects: at n = 7 they took 1 MB.
    images = next(_permutation_blocks(n, len(perms)))
    del perms
    totals: list[dict[int, int]] = [{} for _ in ks]
    unsatisfied: list[set[int]] = [set() for _ in ks]
    for sigma, size in orbits:
        sigma_rows = np.fromiter(
            itertools.chain(sigma.images, inverse(sigma).images), dtype=np.intp, count=2 * n
        ).reshape(2, n) - 1
        for first in range(0, len(images), _PAIR_BLOCK):
            rho = images[first : first + _PAIR_BLOCK]
            block = _block_keys(*sigma_rows[:, None].repeat(len(rho), axis=1), rho, ks, fixed)
            for (keys, pairs, failing), counts, failed in zip(block, totals, unsatisfied):
                # A block names each key once: its running count grows by
                # its pairs here, each of weight size.
                added = map(operator.mul, pairs, itertools.repeat(size))
                old = map(counts.get, keys, itertools.repeat(0))
                counts.update(zip(keys, map(operator.add, old, added)))
                failed.update(failing)

    # For each side mask met so far: the number of permutations holding
    # all its edges, shifted above 32 bits that hold (n - edges)!, or 0
    # past n edges, where no permutation fits.
    sides: dict[int, int] = {}
    free = [math.factorial(n - e) if e <= n else 0 for e in range(n * n + 1)]
    arrangements = np.array([math.perm(n - fixed, u) for u in range(n - fixed + 1)])
    factorization = _Tally()
    for k, counts, failed in zip(ks, totals, unsatisfied):
        key_iter = iter(counts)
        while keys := list(itertools.islice(key_iter, _KEY_BLOCK)):
            u, e1, e2 = _key_unions(keys, k, n, fixed)
            tuples = arrangements[u]
            fiber_size, spread = np.divmod(
                np.fromiter(map(counts.__getitem__, keys), dtype=np.int64, count=len(keys)),
                tuples,
            )
            e1, e2 = e1.tolist(), e2.tolist()
            new = list(set(e1).union(e2).difference(sides))
            satisfying = _satisfying_counts(new, perm_array)
            sides.update(
                (mask, count << 32 | free[mask.bit_count()]) for mask, count in zip(new, satisfying)
            )
            side1, side2 = (
                np.fromiter(map(sides.__getitem__, side), dtype=np.int64, count=len(keys))
                for side in (e1, e2)
            )
            expected = (side1 >> 32) * (side2 >> 32)
            full = (side1 & 0xFFFFFFFF) * (side2 & 0xFFFFFFFF)
            ok = (spread == 0) & (fiber_size == expected) & (expected == full)
            if failed:
                ok &= np.fromiter((key not in failed for key in keys), dtype=bool, count=len(keys))
            factorization.cases += int(tuples[ok].sum())
            for index in np.flatnonzero(~ok).tolist():
                factorization.record(
                    False,
                    lambda kk=k, a=e1[index], b=e2[index]: (
                        f"k={kk} sides {_mask_edges(a, n)} / {_mask_edges(b, n)}"
                    ),
                    int(tuples[index]),
                )
        # The later tables and the side masks take the memory back.
        counts.clear()
    return _summary(
        "event-factorization", n, factorization,
        f"{factorization.cases} realized graph tuples over start counts "
        f"{tuple(ks)} at n={n}",
    )


def _key_unions(keys: list[int], k: int, n: int, fixed: int) -> tuple[np.ndarray, ...]:
    """u, and the sigma-side and rho-side unions of the k renamed couples
    packed in each key (see :func:`_block_keys`) as uint64 edge masks,
    read off the keys as rows of 64-bit words."""
    side_bits = n * n
    width = (n - fixed).bit_length()
    words = -(-(2 * k * side_bits + width) // 64)
    packed = map(
        int.to_bytes,
        map(operator.neg, keys),
        itertools.repeat(8 * words),
        itertools.repeat("little"),
    )
    raw = np.frombuffer(b"".join(packed), dtype="<u8").reshape(len(keys), words)

    def field(start: int, bits: int) -> np.ndarray:
        # Bits start.. start + bits - 1 of each key, bits <= 64.
        if not bits:
            return np.zeros(len(keys), dtype=np.int64)
        word, shift = divmod(start, 64)
        value = (raw[:, word] >> np.uint64(shift)).view(np.int64)
        if shift + bits > 64:
            value = value | (raw[:, word + 1] << np.uint64(64 - shift)).view(np.int64)
        return value & (1 << bits) - 1 if bits < 64 else value

    # The rho side and then the sigma side of each couple.
    sides = np.stack([field(side * side_bits, side_bits) for side in range(2 * k)])
    unions = np.bitwise_or.reduce(sides.reshape(k, 2, len(keys)), axis=0)
    rho_side, sigma_side = unions.view(np.uint64)
    return n - fixed - field(2 * k * side_bits, width), sigma_side, rho_side


def _as_int64(masks: Sequence[int]) -> np.ndarray:
    # Masks of up to 64 bits, bit 63 as the sign bit, which & and == treat
    # as any other. int64 rather than uint64 shares numpy's int64 loops
    # with the trace sweep, so fewer of numpy's pages are resident.
    return np.array(masks, dtype=np.uint64).view(np.int64)


def _satisfying_counts(masks: Sequence[int], perm_masks: np.ndarray) -> list[int]:
    """For each edge mask, the number of permutation masks holding all its
    edges: one comparison per block of masks against every permutation,
    at most ``_MASK_BLOCK_ELEMENTS`` entries a block."""
    wanted = _as_int64(masks)[:, None]
    step = max(1, _MASK_BLOCK_ELEMENTS // len(perm_masks))
    out = np.empty(len(wanted), dtype=np.int64)
    for s in range(0, len(wanted), step):
        block = wanted[s : s + step]
        out[s : s + step] = ((block & perm_masks) == block).sum(axis=1)
    return out.tolist()


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
    relabeling orbit is tried against every tau, weighted by the orbit
    size.
    """
    tally = _Tally()
    perms = list(all_permutations(n))
    for g, size in _graph_orbits(n):
        components = [verts for verts, _ in profile(g)]
        for tau in perms:
            ok = relabel_dichotomy_holds(g, components, tau)
            tally.record(
                ok,
                lambda ee=g.edges, t=tau: f"edges={sorted(ee)} tau={t.to_line()}",
                size,
            )
    return _summary(
        "relabel-dichotomy", n, tally,
        f"all partial-injection graphs at n={n} times all relabelings",
    )


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
    the orbit size. Returns one summary per bound family, exact
    arithmetic throughout.
    """
    laws = []
    for theta in thetas or ():
        if theta is None:
            laws.append(ExactDistribution.uniform(n))
        else:
            laws.append(ExactDistribution.ewens(n, Fraction(theta)))
    if not laws:
        raise ValueError("need at least one law")
    orbits = [(g, size) for g, size in _graph_orbits(n) if g.edges]
    tallies = {family: _Tally() for family in set(_FAMILY_OF_CHECK.values())}
    for g, size in orbits:
        for law in laws:
            for check in verify_bounds(law, g):
                family = _FAMILY_OF_CHECK[check.check_id]
                tallies[family].record(
                    check.holds,
                    lambda c=check, gg=g, lw=law: (
                        f"{c.check_id} law={lw.kind} edges={sorted(gg.edges)} "
                        f"lhs={c.lhs} rhs={c.rhs}"
                    ),
                    size,
                )
    graphs = sum(size for _, size in orbits)
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

    For each theta and prefix length f, the probability of the shape of
    f loops (``prefix_fixed_prob``) must match the closed form exactly, and P(fix 1..f)^2 * n^f must strictly
    decrease along n_values. The square keeps the comparison rational;
    it is equivalent to decay of P * n^(f/2).
    """
    ns = list(n_values)
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_values must be strictly increasing: {ns!r}")
    tally = _Tally()
    for theta in thetas:
        theta = Fraction(theta)
        for f in prefix_lengths:
            values = []
            for n in ns:
                closed = ewens_prefix_fixed_prob(n, f, theta)
                typed = prefix_fixed_prob(ExactDistribution.ewens(n, theta), f)
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
