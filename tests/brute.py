"""Brute-force references for the reductions of the oracle and the sweeps.

Most functions here are unreduced sums over all of S_n (or S_n x S_n)
with exact ``Fraction`` weights; ``union_graph_list`` takes unions over
every start set of every pair rather than listing partial injections,
``trace_pass`` builds every power of every permutation by composition,
where the trace sweep checks one permutation per cycle type,
``power_fixed_points`` walks one permutation at a time where the trace
sweep walks a block of rows,
``pair_pass`` walks every ordered pair instead of one per orbit of
simultaneous conjugation, ``class_pair_pass`` (the sweep's previous
path) walks one sigma per cycle type against every rho,
``event_factorization_pass`` walks every ordered pair instead of one
sigma per orbit under the stabiliser of its starts and keys its fibers
by labelled graph tuples, ``graph_pass`` checks every partial injection
instead of one per relabeling orbit, one tau at a time through
``relabel_dichotomy_holds`` where the sweep tries every tau at once,
``graph_orbits`` (the sweep's previous path) finds those orbits by
listing every partial injection and grouping by ``shape`` instead of
building one graph per shape, and the two-vertex predicate reads full
component profiles.
``pair_verdicts`` gives the four reduced pair suites' verdicts on one
pair from its traversal records and graph objects, through
``shared_cycle_graphs_match``, ``reversal_identities_hold`` and the
two-vertex predicate (the sweep's previous path), where the sweep reads
them off numpy walk arrays and edge masks. They exist so
that tests can check the reduced code against straight enumeration
instead of trusting it, and they are practical only for n <= 7.
``graph_prob`` sums a law's pmf over every permutation containing a
graph, where the oracle reads one probability per shape, and
``shape_table`` tabulates every shape inside a cycle type, extending
the cached table of a shorter type by one cycle's ``cycle_shapes`` (run
formula), and ``table_shape_prob`` reads a law's shape probabilities
off it, where the oracle uses a closed form for Ewens laws and
otherwise counts only the shapes inside one target shape;
``shape_counts`` builds the same table one cycle at a time from every
edge subset of each cycle, and ``shapes`` lists every shape up to n
vertices. ``rising_factorial``
is the Ewens normaliser in ``Fraction``s, where the oracle builds Ewens
laws in integers.
``enumerate_B`` lists every labelled couple of two shapes and replays
each through ``_trace_realizes``, where ``cyclegraphs.enumerate_B``
counts walk patterns; ``canonical_form`` names a graph up to relabeling
by its lexicographically least relabeling, where ``cyclegraphs`` reads
its shape. ``shape_tuple_pmf`` and ``union_pair_pmf`` are joint laws of
graph shapes over every pair, and ``graphs_from_traversal`` and
``union_graphs`` build a pair's graphs from its walks.
``record_masks`` reads one traversal's side masks, labelled and
renamed, straight off its record, where event-factorization walks
blocks of pairs in numpy (the sweep's previous path); ``edge_mask``
builds a mask from an edge list, one edge at a time. ``step_walks``
walks each pair of a block step by step, ``walk_names`` finds each
vertex's first place by a search of the whole walk, and ``key_rows``
reads a block's key rows and failing starts off them (the sweep's
previous path), where event-factorization gathers each pair's walks
from one table over sigma^-1 rho.
``product_rows`` and ``small_cycle_counts`` are the Monte Carlo layers
as whole-chunk ``take_along_axis`` gathers, with no row blocks and no
flat indices, and ``representative_rows`` expands class representatives
held as cycle blocks into all their rows at once, where the Monte Carlo
builds one row block at a time or none. ``feller_ends`` draws the
Feller ends in intp rounds concatenated at the end, where the sampler
writes each int32 round straight to its place. The permutation algebra
(``from_cycles``, ``compose``, ``inverse``, ``conjugate``, ``cycle_of``,
``cycle_type``, ``trace_power``) and three graph helpers
(``graphs_from_record``, ``membership``, ``relabeled``) are plain
functions here: no command needs them. Only ``perms``, ``cyclegraphs``,
the ``ExactDistribution`` type (whose pmf is read off its class
probabilities here), the ``partitions`` generator and, in
``graph_pass``, the per-graph ``verify_bounds`` are used, so nothing
here leans on the reductions it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from permprod import cyclegraphs
from permprod.cyclegraphs import DirectedGraph, _partial_bijection, profile, traversal
from permprod.oracle import ExactDistribution, partitions, verify_bounds
from permprod.perms import Permutation, all_permutations


# Permutation algebra on {1..n}, in one-line notation. ``compose(a, b)``
# applies b first: compose(a, b) has images a(b(x)).


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """The permutation with these cycles; points on no cycle are fixed."""
    images = list(range(1, n + 1))
    for cycle in cycles:
        for pos, x in enumerate(cycle):
            images[x - 1] = cycle[(pos + 1) % len(cycle)]
    return Permutation(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    return Permutation(tuple(a.images[x - 1] for x in b.images))


def inverse(a: Permutation) -> Permutation:
    out = [0] * a.n
    for pos, img in enumerate(a.images, start=1):
        out[img - 1] = pos
    return Permutation(tuple(out))


def conjugate(a: Permutation, t: Permutation) -> Permutation:
    """t^-1 o a o t."""
    return compose(inverse(t), compose(a, t))


def cycle_of(a: Permutation, m: int) -> tuple[int, ...]:
    """(m, a(m), a(a(m)), ...) up to the return to m."""
    out = [m]
    while a.images[out[-1] - 1] != m:
        out.append(a.images[out[-1] - 1])
    return tuple(out)


def cycle_type(a: Permutation) -> tuple[int, ...]:
    """Cycle lengths with multiplicity, largest first."""
    return _type_of_images(a.images)


def line(a: Permutation) -> str:
    """One-line notation, e.g. "2 3 1"."""
    return " ".join(map(str, a.images))


def trace_power(lengths: Sequence[int], k: int) -> int:
    """Fixed points of a^k for a of cycle type ``lengths``: the divisor sum."""
    return sum(d for d in lengths if k % d == 0)


def digraph(n: int, edges: Iterable[tuple[int, int]]) -> DirectedGraph:
    """The graph on {1..n} with ``edges``, each end cast to int."""
    return DirectedGraph(n, frozenset((int(a), int(b)) for a, b in edges))


def membership(sigma: Permutation, g: DirectedGraph) -> bool:
    """Whether sigma satisfies every edge constraint sigma(a) = b of ``g``."""
    return all(sigma.images[a - 1] == b for a, b in g.edges)


def relabeled(g: DirectedGraph, t: Permutation) -> DirectedGraph:
    """``g`` with every vertex x renamed t(x)."""
    return DirectedGraph(g.n, frozenset((t.images[a - 1], t.images[b - 1]) for a, b in g.edges))


def graphs_from_record(
    record: cyclegraphs.TraversalRecord, n: int
) -> tuple[DirectedGraph, DirectedGraph]:
    """The sigma-side graph of one traversal, edges (i_{l+1}, j_l) and the
    wrap edge (i_1, j_k), and its rho-side graph, edges (i_l, j_l)."""
    i_seq, j_seq = record.i_seq, record.j_seq
    first = zip(i_seq[1:] + i_seq[:1], j_seq)
    return DirectedGraph(n, frozenset(first)), DirectedGraph(n, frozenset(zip(i_seq, j_seq)))


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # (images, cycle type) for every permutation of {1..n}.
    return tuple((perm.images, cycle_type(perm)) for perm in all_permutations(n))


def class_probs(d: ExactDistribution) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The law's class probabilities as sorted (type, probability) pairs,
    the zero-mass types left out: each integer mass over the denominator."""
    return tuple((ptype, Fraction(mass, d.denominator)) for ptype, mass in d.masses)


def type_weights(d: ExactDistribution) -> dict[tuple[int, ...], Fraction]:
    """Probability of one permutation of each cycle type: its class
    probability over the class size, counted in the enumeration."""
    sizes: dict[tuple[int, ...], int] = {}
    for _, ptype in _perm_table(d.n):
        sizes[ptype] = sizes.get(ptype, 0) + 1
    return {ptype: prob / sizes[ptype] for ptype, prob in class_probs(d)}


def graph_prob(d: ExactDistribution, g: DirectedGraph) -> Fraction:
    """P(sigma contains every edge of g) under ``d``, summed over S_n."""
    w = type_weights(d)
    return sum(
        (
            w.get(ptype, 0)
            for images, ptype in _perm_table(g.n)
            if all(images[a - 1] == b for a, b in g.edges)
        ),
        Fraction(0),
    )


def representative(partition: Sequence[int]) -> Permutation:
    """One permutation of the given cycle type, cycles on consecutive blocks."""
    cycles = []
    start = 1
    for length in partition:
        cycles.append(list(range(start, start + length)))
        start += length
    return from_cycles(sum(partition), cycles)


def rising_factorial(theta: Fraction, n: int) -> Fraction:
    """theta (theta + 1) ... (theta + n - 1)."""
    out = Fraction(1)
    for i in range(n):
        out *= theta + i
    return out


def ewens_weight(sigma: Permutation, theta) -> Fraction:
    """Probability of one permutation under the theta-biased cycle measure,
    theta^(number of cycles) over the rising factorial theta(theta+1)...(theta+n-1)."""
    theta = Fraction(theta)
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if theta == 0:
        raise ValueError(
            "theta = 0 is degenerate; use ExactDistribution.ewens(n, 0), "
            "which is the uniform single-cycle law"
        )
    return theta ** len(cycle_type(sigma)) / rising_factorial(theta, sigma.n)


def _type_of_images(images: Sequence[int]) -> tuple[int, ...]:
    n = len(images)
    seen = bytearray(n)
    lengths = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        x = start
        while not seen[x - 1]:
            seen[x - 1] = 1
            length += 1
            x = images[x - 1]
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


@lru_cache(maxsize=None)
def product_type_distribution(
    d1: ExactDistribution, d2: ExactDistribution
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Exact cycle-type law of the product ``sigma o rho``, by enumeration.

    For each cycle type of the first factor, one class representative
    stands in for the whole class, because the second factor's law is
    conjugation invariant; the second factor runs over all of S_n. As
    sorted (type, probability) pairs with zero-mass types left out, the
    form :func:`class_probs` reads the oracle's law in.
    """
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    table = _perm_table(d1.n)
    w2 = type_weights(d2)
    out: dict[tuple[int, ...], Fraction] = {}
    for lam, prob1 in class_probs(d1):
        if prob1 == 0:
            continue
        base_images = representative(lam).images
        counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for rho_images, rho_type in table:
            if w2.get(rho_type, 0) == 0:
                continue
            prod = tuple(base_images[x - 1] for x in rho_images)
            key = (rho_type, _type_of_images(prod))
            counts[key] = counts.get(key, 0) + 1
        for (rho_type, mu), cnt in counts.items():
            out[mu] = out.get(mu, Fraction(0)) + prob1 * w2[rho_type] * cnt
    return tuple(sorted(out.items()))


def expect_cycle_product(d: ExactDistribution, v_vec: Sequence[int]) -> Fraction:
    """E of the product over v_vec of the number of v-cycles, single law."""
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    return sum(
        (prob * math.prod(p.count(v) for v in v_vec) for p, prob in class_probs(d)),
        Fraction(0),
    )


def permutation_weights(d: ExactDistribution) -> dict[Permutation, Fraction]:
    """The full pmf as a dictionary, for unreduced double enumerations."""
    weights = type_weights(d)
    out: dict[Permutation, Fraction] = {}
    for images, ptype in _perm_table(d.n):
        w = weights.get(ptype, 0)
        if w:
            out[Permutation(images)] = w
    return out


def pair_expectation_direct(
    w1: Mapping[Permutation, Fraction],
    w2: Mapping[Permutation, Fraction],
    fn: Callable[[Permutation, Permutation], object],
) -> Fraction:
    """Unreduced expectation over independent factors with explicit pmfs.

    The pmfs need not be conjugation invariant here.
    """
    total = Fraction(0)
    for sigma, p1 in w1.items():
        if p1 == 0:
            continue
        for rho, p2 in w2.items():
            if p2 == 0:
                continue
            total += p1 * p2 * _as_fraction_or_int(fn(sigma, rho))
    return total


def _as_fraction_or_int(value) -> Fraction:
    if isinstance(value, bool):
        return Fraction(1 if value else 0)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"expected an exact value, got {value!r}")


def conjugation_average(
    weights: Mapping[Permutation, Fraction]
) -> dict[Permutation, Fraction]:
    """The law of t^-1 sigma t with t uniform and independent of sigma.

    Fixed point of this map is exactly conjugation invariance; applying
    it to an arbitrary pmf produces the invariant version.
    """
    n = next(iter(weights)).n
    perms = [Permutation(images) for images, _ in _perm_table(n)]
    out: dict[Permutation, Fraction] = {}
    for sigma, w in weights.items():
        if w == 0:
            continue
        share = w / len(perms)
        for t in perms:
            moved = conjugate(sigma, t)
            out[moved] = out.get(moved, Fraction(0)) + share
    return out


def graphs_from_traversal(
    sigma: Permutation, rho: Permutation, m: int
) -> tuple[DirectedGraph, DirectedGraph]:
    """Both graphs of the traversal of (sigma, rho) from m. Looked up on
    their modules at each call, so that a fault patched into
    ``cyclegraphs.traversal`` or ``brute.graphs_from_record`` reaches it."""
    return graphs_from_record(cyclegraphs.traversal(sigma, rho, m), sigma.n)


def edge_mask(edges, n: int) -> int:
    """The edges (a, b) as bits (a - 1) * n + (b - 1), the edge masks of
    ``sweeps``."""
    mask = 0
    for a, b in edges:
        mask |= 1 << ((a - 1) * n + b - 1)
    return mask


def edge_bits(n: int) -> list[list[int]]:
    """``bits[a][b]`` is bit (a - 1) * n + (b - 1), that of edge (a, b)
    in ``edge_mask``, for a, b in 1..n; row and column 0 are unused
    padding."""
    return [[0] * (n + 1)] + [
        [0] + [1 << ((a - 1) * n + b - 1) for b in range(1, n + 1)]
        for a in range(1, n + 1)
    ]


def record_masks(
    record: cyclegraphs.TraversalRecord, bits: list[list[int]], names: Mapping[int, int]
) -> tuple[int, int, int, int]:
    """The (sigma-side, rho-side) edge masks of one traversal, read off
    its record, then the same two masks with every vertex v renamed
    ``names[v]``: the sigma side has the edges (i_{l+1}, j_l) and the
    wrap edge (i_1, j_k), the rho side the edges (i_l, j_l)."""
    sigma_side = rho_side = named_sigma = named_rho = 0
    j_prev = record.j_seq[-1]
    named_prev = names[j_prev]
    for i, j in zip(record.i_seq, record.j_seq):
        row = bits[i]
        named_row = bits[names[i]]
        named_j = names[j]
        sigma_side |= row[j_prev]
        rho_side |= row[j]
        named_sigma |= named_row[named_prev]
        named_rho |= named_row[named_j]
        j_prev, named_prev = j, named_j
    return sigma_side, rho_side, named_sigma, named_rho


def union_graphs(
    sigma: Permutation, rho: Permutation, index_set: Sequence[int]
) -> tuple[DirectedGraph, DirectedGraph]:
    """Union of the per-index graphs over ``index_set``, sigma side and rho side."""
    indices = list(index_set)
    if not indices:
        raise ValueError("index_set must not be empty")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate indices in {indices!r}")
    first: set[tuple[int, int]] = set()
    second: set[tuple[int, int]] = set()
    for m in indices:
        g1, g2 = graphs_from_traversal(sigma, rho, m)
        first |= g1.edges
        second |= g2.edges
    return DirectedGraph(sigma.n, frozenset(first)), DirectedGraph(sigma.n, frozenset(second))


def union_graph_list(n: int) -> list[DirectedGraph]:
    """Both sides of ``union_graphs(sigma, rho, S)`` for every ordered pair
    and every non-empty start set S, each graph once, sorted by its sorted
    edge list. Every start set of every pair is walked; practical for
    n <= 4."""
    seen: set[frozenset] = set()
    starts = range(1, n + 1)
    for sigma in all_permutations(n):
        for rho in all_permutations(n):
            for size in range(1, n + 1):
                for index_set in itertools.combinations(starts, size):
                    u1, u2 = union_graphs(sigma, rho, index_set)
                    seen.add(u1.edges)
                    seen.add(u2.edges)
    return [DirectedGraph(n, edges) for edges in sorted(seen, key=sorted)]


class _Tally:
    # Cases, violations and the descriptions of the first ``cap``
    # violations (of all of them when cap is None).
    def __init__(self, suite: str, cap: int | None = 5) -> None:
        self.suite, self.cases, self.violations, self.examples = suite, 0, 0, []
        self.cap = cap

    def record(self, ok: bool, describe: str, weight: int = 1) -> None:
        self.cases += weight
        if not ok:
            self.violations += weight
            if self.cap is None or len(self.examples) < self.cap:
                self.examples.append(describe)

    def row(self) -> tuple[str, int, int, list[str]]:
        return self.suite, self.cases, self.violations, self.examples


def power_fixed_points(a: Permutation, max_power: int) -> list[int]:
    """Fixed points of ``a^1, ..., a^max_power`` by direct iteration, one
    permutation at a time: the reference for the trace sweep's row blocks.

    Entry ``k - 1`` of the result counts the fixed points of ``a^k``. One
    walk of ``max_power`` steps leaves each start, and power k gains one
    whenever the walk is back at its start after k steps. No cycle logic
    is used: the walk does not stop at the first return or read a cycle
    length, so this stays independent of ``trace_power`` and the two can
    be checked against each other.
    """
    if max_power < 1:
        raise ValueError("power_fixed_points needs max_power >= 1")
    step = (0, *a.images)
    fixed = [0] * (max_power + 1)
    powers = range(1, max_power + 1)
    for start in range(1, a.n + 1):
        x = start
        for k in powers:
            x = step[x]
            if x == start:
                fixed[k] += 1
    return fixed[1:]


def start_is_fixed(a: Permutation, power: Permutation, start: int) -> bool:
    """Whether ``power``, a power of ``a``, fixes ``start``. A seam for
    faults that read ``a`` as well."""
    return power.images[start - 1] == start


def trace_pass(n: int, max_power: int):
    """The trace-power identity on every permutation, each power built
    by repeated ``compose`` and its fixed points counted one start at a
    time, with the formula evaluated afresh for every (perm, k). Returns
    (suite, cases, violations, examples) as ``sweep_trace_identity``
    tallies them."""
    tally = _Tally("trace-power-identity")
    starts = range(1, n + 1)
    for a in all_permutations(n):
        power = identity(n)
        for k in range(1, max_power + 1):
            power = compose(a, power)
            fixed = sum(start_is_fixed(a, power, m) for m in starts)
            tally.record(trace_power(cycle_type(a), k) == fixed, f"perm={line(a)} k={k}")
    return tally.row()


_PAIR_SUITES = (
    "traversal-encoding",
    "shared-cycle-graphs",
    "reversal-exchange",
    "two-vertex-components",
)


def shared_cycle_graphs_match(
    r1: cyclegraphs.TraversalRecord,
    graphs1: tuple[DirectedGraph, DirectedGraph],
    r2: cyclegraphs.TraversalRecord,
    graphs2: tuple[DirectedGraph, DirectedGraph],
) -> bool:
    """Start indices on the same traversal cycle must induce identical graphs.

    ``r1`` and ``r2`` are traversals of one pair from two start indices,
    each walked on its own, and ``graphs1``, ``graphs2`` their graph
    couples. Vacuously true when the start of r1 is not on the cycle of r2.
    """
    if r1.m not in r2.i_seq:
        return True
    (a1, a2), (b1, b2) = graphs1, graphs2
    return a1.edges == b1.edges and a2.edges == b2.edges


def reversal_identities_hold(
    r: cyclegraphs.TraversalRecord,
    g1: DirectedGraph,
    s: cyclegraphs.TraversalRecord,
    h2: DirectedGraph,
) -> bool:
    """The five exchange identities tying the traversal of (sigma, rho) to
    the traversal of (rho, sigma) and to the inverted pair.

    With r = traversal(sigma, rho, m), g1 its sigma-side graph, s =
    traversal(rho, sigma, m) and h2 the rho-side graph of
    traversal(inverse(rho), inverse(sigma), rho(m)): equal lengths; s.j
    reverses r.j; s.i reverses r.i off the anchor; both anchors are m;
    and g1 is the edge-reversal of h2.
    """
    m, k = r.m, r.k
    if s.k != k:
        return False
    for l in range(1, k + 1):
        if s.j_seq[l - 1] != r.j_seq[k - l]:
            return False
    for l in range(2, k + 1):
        if s.i_seq[l - 1] != r.i_seq[k - l + 1]:
            return False
    if r.i_seq[0] != m or s.i_seq[0] != m:
        return False
    return {(b, a) for a, b in g1.edges} == h2.edges


def pair_verdicts(sigma: Permutation, rho: Permutation):
    """The verdicts of the four reduced pair suites on one ordered pair,
    in suite order, and the graph couples of the starts 1..n.

    Traversal-encoding, reversal-exchange and two-vertex-components give
    one verdict per start, shared-cycle-graphs one per start pair a < b
    in ``itertools.combinations`` order. Every (sigma, rho, m) walks its
    own swapped and inverted traversals, and the cycle of sigma^-1 rho
    through m is walked point by point.
    """
    n = sigma.n
    sinv, rinv = inverse(sigma), inverse(rho)
    walk = compose(sinv, rho)
    records = [traversal(sigma, rho, m) for m in range(1, n + 1)]
    graphs = [graphs_from_traversal(sigma, rho, m) for m in range(1, n + 1)]
    encoding, reversal, small = [], [], []
    for r, (g1, g2) in zip(records, graphs):
        m = r.m
        cycle = cycle_of(walk, m)
        encoding.append(
            r.i_seq == cycle
            and r.j_seq == tuple(rho.images[x - 1] for x in cycle)
            and len(g1.edges) == len(g2.edges) == len(cycle)
            and membership(sigma, g1)
            and membership(rho, g2)
        )
        back = traversal(rho, sigma, m)
        h2 = graphs_from_traversal(rinv, sinv, rho.images[m - 1])[1]
        reversal.append(reversal_identities_hold(r, g1, back, h2))
        small.append(no_two_cycles_when_components_small(g1, g2))
    shared = [
        shared_cycle_graphs_match(records[a], graphs[a], records[b], graphs[b])
        for a, b in itertools.combinations(range(n), 2)
    ]
    return (encoding, shared, reversal, small), graphs


def _check_pair(sigma: Permutation, rho: Permutation, tallies, weight: int = 1):
    """Record one ordered pair's ``pair_verdicts`` in the four reduced
    pair suites' tallies, in suite order, each case counted ``weight``
    times. Returns the graph couples of the starts 1..n."""
    verdicts, graphs = pair_verdicts(sigma, rho)
    pair = f"sigma={line(sigma)} rho={line(rho)}"
    per_start = [f"m={m}" for m in range(1, sigma.n + 1)]
    start_pairs = [f"m1={a + 1} m2={b + 1}" for a, b in itertools.combinations(range(sigma.n), 2)]
    columns = (per_start, start_pairs, per_start, per_start)
    for tally, oks, names in zip(tallies, verdicts, columns):
        for ok, name in zip(oks, names):
            tally.record(ok, f"{pair} {name}", weight)
    return graphs


def pair_pass(n: int, start_counts: Sequence[int] = (1, 2, 3)):
    """The five pair suites of ``sweeps.sweep_pairs`` over every ordered
    pair, without taking one pair per orbit of conjugation.

    Ordered pairs come one at a time in lexicographic order, each checked
    by ``_check_pair``. Event factorization keeps each fiber's member
    pairs and compares them with the pairs satisfying the union couple,
    listed from S_n x S_n. Returns (suite, cases, violations, examples)
    per suite in sweep order. Practical for n <= 4.
    """
    perms = list(all_permutations(n))
    tallies = [_Tally(suite) for suite in _PAIR_SUITES]
    fibers: dict[int, dict[tuple, list]] = {k: {} for k in start_counts}
    for sigma in perms:
        for rho in perms:
            graphs = _check_pair(sigma, rho, tallies)
            for k, groups in fibers.items():
                key = tuple((g1.edges, g2.edges) for g1, g2 in graphs[:k])
                groups.setdefault(key, []).append((sigma, rho))

    satisfying: dict[frozenset, list[Permutation]] = {}

    def satisfied_by(edges: frozenset) -> list[Permutation]:
        if edges not in satisfying:
            satisfying[edges] = [p for p in perms if membership(p, DirectedGraph(n, edges))]
        return satisfying[edges]

    factorization = _Tally("event-factorization")
    for k, groups in fibers.items():
        union_of = {
            key: (frozenset().union(*(e1 for e1, _ in key)), frozenset().union(*(e2 for _, e2 in key)))
            for key in groups
        }
        tuples_of_union: dict[tuple, int] = {}
        for union in union_of.values():
            tuples_of_union[union] = tuples_of_union.get(union, 0) + 1
        for key, members in groups.items():
            u1, u2 = union_of[key]
            rectangle = {(s, r) for s in satisfied_by(u1) for r in satisfied_by(u2)}
            factorization.record(
                tuples_of_union[u1, u2] == 1
                and set(members) == rectangle
                and len(rectangle)
                == math.factorial(n - len(u1)) * math.factorial(n - len(u2)),
                f"k={k} sides {sorted(u1)} / {sorted(u2)}",
            )
    return [t.row() for t in (*tallies, factorization)]


def class_pair_pass(n: int):
    """The four reduced pair suites of ``sweeps.sweep_pairs`` with sigma
    taken once per cycle type, the first of its class in lexicographic
    order, against every rho, each pair checked by ``_check_pair`` and
    weighted by the class size.

    Every rho is walked, so the weighted tallies stay exact under a fault
    that reads rho's labels but not sigma's, which the reduction by
    sigma's centraliser does not. Returns (suite, cases, violations,
    examples) per suite in sweep order. Practical for n <= 6.
    """
    perms = list(all_permutations(n))
    classes: dict[tuple[int, ...], list] = {}
    for perm in perms:
        classes.setdefault(cycle_type(perm), [perm, 0])[1] += 1
    tallies = [_Tally(suite) for suite in _PAIR_SUITES]
    for sigma, size in classes.values():
        for rho in perms:
            _check_pair(sigma, rho, tallies, size)
    return [t.row() for t in tallies]


def event_factorization_pass(
    n: int, start_counts: Sequence[int] = (1, 2, 3), example_cap: int | None = 5
):
    """Event factorization over every ordered pair, with fibers keyed by
    the labelled graph tuples over the starts 1..k.

    Each pair walks the starts 1..max(k) through
    ``graphs_from_traversal``. A fiber is kept as its pair count, with
    one set per k of the tuples holding a pair that fails its own union,
    and passes when its count is the size of its union's rectangle and
    none of its pairs fails. Returns (suite, cases, violations, examples)
    as ``sweeps.sweep_event_factorization`` tallies it, with the first
    ``example_cap`` violations as examples (all of them when None), in
    the order the pairs first meet their tuples. Practical for n <= 5.
    """
    ks = list(start_counts)
    starts = range(1, max(ks) + 1)
    perms = list(all_permutations(n))
    perm_edges = [frozenset(enumerate(p.images, start=1)) for p in perms]
    counts: list[dict[tuple, int]] = [{} for _ in ks]
    unsatisfied: list[set[tuple]] = [set() for _ in ks]
    for sigma in perms:
        for rho in perms:
            couples = [graphs_from_traversal(sigma, rho, m) for m in starts]
            first_failing = next(
                (
                    s
                    for s, (g1, g2) in enumerate(couples)
                    if not (membership(sigma, g1) and membership(rho, g2))
                ),
                len(couples),
            )
            for k, fibers, failing in zip(ks, counts, unsatisfied):
                key = tuple((g1.edges, g2.edges) for g1, g2 in couples[:k])
                fibers[key] = fibers.get(key, 0) + 1
                if k > first_failing:
                    failing.add(key)

    def satisfying(edges: frozenset) -> int:
        return sum(1 for pe in perm_edges if edges <= pe)

    tally = _Tally("event-factorization", example_cap)
    for k, fibers, failing in zip(ks, counts, unsatisfied):
        for key, size in fibers.items():
            u1 = frozenset().union(*(e1 for e1, _ in key))
            u2 = frozenset().union(*(e2 for _, e2 in key))
            expected = satisfying(u1) * satisfying(u2)
            tally.record(
                size == expected
                and expected == math.factorial(n - len(u1)) * math.factorial(n - len(u2))
                and key not in failing,
                f"k={k} sides {sorted(u1)} / {sorted(u2)}",
            )
    return tally.row()


def partial_injections(n: int) -> list[frozenset]:
    """Every partial injection of {1..n}, the empty one included, as the
    restrictions of every permutation to every subset of {1..n}, sorted
    by sorted edge list."""
    seen: set[frozenset] = set()
    for perm in all_permutations(n):
        for size in range(n + 1):
            for domain in itertools.combinations(range(1, n + 1), size):
                seen.add(frozenset((a, perm.images[a - 1]) for a in domain))
    return sorted(seen, key=sorted)


def shape(g: DirectedGraph) -> tuple[tuple[int, int], ...]:
    """Sorted (vertex count, edge count) of the components of a partial
    injection: a complete invariant of its relabeling orbit."""
    return tuple(sorted((len(verts), len(edges)) for verts, edges in profile(g)))


@lru_cache(maxsize=None)
def _cycle_subset_shapes(length: int) -> dict[tuple[tuple[int, int], ...], int]:
    # How many edge subsets of one l-cycle have each shape.
    cycle = [(i, i % length + 1) for i in range(1, length + 1)]
    out: dict[tuple[tuple[int, int], ...], int] = {}
    for size in range(length + 1):
        for edges in itertools.combinations(cycle, size):
            kinds = shape(digraph(length, edges))
            out[kinds] = out.get(kinds, 0) + 1
    return out


def shape_counts(partition: Sequence[int]) -> dict[tuple[tuple[int, int], ...], int]:
    """The number of partial injections of each shape inside one
    permutation of cycle type ``partition``, built from the empty table
    one cycle at a time: each cycle's edges are chosen independently."""
    counts: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for length in partition:
        grown: dict[tuple[tuple[int, int], ...], int] = {}
        for kinds, count in counts.items():
            for more, ways in _cycle_subset_shapes(length).items():
                key = tuple(sorted(kinds + more))
                grown[key] = grown.get(key, 0) + count * ways
        counts = grown
    return counts


def cycle_shapes(length: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """(shape, count) over the edge subsets of one l-cycle by the run
    formula. All l edges give the cycle itself. Otherwise k >= 1 runs of
    r_1..r_k edges, R in all, are placed by the first edge of a first
    run (l ways), the k! / prod m! orders of the runs (m runs of each
    length) and the k gaps of at least one edge summing to l - R
    (C(l - R - 1, k - 1) ways); each subset is met k times, once per run
    taken as first."""
    out = [(((length, length),), 1), ((), 1)]
    for edges in range(1, length):
        for runs in partitions(edges):
            k = len(runs)
            repeats = math.prod(math.factorial(runs.count(r)) for r in set(runs))
            count = length * math.factorial(k - 1) * math.comb(length - edges - 1, k - 1)
            if count:
                out.append((tuple(sorted((r + 1, r) for r in runs)), count // repeats))
    return tuple(out)


@lru_cache(maxsize=None)
def shape_table(partition: tuple[int, ...]) -> dict[tuple[tuple[int, int], ...], int]:
    """N_lambda(S) for every shape S inside one permutation of cycle type
    ``partition``. Each cycle's edges are chosen independently of the
    others', so the table extends the cached one of ``partition[:-1]``
    by the last cycle's ``cycle_shapes``."""
    if not partition:
        return {(): 1}
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    for kinds, count in shape_table(partition[:-1]).items():
        for more, ways in cycle_shapes(partition[-1]):
            key = tuple(sorted(kinds + more)) if more else kinds
            counts[key] = counts.get(key, 0) + count * ways
    return counts


def table_shape_prob(d: ExactDistribution, kinds: Sequence[tuple[int, int]]) -> Fraction:
    """P(sigma contains E) for E of shape ``kinds`` under ``d``, read off
    the table of every shape of each of the law's cycle types: the sum
    of N_lambda(S) / |orbit(S)| weighted by the class probabilities."""
    kinds = tuple(sorted(kinds))
    orbit = cyclegraphs.shape_orbit_size(kinds, d.n)
    return sum(
        (prob * Fraction(shape_table(mu).get(kinds, 0), orbit) for mu, prob in class_probs(d)),
        Fraction(0),
    )


def shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every shape of a partial injection of {1..n}, the empty one first:
    each multiset of l-cycles (l, l) and paths with l edges (l + 1, l)
    with n vertices or fewer in all, as a sorted tuple."""
    kinds = sorted([(v, v) for v in range(1, n + 1)] + [(v, v - 1) for v in range(2, n + 1)])
    out = []

    def extend(shape: tuple, first: int, free: int) -> None:
        out.append(shape)
        for index in range(first, len(kinds)):
            if kinds[index][0] <= free:
                extend(shape + (kinds[index],), index, free - kinds[index][0])

    extend((), 0, n)
    return out


def graph_orbits(n: int) -> list[tuple]:
    """(representative, orbit size, shape) for each relabeling orbit of
    the partial injections of {1..n}, found by listing every one of them
    and grouping by ``shape``: the first in sorted edge order stands for
    its orbit. The empty graph comes first."""
    groups: dict[tuple, list] = {}
    for edges in partial_injections(n):
        g = DirectedGraph(n, edges)
        groups.setdefault(shape(g), [g, 0])[1] += 1
    return [(g, size, kinds) for kinds, (g, size) in groups.items()]


_BOUND_FAMILY = {
    "membership-upper-weighted": "membership-upper-bounds",
    "membership-upper-plain": "membership-upper-bounds",
    "two-cycle-upper": "two-cycle-upper-bounds",
    "matching-sandwich-lower": "matching-sandwich-bounds",
    "matching-sandwich-upper": "matching-sandwich-bounds",
}


def _joint_membership_consistent(
    e1: Iterable[tuple[int, int]], e2: Iterable[tuple[int, int]]
) -> bool:
    # Whether some permutation satisfies every constraint of both edge sets.
    return _partial_bijection(list(e1) + list(e2)) is not None


@lru_cache(maxsize=1024)
def _fixed_points(images: tuple[int, ...]) -> frozenset[int]:
    # A pass tries every relabeling on thousands of graphs.
    return frozenset(x for x, y in enumerate(images, start=1) if x == y)


def relabel_dichotomy_holds(
    g1: DirectedGraph, components: Iterable[frozenset[int]], tau: Permutation
) -> bool:
    """Relabeling by a map with a fixed point in every non-trivial component
    either moves the graph to one with incompatible constraints or fixes
    it entirely. Returns True when that dichotomy holds for (g1, tau);
    vacuously true when the fixed-point premise fails.

    ``components`` holds the vertex sets of the non-trivial components of
    g1, as listed by ``profile(g1)``, so a caller trying many relabelings
    computes them once.
    """
    if g1.n != tau.n:
        raise ValueError(f"size mismatch: {g1.n} vs {tau.n}")
    fixed = _fixed_points(tau.images)
    for verts in components:
        if not verts & fixed:
            return True
    g2 = relabeled(g1, tau)
    if g1.edges == g2.edges:
        return True
    return not _joint_membership_consistent(g1.edges, g2.edges)


def graph_pass(n: int, thetas: Sequence = ("1/2", "1", "2")):
    """Relabel-dichotomy and the membership-bound families of
    ``sweeps.run_all`` on every partial injection, none standing for
    another.

    Relabel-dichotomy tries every relabeling on every partial injection;
    the bounds run on every non-empty one under the theta-biased law for
    each theta, or the uniform law for None. Returns (suite, cases,
    violations, examples) for relabel-dichotomy, then for each bound
    family by name. Practical for n <= 5.
    """
    perms = list(all_permutations(n))
    graphs = [DirectedGraph(n, edges) for edges in partial_injections(n)]
    relabel = _Tally("relabel-dichotomy")
    for g in graphs:
        components = [verts for verts, _ in profile(g)]
        for tau in perms:
            relabel.record(
                relabel_dichotomy_holds(g, components, tau),
                f"edges={sorted(g.edges)} tau={line(tau)}",
            )
    laws = [
        ExactDistribution.uniform(n) if theta is None else ExactDistribution.ewens(n, theta)
        for theta in thetas
    ]
    families = {family: _Tally(family) for family in sorted(set(_BOUND_FAMILY.values()))}
    for g in [g for g in graphs if g.edges]:
        for law in laws:
            for check in verify_bounds(law, g):
                families[_BOUND_FAMILY[check.check_id]].record(
                    check.holds,
                    f"{check.check_id} law={law.kind} edges={sorted(g.edges)} "
                    f"lhs={check.lhs} rhs={check.rhs}",
                )
    return [relabel.row()] + [t.row() for t in families.values()]


def no_two_cycles_when_components_small(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    """The two-vertex-components implication read through full component
    profiles: when every non-trivial component of both graphs has two
    vertices, neither graph has a 2-cycle."""
    for g in (g1, g2):
        for verts, _ in profile(g):
            if len(verts) != 2:
                return True
    return not any(a != b and (b, a) in g.edges for g in (g1, g2) for a, b in g.edges)


def shape_tuple_pmf(
    d1: ExactDistribution, d2: ExactDistribution, v_vec: Sequence[int]
) -> dict[tuple, Fraction]:
    """Exact law of the tuple of per-index graph shapes over starts 1..k,
    sigma side then rho side for each start, restricted to pairs whose
    traversal cycle lengths match v_vec.

    Full unreduced enumeration; practical for n <= 5.
    """
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    k = len(v_vec)
    w1 = permutation_weights(d1)
    w2 = permutation_weights(d2)
    out: dict[tuple, Fraction] = {}
    for sigma, p1 in w1.items():
        for rho, p2 in w2.items():
            entry: list = []
            ok = True
            for m in range(1, k + 1):
                g1, g2 = graphs_from_traversal(sigma, rho, m)
                if len(g2.edges) != v_vec[m - 1]:
                    ok = False
                    break
                entry.append(shape(g1))
                entry.append(shape(g2))
            if ok:
                key = tuple(entry)
                out[key] = out.get(key, Fraction(0)) + p1 * p2
    return out


def union_pair_pmf(
    d1: ExactDistribution, d2: ExactDistribution, v_vec: Sequence[int]
) -> dict[tuple, Fraction]:
    """Exact law of the pair of union-graph shapes over starts 1..k,
    restricted to pairs whose traversal cycle lengths match v_vec.

    Full unreduced enumeration; practical for n <= 5.
    """
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    starts = tuple(range(1, len(v_vec) + 1))
    w1 = permutation_weights(d1)
    w2 = permutation_weights(d2)
    out: dict[tuple, Fraction] = {}
    for sigma, p1 in w1.items():
        sinv = inverse(sigma)
        for rho, p2 in w2.items():
            walk = compose(sinv, rho)
            if any(len(cycle_of(walk, m)) != v_vec[m - 1] for m in starts):
                continue
            u1, u2 = union_graphs(sigma, rho, starts)
            key = (shape(u1), shape(u2))
            out[key] = out.get(key, Fraction(0)) + p1 * p2
    return out


def canonical_form(g: DirectedGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``g`` with its isolated vertices deleted and the rest relabeled
    1..v, as (v, sorted edges) with the edge tuple lexicographically least
    over all v! relabelings: equal exactly for graphs that are relabelings
    of each other. Practical for v <= 8."""
    verts = sorted({x for edge in g.edges for x in edge})
    index = {x: pos for pos, x in enumerate(verts, start=1)}
    edges = [(index[a], index[b]) for a, b in g.edges]
    return len(verts), min(
        tuple(sorted((phi[a - 1], phi[b - 1]) for a, b in edges))
        for phi in itertools.permutations(range(1, len(verts) + 1))
    )


def _trace_realizes(
    v_vec: Sequence[int],
    e1: frozenset[tuple[int, int]],
    e2: frozenset[tuple[int, int]],
) -> bool:
    """Decide whether some pair (sigma, rho) produces exactly the union
    graphs (e1, e2) over start indices 1..k with prescribed cycle lengths.

    The union edges force partial values of sigma and rho, and those
    forced values determine every traversal step, so the decision is a
    replay: walk from each start index using only forced edges, demand
    that each walk closes at its start after exactly the prescribed
    number of steps, and at the end demand that every edge was consumed.
    """
    maps1 = _partial_bijection(e1)
    maps2 = _partial_bijection(e2)
    if maps1 is None or maps2 is None:
        return False
    _, s_inv = maps1
    r, _ = maps2
    used1: set[tuple[int, int]] = set()
    used2: set[tuple[int, int]] = set()
    cycle_len: dict[int, int] = {}
    for m, want in enumerate(v_vec, start=1):
        if m in cycle_len:
            if cycle_len[m] != want:
                return False
            continue
        walk = [m]
        i = m
        for step in range(1, want + 1):
            j = r.get(i)
            if j is None:
                return False
            used2.add((i, j))
            nxt = s_inv.get(j)
            if nxt is None:
                return False
            used1.add((nxt, j))
            if nxt == m:
                if step != want:
                    return False
                break
            if nxt in cycle_len or nxt in walk:
                return False
            walk.append(nxt)
            i = nxt
        else:
            return False
        for x in walk:
            cycle_len[x] = want
    return used1 == e1 and used2 == e2


def _labelled_copies(kinds: Sequence[tuple[int, int]], verts: Sequence[int]) -> set[frozenset]:
    # Every partial injection with the shape ``kinds`` and the vertex set
    # ``verts``: one graph of the shape on 1..v, its paths and cycles on
    # consecutive blocks, under every bijection onto ``verts``.
    edges, start = [], 1
    for size, edge_count in kinds:
        block = range(start, start + size)
        edges.extend(zip(block, block[1:]))
        if edge_count == size:
            edges.append((block[-1], start))
        start += size
    return {
        frozenset((phi[a - 1], phi[b - 1]) for a, b in edges)
        for phi in itertools.permutations(verts)
    }


def _ends(edges: frozenset) -> tuple[frozenset, frozenset]:
    return frozenset(a for a, _ in edges), frozenset(b for _, b in edges)


def enumerate_B(
    n: int,
    v_vec: Sequence[int],
    shape1: Sequence[tuple[int, int]],
    shape2: Sequence[tuple[int, int]],
    return_couples: bool = False,
):
    """Count the couples (g1, g2) on {1..n} of the shapes ``shape1`` and
    ``shape2`` that some pair produces as union graphs over the starts
    1..k with cycle lengths ``v_vec``, by listing them.

    Both graphs have one vertex set holding every start, so each such set
    is tried with every labelled copy of each shape on it, and each couple
    is decided by ``_trace_realizes``. Only couples whose two sides have
    the same sources and the same targets are replayed: every walked
    vertex i has an edge out on both sides, to rho(i) and to sigma(i), and
    every rho-image an edge in on both, so no other couple is realized.
    With ``return_couples`` it also returns the couples as graph pairs,
    sorted by edge lists. Practical for n <= 6.
    """
    k = len(v_vec)
    w = sum(verts for verts, _ in shape1)
    couples = []
    if w == sum(verts for verts, _ in shape2) and k <= w <= n:
        for rest in itertools.combinations(range(k + 1, n + 1), w - k):
            verts = (*range(1, k + 1), *rest)
            second: dict[tuple, list] = {}
            for e2 in _labelled_copies(shape2, verts):
                second.setdefault(_ends(e2), []).append(e2)
            for e1 in _labelled_copies(shape1, verts):
                couples += [
                    (e1, e2) for e2 in second.get(_ends(e1), ()) if _trace_realizes(v_vec, e1, e2)
                ]
    if return_couples:
        graphs = sorted(
            ((DirectedGraph(n, e1), DirectedGraph(n, e2)) for e1, e2 in couples),
            key=lambda pair: (sorted(pair[0].edges), sorted(pair[1].edges)),
        )
        return len(couples), graphs
    return len(couples)


def step_walks(
    sigma_inv: np.ndarray, rho: np.ndarray, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(walks, tails, heads) of a block of pairs from the starts 1..last,
    in the layout of ``sweeps._walk_pairs``, each pair walked step by
    step: every row and start takes n steps i_0 = m, j_l = rho(i_l),
    i_{l+1} = sigma^-1(j_l), and each walk is cut at its first return
    to m."""
    rows, n = rho.shape
    offset = np.arange(0, rows * n, n)[:, None]
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
    k = np.argmax(steps[:, :, 2] == np.arange(last)[:, None], axis=2) + 1
    np.copyto(steps, -1, where=(np.arange(n) >= k[..., None])[:, :, None])
    return steps[:, :, :2], steps[:, :, 2::-2], steps[:, :, [1, 1]]


def walk_names(walks: np.ndarray, fixed: int) -> np.ndarray:
    """The vertex names of ``sweeps._vertex_names`` read off the walks
    themselves: each vertex from ``fixed`` up is found by a search of the
    whole flattened walk of its row, start by start, the index walk
    before its companion sequence."""
    rows, last, _, n = walks.shape
    # Each vertex also appears once past the end of row r's walks.
    seq = np.concatenate([walks.reshape(rows, -1), np.broadcast_to(np.arange(n), (rows, n))], 1)
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


def key_rows(
    sigma: np.ndarray, sigma_inv: np.ndarray, rho: np.ndarray, last: int, fixed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``sweeps._key_rows`` of a block of pairs from the walks of
    ``step_walks`` and the names of ``walk_names``: each start's renamed
    sigma-side and rho-side masks, and each row's first start whose
    labelled couple sigma or rho misses an edge of, or last + 1. Edges
    and images are read with ``take_along_axis``, padding kept apart by
    a mask."""
    rows, n = rho.shape
    walks, tails, heads = step_walks(sigma_inv, rho, last)
    names = walk_names(walks, fixed)[:, :, None, :]
    real = tails >= 0
    bit = np.take_along_axis(names, np.where(real, tails, n), axis=3) * n
    bit += np.take_along_axis(names, np.where(real, heads, n), axis=3)
    edges = np.where(real, np.uint64(1) << bit.astype(np.uint64), np.uint64(0))
    masks = np.bitwise_or.reduce(edges, axis=3).view(np.int64)
    images = np.stack([sigma, rho], axis=1)[:, None]
    missed = (real & (np.take_along_axis(images, np.where(real, tails, 0), axis=3) != heads))
    missed = missed.any(axis=(2, 3))
    fail = np.where(missed.any(axis=1), missed.argmax(axis=1) + 1, last + 1)
    return masks.reshape(rows, -1), fail.astype(np.int8)


def product_rows(factor_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise left-to-right product, one whole-chunk gather per factor;
    the result has the dtype of the first factor."""
    prod = factor_rows[0]
    for rows in factor_rows[1:]:
        prod = np.take_along_axis(prod, rows, axis=1)
    return prod


def small_cycle_counts(rows: np.ndarray, kmax: int) -> np.ndarray:
    """Per-row d-cycle counts for d = 1..kmax from the fixed points of
    whole-chunk powers, inverted over divisors."""
    size, n = rows.shape
    idx = np.arange(n)
    fixed = np.empty((size, kmax), dtype=np.int64)
    power = rows
    for k in range(1, kmax + 1):
        if k > 1:
            power = np.take_along_axis(power, rows, axis=1)
        fixed[:, k - 1] = (power == idx).sum(axis=1)
    counts = np.empty((size, kmax), dtype=np.int64)
    for d in range(1, kmax + 1):
        counts[:, d - 1] = (
            fixed[:, d - 1] - sum(e * counts[:, e - 1] for e in range(1, d) if d % e == 0)
        ) // d
    return counts


def representative_rows(blocks) -> np.ndarray:
    """The (size, n) int32 rows that ``samplers.CycleBlocks`` stand for,
    all at once: each position maps to the next, and the last of each
    block back to its first."""
    size, n = blocks.shape
    if blocks.succ is not None:
        return np.tile(blocks.succ, (size, 1))
    rows = np.tile(np.arange(1, n + 1, dtype=np.int32), (size, 1))
    r, last, first = blocks.ends
    rows[r, last] = first
    return rows


def feller_ends(gen, size: int, n: int, theta: float):
    """(r, last, first) of every block of every row, sorted by r, as
    ``samplers._feller_ends`` draws them (the same uniforms in the same
    order), with every round kept in intp and gathered at the end: a
    concatenation of the rounds, and each block placed at its row's
    offset plus its round."""
    positions = np.arange(1, n)
    drop = np.zeros(n)
    np.cumsum(np.log(theta + positions) - np.log(positions), out=drop[1:])
    rows = np.arange(size)
    at = np.zeros(size, dtype=np.intp)
    parts = []
    while len(rows):
        nxt = np.searchsorted(drop, drop[at] - np.log(1 - gen.random(len(rows))), side="right")
        parts.append((rows, nxt - 1, at))
        more = nxt < n
        rows, at = rows[more], nxt[more]
    r, last, first = (np.concatenate(part) for part in zip(*parts))
    counts = np.bincount(r, minlength=size)
    rounds = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])
    place = (np.cumsum(counts) - counts)[r] + rounds
    ends = np.empty((3, len(r)), dtype=np.int32)
    for out, part in zip(ends, (r, last, first)):
        out[place] = part
    return tuple(ends)
