"""The reduced pair passes against full passes over S_n x S_n.

``sweeps.sweep_pairs`` checks one pair per orbit of simultaneous
conjugation, sigma once per cycle type and rho once per orbit of
conjugation by sigma's centraliser, and weights each tally by the orbit
size, which is exact because the four reduced suites read no label.
These tests check that the orbits are the orbits, that the reduction
changes no tally, against the full pass at n <= 4 and against
``brute.class_pair_pass`` (sigma per class, every rho) at n = 5, that a
fault depending only on a traversal's shape is counted alike, and that
a fault reading a label of sigma, or one of rho alone, is not: the last
two document the assumptions the two reductions rest on. The four
suites read their verdicts off numpy walks (``sweeps._pair_verdicts``),
and each verdict, start by start, must be that of ``brute.pair_verdicts``
on the pair's traversal records and graph objects, clean and under
faults, so that no two errors cancel in a total.
Event-factorization walks one sigma per orbit of conjugation by the
permutations fixing its starts 1..K, against every rho, and keys each
graph tuple canonically. Its tallies must equal those of
``brute.event_factorization_pass``, which walks every ordered pair and
keys the tuples by their labels, clean and under a label-free fault;
and, at n <= 4, where that stabiliser is trivial, those of
``brute.pair_pass``, which keeps every fiber's pairs and counts the
tuples of each union, under faults that read labels too. Its pairs are
walked in numpy blocks (``sweeps._walk_pairs``), as are the four
suites': the walks and masks of a block must be those of ``traversal``
and ``brute.graphs_from_record``, pair by pair, and faults reach every pair
suite by rewriting a block's edges (``_inject``), and the full passes
through the same couples. Every walk is read off one table of the
walks of S_n, built once per sweep call (``sweeps._start_walks``): the
key rows and failing starts of every block must be those of
``brute.key_rows``, which walks each pair step by step, and a corrupt
entry of the table must fail event-factorization's failing-start check
and traversal-encoding, neither of which reads the table back.
"""

import functools
import itertools
import math
import operator
from collections import Counter

import numpy as np
import pytest

import brute
from brute import conjugate, cycle_type, graphs_from_record, inverse
from permprod import cyclegraphs, sweeps
from permprod.cyclegraphs import DirectedGraph, TraversalRecord, traversal
from permprod.perms import Permutation, all_permutations


def _rows(summaries):
    return [(s.suite, s.cases, s.violations) for s in summaries]


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_pair_pass_matches_the_full_pass(n):
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    rows = brute.pair_pass(n, (1, 2, 3))
    assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows


def _fails_on_two_cycles(sigma, r, g1, g2):
    # Breaks the couple of every walk of length 2: it reads the walk's
    # shape alone, which conjugation keeps.
    return _drop_wrap_edge(sigma, r, g1, g2) if r.k == 2 else (g1, g2)


@pytest.mark.parametrize("n", [3, 4])
def test_a_fault_of_shape_only_is_counted_alike(monkeypatch, n):
    _inject(monkeypatch, _fails_on_two_cycles)
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    assert summaries[2].violations > 0
    assert _rows(summaries) == [row[:3] for row in brute.pair_pass(n, (1, 2, 3))]


def test_a_fault_reading_a_label_is_not(monkeypatch):
    # Breaking every couple of a sigma that fixes 1 is not invariant
    # under conjugation: the class representative stands for members that
    # do not fix 1, so the weighted count is not the true one.
    def fails_when_one_is_fixed(sigma, r, g1, g2):
        return _drop_wrap_edge(sigma, r, g1, g2) if sigma.images[0] == 1 else (g1, g2)

    _inject(monkeypatch, fails_when_one_is_fixed)
    n = 4
    reduced = sweeps.sweep_pairs(n, (1, 2, 3))[0]
    full = brute.pair_pass(n, (1, 2, 3))[0]
    assert reduced.cases == full[1]
    assert 0 < full[2] != reduced.violations


def test_a_fault_reading_a_label_of_rho_is_not(monkeypatch):
    # Breaking the sigma side of start 1 whenever rho fixes 1 reads rho's
    # label and not sigma's. Sigma per class against every rho still
    # counts it exactly, since every class member meets every rho alike;
    # rho per orbit of sigma's centraliser does not, since a
    # representative stands for conjugates that do not fix 1. The fault
    # also meets the inverted walks, but only on their sigma sides, which
    # reversal-exchange does not read.
    def fails_when_rho_fixes_one(sigma, r, g1, g2):
        rho_fixes_one = r.m == 1 and r.j_seq[0] == 1
        return _drop_wrap_edge(sigma, r, g1, g2) if rho_fixes_one else (g1, g2)

    _inject(monkeypatch, fails_when_rho_fixes_one)
    n = 4
    reduced = sweeps.sweep_pairs(n, (1, 2, 3))[2]
    full = brute.pair_pass(n, (1, 2, 3))[2]
    assert brute.class_pair_pass(n)[2][1:3] == full[1:3]
    assert full[2] == math.factorial(n) * math.factorial(n - 1)
    assert reduced.cases == full[1]
    assert 0 < full[2] != reduced.violations


@pytest.mark.parametrize("fault", [None, _fails_on_two_cycles])
def test_pair_suites_match_sigma_per_class_against_every_rho(monkeypatch, fault):
    # At n = 5, where the full pass is too slow, the reduction by sigma's
    # centraliser is checked against the sweep it replaced.
    if fault is not None:
        _inject(monkeypatch, fault)
    summaries = sweeps._reduced_pair_suites(5)
    rows = brute.class_pair_pass(5)
    if fault is None:
        assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows
        assert all(s.ok for s in summaries)
    else:
        assert summaries[2].violations > 0
        assert _rows(summaries) == [row[:3] for row in rows]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("group", ["all", "centraliser", "stabiliser"])
def test_conjugation_orbits_partition_the_group(n, group):
    # The whole group, given by its table rows, generates itself.
    perms = list(all_permutations(n))
    last = perms[-1]
    keep = {
        "all": lambda pi: True,
        "centraliser": lambda pi: conjugate(last, pi) == last,
        "stabiliser": lambda pi: pi.images[:2] == (1, 2)[:n],
    }[group]
    pis = [row for row, pi in enumerate(perms) if keep(pi)]
    reps, sizes = sweeps._conjugation_orbits(n, np.array(pis))
    members = [frozenset(conjugate(perms[rep], perms[pi]).images for pi in pis) for rep in reps]
    assert sizes.tolist() == [len(m) for m in members]
    assert sum(map(len, members)) == len(frozenset().union(*members)) == math.factorial(n)
    # Each representative is the first of its orbit in lexicographic order.
    assert [perms[rep].images for rep in reps] == sorted(min(m) for m in members)


@pytest.mark.parametrize("n, pairs", [(1, 1), (2, 4), (3, 11), (4, 43), (5, 161), (6, 901)])
def test_pair_orbits_are_the_orbits_of_simultaneous_conjugation(n, pairs):
    perms = list(all_permutations(n))
    orbits = list(zip(*(column.tolist() for column in sweeps._pair_orbits(n))))
    # Burnside: the pairs fixed by pi are its centraliser squared, so
    # there are sum over classes of n!/(class size) orbits.
    class_sizes = Counter(cycle_type(p) for p in perms).values()
    assert len(orbits) == pairs == sum(math.factorial(n) // size for size in class_sizes)
    assert sum(size for _, _, size in orbits) == math.factorial(n) ** 2
    if n > 4:
        return
    members = [
        frozenset((conjugate(perms[s], pi).images, conjugate(perms[r], pi).images) for pi in perms)
        for s, r, _ in orbits
    ]
    assert [size for _, _, size in orbits] == [len(m) for m in members]
    assert len(frozenset().union(*members)) == math.factorial(n) ** 2


def _conjugate_images(sigma, pi):
    # pi sigma pi^-1 on 1-based image tuples.
    out = [0] * len(sigma)
    for x, y in zip(pi, sigma):
        out[x - 1] = pi[y - 1]
    return tuple(out)


def _listed_orbits(perms, group):
    # (row, size) of each orbit of conjugation by the members of group,
    # each orbit listed in full when its first member in perms is met.
    seen, out = set(), []
    for row, sigma in enumerate(perms):
        if sigma not in seen:
            orbit = {_conjugate_images(sigma, pi) for pi in group}
            seen |= orbit
            out.append((row, len(orbit)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_pair_orbits_match_the_listed_orbits(n):
    # Sigma per class, then rho per orbit of sigma's centraliser, listed
    # from all_permutations with whole groups, in the same order.
    perms = [p.images for p in all_permutations(n)]
    want = []
    for sigma, class_size in _listed_orbits(perms, perms):
        centraliser = [pi for pi in perms if _conjugate_images(perms[sigma], pi) == perms[sigma]]
        rhos = _listed_orbits(perms, centraliser)
        want += [(sigma, rho, class_size * size) for rho, size in rhos]
    got = list(zip(*(column.tolist() for column in sweeps._pair_orbits(n))))
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("fixed", [1, 2, 3])
def test_stabiliser_orbits_match_the_listed_orbits(n, fixed):
    perms = [p.images for p in all_permutations(n)]
    stabiliser = [pi for pi in perms if pi[:fixed] == tuple(range(1, fixed + 1))[:n]]
    reps, sizes = sweeps._stabiliser_orbits(n, fixed)
    assert list(zip(reps.tolist(), sizes.tolist())) == _listed_orbits(perms, stabiliser)


@pytest.mark.parametrize(
    "n, start_counts, orbits", [(5, (1, 2, 3), 66), (5, (1, 2), 28), (4, (1, 2), 14)]
)
def test_event_factorization_walks_one_sigma_per_stabiliser_orbit(
    monkeypatch, n, start_counts, orbits
):
    # Each row of a block of walks is one pair, walked from every start.
    walked = []
    walk = sweeps._walk_pairs

    def counted(sigma_inv, rho, starts):
        last = starts[0].shape[1]
        for sigma, images in zip(_images(sigma_inv, inverted=True), _images(rho)):
            walked.extend((sigma, images, m) for m in range(1, last + 1))
        return walk(sigma_inv, rho, starts)

    monkeypatch.setattr(sweeps, "_walk_pairs", counted)
    summary = sweeps.sweep_event_factorization(n, start_counts)
    assert summary.ok
    fixed = max(start_counts)
    perms = [p.images for p in all_permutations(n)]
    assert len(walked) == orbits * len(perms) * fixed
    assert len(set(walked)) == len(walked)
    # Every sigma walked meets every rho from each start 1..K.
    sigmas = {sigma for sigma, _, _ in walked}
    assert set(walked) == set(itertools.product(sigmas, perms, range(1, fixed + 1)))
    # The sigmas walked are one per orbit of conjugation by the
    # permutations fixing 1..K.
    movers = [p for p in perms if p[:fixed] == tuple(range(1, fixed + 1))]

    def orbit(images):
        sigma = Permutation(images)
        return frozenset(conjugate(sigma, Permutation(pi)).images for pi in movers)

    covered = [orbit(sigma) for sigma in sigmas]
    assert len(sigmas) == orbits
    assert sum(map(len, covered)) == len(perms) == len(frozenset().union(*covered))


def _images(rows, inverted=False):
    # The 1-based images of each row of 0-based images, or of its inverse.
    if inverted:
        return [tuple(row.index(x) + 1 for x in range(len(row))) for row in rows.tolist()]
    return [tuple(x + 1 for x in row) for row in rows.tolist()]


def _couple_masks(g1, g2, names):
    # The masks of a couple as ``brute.record_masks`` returns them:
    # labelled, then with every vertex v renamed names[v].
    renamed = [[(names[a], names[b]) for a, b in g.edges] for g in (g1, g2)]
    return tuple(brute.edge_mask(edges, g1.n) for edges in (g1.edges, g2.edges, *renamed))


def _first_names(records, fixed):
    # Vertices 1..fixed keep their labels, and the others are named
    # fixed + 1, ... in order of first appearance along the records,
    # each index walk before its companion sequence.
    names = {v: v for v in range(1, fixed + 1)}
    for record in records:
        for v in record.i_seq + record.j_seq:
            names.setdefault(v, len(names) + 1)
    return names


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_walks_give_the_masks_of_the_graph_couples(n):
    # Every ordered pair, walked from every start in one block. Vertices
    # past fixed are renamed by first appearance over all the starts, and
    # named n * n at the starts before their first.
    fixed = min(2, n)
    perms = list(all_permutations(n))
    pairs = list(itertools.product(perms, perms))
    sigma_inv = np.array([inverse(sigma).images for sigma, _ in pairs]) - 1
    rho = np.array([rho.images for _, rho in pairs]) - 1
    walks, tails, heads, first = sweeps._walk_pairs(sigma_inv, rho, sweeps._start_walks(n, n))
    names = sweeps._vertex_names(first, fixed, n)
    labels = np.tile(np.append(np.arange(n), 0), (len(pairs), n, 1))
    # masks[r, s]: labelled sigma side, rho side, then renamed.
    masks = np.concatenate(
        [sweeps._side_masks(tails, heads, table) for table in (labels, names)], axis=2
    ).tolist()
    bits = brute.edge_bits(n)
    rows = zip(pairs, walks.tolist(), names.tolist(), masks)
    for (sigma, rho), row_walks, row_names, row_masks in rows:
        records = [traversal(sigma, rho, m) for m in range(1, n + 1)]
        want_names = _first_names(records, fixed)
        for s, record in enumerate(records):
            reached = {v for r in records[: s + 1] for v in r.i_seq + r.j_seq}
            named = reached | set(range(1, fixed + 1))
            assert row_names[s][:n] == [
                want_names[v] - 1 if v in named else n * n for v in range(1, n + 1)
            ]
            pad = [-1] * (n - record.k)
            assert row_walks[s] == [
                [v - 1 for v in seq] + pad for seq in (record.i_seq, record.j_seq)
            ]
            want = _couple_masks(*graphs_from_record(record, n), want_names)
            assert brute.record_masks(record, bits, want_names) == want
            assert tuple(row_masks[s]) == want


# Blocks of one pair at n = 6 would key 145,440 blocks, about half a
# minute; they run at n <= 5, and n = 6 runs the two larger sizes.
@pytest.mark.parametrize(
    "n, block", [(n, block) for n in (3, 4, 5) for block in (1, 7, 256)] + [(6, 7), (6, 256)]
)
@pytest.mark.parametrize("last", [2, 3])
def test_key_rows_match_the_step_by_step_walk(monkeypatch, n, block, last):
    # Every block the sweep keys, read off the walk table, against
    # brute.key_rows, which walks each pair step by step and finds each
    # vertex's first place by a search of its whole walk.
    blocks = []
    key_rows = sweeps._key_rows

    def recorded(sigma, sigma_inv, rho, starts, fixed):
        out = key_rows(sigma, sigma_inv, rho, starts, fixed)
        blocks.append(((sigma, sigma_inv, rho), out, fixed))
        return out

    monkeypatch.setattr(sweeps, "_PAIR_BLOCK", block)
    monkeypatch.setattr(sweeps, "_key_rows", recorded)
    assert sweeps.sweep_event_factorization(n, range(1, last + 1)).ok
    pairs = [np.concatenate(column) for column in zip(*(args for args, _, _ in blocks))]
    keys, fail = (np.concatenate(column) for column in zip(*(out for _, out, _ in blocks)))
    assert [len(rho) for (_, _, rho), _, _ in blocks[:-1]] == [block] * (len(blocks) - 1)
    assert 0 < len(blocks[-1][0][2]) <= block
    assert len(pairs[2]) % math.factorial(n) == 0
    want_keys, want_fail = brute.key_rows(*pairs, last, blocks[0][2])
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(fail, want_fail)
    assert fail.tolist() == [last + 1] * len(fail)


def test_the_walk_table_is_built_once_per_sweep_call(monkeypatch):
    built, walked = [], []
    start_walks, walk_pairs = sweeps._start_walks, sweeps._walk_pairs

    def build(n, last):
        built.append((n, last))
        return start_walks(n, last)

    def walk(sigma_inv, rho, starts):
        walked.append(len(rho))
        return walk_pairs(sigma_inv, rho, starts)

    monkeypatch.setattr(sweeps, "_start_walks", build)
    monkeypatch.setattr(sweeps, "_walk_pairs", walk)
    monkeypatch.setattr(sweeps, "_PAIR_BLOCK", 7)
    # 66 sigmas against 120 rhos, in blocks of 7.
    sweeps.sweep_event_factorization(5)
    assert built == [(5, 3)]
    assert len(walked) == math.ceil(66 * 120 / 7) and sum(walked) == 66 * 120
    # 161 orbit pairs, each block walked three times.
    built.clear(), walked.clear()
    sweeps._reduced_pair_suites(5)
    assert built == [(5, 5)]
    assert len(walked) == 3 * math.ceil(161 / 7) and sum(walked) == 3 * 161
    built.clear()
    sweeps.sweep_pairs(5)
    assert sorted(built) == [(5, 3), (5, 5)]


@pytest.mark.parametrize("n", [4, 5])
def test_a_corrupt_walk_table_is_caught(monkeypatch, n):
    # The n-cycle 1 -> 2 -> ... -> n -> 1 walks 1, 2, 3, ... from start 1;
    # its entry in the table is made to walk 1, 3, 2, ... instead. Every
    # pair with sigma^-1 rho that cycle fails at start 1, and no other:
    # event-factorization's failing-start check reads sigma and rho
    # themselves, not the table, and traversal-encoding walks sigma^-1
    # rho on its own.
    start_walks, key_rows = sweeps._start_walks, sweeps._key_rows
    cycle = sweeps._rows(np.roll(np.arange(n), -1)[None])[0]
    keyed = []

    def corrupt(n, last):
        steps, first = start_walks(n, last)
        steps = steps.copy()
        steps[cycle, 0, 1, [1, 2]] = steps[cycle, 0, 1, [2, 1]]
        return steps, first

    def recorded(sigma, sigma_inv, rho, starts, fixed):
        out = key_rows(sigma, sigma_inv, rho, starts, fixed)
        keyed.append((sweeps._rows(np.take_along_axis(sigma_inv, rho, axis=1)), out[1]))
        return out

    monkeypatch.setattr(sweeps, "_start_walks", corrupt)
    monkeypatch.setattr(sweeps, "_key_rows", recorded)
    assert sweeps.sweep_event_factorization(n).violations > 0
    pis, fail = (np.concatenate(column) for column in zip(*keyed))
    assert np.array_equal(fail == 1, pis == cycle)
    assert set(fail[pis != cycle].tolist()) == {4}
    encoding = sweeps._reduced_pair_suites(n)[0]
    assert encoding.suite == "traversal-encoding" and encoding.violations > 0
    monkeypatch.setattr(sweeps, "_start_walks", start_walks)
    assert sweeps._reduced_pair_suites(n)[0].ok


class _Walked(Exception):
    pass


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_key_unions_read_back_what_a_block_packs(monkeypatch, n):
    # A key row holds the renamed couples of starts 1..3 as two int64
    # words each, n * n edge bits a side, 64 at n = 8. Read back over its
    # first k starts, it gives u and the unions of the couples'
    # renamed masks.
    fixed = n if n == 4 else 3
    step = max(1, math.factorial(n) // 60)
    perms = list(itertools.islice(all_permutations(n), 0, None, step))
    sigma = perms[len(perms) // 3]
    rho = np.array([p.images for p in perms]) - 1
    sigma_rows = [
        np.broadcast_to(np.array(p.images) - 1, rho.shape) for p in (sigma, inverse(sigma))
    ]
    keys, fail = sweeps._key_rows(*sigma_rows, rho, sweeps._start_walks(n, 3), fixed)
    assert keys.dtype == np.int64 and fail.tolist() == [4] * len(perms)
    assert keys.shape == (len(perms), 2 * 3)
    bits = brute.edge_bits(n)
    for k in (1, 2, 3):
        read = zip(*(side.tolist() for side in sweeps._key_unions(keys, k, n, fixed)))
        for p, (u, *sides) in zip(perms, read):
            records = [traversal(sigma, p, m) for m in range(1, k + 1)]
            names = _first_names(records, fixed)
            masks = [brute.record_masks(record, bits, names) for record in records]
            assert u == len(names) - fixed
            # Bit 63 of an int64 mask is its sign bit.
            assert [side % 2**64 for side in sides] == [
                functools.reduce(operator.or_, side) for side in list(zip(*masks))[2:]
            ]
    if n == 8:
        # The sweep accepts n = 8 and keys its first block.
        key_rows = sweeps._key_rows

        def first_block(*args):
            key_rows(*args)
            raise _Walked

        monkeypatch.setattr(sweeps, "_key_rows", first_block)
        with pytest.raises(_Walked):
            sweeps.sweep_event_factorization(8)


def _inject(monkeypatch, fault):
    """Pass every traversal graph couple through fault(sigma, record, g1, g2).

    ``sweeps`` walks its pairs in blocks through ``_walk_pairs``; here
    each row's walk from each start is read back as its record, and the
    block's edges are replaced by those of the faulty couple, padded
    with -1. The walks, and where each vertex first appears along them,
    which name the vertices, are kept. One seam so
    feeds every pair suite: event-factorization's check of a pair
    against its own couple and its canonical key, and the four reduced
    suites' verdicts, the swapped and inverted walks included. ``brute.graphs_from_traversal`` builds each couple
    right after its walk, so the sigma of the latest walk is the one
    that produced the record.
    """
    walked = []

    def walk(sigma, rho, m):
        walked[:] = [sigma]
        return traversal(sigma, rho, m)

    def build(record, n):
        return fault(walked[0], record, *graphs_from_record(record, n))

    walk_pairs = sweeps._walk_pairs

    def faulty_walk_pairs(sigma_inv, rho, starts):
        walks, _, _, first = walk_pairs(sigma_inv, rho, starts)
        n = rho.shape[1]
        couples = []
        for images, row_walks in zip(_images(sigma_inv, inverted=True), walks.tolist()):
            sigma = Permutation(images)
            for m, (i_seq, j_seq) in enumerate(row_walks, start=1):
                i_seq = tuple(v + 1 for v in i_seq if v >= 0)
                j_seq = tuple(v + 1 for v in j_seq if v >= 0)
                record = TraversalRecord(m, len(i_seq), i_seq, j_seq)
                couples.append(fault(sigma, record, *graphs_from_record(record, n)))
        width = max(len(g.edges) for couple in couples for g in couple)
        ends = np.full((2, len(couples), 2, max(width, 1)), -1)
        for c, couple in enumerate(couples):
            for side, g in enumerate(couple):
                for e, edge in enumerate(sorted(g.edges)):
                    ends[:, c, side, e] = np.subtract(edge, 1)
        tails, heads = ends.reshape(2, *walks.shape[:3], -1)
        return walks, tails, heads, first

    monkeypatch.setattr(cyclegraphs, "traversal", walk)
    monkeypatch.setattr(brute, "graphs_from_record", build)
    monkeypatch.setattr(sweeps, "_walk_pairs", faulty_walk_pairs)


def _drop_wrap_edge(sigma, r, g1, g2):
    return DirectedGraph(g1.n, g1.edges - {(r.i_seq[0], r.j_seq[-1])}), g2


def _add_unsatisfied_edge(sigma, r, g1, g2):
    # The largest vertex x off the cycle gets the free target after
    # sigma(x). Over one start, the pairs of one true tuple split by
    # sigma(x) into fibers exactly as large as the grown union's
    # rectangle, none of whose pairs satisfies it: only the unsatisfied
    # set can see this.
    off = [v for v in range(1, g1.n + 1) if v not in r.i_seq]
    if len(off) < 2:
        return g1, g2
    x = off[-1]
    targets = sorted(sigma.images[v - 1] for v in off)
    y = targets[(targets.index(sigma.images[x - 1]) + 1) % len(targets)]
    return DirectedGraph(g1.n, g1.edges | {(x, y)}), g2


def _empty_start_two(sigma, r, g1, g2):
    # Start 2 on start 1's cycle repeats start 1's couple; emptying it
    # when sigma fixes n off that cycle splits one fiber into two tuples
    # with one union, each smaller than the rectangle.
    n = g1.n
    if r.m == 2 and 1 in r.i_seq and n not in r.i_seq and sigma.images[n - 1] == n:
        empty = DirectedGraph(n, frozenset())
        return empty, empty
    return g1, g2


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("start_counts", [(1, 2, 3), (1, 2)])
def test_reduced_event_factorization_matches_the_full_pass(n, start_counts):
    summary = sweeps.sweep_event_factorization(n, start_counts)
    expected = brute.event_factorization_pass(n, start_counts)
    assert (summary.suite, summary.cases, summary.violations, summary.examples) == expected
    assert summary.ok


@pytest.mark.parametrize("n", [4, 5])
def test_event_factorization_is_blind_to_its_block_size(monkeypatch, n):
    # Blocks of one pair, and of seven, which leave a ragged last block
    # for each sigma; under a fault, the examples keep their order too.
    whole = sweeps.sweep_event_factorization(n)
    for rows in (1, 7):
        monkeypatch.setattr(sweeps, "_PAIR_BLOCK", rows)
        assert sweeps.sweep_event_factorization(n) == whole
    if n == 4:
        _inject(monkeypatch, _drop_wrap_edge)
        faulty = []
        for rows in (1, 7, 5040):
            monkeypatch.setattr(sweeps, "_PAIR_BLOCK", rows)
            faulty.append(sweeps.sweep_event_factorization(n))
        assert faulty[0].violations > 0
        assert faulty[0] == faulty[1] == faulty[2]


@pytest.mark.parametrize("start_counts", [(1, 2, 3), (1, 2)])
def test_reduced_event_factorization_under_a_label_free_fault(monkeypatch, start_counts):
    # Past n = K + 1 the stabiliser of the starts moves vertices, so one
    # key stands for several labelled tuples; a run with violations
    # names the canonical representatives, each a violating tuple of the
    # full pass.
    _inject(monkeypatch, _drop_wrap_edge)
    summary = sweeps.sweep_event_factorization(5, start_counts)
    _, cases, violations, examples = brute.event_factorization_pass(5, start_counts, None)
    assert (summary.cases, summary.violations) == (cases, violations)
    assert summary.violations > 0
    assert len(summary.examples) == 5
    assert set(summary.examples) <= set(examples)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fault", [_drop_wrap_edge, _add_unsatisfied_edge, _empty_start_two])
def test_event_factorization_under_a_fault_matches_brute_force(monkeypatch, n, fault):
    _inject(monkeypatch, fault)
    summary = sweeps.sweep_event_factorization(n, (1, 2, 3))
    expected = brute.pair_pass(n, (1, 2, 3))[4]
    assert (summary.cases, summary.violations, summary.examples) == expected[1:]
    assert brute.event_factorization_pass(n, (1, 2, 3)) == expected
    # At n = 3, sigma on the cycle {1, 2} fixes sigma(3), so emptying
    # start 2 moves whole fibers and no tuple shares its union.
    assert summary.violations > 0 or (fault is _empty_start_two and n == 3)


@pytest.mark.parametrize("n, start_counts", [(4, (1, 2)), (5, (1, 2, 3))])
def test_an_edge_on_an_unnamed_vertex_raises(monkeypatch, n, start_counts):
    # Past n = K + 1 the added edge can leave from a vertex off every walk
    # so far, which has no name: reading it must fail, not drop the edge.
    _inject(monkeypatch, _add_unsatisfied_edge)
    with pytest.raises(KeyError):
        sweeps.sweep_event_factorization(n, start_counts)


def test_emptying_start_two_gives_two_tuples_one_union(monkeypatch):
    _inject(monkeypatch, _empty_start_two)
    perms = list(all_permutations(4))
    tuples_of_union: dict[tuple, set] = {}
    for sigma in perms:
        for rho in perms:
            key = tuple(
                (g1.edges, g2.edges)
                for g1, g2 in (brute.graphs_from_traversal(sigma, rho, m) for m in (1, 2))
            )
            union = tuple(frozenset().union(*side) for side in zip(*key))
            tuples_of_union.setdefault(union, set()).add(key)
    assert max(len(keys) for keys in tuples_of_union.values()) == 2


def _two_cycle_couples(sigma, r, g1, g2):
    # The sigma side of a walk of length 2 becomes the 2-cycle on its
    # index walk, so its one component has two vertices; one of length 3
    # also gets a loop on its third point, a component of one vertex.
    i = r.i_seq
    if r.k == 2:
        return DirectedGraph(g1.n, frozenset({(i[0], i[1]), (i[1], i[0])})), g2
    if r.k == 3:
        return DirectedGraph(g1.n, frozenset({(i[0], i[1]), (i[1], i[0]), (i[2], i[2])})), g2
    return g1, g2


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "fault, failing",
    [
        (None, [False, False, False, False]),
        (_drop_wrap_edge, [True, True, True, False]),
        (_two_cycle_couples, [True, True, True, True]),
    ],
)
def test_each_verdict_is_the_predicate_on_its_own_records(monkeypatch, n, fault, failing):
    # Every orbit pair's verdicts, start by start (start pair by start
    # pair for shared-cycle-graphs), against the predicates on the pair's
    # traversal records and graph objects, so that no two errors can
    # cancel in a suite's totals. The faults reach both through _inject.
    if fault is not None:
        _inject(monkeypatch, fault)
    perms = list(all_permutations(n))
    sigmas, rhos, _ = sweeps._pair_orbits(n)
    images = sweeps._table(n)[0]
    starts = sweeps._start_walks(n, n)
    verdicts = [v.tolist() for v in sweeps._pair_verdicts(images[sigmas], images[rhos], starts)]
    for row, (s, r) in enumerate(zip(sigmas.tolist(), rhos.tolist())):
        pair = perms[s], perms[r]
        assert [v[row] for v in verdicts] == list(brute.pair_verdicts(*pair)[0]), pair
    assert [not all(map(all, v)) for v in verdicts] == failing
