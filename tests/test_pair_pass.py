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
two document the assumptions the two reductions rest on.
Event-factorization walks one sigma per orbit of conjugation by the
permutations fixing its starts 1..K, against every rho, and keys each
graph tuple canonically. Its tallies must equal those of
``brute.event_factorization_pass``, which walks every ordered pair and
keys the tuples by their labels, clean and under a label-free fault;
and, at n <= 4, where that stabiliser is trivial, those of
``brute.pair_pass``, which keeps every fiber's pairs and counts the
tuples of each union, under faults that read labels too.
"""

import itertools
import math
from collections import Counter

import pytest

import brute
from permprod import cyclegraphs, sweeps
from permprod.cyclegraphs import DirectedGraph, graphs_from_record, traversal
from permprod.perms import Permutation, all_permutations, conjugate, cycle_type


def _rows(summaries):
    return [(s.suite, s.cases, s.violations) for s in summaries]


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_pair_pass_matches_the_full_pass(n):
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    rows = brute.pair_pass(n, (1, 2, 3))
    assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows


def _fails_on_two_cycles(r, g1, s, h2):
    return r.k != 2 and cyclegraphs.reversal_identities_hold(r, g1, s, h2)


@pytest.mark.parametrize("n", [3, 4])
def test_a_fault_of_shape_only_is_counted_alike(monkeypatch, n):
    for module in (sweeps, brute):
        monkeypatch.setattr(module, "reversal_identities_hold", _fails_on_two_cycles)
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    assert summaries[2].violations > 0
    assert _rows(summaries) == [row[:3] for row in brute.pair_pass(n, (1, 2, 3))]


def test_a_fault_reading_a_label_is_not(monkeypatch):
    # Failing every permutation that fixes 1 is not invariant under
    # conjugation: the class representative stands for members that do
    # not fix 1, so the weighted count is not the true one.
    def fails_when_one_is_fixed(perm, g):
        return perm(1) != 1 and cyclegraphs.membership(perm, g)

    for module in (sweeps, brute):
        monkeypatch.setattr(module, "membership", fails_when_one_is_fixed)
    n = 4
    reduced = sweeps.sweep_pairs(n, (1, 2, 3))[0]
    full = brute.pair_pass(n, (1, 2, 3))[0]
    assert reduced.cases == full[1]
    assert 0 < full[2] != reduced.violations


def test_a_fault_reading_a_label_of_rho_is_not(monkeypatch):
    # Failing start 1 whenever rho fixes 1 reads rho's label and not
    # sigma's. Sigma per class against every rho still counts it
    # exactly, since every class member meets every rho alike; rho per
    # orbit of sigma's centraliser does not, since a representative
    # stands for conjugates that do not fix 1.
    def fails_when_rho_fixes_one(r, g1, s, h2):
        rho_fixes_one = r.m == 1 and r.j_seq[0] == 1
        return not rho_fixes_one and cyclegraphs.reversal_identities_hold(r, g1, s, h2)

    for module in (sweeps, brute):
        monkeypatch.setattr(module, "reversal_identities_hold", fails_when_rho_fixes_one)
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
        for module in (sweeps, brute):
            monkeypatch.setattr(module, "reversal_identities_hold", fault)
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
    perms = list(all_permutations(n))
    last = perms[-1]
    pis = {
        "all": perms,
        "centraliser": [pi for pi in perms if conjugate(last, pi) == last],
        "stabiliser": [pi for pi in perms if pi.images[:2] == (1, 2)[:n]],
    }[group]
    orbits = sweeps._conjugation_orbits(perms, pis)
    members = [frozenset(conjugate(rep, pi).images for pi in pis) for rep, _ in orbits]
    assert [size for _, size in orbits] == [len(m) for m in members]
    assert sum(map(len, members)) == len(frozenset().union(*members)) == math.factorial(n)
    # Each representative is the first of its orbit in lexicographic order.
    assert [rep.images for rep, _ in orbits] == sorted(min(m) for m in members)


@pytest.mark.parametrize("n, pairs", [(1, 1), (2, 4), (3, 11), (4, 43), (5, 161), (6, 901)])
def test_pair_orbits_are_the_orbits_of_simultaneous_conjugation(n, pairs):
    perms = list(all_permutations(n))
    orbits = list(sweeps._pair_orbits(perms))
    # Burnside: the pairs fixed by pi are its centraliser squared, so
    # there are sum over classes of n!/(class size) orbits.
    class_sizes = Counter(cycle_type(p) for p in perms).values()
    assert len(orbits) == pairs == sum(math.factorial(n) // size for size in class_sizes)
    assert sum(size for _, _, size in orbits) == math.factorial(n) ** 2
    if n > 4:
        return
    members = [
        frozenset((conjugate(s, pi).images, conjugate(r, pi).images) for pi in perms)
        for s, r, _ in orbits
    ]
    assert [size for _, _, size in orbits] == [len(m) for m in members]
    assert len(frozenset().union(*members)) == math.factorial(n) ** 2


@pytest.mark.parametrize(
    "n, start_counts, orbits", [(5, (1, 2, 3), 66), (5, (1, 2), 28), (4, (1, 2), 14)]
)
def test_event_factorization_walks_one_sigma_per_stabiliser_orbit(
    monkeypatch, n, start_counts, orbits
):
    walked = []

    def counted(sigma, rho, m):
        walked.append((sigma.images, rho.images, m))
        return traversal(sigma, rho, m)

    monkeypatch.setattr(sweeps, "traversal", counted)
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


def _couple_masks(g1, g2, names):
    # The masks of a couple as ``sweeps._record_masks`` returns them:
    # labelled, then with every vertex v renamed names[v].
    renamed = [[(names[a], names[b]) for a, b in g.edges] for g in (g1, g2)]
    return tuple(sweeps._edge_mask(edges, g1.n) for edges in (g1.edges, g2.edges, *renamed))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_record_masks_are_the_masks_of_the_graph_couple(n):
    # Labelled, and renamed by v -> n + 1 - v.
    bits = sweeps._edge_bits(n)
    names = [0, *range(n, 0, -1)]
    perms = list(all_permutations(n))
    for sigma in perms:
        for rho in perms:
            for m in range(1, n + 1):
                record = traversal(sigma, rho, m)
                g1, g2 = graphs_from_record(record, n)
                want = _couple_masks(g1, g2, names)
                assert sweeps._record_masks(record, bits, names) == want


def _inject(monkeypatch, fault):
    """Pass every traversal graph couple through fault(sigma, record, g1, g2).

    ``sweeps`` reads each record's side masks right after its walk, and
    ``brute.graphs_from_traversal`` builds each couple right after its
    walk, so the sigma of the latest walk is the one that produced the
    record. In ``sweeps`` the faulty couple is
    built from the record and its masks, labelled and renamed, are
    returned in place of the record's own: one seam feeds both the
    check of a pair against its own couple and the canonical key.
    """
    walked = []

    def walk(sigma, rho, m):
        walked[:] = [sigma]
        return traversal(sigma, rho, m)

    def build(record, n):
        return fault(walked[0], record, *graphs_from_record(record, n))

    def masks(record, bits, names):
        return _couple_masks(*build(record, len(bits) - 1), names)

    for module in (sweeps, cyclegraphs):
        monkeypatch.setattr(module, "traversal", walk)
    monkeypatch.setattr(cyclegraphs, "graphs_from_record", build)
    monkeypatch.setattr(sweeps, "_record_masks", masks)


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
    targets = sorted(sigma(v) for v in off)
    y = targets[(targets.index(sigma(x)) + 1) % len(targets)]
    return DirectedGraph(g1.n, g1.edges | {(x, y)}), g2


def _empty_start_two(sigma, r, g1, g2):
    # Start 2 on start 1's cycle repeats start 1's couple; emptying it
    # when sigma fixes n off that cycle splits one fiber into two tuples
    # with one union, each smaller than the rectangle.
    n = g1.n
    if r.m == 2 and 1 in r.i_seq and n not in r.i_seq and sigma(n) == n:
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
