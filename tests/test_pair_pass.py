"""The reduced pair pass against the full pass over S_n x S_n.

``sweeps.sweep_pairs`` checks one sigma per cycle type against every
rho and weights each tally by the class size, which is exact because
the four reduced suites read no label. These tests check that the
reduction changes no tally, that a fault depending only on a
traversal's shape is counted alike, and that a fault reading a label is
not: the last documents the assumption the reduction rests on.
Event-factorization is not reduced and must walk the starts 1..max(k)
of every ordered pair. It reads each walk's side masks straight from
the traversal record and keeps only a pair count per graph tuple and
the tuples with a pair failing its union; under faulty graphs its
tallies must still equal those of ``brute.pair_pass``, which keeps
every fiber's pairs and counts the tuples of each union.
"""

import math

import pytest

import brute
from permprod import cyclegraphs, sweeps
from permprod.cyclegraphs import DirectedGraph, graphs_from_record, traversal
from permprod.perms import all_permutations


def _rows(summaries):
    return [(s.suite, s.cases, s.violations) for s in summaries]


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_pair_pass_matches_the_full_pass(n):
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    rows = brute.pair_pass(n, (1, 2, 3))
    assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows


@pytest.mark.parametrize("n", [3, 4])
def test_a_fault_of_shape_only_is_counted_alike(monkeypatch, n):
    def fails_on_two_cycles(r, g1, s, h2):
        return r.k != 2 and cyclegraphs.reversal_identities_hold(r, g1, s, h2)

    for module in (sweeps, brute):
        monkeypatch.setattr(module, "reversal_identities_hold", fails_on_two_cycles)
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


def test_event_factorization_walks_the_first_starts_of_every_pair(monkeypatch):
    n = 4
    walked = []

    def counted(sigma, rho, m):
        walked.append((sigma.images, rho.images, m))
        return traversal(sigma, rho, m)

    monkeypatch.setattr(sweeps, "traversal", counted)
    summary = sweeps.sweep_event_factorization(n, (1, 2))
    assert summary.ok
    assert len(walked) == 2 * math.factorial(n) ** 2
    assert len(set(walked)) == len(walked)
    assert {m for _, _, m in walked} == {1, 2}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_record_masks_are_the_masks_of_the_graph_couple(n):
    bits = sweeps._edge_bits(n)
    perms = list(all_permutations(n))
    for sigma in perms:
        for rho in perms:
            for m in range(1, n + 1):
                record = traversal(sigma, rho, m)
                g1, g2 = graphs_from_record(record, n)
                want = sweeps._edge_mask(g1.edges, n), sweeps._edge_mask(g2.edges, n)
                assert sweeps._record_masks(record, bits) == want


def _inject(monkeypatch, fault):
    """Pass every traversal graph couple through fault(sigma, record, g1, g2).

    ``sweeps`` reads each record's side masks right after its walk, and
    ``cyclegraphs.graphs_from_traversal``, which ``brute`` calls, builds
    each couple right after its walk, so the sigma of the latest walk is
    the one that produced the record. In ``sweeps`` the faulty couple is
    built from the record and its masks are returned in place of the
    record's own.
    """
    walked = []

    def walk(sigma, rho, m):
        walked[:] = [sigma]
        return traversal(sigma, rho, m)

    def build(record, n):
        return fault(walked[0], record, *graphs_from_record(record, n))

    def masks(record, bits):
        n = len(bits) - 1
        g1, g2 = build(record, n)
        return sweeps._edge_mask(g1.edges, n), sweeps._edge_mask(g2.edges, n)

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


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fault", [_drop_wrap_edge, _add_unsatisfied_edge, _empty_start_two])
def test_event_factorization_under_a_fault_matches_brute_force(monkeypatch, n, fault):
    _inject(monkeypatch, fault)
    summary = sweeps.sweep_event_factorization(n, (1, 2, 3))
    expected = brute.pair_pass(n, (1, 2, 3))[4]
    assert (summary.cases, summary.violations, summary.examples) == expected[1:]
    # At n = 3, sigma on the cycle {1, 2} fixes sigma(3), so emptying
    # start 2 moves whole fibers and no tuple shares its union.
    assert summary.violations > 0 or (fault is _empty_start_two and n == 3)


def test_emptying_start_two_gives_two_tuples_one_union(monkeypatch):
    _inject(monkeypatch, _empty_start_two)
    perms = list(all_permutations(4))
    tuples_of_union: dict[tuple, set] = {}
    for sigma in perms:
        for rho in perms:
            key = tuple(
                (g1.edges, g2.edges)
                for g1, g2 in (cyclegraphs.graphs_from_traversal(sigma, rho, m) for m in (1, 2))
            )
            union = tuple(frozenset().union(*side) for side in zip(*key))
            tuples_of_union.setdefault(union, set()).add(key)
    assert max(len(keys) for keys in tuples_of_union.values()) == 2
