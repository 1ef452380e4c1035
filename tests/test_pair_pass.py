"""The reduced pair pass against the full pass over S_n x S_n.

``sweeps.sweep_pairs`` checks one sigma per cycle type against every
rho and weights each tally by the class size, which is exact because
the four reduced suites read no label. These tests check that the
reduction changes no tally, that a fault depending only on a
traversal's shape is counted alike, and that a fault reading a label is
not: the last documents the assumption the reduction rests on.
Event-factorization is not reduced and must walk the starts 1..max(k)
of every ordered pair.
"""

import math

import pytest

import brute
from permprod import cyclegraphs, sweeps
from permprod.cyclegraphs import traversal


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
