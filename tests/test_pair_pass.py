"""The shared-walk pair pass against a pass that shares nothing.

``sweeps.sweep_pairs`` walks each (sigma, rho, m) once and lets the
reversal-exchange check of the other members of its orbit read that
walk. These tests check that the sharing changes no tally and that no
walk is skipped or repeated.
"""

import math

import pytest

import brute
from permprod import sweeps
from permprod.cyclegraphs import traversal


@pytest.mark.parametrize("n", [3, 4])
def test_pair_pass_matches_a_pass_that_shares_no_walk(n):
    summaries = sweeps.sweep_pairs(n, (1, 2, 3))
    rows = brute.pair_pass(n, (1, 2, 3))
    assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows


def test_pair_pass_walks_each_traversal_once(monkeypatch):
    # Orbits of fewer than four pairs (sigma = rho, rho = sigma^-1, pairs
    # of involutions) must neither skip nor repeat a walk.
    n = 4
    walked = []

    def counted(sigma, rho, m):
        walked.append((sigma.images, rho.images, m))
        return traversal(sigma, rho, m)

    monkeypatch.setattr(sweeps, "traversal", counted)
    sweeps.sweep_pairs(n, (1, 2, 3))
    assert len(walked) == n * math.factorial(n) ** 2
    assert len(set(walked)) == len(walked)
