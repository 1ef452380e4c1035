"""End-to-end exhaustive sweeps at reduced sizes.

The acceptance suite runs the full-size sweeps; these keep the plumbing
honest at sizes that finish in well under a second each.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import brute
from brute import cycle_of, cycle_type, line, relabeled
from permprod import sweeps
from permprod.cyclegraphs import DirectedGraph, profile, shape
from permprod.oracle import class_size, partitions
from permprod.perms import Permutation, all_permutations
from permprod.sweeps import (
    SweepSummary,
    run_all,
    sweep_event_factorization,
    sweep_membership_bounds,
    sweep_pairs,
    sweep_prefix_decay,
    sweep_relabel_dichotomy,
    sweep_reversal_symmetry,
    sweep_shared_cycle,
    sweep_small_components,
    sweep_trace_identity,
    sweep_traversal_consistency,
)


def assert_clean(summary: SweepSummary):
    assert summary.violations == 0, summary.detail
    assert summary.ok
    assert summary.cases > 0
    assert summary.examples == []


def test_trace_identity_sweep():
    assert_clean(sweep_trace_identity(5))


_power_walk, _trace_power = sweeps._power_walk, brute.trace_power


def _walk_miscounting_start_one(block, max_power):
    # In rows with a(1) = 2, start 1 is counted as back at every power.
    fixed = _power_walk(block, max_power)
    for row, images in zip(fixed, block.tolist()):
        if images[0] == 1:
            length = len(cycle_of(Permutation(tuple(x + 1 for x in images)), 1))
            row += [k % length != 0 for k in range(1, max_power + 1)]
    return fixed


def _brute_miscounting_start_one(a, power, start):
    return (start == 1 and a.images[0] == 2) or power.images[start - 1] == start


def _formula_off_at_four_with_a_two_cycle(lengths, k):
    return _trace_power(lengths, k) + (k == 4 and 2 in lengths)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("fault", ["clean", "formula"])
def test_trace_identity_matches_every_power_built_by_composition(monkeypatch, fault, n):
    # The formula fault reads the cycle type only, so the sweep, which
    # checks one permutation per cycle type, must count it as the full
    # walk does, and name the same first failing cells. At n = 8 powers
    # 1..4 keep the full walk to a few seconds.
    if fault == "formula":
        monkeypatch.setattr(sweeps, "_trace_power", _formula_off_at_four_with_a_two_cycle)
        monkeypatch.setattr(brute, "trace_power", _formula_off_at_four_with_a_two_cycle)
    max_power = 4 if n == 8 else 2 * n
    summary = sweep_trace_identity(n, max_power)
    row = brute.trace_pass(n, max_power)
    assert (summary.suite, summary.cases, summary.violations, summary.examples) == row
    assert summary.cases == math.factorial(n) * max_power
    # The fault cannot show at n = 1: no power reaches 4.
    assert (summary.violations > 0) == (fault != "clean" and n > 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_walk_fault_reading_a_label_shows_in_the_representatives_only(monkeypatch, n):
    # The walk fault reads a(1), which conjugation moves, so the sweep
    # sees it on the representative of every class but the identity's
    # (each puts its longest cycle on 1..l, so a(1) = 2) and counts the
    # whole class, while the full walk sees the permutations with
    # a(1) = 2 alone. Each counts the powers k not divisible by the
    # length l of the cycle through 1.
    monkeypatch.setattr(sweeps, "_power_walk", _walk_miscounting_start_one)
    monkeypatch.setattr(brute, "start_is_fixed", _brute_miscounting_start_one)
    powers = range(1, 2 * n + 1)
    summary = sweep_trace_identity(n)
    row = brute.trace_pass(n, 2 * n)
    assert summary.cases == row[1] == math.factorial(n) * 2 * n
    assert summary.violations == sum(
        class_size(lengths, n) * sum(k % lengths[0] != 0 for k in powers)
        for lengths in partitions(n)
    )
    assert row[2] == sum(
        sum(k % len(cycle_of(a, 1)) != 0 for k in powers)
        for a in all_permutations(n)
        if a.images[0] == 2
    )
    assert summary.violations > row[2] > 0
    if n == 4:
        # The sweep names the first members of the failing classes in
        # order, the full walk the first permutations with a(1) = 2.
        assert summary.examples == [
            "perm=1 2 4 3 k=1", "perm=1 2 4 3 k=3", "perm=1 2 4 3 k=5",
            "perm=1 2 4 3 k=7", "perm=1 3 2 4 k=1",
        ]
        assert row[3] == [
            "perm=2 1 3 4 k=1", "perm=2 1 3 4 k=3", "perm=2 1 3 4 k=5",
            "perm=2 1 3 4 k=7", "perm=2 1 4 3 k=1",
        ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_power_walk_of_the_table_matches_each_permutation(n):
    # The sweep walks its representatives only, so the walk is checked
    # here on every row of S_n, in table order.
    images = sweeps._table(n)[0]
    every = list(all_permutations(n))
    assert [tuple(row) for row in (images + 1).tolist()] == [p.images for p in every]
    fixed = _power_walk(images, 2 * n).tolist()
    assert fixed == [brute.power_fixed_points(p, 2 * n) for p in every]


@pytest.mark.parametrize("n", [1, 4, 6, 7])
def test_first_failures_are_the_first_members_of_their_classes(n):
    # One failing cycle type at a time, and all of them at once, against
    # the permutations listed in lexicographic order.
    every = list(all_permutations(n))
    for lengths in [*partitions(n), None]:
        failing = {c: [1, 2] for c in partitions(n) if lengths in (None, c)}
        want = [
            f"perm={line(p)} k={k}"
            for p in every
            if cycle_type(p) in failing
            for k in (1, 2)
        ][:5]
        assert sweeps._first_failures(n, failing) == want


def test_trace_identity_names_its_first_failures_far_past_a_full_walk(monkeypatch):
    # At n = 16 the formula fault fails every class with a 2-cycle at
    # k = 4, and the first such permutations in lexicographic order come
    # early enough to list one by one.
    monkeypatch.setattr(sweeps, "_trace_power", _formula_off_at_four_with_a_two_cycle)
    summary = sweep_trace_identity(16)
    first = itertools.islice((a for a in all_permutations(16) if 2 in cycle_type(a)), 5)
    assert summary.examples == [f"perm={line(a)} k=4" for a in first]
    assert summary.violations == sum(
        class_size(lengths, 16) for lengths in partitions(16) if 2 in lengths
    )


@pytest.mark.parametrize(
    "lengths, prefix",
    [((5, 3) + (1,) * 22, tuple(range(1, 23))), ((28, 1, 1), (1, 2, *range(4, 28)))],
)
def test_trace_identity_names_the_first_members_of_one_class_at_thirty(
    monkeypatch, lengths, prefix
):
    # One class of S_30 fails at k = 4. A member that does not start with
    # ``prefix`` comes after every member that does: where it first
    # differs, a smaller image would be a value already taken, or close
    # a cycle shorter than any non-fixed cycle of the class. So the
    # first members complete the prefix, tried in lexicographic order.
    def formula_off_for_one_class(class_lengths, k):
        return _trace_power(class_lengths, k) + (k == 4 and class_lengths == lengths)

    monkeypatch.setattr(sweeps, "_trace_power", formula_off_for_one_class)
    summary = sweep_trace_identity(30)
    rest = sorted(set(range(1, 31)).difference(prefix))
    members = (
        Permutation(prefix + tail)
        for tail in itertools.permutations(rest)
        if cycle_type(Permutation(prefix + tail)) == lengths
    )
    first = list(itertools.islice(members, sweeps._EXAMPLE_CAP))
    assert len(first) == sweeps._EXAMPLE_CAP
    assert summary.examples == [f"perm={line(a)} k=4" for a in first]
    assert summary.violations == class_size(lengths, 30)


def test_trace_sweep_memory_is_bounded():
    # One row per cycle type, 22 at n = 8: S_8 as intp rows alone would
    # take 2.5 MiB, its powers 4.9 MiB.
    tracemalloc.start()
    try:
        summary = sweep_trace_identity(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.cases == math.factorial(8) * 16
    assert peak < 2**20


def test_event_factorization_memory_is_bounded():
    # One block of pairs at a time beside the key table, whose 7,920
    # rows take about 0.25 MiB at n = 5.
    tracemalloc.start()
    try:
        summary = sweep_event_factorization(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.cases == 30725
    assert peak < 1.5 * 2**20


def test_traversal_consistency_sweep():
    assert_clean(sweep_traversal_consistency(3))


def test_pair_sweeps_at_n3():
    assert_clean(sweep_shared_cycle(3))
    assert_clean(sweep_reversal_symmetry(3))
    assert_clean(sweep_small_components(3))
    assert_clean(sweep_relabel_dichotomy(3))


def test_event_factorization_sweep():
    assert_clean(sweep_event_factorization(3, start_counts=(1, 2)))


@pytest.mark.parametrize("n", [4, 5])
def test_satisfying_counts_match_a_scan_of_every_permutation(monkeypatch, n):
    # Small blocks of pairs, merges and masks, so that all run ragged.
    # Every side mask a key names is counted, once.
    perm_masks = [brute.edge_mask(enumerate(p.images, start=1), n) for p in all_permutations(n)]
    named, seen = set(), []
    real_unions, real_counts = sweeps._key_unions, sweeps._satisfying_counts

    def unions(*args):
        out = real_unions(*args)
        for side in out[1:3]:
            named.update(side.tolist())
        return out

    def counted(masks, perm_array):
        out = real_counts(masks, perm_array)
        seen.extend(zip(masks.tolist(), out.tolist()))
        return out

    whole = sweep_event_factorization(n)
    monkeypatch.setattr(sweeps, "_key_unions", unions)
    monkeypatch.setattr(sweeps, "_satisfying_counts", counted)
    monkeypatch.setattr(sweeps, "_PAIR_BLOCK", 13)
    monkeypatch.setattr(sweeps, "_MERGE_ROWS", 50)
    monkeypatch.setattr(sweeps, "_MASK_BLOCK_ELEMENTS", 5 * len(perm_masks) + 3)
    assert sweep_event_factorization(n) == whole
    assert whole.ok
    assert sorted(mask for mask, _ in seen) == sorted(named)
    for mask, count in seen:
        assert count == sum(1 for pm in perm_masks if not mask & ~pm)


@pytest.mark.parametrize("n, rows", [(4, 576), (5, 6678)])
def test_event_factorization_keeps_one_row_per_largest_tuple(monkeypatch, n, rows):
    # The distinct key rows over the starts 1..3 are the canonical
    # tuples that the mass balance of the walk patterns counts, and each
    # is one key of the largest start count.
    tables, keys = [], {}
    real_merge, real_unions = sweeps._merge_keys, sweeps._key_unions

    def merge(columns):
        real_merge(columns)
        tables.append(len(columns[0][0]))

    def unions(table, k, *args):
        keys[k] = len(table)
        return real_unions(table, k, *args)

    monkeypatch.setattr(sweeps, "_merge_keys", merge)
    monkeypatch.setattr(sweeps, "_key_unions", unions)
    summary = sweep_event_factorization(n)
    assert summary.ok
    assert tables[-1] == rows == keys[3]
    assert keys[1] < keys[2] < keys[3]
    if n == 4:
        # Every vertex keeps its label, so each key is one tuple.
        assert summary.cases == sum(keys.values()) == 1408


def test_merge_keys_sums_counts_and_keeps_the_least_first_row_and_failing_start():
    # Pieces with keys repeated within and across pieces, some with the
    # sign bit set, merged twice as the sweep does: the first table
    # becomes a piece of the second merge.
    rng = np.random.default_rng(23)
    pieces = []
    for index in range(5):
        rows = int(rng.integers(1, 40))
        keys = rng.integers(-2, 2, (rows, 2)) << 62 | rng.integers(0, 3, (rows, 2))
        first = rng.permutation(rows) + 100 * index
        pieces.append((keys, rng.integers(1, 9, rows), first, rng.integers(1, 5, rows)))
    want = {}
    for keys, *values in pieces:
        for key, pairs, first, fail in zip(map(tuple, keys.tolist()), *values):
            old = want.get(key, (0, first, fail))
            want[key] = (old[0] + pairs, min(old[1], first), min(old[2], fail))
    columns = ([], [], [], [])
    for index, piece in enumerate(pieces):
        for column, values in zip(columns, piece):
            column.append(values)
        if index == 2:
            sweeps._merge_keys(columns)
    sweeps._merge_keys(columns)
    assert [len(column) for column in columns] == [1, 1, 1, 1]
    keys, *values = (column[0] for column in columns)
    got = dict(zip(map(tuple, keys.tolist()), zip(*(v.tolist() for v in values))))
    assert got == want and len(keys) == len(want)
    # Each first word is one run of the sorted keys.
    assert len(sweeps._run_starts(keys[:, :1])) == len({key[0] for key in want})


def test_event_factorization_edge_masks_fit_in_64_bits():
    with pytest.raises(ValueError, match="n <= 8"):
        sweep_event_factorization(9)


def test_membership_bound_sweeps():
    for summary in sweep_membership_bounds(4, thetas=("1/2", "2")):
        assert_clean(summary)


def test_prefix_decay_sweep():
    assert_clean(
        sweep_prefix_decay(n_values=(4, 5, 6), prefix_lengths=(1,), thetas=("1",))
    )


def test_run_all_structure():
    summaries = run_all(pair_n=3, single_n=4, thetas=("1",))
    suites = [s.suite for s in summaries]
    assert len(suites) == len(set(suites))
    assert "trace-power-identity" in suites
    assert "event-factorization" in suites
    assert "prefix-fixing-decay" in suites
    assert all(s.violations == 0 for s in summaries)


def test_run_all_case_counts_at_n4():
    # The case counts the separate per-suite sweeps gave at these sizes.
    summaries = run_all(pair_n=4, single_n=5)
    assert [(s.suite, s.cases) for s in summaries] == [
        ("trace-power-identity", 1200),
        ("traversal-encoding", 2304),
        ("shared-cycle-graphs", 3456),
        ("reversal-exchange", 2304),
        ("two-vertex-components", 2304),
        ("event-factorization", 1408),
        ("relabel-dichotomy", 5016),
        ("matching-sandwich-bounds", 144),
        ("membership-upper-bounds", 1248),
        ("two-cycle-upper-bounds", 63),
        ("prefix-fixing-decay", 66),
    ]
    assert all(s.ok for s in summaries)


@pytest.mark.parametrize("n", [3, 4])
def test_union_graphs_match_every_start_set(n):
    # The unions over every start set of every pair are the non-empty
    # partial injections, and the bounds run on each of them.
    expected = [sorted(g.edges) for g in brute.union_graph_list(n)]
    assert expected == sorted(sorted(e) for e in brute.partial_injections(n) if e)
    for summary in sweep_membership_bounds(n):
        assert summary.detail.startswith(f"{len(expected)} union graphs at n={n};")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shape_key_groups_graphs_as_relabeling_orbits(n):
    perms = list(all_permutations(n))
    orbit_of = {
        edges: frozenset(relabeled(DirectedGraph(n, edges), t).edges for t in perms)
        for edges in brute.partial_injections(n)
    }
    by_shape = {}
    for edges in orbit_of:
        by_shape.setdefault(brute.shape(DirectedGraph(n, edges)), set()).add(edges)
    assert {frozenset(group) for group in by_shape.values()} == set(orbit_of.values())
    # One representative per orbit, counted as many times as it has members.
    reps = {orbit_of[g.edges]: size for g, size, _ in sweeps._graph_orbits(n)}
    assert reps == {orbit: len(orbit) for orbit in orbit_of.values()}


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_orbits_list_the_shape_of_their_representative(n):
    # The membership bounds read each orbit's listed shape in place of
    # shape(g): 35 non-empty orbits at n = 5 and 109 at n = 7.
    orbits = sweeps._graph_orbits(n)
    assert orbits[0][0].edges == frozenset() and orbits[0][2] == ()
    for g, _, kinds in orbits:
        assert kinds == shape(g)
    assert len(orbits) - 1 == {5: 35, 7: 109}.get(n, len(orbits) - 1)


def _graph_suites(n, thetas):
    return [sweep_relabel_dichotomy(n), *sweep_membership_bounds(n, thetas)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_suites_by_orbit_match_every_partial_injection(n):
    thetas = ("1/2", "1", "2", None)
    summaries = _graph_suites(n, thetas)
    rows = brute.graph_pass(n, thetas)
    assert [(s.suite, s.cases, s.violations, s.examples) for s in summaries] == rows


def _fail_graphs_with_two_edges(monkeypatch):
    # Failing every case on a two-edge graph is constant on relabeling
    # orbits.
    real_verdicts, real_relabel = sweeps._relabel_verdicts, brute.relabel_dichotomy_holds
    real_bounds = sweeps.verify_bounds

    def verdicts_fail_on_two_edges(g, taus):
        premise, frozen, inconsistent = real_verdicts(g, taus)
        two = len(g.edges) == 2
        return premise | two, frozen & (not two), inconsistent & (not two)

    def relabel_fails_on_two_edges(g, components, tau):
        return len(g.edges) != 2 and real_relabel(g, components, tau)

    def bounds_fail_on_two_edges(law, g, kinds=None):
        checks = real_bounds(law, g, kinds)
        for check in checks:
            check.holds = check.holds and len(g.edges) != 2
        return checks

    monkeypatch.setattr(sweeps, "_relabel_verdicts", verdicts_fail_on_two_edges)
    monkeypatch.setattr(brute, "relabel_dichotomy_holds", relabel_fails_on_two_edges)
    for module in (sweeps, brute):
        monkeypatch.setattr(module, "verify_bounds", bounds_fail_on_two_edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_relabel_verdicts_are_the_predicate_on_each_tau(n):
    # Every shape representative against every tau, cell by cell, so that
    # no two errors can cancel in the suite's totals. The dichotomy is a
    # theorem, so a verdict that always holds would match it too: each of
    # its three parts is checked against the reference's own.
    every = list(all_permutations(n))
    taus = sweeps._table(n)[0]
    for g, _, _ in sweeps._graph_orbits(n):
        components = [verts for verts, _ in profile(g)]
        moved = [relabeled(g, tau).edges for tau in every]
        premise, frozen, inconsistent = sweeps._relabel_verdicts(g, taus)
        assert (~premise | frozen | inconsistent).tolist() == [
            brute.relabel_dichotomy_holds(g, components, tau) for tau in every
        ], sorted(g.edges)
        assert premise.tolist() == [
            all(verts & brute._fixed_points(tau.images) for verts in components) for tau in every
        ]
        assert frozen.tolist() == [edges == g.edges for edges in moved]
        assert inconsistent.tolist() == [
            not brute._joint_membership_consistent(g.edges, edges) for edges in moved
        ]


def test_a_graph_fault_of_shape_only_is_counted_alike(monkeypatch):
    _fail_graphs_with_two_edges(monkeypatch)
    n, thetas = 4, ("1/2", None)
    summaries = _graph_suites(n, thetas)
    assert all(s.violations > 0 for s in summaries)
    assert [(s.suite, s.cases, s.violations) for s in summaries] == [
        row[:3] for row in brute.graph_pass(n, thetas)
    ]


@pytest.mark.parametrize(
    "n, total", [(1, 2), (2, 7), (3, 34), (4, 209), (5, 1546), (6, 13327)]
)
def test_graph_orbits_by_shape_match_the_enumeration(n, total):
    built = sweeps._graph_orbits(n)
    listed = brute.graph_orbits(n)
    assert not built[0][0].edges
    for g, _, _ in built:
        assert len({a for a, _ in g.edges}) == len({b for _, b in g.edges}) == len(g.edges)
    assert Counter((brute.shape(g), size) for g, size, _ in built) == Counter(
        (brute.shape(g), size) for g, size, _ in listed
    )
    assert sum(size for _, size, _ in built) == total == len(brute.partial_injections(n))


@pytest.mark.parametrize("fault", [False, True])
def test_graph_suites_match_the_enumerated_orbits(monkeypatch, fault):
    # At n = 5, the orbits built by shape against those found by listing
    # every partial injection, clean and under a fault of shape only.
    if fault:
        _fail_graphs_with_two_edges(monkeypatch)
    n, thetas = 5, ("1/2", None)
    built = _graph_suites(n, thetas)
    monkeypatch.setattr(sweeps, "_graph_orbits", brute.graph_orbits)
    listed = _graph_suites(n, thetas)
    assert all(s.ok for s in built) != fault
    if fault:
        assert [(s.suite, s.cases, s.violations) for s in built] == [
            (s.suite, s.cases, s.violations) for s in listed
        ]
    else:
        assert built == listed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_partial_injection_is_a_union_graph(n):
    # Extend E to a permutation pi. With sigma = rho = pi, sigma^-1 rho is
    # the identity, so the starts dom(E) give E on both sides.
    for edges in brute.partial_injections(n):
        if not edges:
            continue
        image = dict(edges)
        free = iter(sorted(set(range(1, n + 1)) - set(image.values())))
        pi = Permutation(tuple(image[x] if x in image else next(free) for x in range(1, n + 1)))
        u1, u2 = brute.union_graphs(pi, pi, sorted(image))
        assert u1.edges == u2.edges == edges


def test_membership_bounds_alone_match_run_all():
    families = {"matching-sandwich-bounds", "membership-upper-bounds", "two-cycle-upper-bounds"}
    inside = [s for s in run_all(pair_n=4, single_n=3) if s.suite in families]
    assert inside == sweep_membership_bounds(4)


def test_pair_selectors_pick_their_suite(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a reduced-suite selector ran event-factorization")

    with monkeypatch.context() as patched:
        patched.setattr(sweeps, "sweep_event_factorization", unreachable)
        picks = [
            sweep_traversal_consistency(3),
            sweep_shared_cycle(3),
            sweep_reversal_symmetry(3),
            sweep_small_components(3),
        ]
    picks.append(sweep_event_factorization(3, start_counts=(1, 2)))
    assert [p.suite for p in picks] == [
        "traversal-encoding",
        "shared-cycle-graphs",
        "reversal-exchange",
        "two-vertex-components",
        "event-factorization",
    ]
    assert picks == sweep_pairs(3)[:4] + sweep_pairs(3, start_counts=(1, 2))[4:]
    with pytest.raises(ValueError, match="start counts"):
        sweep_pairs(3, start_counts=(4,))


_PER_START = [
    "sigma=1 2 3 rho=1 2 3 m=1",
    "sigma=1 2 3 rho=1 2 3 m=2",
    "sigma=1 2 3 rho=1 2 3 m=3",
    "sigma=1 2 3 rho=1 3 2 m=1",
    "sigma=1 2 3 rho=1 3 2 m=2",
]


@pytest.mark.parametrize(
    "predicate, suite, examples",
    [
        (
            "_shared_cycle_verdicts",
            "shared-cycle-graphs",
            [
                "sigma=1 2 3 rho=1 2 3 m1=1 m2=2",
                "sigma=1 2 3 rho=1 2 3 m1=1 m2=3",
                "sigma=1 2 3 rho=1 2 3 m1=2 m2=3",
                "sigma=1 2 3 rho=1 3 2 m1=1 m2=2",
                "sigma=1 2 3 rho=1 3 2 m1=1 m2=3",
            ],
        ),
        ("_reversal_verdicts", "reversal-exchange", _PER_START),
        ("_two_vertex_verdicts", "two-vertex-components", _PER_START),
        ("_encoding_verdicts", "traversal-encoding", _PER_START),
    ],
)
def test_a_failing_predicate_shows_in_its_suite_only(monkeypatch, predicate, suite, examples):
    # Each suite's verdicts on a block come from one function; failing
    # every verdict it gives fails that suite alone.
    verdicts = getattr(sweeps, predicate)
    monkeypatch.setattr(sweeps, predicate, lambda *args: np.zeros_like(verdicts(*args)))
    summaries = sweep_pairs(3)
    assert [s.suite for s in summaries if not s.ok] == [suite]
    failed = next(s for s in summaries if s.suite == suite)
    assert failed.violations == failed.cases > 0
    assert failed.examples == examples


def test_a_failing_factor_count_shows_in_event_factorization_only(monkeypatch):
    monkeypatch.setattr(sweeps, "_fixing_counts", lambda n: [0] * (n * n + 1))
    summaries = sweep_pairs(3)
    assert [s.suite for s in summaries if not s.ok] == ["event-factorization"]
    assert summaries[4].violations == summaries[4].cases == 99
    assert summaries[4].examples[:2] == [
        "k=1 sides [(1, 1)] / [(1, 1)]",
        "k=1 sides [(1, 1), (2, 2)] / [(1, 2), (2, 1)]",
    ]


def test_summary_ok_tracks_violations():
    bad = SweepSummary(
        suite="demo", n=3, cases=10, violations=2, detail="", examples=["x"]
    )
    assert not bad.ok
