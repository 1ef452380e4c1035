import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import brute
from brute import (
    _joint_membership_consistent,
    compose,
    cycle_of,
    from_cycles,
    graphs_from_record,
    graphs_from_traversal,
    inverse,
    membership,
    no_two_cycles_when_components_small,
    relabel_dichotomy_holds,
    relabeled,
    reversal_identities_hold,
    shared_cycle_graphs_match,
    union_graphs,
)

from permprod import sweeps
from permprod.perms import Permutation, all_permutations
from permprod.cyclegraphs import (
    DirectedGraph,
    TraversalRecord,
    enumerate_B,
    profile,
    shape,
    shape_orbit_size,
    traversal,
    walk_patterns,
)


def perm_strategy(n: int):
    return st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im)))


def test_traversal_worked_example():
    # sigma = (1 2 3), rho = (3 4) on 5 points; inverse(sigma) o rho has
    # the 4-cycle (1 3 4 2) through index 1 and fixes 5.
    sigma = from_cycles(5, [(1, 2, 3)])
    rho = from_cycles(5, [(3, 4)])
    rec = traversal(sigma, rho, 1)
    assert rec.m == 1 and rec.k == 4
    assert rec.i_seq == (1, 3, 4, 2)
    assert rec.j_seq == (1, 4, 3, 2)
    g1, g2 = graphs_from_traversal(sigma, rho, 1)
    assert g1.edges == frozenset({(1, 2), (3, 1), (4, 4), (2, 3)})
    assert g2.edges == frozenset({(1, 1), (3, 4), (4, 3), (2, 2)})

    rec5 = traversal(sigma, rho, 5)
    assert rec5.i_seq == (5,) and rec5.j_seq == (5,)
    h1, h2 = graphs_from_traversal(sigma, rho, 5)
    assert h1.edges == h2.edges == frozenset({(5, 5)})


@given(perm_strategy(5), perm_strategy(5), st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_traversal_invariants(sigma, rho, m):
    rec = traversal(sigma, rho, m)
    prod = compose(inverse(sigma), rho)
    assert rec.i_seq == cycle_of(prod, m)
    assert rec.j_seq == tuple(rho.images[i - 1] for i in rec.i_seq)
    g1, g2 = graphs_from_traversal(sigma, rho, m)
    assert len(g1.edges) == rec.k and len(g2.edges) == rec.k
    assert membership(sigma, g1)
    assert membership(rho, g2)


def test_traversal_rejects_bad_start():
    p = Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        traversal(p, p, 0)
    with pytest.raises(ValueError):
        traversal(p, p, 4)


@pytest.mark.parametrize(
    "fields",
    [
        (1, 2, (1, 2), (2,)),
        (1, 0, (), ()),
        (2, 2, (1, 2), (2, 1)),
        (1, 3, (1, 2, 1), (2, 3, 1)),
        (1, 2, (1, 3), (2, 2)),
    ],
)
def test_a_record_built_from_outside_is_checked(fields):
    with pytest.raises(ValueError):
        TraversalRecord(*fields)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_records_equal_checked_records(n):
    # traversal builds its records without the checks; each must equal
    # the record the checking constructor builds from the same fields.
    perms = list(all_permutations(n))
    for sigma in perms:
        for rho in perms:
            for m in range(1, n + 1):
                rec = traversal(sigma, rho, m)
                assert type(rec) is TraversalRecord
                assert rec == TraversalRecord(rec.m, rec.k, rec.i_seq, rec.j_seq)


def test_union_graphs_merge_edge_sets():
    sigma = from_cycles(5, [(1, 2, 3)])
    rho = from_cycles(5, [(3, 4)])
    a1, a2 = graphs_from_traversal(sigma, rho, 1)
    b1, b2 = graphs_from_traversal(sigma, rho, 5)
    u1, u2 = union_graphs(sigma, rho, [1, 5])
    assert u1.edges == a1.edges | b1.edges
    assert u2.edges == a2.edges | b2.edges
    with pytest.raises(ValueError):
        union_graphs(sigma, rho, [])
    with pytest.raises(ValueError):
        union_graphs(sigma, rho, [1, 1])


def test_graph_basics():
    g = DirectedGraph.of(4, [(1, 2), (3, 3)])
    t = from_cycles(4, [(1, 4)])
    assert relabeled(g, t).edges == frozenset({(4, 2), (3, 3)})


def test_shape_concrete():
    assert shape(DirectedGraph.of(9, [(3, 7)])) == ((2, 1),)
    assert shape(DirectedGraph.of(9, [(4, 4)])) == ((1, 1),)


@given(perm_strategy(7), st.data())
@settings(max_examples=60)
def test_shape_is_relabel_invariant(t, data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=k, max_size=k
        )
    )
    g = DirectedGraph.of(7, pairs)
    assert shape(relabeled(g, t)) == shape(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shape_names_the_classes_of_the_lex_min_form(n):
    # Two partial injections have one shape exactly when their least
    # relabelings agree.
    forms = {}
    for edges in brute.partial_injections(n):
        g = DirectedGraph(n, edges)
        forms.setdefault(shape(g), set()).add(brute.canonical_form(g))
    assert all(len(found) == 1 for found in forms.values())
    assert len(set().union(*forms.values())) == len(forms)


def test_profile_counts_components():
    g = DirectedGraph.of(8, [(1, 2), (2, 3), (5, 5), (6, 7)])
    prof = profile(g)
    assert len(prof) == 3
    assert set().union(*(v for v, _ in prof)) == {1, 2, 3, 5, 6, 7}
    sizes = sorted(len(v) for v, _ in prof)
    assert sizes == [1, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shape_matches_the_profile_of_every_partial_injection(n):
    sizes = {}
    for edges in brute.partial_injections(n):
        g = DirectedGraph(n, edges)
        assert shape(g) == brute.shape(g)
        sizes[shape(g)] = sizes.get(shape(g), 0) + 1
    assert sizes == {kinds: shape_orbit_size(kinds, n) for kinds in sizes}


def test_shape_of_a_graph_that_is_no_partial_injection_is_none():
    assert shape(DirectedGraph.of(4, [(1, 2), (2, 3), (3, 1), (4, 4)])) == ((1, 1), (3, 3))
    assert shape(DirectedGraph.of(4, [(1, 2), (1, 3)])) is None
    assert shape(DirectedGraph.of(4, [(1, 3), (2, 3)])) is None
    assert shape(DirectedGraph.of(4, [(1, 1), (1, 2)])) is None


def test_t_shape_recognition():
    # A graph is k pairwise disjoint single edges exactly when its shape
    # is ((2, 1),) * k.
    assert shape(DirectedGraph.of(6, [(1, 4), (2, 5)])) == ((2, 1),) * 2
    assert shape(DirectedGraph.of(6, [(1, 4), (4, 5)])) != ((2, 1),) * 2
    assert shape(DirectedGraph.of(6, [(3, 3)])) != ((2, 1),)
    assert shape(DirectedGraph.of(6, [(1, 4), (2, 5), (3, 6)])) == ((2, 1),) * 3


def test_joint_membership_consistency():
    assert _joint_membership_consistent([(1, 2)], [(3, 4)])
    assert _joint_membership_consistent([(1, 2)], [(1, 2)])
    assert not _joint_membership_consistent([(1, 2)], [(1, 3)])
    assert not _joint_membership_consistent([(1, 3)], [(2, 3)])


def test_enumerate_b_matches_choice_count():
    t1 = ((2, 1),)
    assert enumerate_B(3, (1,), t1, t1) == 2
    assert enumerate_B(4, (1,), t1, t1) == 3
    count, couples = brute.enumerate_B(4, (1,), t1, t1, return_couples=True)
    assert count == len(couples) == 3
    for g1, g2 in couples:
        assert shape(g1) == shape(g2) == t1
        assert any(1 in edge for edge in g1.edges)


def test_enumerate_b_input_validation():
    t1 = ((2, 1),)
    with pytest.raises(ValueError):
        enumerate_B(4, (), t1, t1)
    with pytest.raises(ValueError):
        enumerate_B(4, (0,), t1, t1)
    with pytest.raises(ValueError):
        enumerate_B(0, (1,), t1, t1)


@pytest.mark.parametrize(
    "v_vec, patterns", [((1,), 2), ((3,), 34), ((2, 2), 216), ((3, 3), 13395), ((2, 2, 2), 13954)]
)
def test_walk_pattern_counts(v_vec, patterns):
    assert len({(e1, e2) for _, e1, e2 in walk_patterns(v_vec)}) == patterns


LENGTH_VECTORS = ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1))


@pytest.mark.parametrize("v_vec", LENGTH_VECTORS)
def test_walk_patterns_are_partial_injections_on_their_names(v_vec):
    # Both sides are partial injections on exactly the vertices 1..K+u,
    # with one edge per step of a walk on each side.
    k = len(v_vec)
    for u, e1, e2 in walk_patterns(v_vec):
        assert shape(DirectedGraph(k + u, e1)) is not None
        assert shape(DirectedGraph(k + u, e2)) is not None
        for edges in (e1, e2):
            assert {x for edge in edges for x in edge} == set(range(1, k + u + 1))
        assert len(e1) == len(e2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_b_matches_the_brute_reference(n):
    # Every shape couple that some walk pattern realizes at n, the pair of
    # (K+1)-cycles, which no pattern realizes, and the first unrealized
    # couples of shapes that each side realizes.
    for v in LENGTH_VECTORS:
        k = len(v)
        if sum(v) > n:
            continue
        realized = {
            (shape(DirectedGraph(k + u, e1)), shape(DirectedGraph(k + u, e2)))
            for u, e1, e2 in walk_patterns(v)
            if k + u <= n
        }
        cycle = ((k + 1, k + 1),)
        sides = ({s1 for s1, _ in realized}, {s2 for _, s2 in realized})
        unrealized = [(cycle, cycle)] + sorted(set(itertools.product(*sides)) - realized)[:3]
        for s1, s2 in realized:
            count = enumerate_B(n, v, s1, s2)
            assert count > 0
            assert count == brute.enumerate_B(n, v, s1, s2), (v, s1, s2)
        for s1, s2 in unrealized:
            assert enumerate_B(n, v, s1, s2) == brute.enumerate_B(n, v, s1, s2) == 0, (v, s1, s2)


@given(perm_strategy(5), perm_strategy(5))
@settings(max_examples=40)
def test_lemma_predicates_hold_on_random_pairs(sigma, rho):
    r1, r2 = traversal(sigma, rho, 1), traversal(sigma, rho, 2)
    graphs1, graphs2 = graphs_from_record(r1, 5), graphs_from_record(r2, 5)
    assert no_two_cycles_when_components_small(*graphs1)
    assert shared_cycle_graphs_match(r1, graphs1, r2, graphs2)
    s = traversal(rho, sigma, 1)
    _, h2 = graphs_from_traversal(inverse(rho), inverse(sigma), rho.images[0])
    assert reversal_identities_hold(r1, graphs1[0], s, h2)


def test_lemma_predicates_catch_broken_inputs():
    sigma = from_cycles(4, [(1, 2, 3)])
    rho = from_cycles(4, [(2, 4)])
    r1, r2 = traversal(sigma, rho, 1), traversal(sigma, rho, 2)
    assert 1 in r2.i_seq
    graphs1, graphs2 = graphs_from_record(r1, 4), graphs_from_record(r2, 4)
    assert shared_cycle_graphs_match(r1, graphs1, r2, graphs2)
    other = (DirectedGraph.of(4, [(1, 1)]), graphs2[1])
    assert not shared_cycle_graphs_match(r1, graphs1, r2, other)
    assert shared_cycle_graphs_match(r1, graphs1, traversal(sigma, sigma, 2), other)
    s = traversal(rho, sigma, 1)
    _, h2 = graphs_from_traversal(inverse(rho), inverse(sigma), rho.images[0])
    assert reversal_identities_hold(r1, graphs1[0], s, h2)
    assert not reversal_identities_hold(r1, graphs1[0], s, graphs1[1])
    assert not reversal_identities_hold(r1, graphs1[0], traversal(rho, sigma, 4), h2)
    two_cycle = DirectedGraph.of(4, [(1, 2), (2, 1)])
    pair = DirectedGraph.of(4, [(3, 4)])
    assert not no_two_cycles_when_components_small(two_cycle, pair)
    assert no_two_cycles_when_components_small(two_cycle, DirectedGraph.of(4, [(2, 3), (3, 4)]))


def edge_lists(n: int = 6):
    """Edge lists built from blocks: any edge, a loop, a 2-cycle, a path
    on up to three vertices."""
    v = st.integers(1, n)
    block = st.one_of(
        st.tuples(v, v).map(lambda e: [e]),
        v.map(lambda a: [(a, a)]),
        st.tuples(v, v).map(lambda e: [e, e[::-1]]),
        st.tuples(v, v, v).map(lambda p: [(p[0], p[1]), (p[1], p[2])]),
    )
    return st.lists(block, max_size=4).map(lambda blocks: [e for b in blocks for e in b])


@given(edge_lists(), edge_lists())
@example([(1, 2), (2, 1), (1, 1)], [(3, 4)])
@example([(1, 2), (2, 1)], [(3, 3)])
@example([(1, 2), (2, 1), (3, 4)], [(5, 6), (6, 5)])
@example([(1, 2), (2, 1)], [(3, 4), (4, 5)])
@settings(max_examples=300)
def test_two_vertex_predicate_matches_profile_definition(e1, e2):
    # The sweep's bit tests on a couple's edge masks, and on the masks
    # with every edge reversed, against component profiles.
    g1, g2 = DirectedGraph.of(6, e1), DirectedGraph.of(6, e2)
    masks, flipped = (
        np.array([[[brute.edge_mask(edges, 6) for edges in sides]]], dtype=np.int64)
        for sides in ((e1, e2), ([e[::-1] for e in e1], [e[::-1] for e in e2]))
    )
    assert bool(sweeps._two_vertex_verdicts(masks, flipped, 6)[0, 0]) == (
        no_two_cycles_when_components_small(g1, g2)
    )


@given(perm_strategy(5), st.data())
@settings(max_examples=40)
def test_relabel_dichotomy_on_random_graphs(tau, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3
        )
    )
    g = DirectedGraph.of(5, pairs)
    components = [verts for verts, _ in profile(g)]
    assert relabel_dichotomy_holds(g, components, tau)
