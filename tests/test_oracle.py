"""Exact-arithmetic oracle tests.

Every expected value here is a closed form evaluated inline, a constant
frozen from an independent derivation, or a brute-force enumeration from
``brute``; estimates never appear.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permprod import oracle
from permprod.cyclegraphs import DirectedGraph, shape, walk_patterns
from permprod.cli import _exact_law, sampler_from_text
from permprod.oracle import (
    ExactDistribution,
    _character_table,
    class_size,
    ewens_prefix_fixed_prob,
    exact_graph_prob,
    exact_joint_cycle_prob,
    exact_moment,
    partitions,
    prefix_fixed_prob,
    product_type_distribution,
    shape_prob,
    verify_bounds,
)

from brute import (
    class_probs,
    compose,
    conjugation_average,
    cycle_of,
    cycle_type,
    digraph,
    ewens_weight,
    expect_cycle_product,
    graph_orbits,
    graph_prob,
    inverse,
    membership,
    pair_expectation_direct,
    permutation_weights,
    representative,
    rising_factorial,
    shape_counts,
    shape_table,
    shape_tuple_pmf,
    shapes,
    table_shape_prob,
    union_graphs,
    union_pair_pmf,
)
from brute import product_type_distribution as brute_product_law
from brute import shape as brute_shape

THETAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def test_partitions_of_five():
    parts = list(partitions(5))
    assert len(parts) == 7
    assert (5,) in parts and (1, 1, 1, 1, 1) in parts
    assert all(tuple(sorted(p, reverse=True)) == p for p in parts)


@given(st.integers(min_value=1, max_value=8))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(p, n) for p in partitions(n)) == math.factorial(n)


def test_representative_has_declared_type():
    p = representative((3, 2, 1))
    assert cycle_type(p) == (3, 2, 1)


def test_rising_factorial_values():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(Fraction(1), 5) == 120


def test_ewens_weight_depends_only_on_cycle_count():
    p = representative((2, 2))
    assert ewens_weight(p, Fraction(1, 2)) == Fraction(1, 4) / rising_factorial(
        Fraction(1, 2), 4
    )
    with pytest.raises(ValueError):
        ewens_weight(p, 0)


@given(st.sampled_from(THETAS), st.integers(min_value=1, max_value=7))
def test_distributions_are_normalized(theta, n):
    d = ExactDistribution.ewens(n, theta)
    assert sum(p for _, p in class_probs(d)) == 1
    assert all(p >= 0 for _, p in class_probs(d))


def test_ewens_special_cases():
    n = 5
    assert class_probs(ExactDistribution.ewens(n, 1)) == class_probs(ExactDistribution.uniform(n))
    d0 = ExactDistribution.ewens(n, 0)
    assert dict(class_probs(d0)) == {(n,): Fraction(1)}


@pytest.mark.parametrize(
    "theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3), Fraction(10**20, 3)]
)
def test_ewens_law_matches_fraction_formula(theta):
    # The integer construction against class_size * theta^c / theta^(n)
    # in Fractions, theta^(n) the rising factorial.
    for n in range(1, 10):
        want = {
            p: class_size(p, n) * theta ** len(p) / rising_factorial(theta, n)
            for p in partitions(n)
        }
        assert dict(class_probs(ExactDistribution.ewens(n, theta))) == want, n
    for n in range(1, 10):
        d0 = ExactDistribution.ewens(n, 0)
        assert (d0.kind, class_probs(d0)) == ("ewens0", (((n,), Fraction(1)),))


def test_distribution_validation_messages():
    with pytest.raises(ValueError, match="class probabilities sum to 5/6, expected 1"):
        ExactDistribution.explicit(2, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 3)})
    with pytest.raises(ValueError, match=r"negative class probability for \(2,\)"):
        ExactDistribution.explicit(2, {(2,): -1, (1, 1): 2})
    with pytest.raises(ValueError, match="does not sum to 4"):
        ExactDistribution.explicit(4, {(2, 1): 1})
    with pytest.raises(ValueError, match="a cycle type is listed twice"):
        ExactDistribution.explicit(3, {(2, 1): "1/2", (1, 2): "1/2"})
    not_a_type = "is not a weakly decreasing tuple of positive parts"
    with pytest.raises(ValueError, match=rf"cycle type \(1, 2\) {not_a_type}"):
        ExactDistribution(3, "x", (((1, 2), 1),), 1)
    with pytest.raises(ValueError, match=rf"cycle type \(3, 0\) {not_a_type}"):
        ExactDistribution(3, "x", (((3, 0), 1),), 1)


def test_integer_masses_sum_to_the_denominator():
    laws = [ExactDistribution.uniform(n) for n in range(1, 10)]
    laws += [ExactDistribution.ewens(n, theta) for n in range(1, 10) for theta in THETAS]
    laws.append(ExactDistribution.ewens(6, Fraction(10**20, 3)))
    mapping = {(4,): "1/6", (2, 2): "1/3", (2, 1, 1): 0, (1, 1, 1, 1): "1/2"}
    laws.append(ExactDistribution.explicit(4, mapping))
    for d in laws:
        assert sum(mass for _, mass in d.masses) == d.denominator, d.kind
        assert all(mass > 0 for _, mass in d.masses), d.kind
        assert [mu for mu, _ in d.masses] == sorted(mu for mu, _ in d.masses), d.kind
        assert math.gcd(d.denominator, *(mass for _, mass in d.masses)) == 1, d.kind


def test_laws_with_the_same_class_probabilities_are_equal():
    # Masses are kept sorted and in lowest terms, whatever the order,
    # scale or zero entries they were given in.
    mapping = {(4,): "1/6", (2, 2): "1/3", (2, 1, 1): 0, (1, 1, 1, 1): "1/2"}
    law = ExactDistribution.explicit(4, mapping)
    masses = (((1, 1, 1, 1), 9), ((2, 1, 1), 0), ((4,), 3), ((2, 2), 6))
    scaled = ExactDistribution(4, "explicit", masses, 18)
    assert law == scaled and hash(law) == hash(scaled)
    assert (scaled.masses, scaled.denominator) == ((((1, 1, 1, 1), 3), ((2, 2), 2), ((4,), 1)), 6)
    uniform = ExactDistribution.uniform(5)
    assert ExactDistribution.explicit(5, dict(class_probs(uniform)), kind="uniform") == uniform
    with pytest.raises(ValueError, match="denominator 0 is not positive"):
        ExactDistribution(2, "explicit", (((2,), 0),), 0)


@pytest.mark.parametrize("n", range(10))
def test_prefix_built_shape_counts_match_reference(n):
    for partition in partitions(n):
        assert shape_table(partition) == shape_counts(partition), partition


def _table_laws(n: int) -> list[ExactDistribution]:
    # The CLI's exact laws of every kind that exist at n, and every
    # single-type law.
    texts = ["uniform", *(f"ewens:{theta}" for theta in ("0", "1/2", "1", "2", "3/7"))]
    texts += ["sqrt_fixed:sqrt", "matching_heavy:1/3", "matching_heavy:1/2"]
    laws = []
    for text in texts:
        try:
            laws.append(_exact_law(sampler_from_text(text).bind(n=n)))
        except ValueError:  # no such fixed cycle type at this n
            pass
    return laws + [ExactDistribution.explicit(n, {lam: 1}, kind=str(lam)) for lam in partitions(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_shape_and_prefix_probs_match_the_table_for_every_shape(n):
    # Both routes of shape_prob, the closed form and the restricted
    # count, and the class-mass route of prefix_fixed_prob, against the
    # table of every shape of every cycle type.
    laws = _table_laws(n)
    assert {d.theta is None for d in laws} == {True, False}
    for d in laws:
        for kinds in shapes(n):
            assert shape_prob(d, kinds) == table_shape_prob(d, kinds), (d.kind, kinds)
        for f in range(n + 1):
            assert prefix_fixed_prob(d, f) == table_shape_prob(d, ((1, 1),) * f), (d.kind, f)


def test_ewens_closed_form_is_the_count_over_every_cycle_type_at_24():
    # No table: the closed form of Ewens(2) against the restricted count
    # over its 1575 cycle types, given as a law without theta, which is
    # equal to it and hashes alike.
    ewens = ExactDistribution.ewens(24, 2)
    mixture = ExactDistribution(24, ewens.kind, ewens.masses, ewens.denominator)
    assert mixture.theta is None and len(mixture.masses) == 1575
    assert mixture == ewens and hash(mixture) == hash(ewens)
    for kinds in [((1, 1),), ((2, 1),), ((2, 2),), ((2, 1), (3, 2))]:
        assert shape_prob(ewens, kinds) == shape_prob(mixture, kinds), kinds
    assert shape_prob(ewens, ((2, 1),)) == Fraction(1, 25)


def test_membership_at_monte_carlo_sizes_needs_no_table():
    # One edge of the 50-cycle law; one loop of sqrt_fixed:sqrt at
    # n = 4096, 64 fixed points and a 4032-cycle.
    assert shape_prob(ExactDistribution.ewens(50, 0), ((2, 1),)) == Fraction(1, 49)
    law = _exact_law(sampler_from_text("sqrt_fixed:sqrt").bind(n=4096))
    assert shape_prob(law, ((1, 1),)) == Fraction(1, 64)


def test_uniform_product_has_uniform_law():
    # uniform is invariant under left multiplication, so the product law
    # collapses back to uniform
    n = 5
    du = ExactDistribution.uniform(n)
    assert product_type_distribution(du, du).masses == du.masses


@given(st.integers(min_value=2, max_value=6))
def test_uniform_product_first_moments(n):
    du = ExactDistribution.uniform(n)
    assert exact_moment((du, du), (1,)) == 1
    assert exact_moment((du, du), (1, 1)) == 2


def test_ewens_pair_fixed_point_moment_closed_form():
    # E[#1 of sigma rho] = n * P(product fixes index 1); at n=3 the
    # conditional argument gives a short closed form to pin one case
    n = 3
    d1 = ExactDistribution.ewens(n, 2)
    d2 = ExactDistribution.ewens(n, Fraction(1, 2))
    direct = pair_expectation_direct(
        permutation_weights(d1),
        permutation_weights(d2),
        lambda s, r: cycle_type(compose(s, r)).count(1),
    )
    assert exact_moment((d1, d2), (1,)) == direct


def test_joint_cycle_prob_matches_inverse_first_double_sum():
    # the oracle gives the class law of sigma o rho; the joint cycle law is
    # stated for inverse(sigma) o rho, which has the same law when sigma's
    # law is conjugation invariant. Check that against the unreduced double
    # sum.
    for n in (4, 5):
        d1 = ExactDistribution.ewens(n, 2)
        d2 = ExactDistribution.ewens(n, Fraction(1, 2))
        # weights of inverse(sigma), keyed by inverse(sigma)
        w1_inv = {inverse(s): p for s, p in permutation_weights(d1).items()}
        w2 = permutation_weights(d2)
        for v in [(1,), (2,), (1, 2), (3, 1)]:
            direct = pair_expectation_direct(
                w1_inv,
                w2,
                lambda s_inv, r: all(
                    len(cycle_of(compose(s_inv, r), i + 1)) == length
                    for i, length in enumerate(v)
                ),
            )
            assert exact_joint_cycle_prob((d1, d2), v) == direct


def test_representative_reduction_matches_double_sum():
    # the brute-force law fixes the first factor at a class representative,
    # the oracle sums characters; validate both against the unreduced
    # 576-term double sum
    n = 4
    d1 = ExactDistribution.ewens(n, 2)
    d2 = ExactDistribution.ewens(n, Fraction(1, 2))
    w1 = permutation_weights(d1)
    w2 = permutation_weights(d2)
    for v in [(1,), (2,), (1, 1)]:
        direct = pair_expectation_direct(
            w1,
            w2,
            lambda s, r: math.prod(cycle_type(compose(s, r)).count(k) for k in v),
        )
        assert exact_moment((d1, d2), v) == direct
        reduced = sum(
            prob * math.prod(mu.count(k) for k in v)
            for mu, prob in brute_product_law(d1, d2)
        )
        assert reduced == direct


def test_joint_cycle_prob_frozen_values():
    for n in (4, 5):
        du = ExactDistribution.uniform(n)
        assert exact_joint_cycle_prob((du, du), (1, 2)) == Fraction(
            1, n * (n - 1)
        )
        assert n**2 * exact_joint_cycle_prob((du, du), (1, 2)) == Fraction(n, n - 1)
    d1 = ExactDistribution.ewens(4, 2)
    d2 = ExactDistribution.ewens(4, Fraction(1, 2))
    assert exact_joint_cycle_prob((d1, d2), (1,)) == Fraction(8, 35)
    assert exact_joint_cycle_prob((d1, d2), (2,)) == Fraction(87, 350)
    assert exact_joint_cycle_prob((d1, d2), (1, 2)) == Fraction(8, 105)


def test_joint_cycle_prob_checks_its_arguments_before_the_product_law(monkeypatch):
    def unreachable(*laws):
        raise AssertionError("the product law was built")

    du = ExactDistribution.uniform(3)
    monkeypatch.setattr(oracle, "product_type_distribution", unreachable)
    with pytest.raises(ValueError, match="more start indices than ground-set elements"):
        exact_joint_cycle_prob((du, du), (1, 1, 1, 1))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="a product needs at least one factor"):
        exact_joint_cycle_prob((), (1,))


def test_expect_cycle_product_frozen_values():
    # E[#2] under the theta-biased law: theta/2 * n(n-1) / ((theta+n-1)(theta+n-2))
    assert expect_cycle_product(ExactDistribution.ewens(5, 2), (2,)) == Fraction(2, 3)
    assert expect_cycle_product(
        ExactDistribution.ewens(7, Fraction(1, 2)), (2,)
    ) == Fraction(42, 143)


def test_conjugation_average_fixed_point_and_projection():
    n = 4
    w = permutation_weights(ExactDistribution.ewens(n, 2))
    assert conjugation_average(w) == w
    # point mass spreads uniformly over its conjugacy class
    point = {representative((2, 1, 1)): Fraction(1)}
    spread = conjugation_average(point)
    assert len(spread) == class_size((2, 1, 1), n) == 6
    assert set(spread.values()) == {Fraction(1, 6)}


@given(
    st.sampled_from(THETAS),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40)
def test_prefix_fixed_prob_matches_closed_form(theta, n, f):
    f = min(f, n)
    d = ExactDistribution.ewens(n, theta)
    assert prefix_fixed_prob(d, f) == ewens_prefix_fixed_prob(n, f, theta)


def test_graph_prob_uniform_is_falling_factorial():
    n = 5
    du = ExactDistribution.uniform(n)
    g = digraph(n, [(1, 2), (3, 3)])
    assert exact_graph_prob(du, g) == Fraction(
        math.factorial(n - 2), math.factorial(n)
    )
    contradictory = digraph(n, [(1, 2), (1, 3)])
    assert exact_graph_prob(du, contradictory) == 0


def test_graph_prob_ewens_concrete():
    # ewens(2) at n=4: P(sigma(1)=1) = E[#1]/n = 2/5, and by exchangeability
    # P(sigma(1)=2) = (1 - 2/5)/3 = 1/5
    d = ExactDistribution.ewens(4, 2)
    assert exact_graph_prob(d, digraph(4, [(1, 1)])) == Fraction(2, 5)
    assert exact_graph_prob(d, digraph(4, [(1, 2)])) == Fraction(1, 5)


def _mixture(n: int) -> ExactDistribution:
    # Mass proportional to 1, 2, 3, ... on the cycle types in order.
    parts = list(partitions(n))
    total = len(parts) * (len(parts) + 1) // 2
    return ExactDistribution.explicit(
        n, {lam: Fraction(i + 1, total) for i, lam in enumerate(parts)}, kind="mixture"
    )


def _shape_laws(n: int) -> list[ExactDistribution]:
    # Uniform, Ewens 1/2, 2 and 0, every single cycle type and a mixture.
    laws = [ExactDistribution.uniform(n)]
    laws += [ExactDistribution.ewens(n, theta) for theta in (Fraction(1, 2), 2, 0)]
    laws += [ExactDistribution.explicit(n, {lam: 1}, kind=str(lam)) for lam in partitions(n)]
    return laws + [_mixture(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shape_prob_matches_enumeration_for_every_shape(n):
    laws = _shape_laws(n)
    for g, _, _ in graph_orbits(n):
        kinds = brute_shape(g)
        for d in laws:
            expected = graph_prob(d, g)
            assert shape_prob(d, kinds) == expected, (d.kind, kinds)
            assert exact_graph_prob(d, g) == expected, (d.kind, kinds)


def test_shape_prob_matches_enumeration_at_six():
    n = 6
    laws = [
        ExactDistribution.uniform(n),
        ExactDistribution.ewens(n, 2),
        ExactDistribution.explicit(n, {(3, 2, 1): 1}),
        _mixture(n),
    ]
    for g, _, _ in graph_orbits(n):
        for d in laws:
            assert exact_graph_prob(d, g) == graph_prob(d, g), (d.kind, sorted(g.edges))


def test_graph_prob_is_zero_off_partial_injections():
    for edges in ([(1, 2), (1, 3)], [(1, 3), (2, 3)], [(1, 1), (1, 2)]):
        g = digraph(4, edges)
        for d in _shape_laws(4):
            assert exact_graph_prob(d, g) == graph_prob(d, g) == 0
    with pytest.raises(ValueError):
        verify_bounds(ExactDistribution.uniform(4), digraph(4, [(1, 2), (1, 3)]))
    with pytest.raises(ValueError):
        shape_prob(ExactDistribution.uniform(3), ((2, 1), (2, 1)))


def test_graph_prob_counts_are_keyed_by_n():
    # One edge set at two sizes must read each law's own n.
    edges = [(1, 2), (2, 1)]
    for n in (4, 5, 4):
        g = digraph(n, edges)
        uniform = ExactDistribution.uniform(n)
        assert exact_graph_prob(uniform, g) == Fraction(1, n * (n - 1))
        d = ExactDistribution.ewens(n, 2)
        expected = sum(w for sigma, w in permutation_weights(d).items() if membership(sigma, g))
        assert exact_graph_prob(d, g) == expected


def test_union_pair_pmf_mass_equals_joint_prob():
    n = 4
    du = ExactDistribution.uniform(n)
    d1 = ExactDistribution.ewens(n, 2)
    d2 = ExactDistribution.ewens(n, Fraction(1, 2))
    for a, b in [(du, du), (d1, d2)]:
        for v in [(1,), (1, 1), (2,)]:
            mass = sum(union_pair_pmf(a, b, v).values(), Fraction(0))
            assert mass == exact_joint_cycle_prob((a, b), v)
    assert sum(union_pair_pmf(d1, d2, (1, 1)).values(), Fraction(0)) == Fraction(
        12, 175
    )


def test_single_start_tuple_pmf_equals_union_pmf():
    d1 = ExactDistribution.ewens(4, 2)
    d2 = ExactDistribution.ewens(4, Fraction(1, 2))
    for v in [(1,), (2,)]:
        tp = shape_tuple_pmf(d1, d2, v)
        up = union_pair_pmf(d1, d2, v)
        assert {(k[0], k[1]): p for k, p in tp.items()} == up


def test_tuple_pmf_generic_fixed_pair_mass():
    # both starts fixed with generic (non-loop) graphs: 1/12 * 7/12
    du = ExactDistribution.uniform(4)
    tp = shape_tuple_pmf(du, du, (1, 1))
    t1 = ((2, 1),)
    assert tp[(t1, t1, t1, t1)] == Fraction(7, 144)


def test_couple_sum_reproduces_joint_prob():
    # the joint cycle event splits over realized union couples, each
    # contributing the product of its membership probabilities
    n, v = 4, (1, 2)
    du = ExactDistribution.uniform(n)
    w = permutation_weights(du)
    couples = set()
    for sigma in w:
        sinv = inverse(sigma)
        for rho in w:
            prod = compose(sinv, rho)
            lengths = [len(cycle_of(prod, i)) for i in (1, 2)]
            if lengths == list(v):
                couples.add(union_graphs(sigma, rho, (1, 2)))
    assert len(couples) == 48
    total = sum(
        (exact_graph_prob(du, g1) * exact_graph_prob(du, g2) for g1, g2 in couples),
        Fraction(0),
    )
    assert total == exact_joint_cycle_prob((du, du), v) == Fraction(1, 12)


LENGTH_VECTORS = ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_walk_patterns_sum_to_the_joint_cycle_law(n):
    # The event "start m lies on a cycle of length v_m for every m" is the
    # disjoint union over patterns of {sigma contains E_sigma, rho contains
    # E_rho}, each pattern for (n-K)!/(n-K-u)! labelled couples.
    laws = [
        ExactDistribution.ewens(n, 2),
        ExactDistribution.ewens(n, Fraction(1, 2)),
        ExactDistribution.uniform(n),
        ExactDistribution.explicit(n, {(3,) + (1,) * (n - 3): 1}),
    ]
    for v in LENGTH_VECTORS:
        if sum(v) > n:
            continue
        k = len(v)
        keys = Counter(
            (u, shape(DirectedGraph(k + u, e1)), shape(DirectedGraph(k + u, e2)))
            for u, e1, e2 in walk_patterns(v)
            if k + u <= n
        )
        for d1, d2 in zip(laws, laws[1:] + laws[:1]):
            total = sum(
                (
                    count * math.perm(n - k, u) * shape_prob(d1, s1) * shape_prob(d2, s2)
                    for (u, s1, s2), count in keys.items()
                ),
                Fraction(0),
            )
            assert total == exact_joint_cycle_prob((d1, d2), v), (v, d1.kind, d2.kind)


def test_verify_bounds_families_and_validity():
    n = 5
    d = ExactDistribution.ewens(n, 2)
    single_edges = digraph(n, [(1, 2), (3, 4)])
    checks = verify_bounds(d, single_edges)
    ids = {c.check_id for c in checks}
    assert any("membership-upper" in i for i in ids)
    assert any("matching-sandwich" in i for i in ids)
    assert all(c.holds for c in checks)
    with_two_cycle = digraph(n, [(1, 2), (2, 1)])
    checks = verify_bounds(d, with_two_cycle)
    assert any("two-cycle-upper" in c.check_id for c in checks)
    assert all(c.holds for c in checks)


def test_verify_bounds_does_not_depend_on_law_order():
    # The counts behind every probability are cached per cycle type and
    # shared by the laws, so each order starts from new law objects:
    # whichever law comes first must not leak into the others.
    n = 4

    def new_laws():
        return [ExactDistribution.ewens(n, t) for t in THETAS] + [ExactDistribution.uniform(n)]

    laws = new_laws()
    graphs = [
        digraph(n, edges)
        for edges in (
            [(1, 1)],
            [(1, 2)],
            [(1, 2), (2, 1)],
            [(1, 2), (3, 4)],
            [(1, 2), (2, 3)],
            [(1, 1), (2, 3), (3, 2)],
            [(1, 2), (2, 1), (3, 4)],
        )
    ]
    results = []
    for order in (new_laws(), new_laws()[::-1]):
        results.append({(law.kind, g): verify_bounds(law, g) for g in graphs for law in order})
    assert results[0] == results[1]
    for law in laws:
        weights = permutation_weights(law)

        def prob_of(event):
            return sum(w for sigma, w in weights.items() if event(sigma))

        for g in graphs:
            checks = {c.check_id: c for c in results[0][law.kind, g]}
            kinds = brute_shape(g)
            p, v = len(kinds), len({x for edge in g.edges for x in edge})
            f = sum(a == b for a, b in g.edges)
            weighted = checks.pop("membership-upper-weighted")
            plain = checks.pop("membership-upper-plain")
            assert weighted.parameters == {"p": p, "v": v, "f": f, "edges": len(g.edges)}
            assert weighted.lhs == prob_of(lambda sigma: membership(sigma, g))
            assert plain.rhs == Fraction(math.factorial(n - v), math.factorial(n - p))
            # The weighted bound is the plain one times P(sigma fixes 1..f).
            fixing = prob_of(lambda sigma: sigma.images[:f] == tuple(range(1, f + 1)))
            assert weighted.rhs == plain.rhs * fixing
            # With every component on two vertices and one a 2-cycle, the
            # 2-cycle bound is the plain one times P(1 lies on a 2-cycle).
            if (2, 2) in kinds and all(verts == 2 for verts, _ in kinds):
                on_two_cycle = prob_of(lambda sigma: len(cycle_of(sigma, 1)) == 2)
                assert checks.pop("two-cycle-upper").rhs == plain.rhs * on_two_cycle
            # p disjoint single edges: the sandwich around the plain bound.
            if set(kinds) == {(2, 1)}:
                fixes_1 = prob_of(lambda sigma: sigma.images[0] == 1)
                slack = 1 - Fraction(p * p - p, n - 1) - p * fixes_1
                assert checks.pop("matching-sandwich-lower").lhs == slack * plain.rhs
                assert checks.pop("matching-sandwich-upper").rhs == plain.rhs
            assert checks == {}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_graph_prob_past_enumeration_matches_closed_forms(n):
    # Under Ewens(theta), P(sigma contains E) = theta^c(E) theta^(n - |E|)
    # / theta^(n) with c(E) the closed cycles of E and theta^(m) the
    # rising factorial; uniform is (n - |E|)! / n!.
    graphs = {
        # edges: closed cycles
        ((1, 1),): 1,
        ((1, 2),): 0,
        ((1, 2), (2, 1), (3, 3)): 2,
        ((1, 2), (2, 3), (4, 5), (5, 4), (6, 7), (7, 8), (8, 6)): 2,
        ((1, 2), (2, 3), (3, 4), (5, 5), (6, 6), (7, 9)): 2,
    }
    du = ExactDistribution.uniform(n)
    for edges, cycles in graphs.items():
        g = digraph(n, edges)
        assert exact_graph_prob(du, g) == Fraction(
            math.factorial(n - len(edges)), math.factorial(n)
        )
        for theta in THETAS:
            expected = (
                theta**cycles * rising_factorial(theta, n - len(edges)) / rising_factorial(theta, n)
            )
            assert exact_graph_prob(ExactDistribution.ewens(n, theta), g) == expected, (theta, edges)
    # The product law does not enumerate S_n either.
    assert product_type_distribution(du, du).masses == du.masses


def _law(text: str, n: int) -> ExactDistribution:
    return _exact_law(sampler_from_text(text).bind(n=n))


def _fixed_law(n: int) -> ExactDistribution:
    # one fixed point and a long cycle, or at n = 2, where that type does
    # not exist, one 2-cycle
    return _law("matching_heavy:1/2" if n == 2 else "sqrt_fixed:1", n)


@pytest.mark.parametrize(
    "first, second",
    [("ewens:2", "ewens:1/2"), ("uniform", "ewens:1/2"), ("ewens:0", "ewens:3"), ("fixed", "ewens:2")],
)
def test_character_law_matches_enumeration(first, second):
    for n in range(1, 8):
        a = _fixed_law(n) if first == "fixed" else _law(first, n)
        b = _law(second, n)
        assert class_probs(product_type_distribution(a, b)) == brute_product_law(a, b), n


def test_three_factor_law_is_two_factor_law_of_the_first_pair():
    # sigma_1 sigma_2 is conjugation invariant and independent of sigma_3,
    # so the three-factor law is the two-factor law of (law(ab), c)
    # and a product law can be a factor itself
    for n in range(1, 8):
        a, b, c = _law("ewens:2", n), _law("ewens:1/2", n), _fixed_law(n)
        three = product_type_distribution(a, b, c)
        assert product_type_distribution(product_type_distribution(a, b), c) == three, n
        pair = ExactDistribution.explicit(n, dict(brute_product_law(a, b)))
        assert class_probs(three) == brute_product_law(pair, c), n


def _hook_length_degree(lam: tuple[int, ...]) -> int:
    conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = math.prod(
        lam[i] - j + conjugate[j] - i - 1  # arm + leg + 1
        for i in range(len(lam))
        for j in range(lam[i])
    )
    return math.factorial(sum(lam)) // hooks


@pytest.mark.parametrize("n", range(1, 11))
def test_character_table_orthogonality_and_degrees(n):
    parts, table = _character_table(n)
    assert list(parts) == list(partitions(n))
    sizes = [class_size(mu, n) for mu in parts]
    identity = parts.index((1,) * n)
    for i, row in enumerate(table):
        assert row[identity] == _hook_length_degree(parts[i])
        for k, other in enumerate(table):
            inner = sum(c * x * y for c, x, y in zip(sizes, row, other))
            assert inner == (math.factorial(n) if i == k else 0), (parts[i], parts[k])


@pytest.mark.parametrize("n", [12, 16])
def test_fixed_point_moment_matches_closed_form_past_enumeration(n):
    # E t_1 = n P(sigma rho fixes 1) = n [ab + (1-a)(1-b)/(n-1)], where a
    # and b are the chances that each Ewens factor fixes a given point
    theta1, theta2 = Fraction(2), Fraction(1, 2)
    a, b = theta1 / (theta1 + n - 1), theta2 / (theta2 + n - 1)
    laws = (ExactDistribution.ewens(n, theta1), ExactDistribution.ewens(n, theta2))
    assert exact_moment(laws, (1,)) == n * (a * b + (1 - a) * (1 - b) / (n - 1))
    law = product_type_distribution(*laws)
    assert (law.kind, sum(mass for _, mass in law.masses)) == ("product", law.denominator)
