import pytest
from hypothesis import given, settings, strategies as st

from brute import (
    compose,
    conjugate,
    cycle_of,
    cycle_type,
    from_cycles,
    identity,
    inverse,
    line,
    power_fixed_points,
    trace_power,
)
from permprod import sweeps
from permprod.perms import Permutation, all_permutations


def perm_strategy(max_n: int = 7):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(lambda images: Permutation(tuple(images)))


def test_identity_fixes_everything():
    e = identity(5)
    assert e.images == (1, 2, 3, 4, 5)
    assert cycle_type(e) == (1, 1, 1, 1, 1)


def test_one_line_round_trip():
    p = Permutation((3, 1, 2, 4))
    assert line(p) == "3 1 2 4"
    assert Permutation(tuple(map(int, line(p).split()))) == p


def test_from_cycles_builds_expected_images():
    p = from_cycles(5, [(1, 3), (2, 5, 4)])
    assert p.images == (3, 5, 1, 2, 4)


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 2, 1))


def test_compose_applies_right_factor_first():
    a = from_cycles(3, [(1, 2)])
    b = from_cycles(3, [(2, 3)])
    c = compose(a, b)
    # c(x) = a(b(x)): 1 -> 1 -> 2, 2 -> 3 -> 3, 3 -> 2 -> 1
    assert c.images == (2, 3, 1)


@given(perm_strategy())
def test_inverse_composes_to_identity(p):
    assert compose(p, inverse(p)) == identity(p.n)
    assert compose(inverse(p), p) == identity(p.n)


@given(perm_strategy(6), st.data())
def test_conjugation_preserves_cycle_type(p, data):
    t = data.draw(st.permutations(list(range(1, p.n + 1))))
    t = Permutation(tuple(t))
    assert cycle_type(conjugate(p, t)) == cycle_type(p)


def test_conjugate_orientation():
    # conjugate(a, t) is t^-1 a t: (1 2) relabelled through (1 3) is (2 3).
    a = from_cycles(3, [(1, 2)])
    t = from_cycles(3, [(1, 3)])
    assert conjugate(a, t) == from_cycles(3, [(2, 3)])


def test_cycle_of_starts_at_its_argument():
    p = from_cycles(6, [(1, 4, 2), (3, 6)])
    assert cycle_of(p, 4) == (4, 2, 1)
    assert cycle_of(p, 5) == (5,)
    assert cycle_of(p, 3) == (3, 6)


@given(perm_strategy())
def test_cycle_lengths_partition_the_ground_set(p):
    assert sum(cycle_type(p)) == p.n
    seen = set()
    for i in range(1, p.n + 1):
        seen.update(cycle_of(p, i))
    assert seen == set(range(1, p.n + 1))


@given(perm_strategy(), st.integers(min_value=1, max_value=15))
@settings(max_examples=200)
def test_trace_power_matches_direct_fixed_point_count(p, max_power):
    formula = [sweeps._trace_power(cycle_type(p), k) for k in range(1, max_power + 1)]
    assert power_fixed_points(p, max_power) == formula


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_power_fixed_points_counts_powers_built_by_composition(n):
    top = 2 * n + 1
    for p in all_permutations(n):
        power, expected = identity(n), []
        for _ in range(top):
            power = compose(p, power)
            expected.append(sum(power.images[i - 1] == i for i in range(1, n + 1)))
        for max_power in range(1, top + 1):
            assert power_fixed_points(p, max_power) == expected[:max_power]


@pytest.mark.parametrize("max_power", [0, -1])
def test_power_fixed_points_needs_a_positive_power(max_power):
    with pytest.raises(ValueError, match="max_power"):
        power_fixed_points(identity(3), max_power)


@given(perm_strategy(6))
def test_trace_power_is_divisor_sum(p):
    lengths = cycle_type(p)
    for k in range(1, 7):
        expected = sum(d * lengths.count(d) for d in range(1, k + 1) if k % d == 0)
        assert trace_power(lengths, k) == expected
        assert sweeps._trace_power(lengths, k) == expected


def test_all_permutations_enumerates_the_full_group():
    perms = list(all_permutations(4))
    assert len(perms) == 24
    assert len(set(perms)) == 24
    assert all(p.n == 4 for p in perms)
