"""Sampler correctness: row validity, cycle-type guarantees, stream discipline.

Distributional checks compare empirical frequencies against the exact law
at small n with wide tolerances (4 sigma, or 5 where a test makes over a
hundred comparisons) so they stay deterministic in practice while still
catching a wrong sampler.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute
from brute import compose, cycle_type, from_cycles
from permprod import samplers
from permprod.perms import Permutation
from permprod.samplers import (
    RngStream,
    SamplerSpec,
    ewens_rows,
    product_rows,
    small_cycle_counts,
    sqrt_fixed_rows,
)
from permprod.cli import sampler_from_text
from permprod.oracle import ExactDistribution
from permprod.stats import _chunk_size


def perm_from_row(row: np.ndarray) -> Permutation:
    # The one-based permutation of one zero-based row.
    return Permutation(tuple(int(x) + 1 for x in row))


def row_from_perm(perm: Permutation) -> np.ndarray:
    return np.asarray([x - 1 for x in perm.images], dtype=np.int32)


def rows_are_permutations(rows: np.ndarray, n: int) -> bool:
    target = np.arange(n)
    return bool(np.all(np.sort(rows, axis=1) == target))


def representative_rows(spec: SamplerSpec, rng: RngStream, size: int) -> np.ndarray:
    # The rows of a law's class representatives, expanded from their blocks.
    return brute.representative_rows(spec.draw_blocks(rng, size))


def test_stream_reproducible_and_distinct():
    a = RngStream(123, 7).generator.integers(0, 1 << 30, size=16)
    b = RngStream(123, 7).generator.integers(0, 1 << 30, size=16)
    c = RngStream(123, 8).generator.integers(0, 1 << 30, size=16)
    d = RngStream(124, 7).generator.integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=30)
def test_uniform_rows_are_valid(n, seed):
    rows = SamplerSpec("uniform", n=n).draw_batch(RngStream(seed, 0), 8)
    assert rows.shape == (8, n)
    assert rows_are_permutations(rows, n)


@given(
    st.integers(min_value=1, max_value=20),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]),
)
@settings(max_examples=30)
def test_ewens_rows_are_valid(n, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ewens_rows(RngStream(5, 1), 16, n, float(theta))
        reps = representative_rows(SamplerSpec("ewens", n=n, theta=theta), RngStream(5, 1), 16)
    for batch in (rows, reps):
        assert batch.shape == (16, n)
        assert rows_are_permutations(batch, n)


def _feller_opens(gen, size, n, theta):
    # The Feller coupling walked one row and one position at a time, in
    # the kernel's stream order: round t draws one uniform V in (0, 1] per
    # row still open, in row order. A row at opening j walks on past m
    # while the chance that no position in j+1..m opens,
    # prod_{i=j+1..m} i / (theta + i), stays at least V; then the next
    # position opens, or the row is done at n.
    opens = np.zeros((size, n + 1), dtype=bool)
    opens[:, [0, n]] = True
    at = dict.fromkeys(range(size), 0)
    while at:
        for r, v in zip(list(at), 1 - gen.random(len(at))):
            m, survive = at[r] + 1, 1.0
            while m < n:
                survive *= m / (theta + m)
                if survive < v:
                    break
                m += 1
            if m < n:
                opens[r, m] = True
                at[r] = m
            else:
                del at[r]
    return opens


def _ewens_rows_through_succ(rng, size, n, theta, relabel):
    # The full (size, n) successor array of the scalar Feller walk,
    # gathered and scattered along axis 1; the same draws as ewens_rows,
    # in the same order.
    gen = rng.generator
    opens = _feller_opens(gen, size, n, theta)
    succ = np.arange(1, n + 1) + np.zeros((size, 1), dtype=np.int64)
    for r, row in enumerate(opens):
        starts = np.flatnonzero(row)
        succ[r, starts[1:] - 1] = starts[:-1]
    if not relabel:
        return succ
    return _relabelled_through_succ(gen, succ)


def _whole_chunk_arrangement(gen, size, n):
    return gen.permuted(np.tile(np.arange(n, dtype=np.int64), (size, 1)), axis=1)


def _relabelled_through_succ(gen, succ):
    # One tiled shuffle of the whole chunk, then arr[r, j] -> arr[r, succ[r, j]].
    arr = _whole_chunk_arrangement(gen, *succ.shape)
    rows = np.empty_like(arr)
    np.put_along_axis(rows, arr, np.take_along_axis(arr, succ, axis=1), axis=1)
    return rows


def _whole_chunk_rows(spec, rng, size, relabel):
    # The whole-chunk construction of every law, on the same stream as draw_batch.
    # A uniform cycle type is Ewens(1).
    gen, n = rng.generator, spec.n
    if spec.kind == "uniform":
        if not relabel:
            return _ewens_rows_through_succ(rng, size, n, 1.0, relabel)
        return _whole_chunk_arrangement(gen, size, n)
    if spec.kind == "ewens":
        return _ewens_rows_through_succ(rng, size, n, float(spec.theta), relabel)
    succ, start = [], 0
    for length in spec.fixed_cycle_type():
        succ += list(range(start + 1, start + length)) + [start]
        start += length
    succ = np.tile(succ, (size, 1))
    return _relabelled_through_succ(gen, succ) if relabel else succ


_BLOCK_LAWS = ("uniform", "ewens:0", "ewens:1/2", "ewens:2", "sqrt_fixed:sqrt", "matching_heavy:1/3")
_BLOCK_SHAPES = [
    (None, 250, 1000),  # eight blocks, the last one partial
    (None, 4096, 40),  # five blocks of 8 rows
    (None, 2, 300),  # one block
    (None, 7, 1),
    (64, 1, 5),
    (64, 30, 41),  # twenty blocks of 2 rows and one of 1
    (64, 100, 7),  # one row is longer than the budget
]


def _has_cycle_type(law, n):
    try:
        sampler_from_text(law).bind(n=n).fixed_cycle_type()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "law, relabel, block, n, size",
    [
        (law, relabel, *shape)
        for law in _BLOCK_LAWS
        for relabel in (True, False)
        for shape in _BLOCK_SHAPES
        if _has_cycle_type(law, shape[1])
    ],
)
def test_block_loop_matches_the_whole_chunk_construction(law, relabel, block, n, size, monkeypatch):
    # block is the entry budget of the shuffle block; None keeps the module's.
    if block is not None:
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", block)
    # Unrelabelled, the law's blocks expand to the representatives.
    spec = sampler_from_text(law).bind(n=n)
    rng, reference = RngStream(21, 6), RngStream(21, 6)
    rows = spec.draw_batch(rng, size) if relabel else representative_rows(spec, rng, size)
    expected = _whole_chunk_rows(spec, reference, size, relabel)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, expected)
    assert rng.generator.random() == reference.generator.random()


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 250])
@pytest.mark.parametrize("relabel", [True, False])
def test_ewens_rows_match_the_successor_array_construction(theta, n, relabel):
    if relabel:
        rows = ewens_rows(RngStream(9, 4), 40, n, theta)
    else:
        spec = SamplerSpec("ewens", n=n, theta=Fraction(theta))
        rows = representative_rows(spec, RngStream(9, 4), 40)
    expected = _ewens_rows_through_succ(RngStream(9, 4), 40, n, theta, relabel)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, expected)


def test_representatives_lay_cycles_on_consecutive_blocks():
    # Unshuffled rows map each point to the next one of its block.
    laws = ("ewens:2", "sqrt_fixed:3", "matching_heavy:1/3")
    specs = [sampler_from_text(law).bind(n=9) for law in laws]
    for spec in specs:
        rows = representative_rows(spec, RngStream(2, 0), 50)
        assert rows_are_permutations(rows, 9)
        step = rows != np.arange(1, 10)
        assert np.all(rows[step] <= np.nonzero(step)[1])
    fixed = representative_rows(specs[1], RngStream(2, 0), 4)
    assert np.array_equal(fixed, np.tile([0, 1, 2, 4, 5, 6, 7, 8, 3], (4, 1)))


def test_uniform_frequencies_at_n3():
    rows = SamplerSpec("uniform", n=3).draw_batch(RngStream(42, 0), 60000)
    _, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(counts) == 6
    # each of the 6 permutations: p = 1/6, 4 sigma band
    sd = math.sqrt(60000 * (1 / 6) * (5 / 6))
    assert np.all(np.abs(counts - 10000) < 4 * sd)


def test_ewens_class_frequencies_match_exact_law():
    n, theta, m = 4, Fraction(2), 80000
    rows = ewens_rows(RngStream(9, 3), m, n, float(theta))
    law = dict(brute.class_probs(ExactDistribution.ewens(n, theta)))
    got: dict[tuple[int, ...], int] = {}
    for row in rows:
        t = cycle_type(perm_from_row(row))
        got[t] = got.get(t, 0) + 1
    assert set(got) <= set(law)
    for part, p in law.items():
        expect = m * float(p)
        sd = math.sqrt(m * float(p) * (1 - float(p)))
        assert abs(got.get(part, 0) - expect) < 4 * sd, part


def test_ewens_theta_zero_gives_single_cycle():
    rows = ewens_rows(RngStream(1, 0), 32, 6, 0.0)
    for row in rows:
        assert cycle_type(perm_from_row(row)) == (6,)


def _block_types(ends, size, n):
    # Each row's block lengths as a cycle type, largest first.
    r, last, first = ends
    counts = np.zeros((size, n + 1), dtype=np.int64)
    np.add.at(counts, (r, last - first + 1), 1)
    return [
        tuple(length for length in range(n, 0, -1) for _ in range(row[length]))
        for row in counts
    ]


@pytest.mark.parametrize("theta", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(40)])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_feller_block_types_match_the_ewens_law(theta, n):
    m = 40000
    types = _block_types(samplers._feller_ends(RngStream(24, n).generator, m, n, float(theta)), m, n)
    law = dict(brute.class_probs(ExactDistribution.ewens(n, theta)))
    got: dict[tuple[int, ...], int] = {}
    for t in types:
        got[t] = got.get(t, 0) + 1
    assert set(got) <= set(law)
    for part, p in law.items():
        expect = m * float(p)
        sd = math.sqrt(m * float(p) * (1 - float(p)))
        # At theta = 0 the one type has p = 1, sd = 0 and no slack.
        assert abs(got.get(part, 0) - expect) <= 5 * sd, part


@pytest.mark.parametrize("theta", [1e6, 1e17, 1e300])
def test_feller_ends_at_extreme_theta_give_the_identity(theta):
    # A jump past position j + 1 needs V below about (j + 1) / theta: at
    # theta = 1e6 about once in 10^5 draws. At the larger two it never
    # happens, as every step of the log table, 36.9 or more, stays finite
    # and above -log V, which is at most 53 ln 2 = 36.7.
    size, n = 64, 10
    spec = SamplerSpec("ewens", n=n, theta=Fraction(theta))
    rows = representative_rows(spec, RngStream(24, 0), size)
    assert np.array_equal(rows, np.tile(np.arange(n), (size, 1)))


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0, 1e300])
@pytest.mark.parametrize("n", [1, 2, 9, 250])
def test_feller_ends_tile_each_row_and_draw_one_uniform_per_block(theta, n):
    size = 37
    gen, reference = RngStream(24, 2).generator, RngStream(24, 2).generator
    r, last, first = samplers._feller_ends(gen, size, n, theta)
    assert r.dtype == last.dtype == first.dtype == np.int32
    # Sorted by row, every row present, and each row's blocks in order:
    # the first opens at 0, each next one after the last ends, the last
    # ends at n - 1.
    assert np.array_equal(np.unique(r), np.arange(size))
    assert np.all(np.diff(r) >= 0)
    assert np.all(first <= last)
    new_row = np.r_[True, r[1:] != r[:-1]]
    assert np.all(first[new_row] == 0)
    assert np.array_equal(first[~new_row], last[np.flatnonzero(~new_row) - 1] + 1)
    assert np.all(last[np.r_[new_row[1:], True]] == n - 1)
    reference.random(len(r))
    assert gen.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0, 1e6])
@pytest.mark.parametrize("n", [1, 2, 7, 250, 1000])
def test_feller_ends_match_the_reference_rounds(theta, n):
    # The same ends and the same stream state as the rounds kept in intp
    # and concatenated at the end.
    size = 37
    gen, reference = RngStream(24, 3).generator, RngStream(24, 3).generator
    ends = samplers._feller_ends(gen, size, n, theta)
    expected = brute.feller_ends(reference, size, n, theta)
    for got, want in zip(ends, expected, strict=True):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
    assert gen.bit_generator.state == reference.bit_generator.state


def test_feller_ends_of_a_chunk_hold_little_beside_their_output():
    # One ewens:2 chunk of the Ewens scan at n = 1000: 4194 rows, about
    # 54,000 blocks and 0.65 MB of int32 ends. Each round is kept as int32
    # rows and openings (8 bytes a block) and written straight to its
    # place: 1.2 MiB. Rounds kept in intp and concatenated reach 4.0 MiB.
    n = 1000
    gen = RngStream(43, 0).generator
    tracemalloc.start()
    try:
        samplers._feller_ends(gen, _chunk_size(n), n, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("law", ["ewens:2", "matching_heavy:1/3", "uniform"])
def test_a_full_draw_holds_no_row_block_beside_its_rows(law):
    # One chunk of 4194 rows at n = 1000: 16.0 MiB of int32 rows. Beside
    # them the fold keeps the shuffle block, a flat identity but for
    # uniform and, for Ewens, the Feller ends: 2.27, 0.70 and 0.26 MiB
    # over the rows for the three laws. Before the fold, the same draws
    # read 2.27, 0.70 and 0.26. A (size, n) temporary, even of bools,
    # adds 4.0 MiB or more.
    n = 1000
    size = _chunk_size(n)
    spec = sampler_from_text(law).bind(n=n)
    tracemalloc.start()
    try:
        rows = spec.draw_batch(RngStream(47, 0), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (size, n)
    assert peak - rows.nbytes < min(size * n, 3 * 2**20)


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, size: SamplerSpec("ewens", n=5, theta=1).draw_batch(rng, size),
        lambda rng, size: SamplerSpec("uniform", n=5).draw_batch(rng, size),
        lambda rng, size: ewens_rows(rng, size, 5, 1.0),
        lambda rng, size: sqrt_fixed_rows(rng, size, 5, 2),
    ],
    ids=["draw_batch", "uniform_draw_batch", "ewens_rows", "sqrt_fixed_rows"],
)
def test_every_full_draw_rejects_a_batch_below_one_row(draw, size):
    # One check, before anything is drawn: the stream is where it started.
    rng, reference = RngStream(48, 0), RngStream(48, 0)
    with pytest.raises(ValueError, match="batch size must be >= 1"):
        draw(rng, size)
    assert rng.generator.bit_generator.state == reference.generator.bit_generator.state


def test_ewens_rows_reject_an_infinite_theta():
    for theta in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ewens_rows(RngStream(0, 0), 2, 5, theta)


def test_draw_batch_rejects_a_theta_beyond_floats():
    # exact takes such a theta; drawing needs it as a float.
    spec = SamplerSpec("ewens", n=5, theta=10**400)
    with pytest.raises(ValueError, match="theta above .* the largest float"):
        spec.draw_batch(RngStream(1), 3)


def test_product_cycle_counts_rejects_a_theta_beyond_floats():
    # As the last factor and as a middle one.
    spec, uniform = SamplerSpec("ewens", n=5, theta=10**400), SamplerSpec("uniform", n=5)
    first = uniform.draw_blocks(RngStream(1, 0), 3)
    for specs in ([spec], [spec, uniform], [uniform, spec]):
        streams = [RngStream(1, f) for f in range(1, len(specs) + 1)]
        with pytest.raises(ValueError, match="theta above .* the largest float"):
            samplers.product_cycle_counts(first, specs, streams, 1)


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=10)
def test_sqrt_fixed_rows_have_declared_type(f):
    n = 9
    rows = sqrt_fixed_rows(RngStream(3, 2), 24, n, f)
    want = (1,) * n if f == n else (n - f,) + (1,) * f
    for row in rows:
        assert cycle_type(perm_from_row(row)) == want


def test_sqrt_fixed_rejects_length_one_long_cycle():
    with pytest.raises(ValueError):
        sqrt_fixed_rows(RngStream(0, 0), 4, 5, 4)


def test_sqrt_fixed_full_fix_is_identity():
    rows = sqrt_fixed_rows(RngStream(0, 0), 4, 5, 5)
    assert np.all(rows == np.arange(5))


def matching_heavy_rows(rng, size, n, fraction):
    return SamplerSpec("matching_heavy", n=n, two_cycle_fraction=fraction).draw_batch(rng, size)


def test_matching_heavy_rows_have_declared_type():
    rows = matching_heavy_rows(RngStream(11, 4), 24, 10, Fraction(1, 2))
    for row in rows:
        assert cycle_type(perm_from_row(row)) == (2, 2, 2, 2, 2)
    rows = matching_heavy_rows(RngStream(11, 5), 24, 11, Fraction(1, 4))
    # m = floor(11/4) = 2 two-cycles, rest-cycle of length 7
    for row in rows:
        assert cycle_type(perm_from_row(row)) == (7, 2, 2)


def test_matching_heavy_rejects_tiny_rest_cycle():
    # n=9, frac=1/2: m=4, rest=1
    with pytest.raises(ValueError):
        matching_heavy_rows(RngStream(0, 0), 4, 9, Fraction(1, 2))
    # n=8, frac=3/8: m=3, rest=2
    with pytest.raises(ValueError):
        matching_heavy_rows(RngStream(0, 0), 4, 8, Fraction(3, 8))


def test_fixed_cycle_type_lists_blocks_in_base_order():
    def spec(kind, n, **kw):
        return SamplerSpec(kind, n=n, **kw)

    assert spec("sqrt_fixed", 9, fixed_count="sqrt").fixed_cycle_type() == (1, 1, 1, 6)
    assert spec("sqrt_fixed", 4, fixed_count=2).fixed_cycle_type() == (1, 1, 2)
    assert spec("sqrt_fixed", 3, fixed_count=3).fixed_cycle_type() == (1, 1, 1)
    assert spec("sqrt_fixed", 3, fixed_count=0).fixed_cycle_type() == (3,)
    half = Fraction(1, 2)
    assert spec("matching_heavy", 4, two_cycle_fraction=half).fixed_cycle_type() == (2, 2)
    third = Fraction(1, 3)
    assert spec("matching_heavy", 9, two_cycle_fraction=third).fixed_cycle_type() == (
        2, 2, 2, 3,
    )
    assert spec("matching_heavy", 5, two_cycle_fraction=0).fixed_cycle_type() == (5,)
    assert spec("uniform", 5).fixed_cycle_type() is None
    assert spec("ewens", 5, theta=2).fixed_cycle_type() is None
    for bad in (
        spec("sqrt_fixed", 4, fixed_count=3),
        spec("sqrt_fixed", 4, fixed_count=5),
        spec("matching_heavy", 5, two_cycle_fraction=half),
        spec("matching_heavy", 8, two_cycle_fraction=Fraction(3, 8)),
    ):
        with pytest.raises(ValueError, match="infeasible"):
            bad.fixed_cycle_type()
    with pytest.raises(ValueError, match="bound"):
        SamplerSpec("matching_heavy", two_cycle_fraction=half).fixed_cycle_type()


def test_conjugated_samplers_hit_all_positions():
    # fixed points must not stick to the low indices after conjugation
    rows = sqrt_fixed_rows(RngStream(17, 0), 4000, 6, 2)
    fixed_freq = (rows == np.arange(6)).mean(axis=0)
    assert np.all(fixed_freq > 0.2) and np.all(fixed_freq < 0.5)


def test_spec_validation_and_labels():
    assert SamplerSpec("uniform").label() == "uniform"
    assert SamplerSpec("ewens", theta=Fraction(1, 2)).label() == "ewens(1/2)"
    assert SamplerSpec("sqrt_fixed", fixed_count="sqrt").label() == "sqrt_fixed(sqrt)"
    assert (
        SamplerSpec("matching_heavy", two_cycle_fraction=Fraction(1, 2)).label()
        == "matching_heavy(1/2)"
    )
    with pytest.raises(ValueError):
        SamplerSpec("uniform", theta=1)
    with pytest.raises(ValueError):
        SamplerSpec("ewens")
    with pytest.raises(ValueError):
        SamplerSpec("ewens", theta=-1)
    with pytest.raises(ValueError):
        SamplerSpec("matching_heavy", two_cycle_fraction=Fraction(2, 3))
    with pytest.raises(ValueError):
        SamplerSpec("nope")


def test_spec_bind_and_sqrt_resolution():
    spec = SamplerSpec("sqrt_fixed", fixed_count="sqrt")
    bound = spec.bind(n=17)
    assert bound.n == 17
    assert bound.resolved_fixed_count() == 4
    assert spec.n is None  # bind does not mutate


def test_spec_draw_batch_matches_row_sampler():
    # Every law draws its blocks through the kernel, as the row samplers
    # do.
    a = SamplerSpec("ewens", n=6, theta=2).draw_batch(RngStream(31, 2), 5)
    assert np.array_equal(a, ewens_rows(RngStream(31, 2), 5, 6, 2.0))
    a = SamplerSpec("sqrt_fixed", n=6, fixed_count=2).draw_batch(RngStream(31, 2), 5)
    assert np.array_equal(a, sqrt_fixed_rows(RngStream(31, 2), 5, 6, 2))
    # A uniform permutation's cycle type is Ewens(1): uniform blocks are
    # Ewens(1) ends.
    a = SamplerSpec("uniform", n=6).draw_blocks(RngStream(31, 2), 5)
    b = SamplerSpec("ewens", n=6, theta=1).draw_blocks(RngStream(31, 2), 5)
    assert a.succ is None
    assert all(np.array_equal(x, y) for x, y in zip(a.ends, b.ends))


def test_product_rows_is_left_composition():
    s = from_cycles(4, [(1, 2, 3)])
    r = from_cycles(4, [(3, 4)])
    prod = product_rows([row_from_perm(s)[None, :], row_from_perm(r)[None, :]])
    assert perm_from_row(prod[0]) == compose(s, r)


@pytest.mark.parametrize("bad", [3, -1, 7], ids=["n", "negative", "far-above"])
@pytest.mark.parametrize("at", [0, 1], ids=["first", "later"])
def test_row_layers_reject_entries_outside_the_ground_set(bad, at):
    # A wrapped index would compose or count some other permutation
    # without a word: [I, [[1, 2, 3]]] would read [1, 2, 0].
    rows = np.array([[1, 2, 0]], dtype=np.int32)
    factors = [np.array([[0, 1, 2]], dtype=np.int32), rows.copy()]
    factors[at][0, 2] = bad
    with pytest.raises(ValueError, match=r"row entries must lie in 0\.\.2"):
        product_rows(factors)
    for kmax in (1, 3):
        with pytest.raises(ValueError, match=r"row entries must lie in 0\.\.2"):
            small_cycle_counts(factors[at], kmax)
    assert np.array_equal(product_rows([rows, rows]), [[2, 0, 1]])


def _layer_input(law, n, size, seed, relabel=True, dtype=np.int32):
    # One factor batch in the given dtype: a full draw, or the rows of the
    # law's class representatives, with a shared base broadcast.
    spec = sampler_from_text(law).bind(n=n)
    if relabel:
        return spec.draw_batch(RngStream(seed, 0), size).astype(dtype)
    blocks = spec.draw_blocks(RngStream(seed, 0), size)
    if blocks.succ is not None:
        return np.broadcast_to(blocks.succ.astype(dtype), blocks.shape)
    return brute.representative_rows(blocks).astype(dtype)


_FIXED_TYPE_LAWS = ("sqrt_fixed:sqrt", "matching_heavy:1/3")
_LAYER_LAWS = ("uniform", "ewens:2") + _FIXED_TYPE_LAWS


def _feasible_shapes(laws):
    return [(law, *shape) for law in laws for shape in _BLOCK_SHAPES if _has_cycle_type(law, shape[1])]


@pytest.mark.parametrize(
    "first, block, n, size",
    _feasible_shapes(_LAYER_LAWS),
)
@pytest.mark.parametrize(
    "dtypes",
    [(np.int32,) * 3, (np.int64,) * 3, (np.int64, np.int32, np.int64)],
    ids=["int32", "int64", "mixed"],
)
@pytest.mark.parametrize("factors", [2, 3])
def test_product_rows_match_whole_chunk_gathers(first, block, n, size, dtypes, factors, monkeypatch):
    # The first factor is the rows of a class representative, a broadcast
    # of one base row for the fixed-type laws. A smaller block budget
    # gives many blocks, a ragged last one, or rows longer than a block.
    if block is not None:
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", block)
    dense = _layer_input(first, n, size, 30, relabel=False, dtype=dtypes[0])
    assert (dense.strides[0] == 0) == (first in _FIXED_TYPE_LAWS)
    rest = [_layer_input("uniform", n, size, 31 + f, dtype=dtypes[f]) for f in range(1, factors)]
    prod = product_rows([dense, *rest])
    expected = brute.product_rows([np.ascontiguousarray(dense), *rest])
    assert prod.dtype == expected.dtype
    assert np.array_equal(prod, expected)


@pytest.mark.parametrize(
    "law, block, n, size",
    _feasible_shapes(_LAYER_LAWS),
)
@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("kmax", range(1, 8))
def test_small_cycle_counts_match_whole_chunk_powers(law, block, n, size, dtype, kmax, monkeypatch):
    # Relabeled uniform rows, unrelabeled Ewens rows, and broadcasts of a
    # fixed-type representative, over the block shapes of the kernel tests.
    relabel = law == "uniform"
    if block is not None:
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", block)
    rows = _layer_input(law, n, size, 32, relabel, dtype)
    assert (rows.strides[0] == 0) == (law in _FIXED_TYPE_LAWS)
    # Counts stop at n: there are no longer cycles.
    counts = small_cycle_counts(rows, kmax)
    expected = brute.small_cycle_counts(rows, kmax)
    assert counts.dtype == expected.dtype == np.int64
    assert np.array_equal(counts, expected[:, :n])
    assert not expected[:, n:].any()


@pytest.mark.parametrize(
    "law, n, size",
    [
        (law, n, size)
        for law in _BLOCK_LAWS
        for n, size in sorted({shape[1:] for shape in _BLOCK_SHAPES})
        if _has_cycle_type(law, n)
    ],
)
def test_block_counts_match_the_counts_of_their_rows(law, n, size):
    # A single factor's counts, one bincount of its block lengths, against
    # the powers of the representatives' rows.
    blocks = sampler_from_text(law).bind(n=n).draw_blocks(RngStream(33, 0), size)
    rows = brute.representative_rows(blocks)
    expected = brute.small_cycle_counts(rows, 7)
    for kmax in range(1, 8):
        counts = blocks.cycle_counts(kmax)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, small_cycle_counts(rows, kmax)), kmax
        assert np.array_equal(counts, expected[:, : min(kmax, n)]), kmax


# First factors of every layout: a shared base, per-row ends, and the
# identity, which a full uniform draw follows.
_FIRST_FACTORS = ("sqrt_fixed:sqrt", "ewens:2", "uniform")
# The factors between the first and the last: none, a uniform one, a
# non-uniform one, and both.
_MIDDLE_FACTORS = ((), ("uniform",), ("ewens:1/2",), ("sqrt_fixed:sqrt", "uniform"))


@pytest.mark.parametrize(
    "first, middle, last, block, n, size",
    [
        (first, middle, *shape)
        for first in _FIRST_FACTORS
        for middle in _MIDDLE_FACTORS
        for shape in _feasible_shapes(("uniform", "ewens:1/2", "sqrt_fixed:sqrt", "matching_heavy:1/3"))
        if all(_has_cycle_type(law, shape[2]) for law in (first, *middle))
    ],
    ids=lambda value: "+".join(value) or "none" if isinstance(value, tuple) else None,
)
def test_product_cycle_counts_match_the_built_product(first, middle, last, block, n, size, monkeypatch):
    # The counts equal those of the whole-chunk product with every later
    # factor drawn in full, for every kmax, and every later stream ends
    # where draw_batch leaves it. Products have 2, 3 and 4 factors.
    if block is not None:
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", block)
    later = (*middle, last)
    if first == "uniform":
        head = samplers.CycleBlocks(size, n, succ=np.arange(n, dtype=np.int32))
        later = ("uniform", *later)
    else:
        head = sampler_from_text(first).bind(n=n).draw_blocks(RngStream(40, 0), size)
        assert (head.succ is not None) == (first == "sqrt_fixed:sqrt")
    specs = [sampler_from_text(law).bind(n=n) for law in later]
    drawn = [RngStream(40, f) for f in range(1, len(specs) + 1)]
    rows = [spec.draw_batch(rng, size) for spec, rng in zip(specs, drawn)]
    expected = brute.small_cycle_counts(
        brute.product_rows([brute.representative_rows(head), *rows]), 7
    )
    assert not expected[:, n:].any()
    for kmax in range(1, 8):
        streams = [RngStream(40, f) for f in range(1, len(specs) + 1)]
        counts = samplers.product_cycle_counts(head, specs, streams, kmax)
        assert counts.dtype == expected.dtype == np.int64
        assert np.array_equal(counts, expected[:, : min(kmax, n)]), kmax
        for rng, ref in zip(streams, drawn):
            assert rng.generator.bit_generator.state == ref.generator.bit_generator.state


@pytest.mark.parametrize("first", ["uniform", "ewens:0", "ewens:1/2", "ewens:2"])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_block_fed_product_cycle_counts_match_the_dense_reference(first, n, monkeypatch):
    # Factor 0's blocks against the scalar Feller walk's rows, and the
    # counts they feed against the whole-chunk product, with both streams
    # left where the reference leaves them. A budget of 64 entries gives
    # row blocks of 64, 32 and 9 rows at n = 1, 2 and 7; n = 1000 keeps
    # the module's 32. Each chunk is two row blocks and three rows.
    if n < 1000:
        monkeypatch.setattr(samplers, "_BLOCK_ELEMENTS", 64)
    size = 2 * samplers._block_rows(n) + 3
    spec = sampler_from_text(first).bind(n=n)
    theta = 1.0 if spec.kind == "uniform" else float(spec.theta)
    rng, reference = RngStream(50, 0), RngStream(50, 0)
    blocks = spec.draw_blocks(rng, size)
    dense = _ewens_rows_through_succ(reference, size, n, theta, relabel=False)
    assert np.array_equal(brute.representative_rows(blocks), dense)
    assert rng.generator.bit_generator.state == reference.generator.bit_generator.state
    for last in ("uniform", "ewens:1/2"):
        spec = sampler_from_text(last).bind(n=n)
        drawn = RngStream(50, 1)
        product = brute.product_rows([dense, spec.draw_batch(drawn, size)])
        expected = brute.small_cycle_counts(product, 7)
        for kmax in (1, 3, 7):
            rng = RngStream(50, 1)
            counts = samplers.product_cycle_counts(blocks, [spec], [rng], kmax)
            assert np.array_equal(counts, expected[:, : min(kmax, n)]), (last, kmax)
            assert rng.generator.bit_generator.state == drawn.generator.bit_generator.state


# Laws whose blocks feed _carry: Feller ends from theta = 0 (one cycle)
# to 10**6 (mostly fixed points), and the shared bases of the fixed types.
_ENDS_LAWS = ("ewens:0", "ewens:1/2", "ewens:2", "ewens:1000000", *_FIXED_TYPE_LAWS)


@pytest.mark.parametrize(
    "law, n",
    [(law, n) for law in _ENDS_LAWS for n in (1, 2, 7, 1000) if _has_cycle_type(law, n)],
)
def test_every_row_block_ends_each_row_at_its_last_column(law, n):
    # _carry scatters a block's rows run together, which carries the
    # wrong entry to column n - 1 of each row; the ends scatter after it
    # rewrites that entry only if (r, n - 1) is a block end of every row
    # r. Two row blocks of the module's budget and a ragged third.
    step = samplers._block_rows(n)
    size = 2 * step + 3
    blocks = sampler_from_text(law).bind(n=n).draw_blocks(RngStream(45, 0), size)
    for s in range(0, size, step):
        e = min(size, s + step)
        r, last, _ = blocks._ends_of(s, e)
        if blocks.succ is not None:
            assert r == slice(None) and last[-1] == n - 1
        else:
            assert np.array_equal(r[last == n - 1], np.arange(e - s))


_LATER_LAWS = (*_BLOCK_LAWS, "matching_heavy:1/2")


@pytest.mark.parametrize(
    "first, last, n",
    [
        (first, last, n)
        for first in ("uniform", "ewens:2", "sqrt_fixed:sqrt", "matching_heavy:1/2")
        for last in _LATER_LAWS
        for n in (2, 3)
        if _has_cycle_type(first, n) and _has_cycle_type(last, n)
    ],
)
def test_product_cycle_counts_at_the_most_row_boundaries(first, last, n):
    # The module's budget puts thousands of rows in a block at n = 2 and
    # 3, so nearly every entry of the contiguous carry and compare sits
    # next to a row boundary; the last block is ragged. Every kmax, and
    # every stream left where draw_batch leaves it.
    size = 2 * samplers._block_rows(n) + 5
    head = sampler_from_text(first).bind(n=n).draw_blocks(RngStream(46, 0), size)
    spec = sampler_from_text(last).bind(n=n)
    drawn = RngStream(46, 1)
    rows = spec.draw_batch(drawn, size)
    product = brute.product_rows([brute.representative_rows(head), rows])
    expected = brute.small_cycle_counts(product, n)
    for kmax in range(1, 5):
        rng = RngStream(46, 1)
        counts = samplers.product_cycle_counts(head, [spec], [rng], kmax)
        assert np.array_equal(counts, expected[:, : min(kmax, n)]), kmax
        assert rng.generator.bit_generator.state == drawn.generator.bit_generator.state


def test_no_power_above_n_is_walked(monkeypatch):
    # There are no d-cycles for d > n, so kmax = 9 at n = 5 walks 5 powers.
    walk, walked = samplers._power_fixed_points, []

    def spy(base, fixed, scratch):
        walked.append(fixed.shape[1])
        return walk(base, fixed, scratch)

    monkeypatch.setattr(samplers, "_power_fixed_points", spy)
    n, size = 5, 12
    rows = SamplerSpec("uniform", n=n).draw_batch(RngStream(44, 0), size)
    blocks = sampler_from_text("ewens:1/2").bind(n=n).draw_blocks(RngStream(44, 1), size)
    last = SamplerSpec("uniform", n=n)
    assert small_cycle_counts(rows, 9).shape == (size, n)
    assert samplers.product_cycle_counts(blocks, [last], [RngStream(44, 2)], 9).shape == (size, n)
    assert blocks.cycle_counts(9).shape == (size, n)
    assert walked == [n, n]


def test_product_cycle_counts_hold_no_factor_rows():
    # One chunk of the counter-fixed job: 1024 rows at n = 4096, k = 1.
    n, size = 4096, 1024
    spec = sampler_from_text("sqrt_fixed:sqrt").bind(n=n)
    left = spec.draw_blocks(RngStream(41, 0), size)
    tracemalloc.start()
    try:
        samplers.product_cycle_counts(left, [spec], [RngStream(41, 1)], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * n * np.dtype(np.int32).itemsize / 4
    # One shuffle block, which the identity is rebuilt in after each use,
    # the product block and its gather, of 8 rows each, and the last
    # factor's compare as bools while it lasts: 0.88 MiB. int32 copies and
    # a separate image block beside them reach 2.4 MiB.
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize(
    "laws, n, k, mib",
    [(("ewens:2", "ewens:1/2"), 1000, 3, 4), (("ewens:1",) * 3, 500, 2, 5)],
    ids=["pair-scan", "triple-scan"],
)
def test_an_ewens_pair_chunk_holds_no_factor_rows(laws, n, k, mib):
    # One chunk of the acceptance suite's Ewens pair scan at n = 1000,
    # k = 3, or of its triple scan at n = 500, k = 2, factor 0's draw
    # included: no factor and no product becomes a (size, n) array. Nor
    # does any block exist only to change a dtype or copy another: beside
    # the ends, the pair keeps a flat identity, the shuffle block (the
    # second power block once spent), the product and its gather, and the
    # triple the same less the identity, which it rebuilds in the shuffle
    # block. The chunks peak at 2.3 and 3.2 MiB, and int32 copies of the
    # arrangements and a successor block per factor reach 5.1 and 7.3.
    size = _chunk_size(n)
    first, *later = (sampler_from_text(law).bind(n=n) for law in laws)
    tracemalloc.start()
    try:
        blocks = first.draw_blocks(RngStream(43, 0), size)
        streams = [RngStream(43, f) for f in range(1, len(laws))]
        samplers.product_cycle_counts(blocks, later, streams, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * n * np.dtype(np.int32).itemsize
    assert peak < mib * 2**20


def test_product_cycle_counts_reject_bad_input():
    spec = SamplerSpec("uniform", n=5)
    first = spec.draw_blocks(RngStream(42, 0), 3)
    streams = [RngStream(42, 1), RngStream(42, 2)]
    with pytest.raises(ValueError, match="kmax"):
        samplers.product_cycle_counts(first, [spec, spec], streams, 0)
    with pytest.raises(ValueError, match="after the first"):
        samplers.product_cycle_counts(first, [], [], 1)
    for specs in ([spec.bind(n=6), spec], [spec, spec.bind(n=6)]):
        with pytest.raises(ValueError, match=r"factor 0 has n=5, later specs .*6"):
            samplers.product_cycle_counts(first, specs, streams, 1)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=4))
@settings(max_examples=25)
def test_product_rows_associates_with_perm_composition(n, k):
    rng = RngStream(77, 0)
    factors = [SamplerSpec("uniform", n=n).draw_batch(rng, 3) for _ in range(k)]
    prod = product_rows(factors)
    for i in range(3):
        perms = [perm_from_row(f[i]) for f in factors]
        expect = perms[0]
        for p in perms[1:]:
            expect = compose(expect, p)
        assert perm_from_row(prod[i]) == expect


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_small_cycle_counts_match_brute_force(n, kmax):
    rows = SamplerSpec("uniform", n=n).draw_batch(RngStream(13, n), 6)
    table = small_cycle_counts(rows, kmax)
    assert table.shape == (6, min(kmax, n))
    assert np.array_equal(small_cycle_counts(rows.astype(np.int64), kmax), table)
    for i, row in enumerate(rows):
        lengths = cycle_type(perm_from_row(row))
        for k in range(1, min(kmax, n) + 1):
            assert table[i, k - 1] == lengths.count(k)


def test_row_perm_round_trip():
    p = from_cycles(5, [(1, 5, 2)])
    assert perm_from_row(row_from_perm(p)) == p
    rows = SamplerSpec("uniform", n=5).draw_batch(RngStream(0, 0), 1)
    assert row_from_perm(p).dtype == rows.dtype == np.int32
