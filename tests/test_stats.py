import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from brute import class_probs
from permprod import samplers
from permprod.cli import _exact_law, main, sampler_from_text
from permprod.oracle import ExactDistribution, exact_moment, product_type_distribution
from permprod.samplers import SamplerSpec
from permprod.stats import (
    Functional,
    JointPmf,
    convergence_scan,
    draw_chunks,
    empirical_joint_pmf,
    eta_joint_pmf,
    moment_estimates,
    parse_functional,
    poisson_pmf,
    sample_joint_counts,
    tv_distance,
)

UNIFORM2 = (SamplerSpec("uniform"), SamplerSpec("uniform"))


def test_poisson_pmf_values():
    assert math.isclose(poisson_pmf(1.0, 0), math.exp(-1.0))
    assert math.isclose(poisson_pmf(0.5, 2), math.exp(-0.5) * 0.125)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, -1)


@pytest.mark.parametrize("lam", [1.0, 1 / 2, 1 / 3, 1 / 6, 2.0, 50.0])
def test_poisson_pmf_far_into_the_tail(lam):
    # From j = 171, j! no longer fits a float, and 50**j not from 182.
    for j in range(401):
        want = float(Fraction(math.exp(-lam)) * Fraction(lam) ** j / math.factorial(j))
        assert math.isclose(poisson_pmf(lam, j), want, rel_tol=1e-10, abs_tol=1e-300)
    assert poisson_pmf(0.0, 200) == 0.0


def test_eta_pmf_marginals_close_to_poisson():
    T = 8
    pmf = eta_joint_pmf(3, truncation=T)
    assert pmf.k == 3 and pmf.truncation == T
    assert pmf.mass.shape == (T + 1,) * 3
    overflow = pmf.overflow
    assert 0 <= overflow < 1e-4
    # truncation clips each marginal by at most the total overflow
    for d in (1, 2, 3):
        other = tuple(a for a in range(3) if a != d - 1)
        marg = pmf.mass.sum(axis=other)
        for j in range(T + 1):
            assert abs(marg[j] - poisson_pmf(1.0 / d, j)) <= overflow + 1e-12


def test_eta_marginal_mean_close_to_rate():
    pmf = eta_joint_pmf(2)
    values = np.arange(pmf.truncation + 1)
    assert abs(values @ pmf.mass.sum(axis=1) - 1.0) < 1e-4
    assert abs(values @ pmf.mass.sum(axis=0) - 0.5) < 1e-4


def test_joint_pmf_validation():
    # a total short of 1
    with pytest.raises(ValueError, match="sum"):
        JointPmf(mass=np.array([0.5, 0.0, 0.0]), overflow=0.0)
    # shapes that are not a cube, or hold no cell
    with pytest.raises(ValueError, match="cube"):
        JointPmf(mass=np.full((2, 3), 1 / 6), overflow=0.0)
    with pytest.raises(ValueError, match="cube"):
        JointPmf(mass=np.array(1.0), overflow=0.0)
    # negative mass in a cell or in the overflow, with a total of 1
    with pytest.raises(ValueError, match="negative"):
        JointPmf(mass=np.array([1.5, -0.5]), overflow=0.0)
    with pytest.raises(ValueError, match="negative"):
        JointPmf(mass=np.array([1.25, 0.0]), overflow=-0.25)
    ok = JointPmf(mass=np.array([[0.5, 0.25], [0.0, 0.0]]), overflow=0.25)
    assert ok.k == 2 and ok.truncation == 1
    assert ok.mass[0, 1] == 0.25


def test_tv_distance_basics():
    a = eta_joint_pmf(2)
    assert tv_distance(a, a) == 0.0
    b = empirical_joint_pmf(np.zeros((10, 2), dtype=np.int64))
    d = tv_distance(a, b)
    assert 0 < d <= 1
    assert d == tv_distance(b, a)
    with pytest.raises(ValueError, match="shape"):
        tv_distance(a, eta_joint_pmf(3))
    with pytest.raises(ValueError, match="shape"):
        tv_distance(a, eta_joint_pmf(2, truncation=4))


def test_empirical_pmf_counts_and_overflow():
    samples = np.array([[0, 1], [0, 1], [9, 0], [2, 2]])
    pmf = empirical_joint_pmf(samples, truncation=8)
    assert pmf.mass.shape == (9, 9)
    assert pmf.mass[0, 1] == 0.5
    assert pmf.mass[2, 2] == 0.25
    assert np.count_nonzero(pmf.mass) == 2
    assert pmf.overflow == 0.25


@pytest.mark.parametrize("k, truncation", [(1, 3), (2, 2), (3, 2)])
def test_tv_distance_matches_brute_force(k, truncation):
    # Poisson-like rows with some coordinates above the truncation
    rng = np.random.default_rng(17 + k)
    rows = rng.poisson(1.2, size=(400, k))
    got = tv_distance(empirical_joint_pmf(rows, truncation), eta_joint_pmf(k, truncation))
    cells, counts = np.unique(rows, axis=0, return_counts=True)
    emp = {tuple(int(c) for c in cell): n / len(rows) for cell, n in zip(cells, counts)}
    total, ref_overflow, emp_overflow = 0.0, 1.0, 0.0
    for cell in itertools.product(range(truncation + 1), repeat=k):
        ref = math.prod(poisson_pmf(1.0 / (d + 1), c) for d, c in enumerate(cell))
        total += abs(emp.get(cell, 0.0) - ref)
        ref_overflow -= ref
    for cell, p in emp.items():
        if max(cell) > truncation:
            emp_overflow += p
    assert emp_overflow > 0
    want = (total + abs(emp_overflow - ref_overflow)) / 2
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_functional_labels_and_parsing():
    f = Functional.product_cycle_counts((1, 2))
    assert f.label() == "product:1*2"
    assert f.kmax == 2
    assert parse_functional("product:1*2") == f
    g = parse_functional("fixed-moment:2")
    assert g == Functional.scaled_fixed_point_moment(2)
    assert parse_functional("two-cycle-rate") == Functional.scaled_two_cycle_rate()
    for bad in ("product:", "product:0", "fixed-moment:x", "mystery", ""):
        with pytest.raises(ValueError):
            parse_functional(bad)


def test_functional_factor_usage():
    assert Functional.scaled_two_cycle_rate().kmax == 2


def test_sample_joint_counts_shape_and_range():
    counts = sample_joint_counts(UNIFORM2, 3, 500, seed=4, n=6)
    assert counts.shape == (500, 3)
    assert counts.dtype == np.int64
    assert np.all(counts >= 0)
    assert np.all(counts[:, 0] <= 6)
    # weighted cycle lengths can never exceed n
    assert np.all(counts @ np.array([1, 2, 3]) <= 6)


def test_cycle_lengths_above_n_read_zero_and_are_never_walked(monkeypatch):
    # No permutation of n points has a cycle longer than n: such a count
    # reads 0, and no power above n is walked for it.
    walk, walked = samplers._power_fixed_points, []

    def spy(base, fixed, scratch):
        walked.append(fixed.shape[1])
        return walk(base, fixed, scratch)

    monkeypatch.setattr(samplers, "_power_fixed_points", spy)
    funcs = [Functional.product_cycle_counts((50,)), Functional.product_cycle_counts((1, 50))]
    for est in moment_estimates(UNIFORM2, funcs, 200, seed=3, n=20):
        assert (est.value, est.stderr) == (0.0, 0.0)
    single = [Functional.scaled_two_cycle_rate(), Functional.scaled_fixed_point_moment(1)]
    rate, fixed = moment_estimates(UNIFORM2[:1], single, 200, seed=3, n=1)
    assert (rate.value, fixed.value) == (0.0, 1.0)
    assert walked == []
    counts = sample_joint_counts(UNIFORM2, 6, 300, seed=3, n=3)
    assert counts.shape == (300, 6)
    assert np.array_equal(counts[:, :3], sample_joint_counts(UNIFORM2, 3, 300, seed=3, n=3))
    assert not counts[:, 3:].any()
    assert walked and max(walked) == 3
    scan = convergence_scan(UNIFORM2, funcs[:1], [2, 3], 200, seed=3, tv_orders=[4])
    assert [row.value for row in scan.rows if row.functional == "product:50"] == [0.0, 0.0]
    assert max(walked) == 3


def test_moment_estimate_deterministic_and_labeled():
    f = Functional.product_cycle_counts((1,))
    a = moment_estimates(UNIFORM2, [f], 2000, seed=11, n=8)[0]
    b = moment_estimates(UNIFORM2, [f], 2000, seed=11, n=8)[0]
    c = moment_estimates(UNIFORM2, [f], 2000, seed=12, n=8)[0]
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert (a.value, a.stderr) != (c.value, c.stderr)
    assert "product:1" in a.spec and "n=8" in a.spec
    assert a.samples == 2000 and a.seed == 11


def test_moment_estimates_share_draws():
    funcs = [
        Functional.product_cycle_counts((1,)),
        Functional.product_cycle_counts((1, 1)),
    ]
    ests = moment_estimates(UNIFORM2, funcs, 1500, seed=3, n=7)
    solo = moment_estimates(UNIFORM2, funcs[:1], 1500, seed=3, n=7)[0]
    assert ests[0].value == solo.value


def test_moment_estimates_validation():
    f = Functional.product_cycle_counts((1,))
    with pytest.raises(ValueError):
        moment_estimates(UNIFORM2, [], 1000, seed=0, n=5)
    with pytest.raises(ValueError):
        moment_estimates(UNIFORM2, [f], 50, seed=0, n=5)
    with pytest.raises(ValueError):
        moment_estimates(
            UNIFORM2, [Functional.scaled_fixed_point_moment(1)], 1000, seed=0, n=5
        )


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_estimator_consistent_with_oracle(theta):
    # the estimator must agree with the exact oracle at small n
    n, samples = 5, 10**6
    specs = (
        SamplerSpec("ewens", theta=theta),
        SamplerSpec("ewens", theta=Fraction(2)),
    )
    est = moment_estimates(
        specs, [Functional.product_cycle_counts((1,))], samples, seed=21, n=n
    )[0]
    truth = float(
        exact_moment(
            (ExactDistribution.ewens(n, theta), ExactDistribution.ewens(n, 2)), (1,)
        )
    )
    assert abs(est.value - truth) <= 4 * est.stderr


def test_scan_requires_increasing_grid_and_work():
    f = [Functional.product_cycle_counts((1,))]
    with pytest.raises(ValueError):
        convergence_scan(UNIFORM2, f, [6, 6], 500, seed=0)
    with pytest.raises(ValueError):
        convergence_scan(UNIFORM2, f, [], 500, seed=0)
    with pytest.raises(ValueError):
        convergence_scan(UNIFORM2, [], [4, 6], 500, seed=0)


def test_scan_single_point_has_rows_but_no_trend():
    f = [Functional.product_cycle_counts((1,))]
    scan = convergence_scan(UNIFORM2, f, [8], 400, seed=5, tv_orders=[2])
    assert len(scan.rows) == 2
    assert scan.trend == {}
    labels = {r.functional for r in scan.rows}
    assert labels == {"product:1", "tv:2"}


def test_scan_multi_point_reports_trend():
    f = [Functional.product_cycle_counts((1,))]
    scan = convergence_scan(UNIFORM2, f, [6, 12], 2000, seed=5, tv_orders=[1])
    assert set(scan.trend) == {"product:1", "tv:1"}
    assert all(v in {"non-increasing", "non-monotone"} for v in scan.trend.values())
    by_label = {}
    for r in scan.rows:
        by_label.setdefault(r.functional, []).append(r.n)
    assert by_label["product:1"] == [6, 12]
    assert by_label["tv:1"] == [6, 12]


def test_scan_rows_are_reproducible():
    f = [Functional.product_cycle_counts((1,))]
    a = convergence_scan(UNIFORM2, f, [6, 12], 800, seed=9)
    b = convergence_scan(UNIFORM2, f, [6, 12], 800, seed=9)
    assert [(r.n, r.value, r.stderr) for r in a.rows] == [
        (r.n, r.value, r.stderr) for r in b.rows
    ]


def _rows(scan, prefix):
    return [
        (r.n, r.functional, r.value, r.stderr)
        for r in scan.rows
        if r.functional.startswith(prefix)
    ]


def test_scan_moment_rows_equal_moment_estimates_at_grid_point_zero():
    # n = 1024 spans two chunks, so the stream keying is compared too
    f = [Functional.product_cycle_counts((1,)), Functional.product_cycle_counts((1, 2))]
    scan = convergence_scan(UNIFORM2, f, [1024, 2048], 5000, seed=8, tv_orders=[3])
    ests = moment_estimates(UNIFORM2, f, 5000, seed=8, n=1024)
    assert _rows(scan, "product:")[:2] == [
        (1024, g.label(), e.value, e.stderr) for g, e in zip(f, ests)
    ]


def test_scan_tv_rows_do_not_depend_on_other_rows():
    # each variant draws at a different kmax: 2, 3 and 4
    f = [Functional.product_cycle_counts((1, 4))]
    alone = convergence_scan(UNIFORM2, [], [8, 16], 600, seed=2, tv_orders=[2])
    both = convergence_scan(UNIFORM2, [], [8, 16], 600, seed=2, tv_orders=[2, 3])
    with_f = convergence_scan(UNIFORM2, f, [8, 16], 600, seed=2, tv_orders=[2])
    assert _rows(alone, "tv:2") == _rows(both, "tv:2") == _rows(with_f, "tv:2")
    assert alone.trend["tv:2"] == both.trend["tv:2"] == with_f.trend["tv:2"]


def test_stream_ids_stay_inside_the_grid_stride(monkeypatch):
    # 500 samples at n = 8 is one chunk; two factors need stream ids 0 and 1
    monkeypatch.setattr("permprod.stats._GRID_STRIDE", 1)
    with pytest.raises(ValueError, match="grid stride"):
        sample_joint_counts(UNIFORM2, 2, 500, seed=1, n=8)
    monkeypatch.setattr("permprod.stats._GRID_STRIDE", 2)
    assert sample_joint_counts(UNIFORM2, 2, 500, seed=1, n=8).shape == (500, 2)


def test_first_factor_representative_keeps_product_class_law(tmp_path):
    # Class-function consumers draw factor 0 unshuffled: the product's
    # cycle-type law must still be the exact one, within 4 sigma per type.
    n, m = 5, 40000
    for pair in (
        ("ewens:2", "ewens:1/2"),
        ("sqrt_fixed:1", "uniform"),
        # matching_heavy:2/5 has no cycle type at n = 5 (a lone leftover point)
        ("matching_heavy:1/5", "ewens:2"),
    ):
        bound = [sampler_from_text(text).bind(n=n) for text in pair]
        counts = np.empty((m, n), dtype=np.int64)

        def consume(pos, chunk_counts, first):
            counts[pos : pos + len(chunk_counts)] = chunk_counts

        draw_chunks(bound, m, 21, consume, kmax=n)
        seen = {
            tuple(d for d in range(n, 0, -1) for _ in range(row[d - 1])): count
            for row, count in zip(*np.unique(counts, axis=0, return_counts=True))
        }
        law = dict(class_probs(product_type_distribution(*(_exact_law(s) for s in bound))))
        assert set(seen) <= set(law), pair
        for part, prob in law.items():
            p = float(prob)
            assert abs(seen.get(part, 0) - m * p) < 4 * math.sqrt(m * p * (1 - p)), (pair, part)
    # sample prints factors, so its first factor stays a full relabeled draw:
    # its fixed points spread over every position
    out = tmp_path / "sample.csv"
    argv = ["sample", "--seed", "17", "--samplers", "sqrt_fixed:2, uniform", "--n", "6"]
    assert main(argv + ["--samples", "4000", "--output", str(out)]) == 0
    lines = (ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
    factor1 = np.array([row["factor1"].split() for row in csv.DictReader(lines)], dtype=int)
    fixed_freq = (factor1 == np.arange(1, 7)).mean(axis=0)
    assert np.all(fixed_freq > 0.2) and np.all(fixed_freq < 0.5)
