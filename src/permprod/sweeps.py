"""Exhaustive verification suites over small symmetric groups.

Each sweep enumerates a full population (all permutations, all ordered
pairs, all partial-injection graphs) and checks one structural claim on
every member, reporting a case count and a violation count. Nothing here
samples; a non-zero violation count means the claim is false as stated,
not that a tolerance was missed.

The suites are sized so the defaults finish in seconds: pair sweeps cap
at n = 5 (about 1.4e4 ordered pairs) and single-permutation sweeps at
n = 7.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from permprod.cyclegraphs import (
    DirectedGraph,
    graphs_from_record,
    graphs_from_traversal,
    no_two_cycles_when_components_small,
    relabel_dichotomy_holds,
    reversal_identities_hold,
    shared_cycle_graphs_match,
    traversal,
)
from permprod.oracle import (
    ExactDistribution,
    ewens_prefix_fixed_prob,
    prefix_fixed_prob,
    verify_bounds,
)
from permprod.perms import (
    Permutation,
    all_permutations,
    compose,
    cycle_of,
    inverse,
    power_fixed_points,
    trace_power,
)

__all__ = [
    "SweepSummary",
    "sweep_trace_identity",
    "sweep_traversal_consistency",
    "sweep_shared_cycle",
    "sweep_reversal_symmetry",
    "sweep_small_components",
    "sweep_event_factorization",
    "sweep_relabel_dichotomy",
    "sweep_membership_bounds",
    "sweep_prefix_decay",
    "run_all",
]

_EXAMPLE_CAP = 5


@dataclass
class SweepSummary:
    """Outcome of one exhaustive suite."""

    suite: str
    n: int
    cases: int
    violations: int
    detail: str
    examples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def as_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "cases": self.cases,
            "violations": self.violations,
            "ok": self.ok,
            "detail": self.detail,
            "examples": list(self.examples),
        }


class _Tally:
    def __init__(self) -> None:
        self.cases = 0
        self.violations = 0
        self.examples: list[str] = []

    def record(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.violations += 1
            if len(self.examples) < _EXAMPLE_CAP:
                self.examples.append(describe())


def sweep_trace_identity(n: int = 7, max_power: int | None = None) -> SweepSummary:
    """Fixed points of every power, computed twice.

    The divisor-sum formula through the cycle decomposition must agree
    with direct iteration for every permutation and every power.
    """
    if max_power is None:
        max_power = 2 * n
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    tally = _Tally()
    for perm in all_permutations(n):
        for k in range(1, max_power + 1):
            ok = trace_power(perm, k) == power_fixed_points(perm, k)
            tally.record(ok, lambda p=perm, kk=k: f"perm={p.to_line()} k={kk}")
    return SweepSummary(
        suite="trace-power-identity",
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=f"all {n}! permutations, powers 1..{max_power}",
        examples=tally.examples,
    )


def sweep_traversal_consistency(n: int = 4) -> SweepSummary:
    """Traversal records against their definition, for every pair and start.

    The index walk must equal the cycle of inverse(sigma) o rho through
    the start, the companion sequence must be its rho-image, and the two
    derived graphs must have one edge per step and be satisfied by the
    very pair that produced them.
    """
    tally = _Tally()
    perms = list(all_permutations(n))
    for sigma in perms:
        sinv = inverse(sigma)
        for rho in perms:
            prod = compose(sinv, rho)
            for m in range(1, n + 1):
                record = traversal(sigma, rho, m)
                g1, g2 = graphs_from_record(record, n)
                ok = (
                    record.i_seq == cycle_of(prod, m)
                    and record.j_seq == tuple(rho(x) for x in record.i_seq)
                    and len(g1.edges) == record.k
                    and len(g2.edges) == record.k
                    and all(sigma(a) == b for a, b in g1.edges)
                    and all(rho(a) == b for a, b in g2.edges)
                )
                tally.record(
                    ok,
                    lambda s=sigma, r=rho, mm=m: (
                        f"sigma={s.to_line()} rho={r.to_line()} m={mm}"
                    ),
                )
    return SweepSummary(
        suite="traversal-encoding",
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=f"all ordered pairs at n={n}, every start index",
        examples=tally.examples,
    )


def _pair_sweep(suite: str, n: int, check, per_start_pairs: bool, detail: str) -> SweepSummary:
    # check(sigma, rho, m) for per_start_pairs=False, check(sigma, rho, m1, m2) otherwise
    tally = _Tally()
    perms = list(all_permutations(n))
    for sigma in perms:
        for rho in perms:
            if per_start_pairs:
                for m1, m2 in itertools.combinations(range(1, n + 1), 2):
                    ok = check(sigma, rho, m1, m2)
                    tally.record(
                        ok,
                        lambda s=sigma, r=rho, a=m1, b=m2: (
                            f"sigma={s.to_line()} rho={r.to_line()} m1={a} m2={b}"
                        ),
                    )
            else:
                for m in range(1, n + 1):
                    ok = check(sigma, rho, m)
                    tally.record(
                        ok,
                        lambda s=sigma, r=rho, mm=m: (
                            f"sigma={s.to_line()} rho={r.to_line()} m={mm}"
                        ),
                    )
    return SweepSummary(
        suite=suite,
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=detail,
        examples=tally.examples,
    )


def sweep_shared_cycle(n: int = 4) -> SweepSummary:
    """Start indices on one traversal cycle must induce identical graphs."""
    return _pair_sweep(
        suite="shared-cycle-graphs",
        n=n,
        check=shared_cycle_graphs_match,
        per_start_pairs=True,
        detail=f"all ordered pairs at n={n}, every unordered start pair",
    )


def sweep_reversal_symmetry(n: int = 4) -> SweepSummary:
    """The exchange identities between (sigma, rho) and (rho, sigma)."""
    return _pair_sweep(
        suite="reversal-exchange",
        n=n,
        check=reversal_identities_hold,
        per_start_pairs=False,
        detail=f"all ordered pairs at n={n}, every start index",
    )


def sweep_small_components(n: int = 4) -> SweepSummary:
    """No 2-cycles in traversal graphs whose components all have 2 vertices."""
    return _pair_sweep(
        suite="two-vertex-components",
        n=n,
        check=no_two_cycles_when_components_small,
        per_start_pairs=False,
        detail=f"all ordered pairs at n={n}, every start index",
    )


def sweep_event_factorization(
    n: int = 4, start_counts: Sequence[int] = (1, 2, 3)
) -> SweepSummary:
    """Fibers of the union-graph map are full membership rectangles.

    All ordered pairs are grouped by the union couple over start indices
    1..k. For every realized couple (G1, G2), the group must equal
    {sigma satisfying G1} x {rho satisfying G2} with both factor counts
    obtained by brute force and matching (n - edges)!, and the finer
    per-start graph tuple must induce exactly the same grouping, so the
    tuple and the union carry the same information.
    """
    ks = list(start_counts)
    if not ks or any(k < 1 or k > n for k in ks):
        raise ValueError(f"start counts must lie in 1..{n}: {ks!r}")
    perms = list(all_permutations(n))
    member_count: dict[frozenset, int] = {}

    def count_satisfying(edges: frozenset) -> int:
        if edges not in member_count:
            member_count[edges] = sum(
                1 for p in perms if all(p(a) == b for a, b in edges)
            )
        return member_count[edges]

    tally = _Tally()
    tuples_total = 0
    for k in ks:
        starts = tuple(range(1, k + 1))
        by_union: dict[tuple[frozenset, frozenset], set] = {}
        by_tuple: dict[tuple, set] = {}
        union_of_tuple: dict[tuple, tuple[frozenset, frozenset]] = {}
        for si, sigma in enumerate(perms):
            for ri, rho in enumerate(perms):
                per = [graphs_from_traversal(sigma, rho, m) for m in starts]
                tuple_key = tuple(g.edges for couple in per for g in couple)
                e1 = frozenset().union(*(g1.edges for g1, _ in per))
                e2 = frozenset().union(*(g2.edges for _, g2 in per))
                by_union.setdefault((e1, e2), set()).add((si, ri))
                by_tuple.setdefault(tuple_key, set()).add((si, ri))
                union_of_tuple[tuple_key] = (e1, e2)
        tuples_total += len(by_tuple)
        for tuple_key, fiber in by_tuple.items():
            e1, e2 = union_of_tuple[tuple_key]
            ok = fiber == by_union[(e1, e2)]
            expected = count_satisfying(e1) * count_satisfying(e2)
            ok = ok and len(fiber) == expected
            ok = ok and expected == (
                math.factorial(n - len(e1)) * math.factorial(n - len(e2))
            )
            if ok:
                for si, ri in fiber:
                    s, r = perms[si], perms[ri]
                    if not all(s(a) == b for a, b in e1) or not all(
                        r(a) == b for a, b in e2
                    ):
                        ok = False
                        break
            tally.record(
                ok,
                lambda kk=k, a=e1, b=e2: (
                    f"k={kk} sides {sorted(a)} / {sorted(b)}"
                ),
            )
    return SweepSummary(
        suite="event-factorization",
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=(
            f"{tuples_total} realized graph tuples over start counts "
            f"{tuple(ks)} at n={n}"
        ),
        examples=tally.examples,
    )


def _partial_injections(n: int):
    verts = range(1, n + 1)
    for e in range(n + 1):
        for sources in itertools.combinations(verts, e):
            for images in itertools.permutations(verts, e):
                yield frozenset(zip(sources, images))


def sweep_relabel_dichotomy(n: int = 4) -> SweepSummary:
    """Relabeling with a fixed point per component: frozen or inconsistent.

    Runs over every graph whose edges form a partial injection and every
    relabeling permutation; cases where some component avoids the fixed
    points are vacuous and still counted.
    """
    tally = _Tally()
    perms = list(all_permutations(n))
    for edges in _partial_injections(n):
        g = DirectedGraph(n, edges)
        for tau in perms:
            ok = relabel_dichotomy_holds(g, tau)
            tally.record(
                ok,
                lambda ee=edges, t=tau: f"edges={sorted(ee)} tau={t.to_line()}",
            )
    return SweepSummary(
        suite="relabel-dichotomy",
        n=n,
        cases=tally.cases,
        violations=tally.violations,
        detail=f"all partial-injection graphs at n={n} times all relabelings",
        examples=tally.examples,
    )


def _union_graph_collection(n: int) -> list[DirectedGraph]:
    """Every graph realizable as a union of per-start graphs, either side.

    Start indices on a shared cycle contribute identical graphs (the
    shared-cycle sweep confirms this exhaustively), so unions over
    arbitrary index sets reduce to unions over subsets of the cycles of
    inverse(sigma) o rho, one representative start per cycle.
    """
    seen: set[frozenset] = set()
    perms = list(all_permutations(n))
    for sigma in perms:
        sinv = inverse(sigma)
        for rho in perms:
            prod = compose(sinv, rho)
            starts = []
            covered = bytearray(n)
            for m in range(1, n + 1):
                if covered[m - 1]:
                    continue
                for x in cycle_of(prod, m):
                    covered[x - 1] = 1
                starts.append(m)
            per = [graphs_from_traversal(sigma, rho, m) for m in starts]
            for r in range(1, len(starts) + 1):
                for combo in itertools.combinations(range(len(starts)), r):
                    e1 = frozenset().union(*(per[i][0].edges for i in combo))
                    e2 = frozenset().union(*(per[i][1].edges for i in combo))
                    seen.add(e1)
                    seen.add(e2)
    return [DirectedGraph(n, edges) for edges in sorted(seen, key=sorted)]


_FAMILY_OF_CHECK = {
    "membership-upper-weighted": "membership-upper-bounds",
    "membership-upper-plain": "membership-upper-bounds",
    "two-cycle-upper": "two-cycle-upper-bounds",
    "matching-sandwich-lower": "matching-sandwich-bounds",
    "matching-sandwich-upper": "matching-sandwich-bounds",
}


def sweep_membership_bounds(
    n: int = 5, thetas: Sequence | None = ("1/2", "1", "2")
) -> list[SweepSummary]:
    """Exact probability bounds on every realizable union graph.

    Collects the union graphs from all ordered pairs at this n, then runs
    every applicable inequality under the theta-biased law for each theta
    (plus the uniform law when ``thetas`` includes None). Returns one
    summary per bound family, exact arithmetic throughout.
    """
    laws = []
    for theta in thetas or ():
        if theta is None:
            laws.append(ExactDistribution.uniform(n))
        else:
            laws.append(ExactDistribution.ewens(n, Fraction(theta)))
    if not laws:
        raise ValueError("need at least one law")
    graphs = _union_graph_collection(n)
    tallies = {family: _Tally() for family in set(_FAMILY_OF_CHECK.values())}
    for g in graphs:
        for law in laws:
            for check in verify_bounds(law, g):
                family = _FAMILY_OF_CHECK[check.check_id]
                tallies[family].record(
                    check.holds,
                    lambda c=check, gg=g, lw=law: (
                        f"{c.check_id} law={lw.kind} edges={sorted(gg.edges)} "
                        f"lhs={c.lhs} rhs={c.rhs}"
                    ),
                )
    kinds = ", ".join(law.kind for law in laws)
    return [
        SweepSummary(
            suite=family,
            n=n,
            cases=tally.cases,
            violations=tally.violations,
            detail=f"{len(graphs)} union graphs at n={n}; laws: {kinds}",
            examples=tally.examples,
        )
        for family, tally in sorted(tallies.items())
    ]


def sweep_prefix_decay(
    n_values: Sequence[int] = (4, 5, 6, 7, 8, 9),
    prefix_lengths: Sequence[int] = (1, 2),
    thetas: Sequence = ("1/2", "1", "2"),
) -> SweepSummary:
    """Prefix-fixing probabilities: closed form and scaled decay.

    For each theta and prefix length f, the type-level computation must
    match the closed form exactly, and P(fix 1..f)^2 * n^f must strictly
    decrease along n_values. The square keeps the comparison rational;
    it is equivalent to decay of P * n^(f/2).
    """
    ns = list(n_values)
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_values must be strictly increasing: {ns!r}")
    tally = _Tally()
    for theta in thetas:
        theta = Fraction(theta)
        for f in prefix_lengths:
            values = []
            for n in ns:
                closed = ewens_prefix_fixed_prob(n, f, theta)
                typed = prefix_fixed_prob(ExactDistribution.ewens(n, theta), f)
                tally.record(
                    typed == closed,
                    lambda nn=n, ff=f, th=theta: f"theta={th} f={ff} n={nn} closed-form mismatch",
                )
                values.append(closed * closed * n**f)
            for (n_prev, prev), (n_cur, cur) in zip(
                zip(ns, values), zip(ns[1:], values[1:])
            ):
                tally.record(
                    cur < prev,
                    lambda a=n_prev, b=n_cur, ff=f, th=theta: (
                        f"theta={th} f={ff} no decay from n={a} to n={b}"
                    ),
                )
    return SweepSummary(
        suite="prefix-fixing-decay",
        n=max(ns),
        cases=tally.cases,
        violations=tally.violations,
        detail=(
            f"n in {tuple(ns)}, prefix lengths {tuple(prefix_lengths)}, "
            f"thetas {tuple(str(t) for t in thetas)}"
        ),
        examples=tally.examples,
    )


def run_all(
    pair_n: int = 5,
    single_n: int = 7,
    bounds_n: int | None = None,
    thetas: Sequence = ("1/2", "1", "2"),
) -> list[SweepSummary]:
    """Run every suite; pair sweeps at pair_n, the power sweep at single_n.

    ``bounds_n`` defaults to ``pair_n``. Keep pair_n <= 5 and
    single_n <= 7 unless long runtimes are acceptable.
    """
    bn = pair_n if bounds_n is None else bounds_n
    out = [
        sweep_trace_identity(single_n),
        sweep_traversal_consistency(pair_n),
        sweep_shared_cycle(pair_n),
        sweep_reversal_symmetry(pair_n),
        sweep_small_components(pair_n),
        sweep_event_factorization(pair_n),
        sweep_relabel_dichotomy(pair_n),
    ]
    out.extend(sweep_membership_bounds(bn, thetas))
    out.append(sweep_prefix_decay(thetas=thetas))
    return out
