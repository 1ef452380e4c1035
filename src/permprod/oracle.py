"""Exact distribution calculations over small symmetric groups.

Everything here is rational arithmetic via ``fractions.Fraction``;
nothing samples. Distributions are required to be constant on conjugacy
classes, which is what makes the calculations tractable: expectations of
class functions only need the cycle-type distribution, and probabilities
involving distinguished indices reduce to type-level counting because a
conjugation-invariant law is exchangeable over the ground set.

The pair computations use a representative reduction. For independent
conjugation-invariant factors, the inner sum over the second factor is
unchanged when the first factor is replaced by any member of its
conjugacy class, so one representative per cycle type of the first
factor suffices and the cost drops from (n!)^2 to p(n) * n!. The
unreduced double enumeration is also provided so tests can confirm the
reduction instead of trusting it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from permprod.cyclegraphs import (
    DirectedGraph,
    GraphClass,
    canonical_class,
    graphs_from_traversal,
    is_T_class,
    profile,
    union_graphs,
)
from permprod.perms import (
    Permutation,
    all_permutations,
    cycle_type,
    inverse,
)

__all__ = [
    "ExactDistribution",
    "BoundCheck",
    "partitions",
    "class_size",
    "representative",
    "ewens_weight",
    "rising_factorial",
    "product_type_distribution",
    "exact_moment",
    "exact_joint_cycle_prob",
    "exact_graph_prob",
    "verify_bounds",
    "prefix_fixed_prob",
    "ewens_prefix_fixed_prob",
    "index_cycle_length_prob",
    "expect_cycle_product",
    "permutation_weights",
    "pair_expectation_direct",
    "conjugation_average",
    "class_tuple_pmf",
    "union_pair_pmf",
]

# Full enumeration of one symmetric group; 8! is the practical ceiling.
_ENUM_MAX_N = 8


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples."""
    if n < 0:
        raise ValueError("partitions need n >= 0")

    def rec(remaining: int, maxpart: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _multiplicities(partition: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in partition:
        out[part] = out.get(part, 0) + 1
    return out


def class_size(partition: Sequence[int], n: int) -> int:
    """Number of permutations of {1..n} with the given cycle type."""
    if sum(partition) != n:
        raise ValueError(f"partition {partition!r} does not sum to {n}")
    z = 1
    for length, mult in _multiplicities(partition).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


def representative(partition: Sequence[int], n: int | None = None) -> Permutation:
    """One permutation of the given cycle type, cycles on consecutive blocks."""
    total = sum(partition)
    n = total if n is None else n
    if n != total:
        raise ValueError(f"partition {partition!r} does not sum to {n}")
    cycles = []
    start = 1
    for length in partition:
        cycles.append(list(range(start, start + length)))
        start += length
    return Permutation.from_cycles(n, cycles)


def rising_factorial(theta: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= theta + i
    return out


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"expected an exact rational, got {value!r}")


def ewens_weight(sigma: Permutation, theta) -> Fraction:
    """Probability of one permutation under the theta-biased cycle measure,
    theta^(number of cycles) over the rising factorial theta(theta+1)...(theta+n-1)."""
    theta = _as_fraction(theta)
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if theta == 0:
        raise ValueError(
            "theta = 0 is degenerate; use ExactDistribution.ewens(n, 0), "
            "which is the uniform single-cycle law"
        )
    num_cycles = len(cycle_type(sigma))
    return theta**num_cycles / rising_factorial(theta, sigma.n)


@dataclass(frozen=True)
class ExactDistribution:
    """A conjugation-invariant law on the symmetric group of {1..n}.

    ``class_probs`` assigns each cycle type its total class probability;
    the pmf of a single permutation is the class probability divided by
    the class size. Construct through :meth:`uniform`, :meth:`ewens` or
    :meth:`explicit`.
    """

    n: int
    kind: str
    class_probs: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("distribution needs n >= 1")
        total = Fraction(0)
        for partition, prob in self.class_probs:
            if sum(partition) != self.n:
                raise ValueError(f"cycle type {partition!r} does not sum to {self.n}")
            if prob < 0:
                raise ValueError(f"negative class probability for {partition!r}")
            total += prob
        if total != 1:
            raise ValueError(f"class probabilities sum to {total}, expected 1")

    @classmethod
    def uniform(cls, n: int) -> "ExactDistribution":
        fact = math.factorial(n)
        probs = tuple(
            (p, Fraction(class_size(p, n), fact)) for p in partitions(n)
        )
        return cls(n=n, kind="uniform", class_probs=probs)

    @classmethod
    def ewens(cls, n: int, theta) -> "ExactDistribution":
        theta = _as_fraction(theta)
        if theta < 0:
            raise ValueError("theta must be non-negative")
        if theta == 0:
            # Degenerate limit: all mass on the single n-cycle class.
            return cls.explicit(n, {(n,): Fraction(1)}, kind="ewens0")
        norm = rising_factorial(theta, n)
        probs = tuple(
            (p, class_size(p, n) * theta ** len(p) / norm) for p in partitions(n)
        )
        return cls(n=n, kind=f"ewens({theta})", class_probs=probs)

    @classmethod
    def explicit(
        cls, n: int, mapping: Mapping[Sequence[int], object], kind: str = "explicit"
    ) -> "ExactDistribution":
        probs = tuple(
            sorted(
                (tuple(sorted(p, reverse=True)), _as_fraction(w))
                for p, w in mapping.items()
            )
        )
        return cls(n=n, kind=kind, class_probs=probs)

    def class_probabilities(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.class_probs)

    def perm_weight(self, partition: tuple[int, ...]) -> Fraction:
        """Probability of a single permutation with the given cycle type."""
        prob = dict(self.class_probs).get(partition, Fraction(0))
        if prob == 0:
            return Fraction(0)
        return prob / class_size(partition, self.n)


@lru_cache(maxsize=None)
def _perm_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # (images, cycle type) for every permutation of {1..n}.
    if n > _ENUM_MAX_N:
        raise ValueError(f"full enumeration capped at n = {_ENUM_MAX_N}, got {n}")
    rows = []
    for perm in all_permutations(n):
        rows.append((perm.images, cycle_type(perm)))
    return tuple(rows)


def _type_of_images(images: Sequence[int]) -> tuple[int, ...]:
    n = len(images)
    seen = bytearray(n)
    lengths = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        x = start
        while not seen[x - 1]:
            seen[x - 1] = 1
            length += 1
            x = images[x - 1]
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


@lru_cache(maxsize=None)
def product_type_distribution(
    d1: ExactDistribution, d2: ExactDistribution
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Exact cycle-type law of the product ``sigma o rho``.

    Reduction: for each cycle type of the first factor, one class
    representative stands in for the whole class because the second
    factor's law is conjugation invariant. So ``inverse(sigma) o rho``
    has this law too: inversion keeps sigma's cycle type.
    """
    if d1.n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    n = d1.n
    table = _perm_table(n)
    w2 = {p: d2.perm_weight(p) for p, _ in d2.class_probs}
    out: dict[tuple[int, ...], Fraction] = {}
    for lam, prob1 in d1.class_probs:
        if prob1 == 0:
            continue
        base_images = representative(lam).images
        counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for rho_images, rho_type in table:
            if w2.get(rho_type, 0) == 0:
                continue
            prod = tuple(base_images[x - 1] for x in rho_images)
            key = (rho_type, _type_of_images(prod))
            counts[key] = counts.get(key, 0) + 1
        for (rho_type, mu), cnt in counts.items():
            out[mu] = out.get(mu, Fraction(0)) + prob1 * w2[rho_type] * cnt
    return tuple(sorted(out.items()))


def _count_product(partition: tuple[int, ...], v_vec: Sequence[int]) -> int:
    mults = _multiplicities(partition)
    prod = 1
    for v in v_vec:
        prod *= mults.get(v, 0)
    return prod


def exact_moment(
    d1: ExactDistribution,
    d2: ExactDistribution,
    v_vec: Sequence[int],
) -> Fraction:
    """E of the product over v_vec of the number of v-cycles of the product
    permutation. Repeats in v_vec multiply the same count again, so
    ``v_vec = (1, 1)`` gives the second moment of the fixed-point count."""
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    dist = product_type_distribution(d1, d2)
    return sum(
        (prob * _count_product(mu, v_vec) for mu, prob in dist), Fraction(0)
    )


def _fixed_index_prob(
    partition: tuple[int, ...], v_vec: Sequence[int], n: int
) -> Fraction:
    # P(the cycle through index a_i has length v_i for i = 1..k) for
    # distinct indices, under a uniform relabeling of a fixed permutation
    # of this cycle type. Sequential selection over index slots.
    mults = _multiplicities(partition)
    avail = {length: length * mult for length, mult in mults.items()}
    num = 1
    den = 1
    remaining = n
    for v in v_vec:
        have = avail.get(v, 0)
        if have <= 0:
            return Fraction(0)
        num *= have
        den *= remaining
        avail[v] = have - 1
        remaining -= 1
    return Fraction(num, den)


def exact_joint_cycle_prob(
    d1: ExactDistribution, d2: ExactDistribution, v_vec: Sequence[int]
) -> Fraction:
    """P(the cycle of the product ``sigma o rho`` through index i has
    length v_i for every i = 1..k), computed from its cycle-type law.

    Valid because both factor laws are conjugation invariant, which makes
    the product law exchangeable over index positions.
    """
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    if len(v_vec) > d1.n:
        raise ValueError(f"more start indices than ground-set elements: {v_vec!r}")
    dist = product_type_distribution(d1, d2)
    n = d1.n
    return sum(
        (prob * _fixed_index_prob(mu, v_vec, n) for mu, prob in dist), Fraction(0)
    )


def exact_graph_prob(d: ExactDistribution, g: DirectedGraph) -> Fraction:
    """P(sigma satisfies every edge constraint of g) under ``d``."""
    if d.n != g.n:
        raise ValueError(f"size mismatch: {d.n} vs {g.n}")
    edges = tuple(g.edges)
    total = Fraction(0)
    type_counts: dict[tuple[int, ...], int] = {}
    for images, ptype in _perm_table(d.n):
        if all(images[a - 1] == b for a, b in edges):
            type_counts[ptype] = type_counts.get(ptype, 0) + 1
    for ptype, cnt in type_counts.items():
        w = d.perm_weight(ptype)
        if w:
            total += w * cnt
    return total


def prefix_fixed_prob(d: ExactDistribution, f: int) -> Fraction:
    """P(sigma fixes each of 1..f) under ``d``, by type-level counting.

    Permutations fixing the prefix correspond to permutations of the
    remaining n - f points; each rest-type contributes its class count
    times the pmf of the padded full type.
    """
    if f < 0 or f > d.n:
        raise ValueError(f"prefix length {f} outside 0..{d.n}")
    if f == 0:
        return Fraction(1)
    rest = d.n - f
    total = Fraction(0)
    for mu in partitions(rest):
        full = tuple(sorted(mu + (1,) * f, reverse=True))
        w = d.perm_weight(full)
        if w:
            total += w * (class_size(mu, rest) if rest else 1)
    return total


def ewens_prefix_fixed_prob(n: int, f: int, theta) -> Fraction:
    """Closed form for the prefix-fixing probability under the theta-biased
    law: the product over i < f of theta / (theta + n - 1 - i)."""
    theta = _as_fraction(theta)
    if theta <= 0:
        raise ValueError("closed form needs theta > 0")
    if f < 0 or f > n:
        raise ValueError(f"prefix length {f} outside 0..{n}")
    out = Fraction(1)
    for i in range(f):
        out *= theta / (theta + n - 1 - i)
    return out


def index_cycle_length_prob(d: ExactDistribution, length: int) -> Fraction:
    """P(the cycle through index 1 has the given length) under ``d``."""
    if length < 1:
        raise ValueError("cycle length must be >= 1")
    total = Fraction(0)
    for partition, prob in d.class_probs:
        if prob == 0:
            continue
        mult = _multiplicities(partition).get(length, 0)
        if mult:
            total += prob * Fraction(length * mult, d.n)
    return total


def expect_cycle_product(d: ExactDistribution, v_vec: Sequence[int]) -> Fraction:
    """E of the product over v_vec of the number of v-cycles, single law."""
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    return sum(
        (prob * _count_product(p, v_vec) for p, prob in d.class_probs), Fraction(0)
    )


@dataclass
class BoundCheck:
    """One verified inequality: ``lhs <= rhs`` expected to hold."""

    check_id: str
    n: int
    parameters: dict
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def as_json_dict(self) -> dict:
        return {
            "lemma": self.check_id,
            "n": self.n,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "holds": self.holds,
        }


def _binom(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def verify_bounds(d: ExactDistribution, g: DirectedGraph) -> list[BoundCheck]:
    """Check the membership-probability inequalities for one graph.

    Always checks the two-step upper bound through the loop-fixing
    probability. When every non-trivial component has two vertices and
    at least one is a 2-cycle, also checks the 2-cycle upper bound. When
    the graph consists of disjoint single edges, checks the two-sided
    sandwich.
    """
    if d.n != g.n:
        raise ValueError(f"size mismatch: {d.n} vs {g.n}")
    n = d.n
    prof = profile(g)
    p = prof.component_count
    v = prof.vertex_count
    f = prof.loop_count
    prob = exact_graph_prob(d, g)
    checks: list[BoundCheck] = []

    denom = _binom(n - p, v - p) * math.factorial(v - p)
    base_params = {"p": p, "v": v, "f": f, "edges": len(g.edges)}
    weighted = prefix_fixed_prob(d, f) / denom
    checks.append(
        BoundCheck(
            check_id="membership-upper-weighted",
            n=n,
            parameters=base_params,
            lhs=prob,
            rhs=weighted,
            holds=prob <= weighted,
        )
    )
    plain = Fraction(1, denom)
    checks.append(
        BoundCheck(
            check_id="membership-upper-plain",
            n=n,
            parameters=base_params,
            lhs=prob,
            rhs=plain,
            holds=prob <= plain,
        )
    )

    two_vertex = p >= 1 and all(len(verts) == 2 for verts, _ in prof.nontrivial)
    has_cycle_comp = any(
        any(a != b and (b, a) in edges for a, b in edges)
        for _, edges in prof.nontrivial
    )
    if two_vertex and has_cycle_comp:
        denom2 = _binom(n - p, p) * math.factorial(p)
        rhs = index_cycle_length_prob(d, 2) / denom2
        checks.append(
            BoundCheck(
                check_id="two-cycle-upper",
                n=n,
                parameters=base_params,
                lhs=prob,
                rhs=rhs,
                holds=prob <= rhs,
            )
        )

    if p >= 1 and is_T_class(g, p) and n >= 2 * p:
        denom3 = _binom(n - p, p) * math.factorial(p)
        upper = Fraction(1, denom3)
        slack = 1 - Fraction(p * p - p, n - 1) - p * prefix_fixed_prob(d, 1)
        lower = slack / denom3
        checks.append(
            BoundCheck(
                check_id="matching-sandwich-lower",
                n=n,
                parameters=base_params,
                lhs=lower,
                rhs=prob,
                holds=lower <= prob,
            )
        )
        checks.append(
            BoundCheck(
                check_id="matching-sandwich-upper",
                n=n,
                parameters=base_params,
                lhs=prob,
                rhs=upper,
                holds=prob <= upper,
            )
        )
    return checks


def permutation_weights(d: ExactDistribution) -> dict[Permutation, Fraction]:
    """The full pmf as a dictionary, for unreduced double enumerations."""
    out: dict[Permutation, Fraction] = {}
    for images, ptype in _perm_table(d.n):
        w = d.perm_weight(ptype)
        if w:
            out[Permutation(images)] = w
    return out


def pair_expectation_direct(
    w1: Mapping[Permutation, Fraction],
    w2: Mapping[Permutation, Fraction],
    fn: Callable[[Permutation, Permutation], object],
) -> Fraction:
    """Unreduced expectation over independent factors with explicit pmfs.

    Exists so the representative reduction can be validated against the
    straight double sum; pmfs need not be conjugation invariant here.
    """
    total = Fraction(0)
    for sigma, p1 in w1.items():
        if p1 == 0:
            continue
        for rho, p2 in w2.items():
            if p2 == 0:
                continue
            total += p1 * p2 * _as_fraction_or_int(fn(sigma, rho))
    return total


def _as_fraction_or_int(value) -> Fraction:
    if isinstance(value, bool):
        return Fraction(1 if value else 0)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"expected an exact value, got {value!r}")


def conjugation_average(
    weights: Mapping[Permutation, Fraction]
) -> dict[Permutation, Fraction]:
    """The law of t^-1 sigma t with t uniform and independent of sigma.

    Fixed point of this map is exactly conjugation invariance; applying
    it to an arbitrary pmf produces the invariant version.
    """
    perms = [Permutation(images) for images, _ in _perm_table(_n_of(weights))]
    fact = len(perms)
    out: dict[Permutation, Fraction] = {}
    from permprod.perms import conjugate

    for sigma, w in weights.items():
        if w == 0:
            continue
        share = w / fact
        for t in perms:
            moved = conjugate(sigma, t)
            out[moved] = out.get(moved, Fraction(0)) + share
    return out


def _n_of(weights: Mapping[Permutation, Fraction]) -> int:
    for sigma in weights:
        return sigma.n
    raise ValueError("empty pmf")


def class_tuple_pmf(
    d1: ExactDistribution, d2: ExactDistribution, v_vec: Sequence[int]
) -> dict[tuple[GraphClass, ...], Fraction]:
    """Exact law of the tuple of per-index graph classes over starts 1..k,
    restricted to pairs whose traversal cycle lengths match v_vec.

    Full unreduced enumeration; practical for n <= 5.
    """
    n = d1.n
    if n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    k = len(v_vec)
    w1 = permutation_weights(d1)
    w2 = permutation_weights(d2)
    out: dict[tuple[GraphClass, ...], Fraction] = {}
    for sigma, p1 in w1.items():
        for rho, p2 in w2.items():
            entry: list[GraphClass] = []
            ok = True
            for m in range(1, k + 1):
                g1, g2 = graphs_from_traversal(sigma, rho, m)
                if len(g2.edges) != v_vec[m - 1]:
                    ok = False
                    break
                entry.append(canonical_class(g1))
                entry.append(canonical_class(g2))
            if ok:
                key = tuple(entry)
                out[key] = out.get(key, Fraction(0)) + p1 * p2
    return out


def union_pair_pmf(
    d1: ExactDistribution, d2: ExactDistribution, v_vec: Sequence[int]
) -> dict[tuple[GraphClass, GraphClass], Fraction]:
    """Exact law of the pair of union-graph classes over starts 1..k,
    restricted to pairs whose traversal cycle lengths match v_vec.

    Full unreduced enumeration; practical for n <= 5.
    """
    n = d1.n
    if n != d2.n:
        raise ValueError(f"size mismatch: {d1.n} vs {d2.n}")
    k = len(v_vec)
    starts = tuple(range(1, k + 1))
    w1 = permutation_weights(d1)
    w2 = permutation_weights(d2)
    out: dict[tuple[GraphClass, GraphClass], Fraction] = {}
    sinv_cache: dict[Permutation, Permutation] = {}
    for sigma, p1 in w1.items():
        sinv = sinv_cache.setdefault(sigma, inverse(sigma))
        for rho, p2 in w2.items():
            lengths_ok = True
            for m in starts:
                length = 1
                x = sinv(rho(m))
                while x != m:
                    length += 1
                    x = sinv(rho(x))
                if length != v_vec[m - 1]:
                    lengths_ok = False
                    break
            if not lengths_ok:
                continue
            u1, u2 = union_graphs(sigma, rho, starts)
            key = (canonical_class(u1), canonical_class(u2))
            out[key] = out.get(key, Fraction(0)) + p1 * p2
    return out
