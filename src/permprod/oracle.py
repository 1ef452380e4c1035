"""Exact distribution calculations over small symmetric groups.

Everything here is exact arithmetic with integers and
``fractions.Fraction``; nothing samples. Distributions are required to
be constant on conjugacy classes, which is what makes the calculations
tractable: expectations of class functions only need the cycle-type
distribution, and probabilities involving distinguished indices reduce
to type-level counting because a conjugation-invariant law is
exchangeable over the ground set.

The law of a product of independent invariant factors sigma_1..sigma_F
comes from the characters of S_n (Diaconis and Shahshahani 1981; Sagan,
*The Symmetric Group*, section 4.10). For a cycle type nu,

    P(sigma_1 ... sigma_F in C_nu) = |C_nu| / n!
        * sum over lambda of prod_f E chi_lambda(sigma_f)
          * chi_lambda(nu) / chi_lambda(1)^(F-1),

where lambda runs over the partitions of n and E chi_lambda(sigma_f) =
sum over mu of P_f(mu) chi_lambda(mu) reads the factor's class
probabilities. The characters come from the Murnaghan-Nakayama rule on
beta-sets (Stanley, *Enumerative Combinatorics 2*, section 7.17) in
integer arithmetic. The cost is that of the p(n) x p(n) character
table, not of n!, so the product law reaches n = 16 where enumerating
S_n stops at 8. The tests check it against brute-force enumeration.

The membership probabilities of a single law (``shape_prob``,
``exact_graph_prob``, ``prefix_fixed_prob`` and ``verify_bounds``) need
no table of shapes. A partial injection E of {1..n} is a disjoint union
of paths and cycles, its shape S (``cyclegraphs.shape``) is the multiset
of those, and P(sigma contains E) is the same for every E of one shape.
Under the Ewens law with parameter theta, theta = 1 being the uniform
law, the Feller coupling gives it in closed form (Arratia, Barbour and
Tavare, *Logarithmic Combinatorial Structures*, EMS 2003): with |E|
edges and c(E) closed cycles in E,

    P(sigma contains E) = theta^c(E) / prod_{i = n - |E|}^{n - 1} (theta + i).

For any other law, counting the pairs (pi, E) with pi of cycle type
lambda, E of shape S and E inside pi in two ways gives

    P(sigma contains E | sigma in C_lambda) = N_lambda(S) / |orbit(S)|,

where N_lambda(S) counts the partial injections of shape S inside one
member of C_lambda and |orbit(S)| those in {1..n}
(``cyclegraphs.shape_orbit_size``). Each cycle's edges are chosen
independently: all l edges of an l-cycle give the cycle itself, and
otherwise each run of r chosen edges is a path with r edges. So each
l-cycle of S is a whole l-cycle of lambda, and S's paths are shared out
among lambda's other cycles. The count runs over the sub-multisets of
S's paths only (:func:`_shape_counter`), never over the shapes S does
not hold, so its cost grows neither with n nor with a cycle's length.

Each law also holds its class probabilities as integer masses over one
common denominator, worked out once when it is built. The sums over
lambda, here and in the product law, run on those integers; each
probability is one ``Fraction`` at the end.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from permprod import cyclegraphs

if TYPE_CHECKING:
    from permprod.cyclegraphs import DirectedGraph

__all__ = [
    "ExactDistribution",
    "BoundCheck",
    "exact_moment",
    "exact_joint_cycle_prob",
    "shape_prob",
    "verify_bounds",
    "prefix_fixed_prob",
    "ewens_prefix_fixed_prob",
]

# Largest n for the product law by characters: the table of S_16 has
# 231 x 231 entries and takes well under a second; S_20 (627 x 627)
# takes several.
_EXACT_MAX_N = 16


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


def class_size(partition: Sequence[int], n: int) -> int:
    """Number of permutations of {1..n} with the given cycle type."""
    if sum(partition) != n:
        raise ValueError(f"partition {partition!r} does not sum to {n}")
    z = 1
    for length in set(partition):
        mult = partition.count(length)
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


def _as_fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    raise ValueError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class ExactDistribution:
    """A conjugation-invariant law on the symmetric group of {1..n}.

    ``class_probs`` assigns each cycle type its total class probability;
    the pmf of a single permutation is the class probability divided by
    the class size. Construct through :meth:`uniform`, :meth:`ewens` or
    :meth:`explicit`. ``masses`` holds the same law in integers: each
    cycle type of nonzero probability with its numerator over
    ``denominator``, the least common denominator of the probabilities.
    ``theta`` is the Ewens parameter of the laws :meth:`ewens` builds
    for theta > 0 and 1 for :meth:`uniform`, None for the others; it
    selects the closed form of :func:`shape_prob` and takes no part in
    equality or the hash.
    """

    n: int
    kind: str
    class_probs: tuple[tuple[tuple[int, ...], Fraction], ...]
    theta: Fraction | None = field(default=None, compare=False)
    masses: tuple[tuple[tuple[int, ...], int], ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("distribution needs n >= 1")
        denom = math.lcm(*(prob.denominator for _, prob in self.class_probs))
        masses = []
        for partition, prob in self.class_probs:
            if sum(partition) != self.n:
                raise ValueError(f"cycle type {partition!r} does not sum to {self.n}")
            mass = prob.numerator * (denom // prob.denominator)
            if mass < 0:
                raise ValueError(f"negative class probability for {partition!r}")
            if mass:
                masses.append((partition, mass))
        total = sum(mass for _, mass in masses)
        if total != denom:
            raise ValueError(f"class probabilities sum to {Fraction(total, denom)}, expected 1")
        object.__setattr__(self, "masses", tuple(masses))
        object.__setattr__(self, "denominator", denom)

    @classmethod
    def uniform(cls, n: int) -> "ExactDistribution":
        fact = math.factorial(n)
        probs = tuple((p, Fraction(class_size(p, n), fact)) for p in partitions(n))
        return cls(n=n, kind="uniform", class_probs=probs, theta=Fraction(1))

    @classmethod
    def ewens(cls, n: int, theta) -> "ExactDistribution":
        theta = _as_fraction(theta)
        if theta < 0:
            raise ValueError("theta must be non-negative")
        if theta == 0:
            # Degenerate limit: all mass on the single n-cycle class.
            return cls.explicit(n, {(n,): Fraction(1)}, kind="ewens0")
        # With theta = a / b, class_size * theta^c / (theta (theta + 1) ... (theta + n - 1))
        # is class_size * a^c * b^(n - c) over a (a + b) ... (a + (n - 1) b).
        a, b = theta.numerator, theta.denominator
        norm = math.prod(a + i * b for i in range(n))
        probs = tuple(
            (p, Fraction(class_size(p, n) * a ** len(p) * b ** (n - len(p)), norm))
            for p in partitions(n)
        )
        return cls(n=n, kind=f"ewens({theta})", class_probs=probs, theta=theta)

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


@lru_cache(maxsize=None)
def _mn_character(beta: int, mu: tuple[int, ...]) -> int:
    # chi_lambda(mu) by the Murnaghan-Nakayama rule. ``beta`` is the bit
    # set of lambda's beta-set {lambda_i + l - i}. A bead at 0 is a zero
    # part; it is dropped and the rest shifted down, so each partition
    # has one key. Removing a rim hook of length r moves a bead from b
    # down to an empty b - r, with sign -1 to the number of beads
    # strictly between.
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    tops = beta >> r
    while tops:
        low = tops.bit_length() - 1
        tops ^= 1 << low
        high = low + r
        if beta >> low & 1:
            continue
        moved = beta ^ (1 << high) ^ (1 << low)
        while moved & 1:
            moved >>= 1
        value = _mn_character(moved, rest)
        between = (beta >> (low + 1)).bit_count() - (beta >> high).bit_count()
        total += -value if between & 1 else value
    return total


@lru_cache(maxsize=None)
def _character_table(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The partitions of n and the rows chi_lambda(mu), both in the order
    of :func:`partitions`; rows are indexed by lambda, columns by mu."""
    parts = tuple(partitions(n))
    rows = []
    for lam in parts:
        top = len(lam) - 1
        beta = sum(1 << (part + top - i) for i, part in enumerate(lam))
        rows.append(tuple(_mn_character(beta, mu) for mu in parts))
    return parts, tuple(rows)


@lru_cache(maxsize=None)
def product_type_distribution(
    *laws: ExactDistribution,
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Exact cycle-type law of the product of independent factors with
    the given laws, as sorted (type, probability) pairs without the
    zero-mass types.

    Uses the character formula of the module docstring. Each law's
    integer ``masses`` stand for its class probabilities, and
    n! / chi_lambda(1) is an integer, so the sums stay in integers
    and only the final quotient is a Fraction. The order of the factors
    does not matter: the law of a product's class is the same for every
    order of invariant factors.
    """
    if not laws:
        raise ValueError("a product needs at least one factor")
    n = laws[0].n
    for d in laws[1:]:
        if d.n != n:
            raise ValueError(f"size mismatch: {n} vs {d.n}")
    parts, table = _character_table(n)
    column = {mu: j for j, mu in enumerate(parts)}
    identity = column[(1,) * n]
    fact = math.factorial(n)
    denom = fact ** len(laws)
    weights = [(fact // row[identity]) ** (len(laws) - 1) for row in table]
    for d in laws:
        denom *= d.denominator
        mass = [(column[mu], m) for mu, m in d.masses]
        for i, row in enumerate(table):
            weights[i] *= sum(m * row[j] for j, m in mass)
    out = []
    for j, nu in enumerate(parts):
        total = sum(w * row[j] for w, row in zip(weights, table) if w)
        if total:
            out.append((nu, Fraction(class_size(nu, n) * total, denom)))
    return tuple(sorted(out))


def _count_product(partition: tuple[int, ...], v_vec: Sequence[int]) -> int:
    return math.prod(partition.count(v) for v in v_vec)


def exact_moment(
    laws: Sequence[ExactDistribution], v_vec: Sequence[int]
) -> Fraction:
    """E of the product over v_vec of the number of v-cycles of the product
    of independent factors with the given laws. Repeats in v_vec multiply
    the same count again, so ``v_vec = (1, 1)`` gives the second moment of
    the fixed-point count."""
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    dist = product_type_distribution(*laws)
    return sum(
        (prob * _count_product(mu, v_vec) for mu, prob in dist), Fraction(0)
    )


def _fixed_index_prob(
    partition: tuple[int, ...], v_vec: Sequence[int], n: int
) -> Fraction:
    # P(the cycle through index a_i has length v_i for i = 1..k) for
    # distinct indices, under a uniform relabeling of a fixed permutation
    # of this cycle type. Sequential selection over index slots.
    avail = {length: length * partition.count(length) for length in set(partition)}
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
    laws: Sequence[ExactDistribution], v_vec: Sequence[int]
) -> Fraction:
    """P(the cycle of the product of independent factors with the given
    laws through index i has length v_i for every i = 1..k), computed
    from its cycle-type law.

    Valid because every factor law is conjugation invariant, which makes
    the product law exchangeable over index positions.
    """
    if not v_vec or any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    dist = product_type_distribution(*laws)
    n = laws[0].n
    if len(v_vec) > n:
        raise ValueError(f"more start indices than ground-set elements: {v_vec!r}")
    return sum(
        (prob * _fixed_index_prob(mu, v_vec, n) for mu, prob in dist), Fraction(0)
    )


def _shape_counter(kinds: Sequence[tuple[int, int]]) -> Callable[[Sequence[int]], int]:
    """N_lambda(S) as a function of the cycle type lambda, for the shape
    S that ``kinds`` lists: the number of partial injections of shape S
    inside one permutation of cycle type lambda.

    The b_l l-cycles of S are whole l-cycles of lambda, chosen among its
    m_l in C(m_l, b_l) ways, and S's paths lie on the other cycles. One
    l-cycle holds k >= 1 runs of r_1..r_k edges, R < l in all, in
    l (k - 1)! C(l - R - 1, k - 1) / prod m! ways, m runs of each length:
    the first edge of a first run (l ways), the k! / prod m! orders of
    the runs and the C(l - R - 1, k - 1) ways of k gaps of at least one
    edge summing to l - R, over k, as each edge subset is met once per
    run taken as first. The free m_l - b_l l-cycles then hold the sum
    over j of C(m_l - b_l, j) times the ordered j-fold products of one
    cycle's runs; the j cycles are distinct, so nothing is divided by
    j!. Every product is truncated to the sub-multisets of S's paths,
    the only states the count visits, and each (l, m_l - b_l) is worked
    out once for every lambda asked.
    """
    cycles = Counter(verts for verts, edges in kinds if verts == edges)
    paths = Counter(edges for verts, edges in kinds if verts != edges)
    runs = sorted(paths)
    caps = tuple(paths[r] for r in runs)
    subs = list(itertools.product(*(range(cap + 1) for cap in caps)))
    none = subs[0]

    def times(a: dict, b: dict) -> dict:
        out: dict[tuple[int, ...], int] = {}
        for x, ways_x in a.items():
            for y, ways_y in b.items():
                xy = tuple(map(operator.add, x, y))
                if all(map(operator.le, xy, caps)):
                    out[xy] = out.get(xy, 0) + ways_x * ways_y
        return out

    @lru_cache(maxsize=None)
    def free_cycles(length: int, free: int) -> dict:
        one = {}
        for sub in subs[1:]:
            k, edges = sum(sub), sum(map(operator.mul, sub, runs))
            if edges < length:
                ways = length * math.factorial(k - 1) * math.comb(length - edges - 1, k - 1)
                if ways:
                    one[sub] = ways // math.prod(map(math.factorial, sub))
        out, power = {none: 1}, {none: 1}
        for j in range(1, min(free, sum(caps)) + 1):
            power = times(power, one)
            if not power:
                break
            for sub, ways in power.items():
                out[sub] = out.get(sub, 0) + math.comb(free, j) * ways
        return out

    def count(partition: Sequence[int]) -> int:
        mults = Counter(partition)
        whole = math.prod(math.comb(mults[length], b) for length, b in cycles.items())
        if not whole:
            return 0
        shared = {none: 1}
        for length, mult in mults.items():
            # Only a cycle longer than S's shortest path can hold a path.
            if mult > cycles[length] and runs and runs[0] < length:
                shared = times(shared, free_cycles(length, mult - cycles[length]))
        return whole * shared.get(caps, 0)

    return count


def shape_prob(d: ExactDistribution, kinds: Sequence[tuple[int, int]]) -> Fraction:
    """P(sigma contains E) under ``d``, the same for every partial
    injection E of {1..n} with the given shape: its components as
    (vertex count, edge count) pairs, as ``cyclegraphs.shape`` lists them.

    For a law with ``theta`` (Ewens and uniform), the closed form of the
    module docstring in integers: with theta = a / b, |E| edges and c
    closed cycles, a^c b^(|E| - c) over prod_{i = n - |E|}^{n - 1}
    (a + i b). For any other law, sum N_lambda(S) / |orbit(S)| over its
    cycle types lambda (:func:`_shape_counter`): each N_lambda(S) times
    the law's integer mass of lambda, over ``d.denominator`` times
    |orbit(S)|. Either way one ``Fraction``, at a cost that grows with
    neither n nor the cycle lengths.
    """
    kinds = tuple(sorted(kinds))
    if sum(verts for verts, _ in kinds) > d.n:
        raise ValueError(f"shape {kinds!r} has more than {d.n} vertices")
    if d.theta is not None:
        a, b = d.theta.numerator, d.theta.denominator
        edges = sum(edge_count for _, edge_count in kinds)
        closed = sum(verts == edge_count for verts, edge_count in kinds)
        rising = math.prod(a + i * b for i in range(d.n - edges, d.n))
        return Fraction(a**closed * b ** (edges - closed), rising)
    count = _shape_counter(kinds)
    total = sum(mass * count(mu) for mu, mass in d.masses)
    return Fraction(total, d.denominator * cyclegraphs.shape_orbit_size(kinds, d.n))


def exact_graph_prob(d: ExactDistribution, g: DirectedGraph) -> Fraction:
    """P(sigma satisfies every edge constraint of g) under ``d``: the
    probability of g's shape, or 0 when g is not a partial injection."""
    if d.n != g.n:
        raise ValueError(f"size mismatch: {d.n} vs {g.n}")
    kinds = cyclegraphs.shape(g)
    return Fraction(0) if kinds is None else shape_prob(d, kinds)


def prefix_fixed_prob(d: ExactDistribution, f: int) -> Fraction:
    """P(sigma fixes each of 1..f) under ``d``, read off the law's class
    masses: given cycle type lambda with m_1 fixed points, (m_1)_f of the
    (n)_f ordered choices of f points are fixed points, (x)_f the falling
    factorial. So it is sum over lambda of mass * (m_1)_f over
    ``d.denominator`` * (n)_f, one ``Fraction``; no shape is counted."""
    if f < 0 or f > d.n:
        raise ValueError(f"prefix length {f} outside 0..{d.n}")
    total = sum(mass * math.perm(mu.count(1), f) for mu, mass in d.masses)
    return Fraction(total, d.denominator * math.perm(d.n, f))


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


@dataclass
class BoundCheck:
    """One verified inequality: ``lhs <= rhs`` expected to hold."""

    check_id: str
    n: int
    parameters: dict
    lhs: Fraction
    rhs: Fraction
    holds: bool


def verify_bounds(
    d: ExactDistribution,
    g: DirectedGraph,
    kinds: Sequence[tuple[int, int]] | None = None,
) -> list[BoundCheck]:
    """Check the membership-probability inequalities for one partial
    injection. ``kinds`` is ``shape(g)`` when the caller already has it.

    Always checks the two-step upper bound through the loop-fixing
    probability. When every non-trivial component has two vertices and
    at least one is a 2-cycle, also checks the 2-cycle upper bound. When
    the graph consists of disjoint single edges, checks the two-sided
    sandwich. Everything is read off the shape: the membership
    probability (:func:`shape_prob`), p components, v vertices, f loops.
    """
    if d.n != g.n:
        raise ValueError(f"size mismatch: {d.n} vs {g.n}")
    if kinds is None:
        kinds = cyclegraphs.shape(g)
    if kinds is None:
        raise ValueError("the bounds are stated for partial injections")
    n = d.n
    p = len(kinds)
    v = sum(verts for verts, _ in kinds)
    f = kinds.count((1, 1))
    prob = shape_prob(d, kinds)
    params = {"p": p, "v": v, "f": f, "edges": len(g.edges)}
    checks: list[BoundCheck] = []

    def check(check_id: str, lhs: Fraction, rhs: Fraction) -> None:
        checks.append(BoundCheck(check_id, n, params, lhs, rhs, holds=lhs <= rhs))

    # binom(n - p, v - p) (v - p)!; with every component on two vertices,
    # v = 2p and this is binom(n - p, p) p!.
    denom = math.perm(n - p, v - p)
    check("membership-upper-weighted", prob, prefix_fixed_prob(d, f) / denom)
    check("membership-upper-plain", prob, Fraction(1, denom))
    if (2, 2) in kinds and all(verts == 2 for verts, _ in kinds):
        # (n - 1) P(sigma has the 2-cycle (1 2)) = P(1 lies on a 2-cycle).
        check("two-cycle-upper", prob, (n - 1) * shape_prob(d, ((2, 2),)) / denom)
    if set(kinds) == {(2, 1)}:
        slack = 1 - Fraction(p * p - p, n - 1) - p * prefix_fixed_prob(d, 1)
        check("matching-sandwich-lower", slack / denom, prob)
        check("matching-sandwich-upper", prob, Fraction(1, denom))
    return checks
