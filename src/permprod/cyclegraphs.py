"""Directed-graph bookkeeping for pairs of permutations.

For a pair (sigma, rho) and a start index m, the cycle of
``inverse(sigma) o rho`` through m is read off as two aligned index
sequences: ``i_seq`` walks the cycle starting at m and ``j_seq`` holds
the rho-images of the walk. These sequences induce two small directed
graphs, one contained in the functional graph of sigma and one in the
functional graph of rho:

* the sigma-side graph has edges (i_{l+1}, j_l) for l < k plus the wrap
  edge (i_1, j_k), and each edge (a, b) records the constraint
  sigma(a) = b;
* the rho-side graph has edges (i_l, j_l), recording rho(a) = b.

Both graphs are partial injections, and a partial injection is named up
to relabeling by its ``shape``, the sizes of its components. The walk
patterns of ``walk_patterns`` list every couple the walks from starts
1..K can induce, up to the names of the other vertices, and
``enumerate_B`` counts the labelled couples of two given shapes from
them. Vertices are labelled 1..n and edges are ordered pairs; a loop
(i, i) is a component with one vertex.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from permprod.perms import Permutation

__all__ = [
    "DirectedGraph",
    "TraversalRecord",
    "traversal",
    "profile",
    "shape",
    "shape_orbit_size",
    "walk_patterns",
    "enumerate_B",
]


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on the vertex set {1, ..., n}, edges as ordered pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs n >= 1")
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"malformed edge {edge!r}")
            a, b = edge
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge {edge!r} outside 1..{self.n}")

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return cls(n, frozenset((int(a), int(b)) for a, b in edges))


@dataclass(frozen=True)
class TraversalRecord:
    """The aligned index sequences of one traversal.

    ``i_seq`` is the cycle of ``inverse(sigma) o rho`` through ``m`` and
    ``j_seq[l]`` is rho applied to ``i_seq[l]``. Both sequences have
    length ``k`` and pairwise distinct entries, and ``i_seq[0] == m``.
    """

    m: int
    k: int
    i_seq: tuple[int, ...]
    j_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k != len(self.i_seq) or self.k != len(self.j_seq) or self.k < 1:
            raise ValueError("sequence lengths disagree with k")
        if self.i_seq[0] != self.m:
            raise ValueError("i_seq must start at m")
        if len(set(self.i_seq)) != self.k or len(set(self.j_seq)) != self.k:
            raise ValueError("traversal sequences must have distinct entries")


def traversal(sigma: Permutation, rho: Permutation, m: int) -> TraversalRecord:
    """Walk the cycle of ``inverse(sigma) o rho`` through m, recording rho-images."""
    rho_images = rho.images
    n = len(sigma.images)
    if n != len(rho_images):
        raise ValueError(f"size mismatch: {n} vs {len(rho_images)}")
    if not 1 <= m <= n:
        raise ValueError(f"start index {m} outside 1..{n}")
    sinv = [0] * (n + 1)  # sinv[j] is the index sigma maps to j
    for pos, img in enumerate(sigma.images, start=1):
        sinv[img] = pos
    i_seq = [m]
    j = rho_images[m - 1]
    j_seq = [j]
    x = sinv[j]
    while x != m:
        i_seq.append(x)
        j = rho_images[x - 1]
        j_seq.append(j)
        x = sinv[j]
    return TraversalRecord(m, len(i_seq), tuple(i_seq), tuple(j_seq))


def profile(
    g: DirectedGraph,
) -> tuple[tuple[frozenset[int], frozenset[tuple[int, int]]], ...]:
    """The edge-bearing weakly connected components of ``g`` as (vertex
    set, edge set) pairs, ordered by least vertex; isolated vertices are
    not listed."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        for v in (a, b):
            parent.setdefault(v, v)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp_verts: dict[int, set[int]] = {}
    for v in parent:
        comp_verts.setdefault(find(v), set()).add(v)
    comp_edges: dict[int, set[tuple[int, int]]] = {root: set() for root in comp_verts}
    for a, b in g.edges:
        comp_edges[find(a)].add((a, b))
    return tuple(
        sorted(
            (
                (frozenset(comp_verts[root]), frozenset(comp_edges[root]))
                for root in comp_verts
            ),
            key=lambda pair: min(pair[0]),
        )
    )


def _partial_bijection(edges: Iterable[tuple[int, int]]) -> tuple[dict, dict] | None:
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for a, b in edges:
        if forward.get(a, b) != b or backward.get(b, a) != a:
            return None
        forward[a] = b
        backward[b] = a
    return forward, backward


def shape(g: DirectedGraph) -> tuple[tuple[int, int], ...] | None:
    """Sorted (vertex count, edge count) of the components of ``g``, or
    None when ``g`` is not a partial injection.

    A partial injection is a disjoint union of l-cycles, (l, l), and
    paths with l edges, (l + 1, l); two of them are relabelings of each
    other exactly when they have the same shape.
    """
    if _partial_bijection(g.edges) is None:
        return None
    return tuple(sorted((len(verts), len(edges)) for verts, edges in profile(g)))


def shape_orbit_size(kinds: Sequence[tuple[int, int]], n: int) -> int:
    """Number of partial injections of {1..n} with the given shape.

    The n!/(n - v)! ordered choices of the shape's v vertices, over the
    choices giving the same graph: prod_l a_l! * prod_l l^b_l b_l!, with
    a_l paths with l edges and b_l l-cycles, for equal components
    swapped and each cycle rotated.
    """
    symmetry = 1
    for (verts, edge_count), copies in Counter(kinds).items():
        symmetry *= math.factorial(copies) * (verts**copies if edge_count == verts else 1)
    return math.perm(n, sum(verts for verts, _ in kinds)) // symmetry


def walk_patterns(
    v_vec: Sequence[int],
) -> Iterator[tuple[int, frozenset[tuple[int, int]], frozenset[tuple[int, int]]]]:
    """Every way the cycles of ``inverse(sigma) o rho`` through the starts
    1..K can have the lengths ``v_vec`` (K = len(v_vec)), up to the names
    of the other vertices.

    The starts are walked in order. A start already on an earlier walk's
    cycle only has its length checked. Otherwise step l of its walk goes
    from i_l to j_l = rho(i_l) and on to i_{l+1} = sigma^-1(j_l). Neither
    value is set before the step, since i_l is new to every walk and
    j_l is no earlier rho-image, so each is chosen: j_l among the named
    vertices that are no rho-image yet, i_{l+1} among those that have no
    sigma-image yet, or the next fresh name. A vertex with a sigma-image
    lies on a finished cycle or earlier on this walk, so the walk never
    enters one; it must come back to its start at exactly step v_m.

    Yields (u, sigma-side edges, rho-side edges) per pattern: the starts
    are named 1..K and the u fresh vertices K+1..K+u in order of first
    appearance. A labelled couple of graphs on {1..n} that some pair
    induces determines its pattern by replaying the walks, so each
    pattern stands for (n-K)!/(n-K-u)! labelled couples.
    """
    if not v_vec:
        raise ValueError("v_vec must not be empty")
    if any(v < 1 for v in v_vec):
        raise ValueError(f"cycle lengths must be >= 1: {v_vec!r}")
    k = len(v_vec)
    rho: dict[int, int] = {}
    sigma: dict[int, int] = {}
    rho_images: set[int] = set()
    length: dict[int, int] = {}  # vertex -> length of its finished cycle

    def from_start(m: int, u: int):
        if m > k:
            yield u, frozenset(sigma.items()), frozenset(rho.items())
        elif m in length:
            if length[m] == v_vec[m - 1]:
                yield from from_start(m + 1, u)
        else:
            yield from step(m, [m], u)

    def step(m: int, path: list[int], u: int):
        closing = len(path) == v_vec[m - 1]
        i = path[-1]
        for j in range(1, k + u + 2):
            if j in rho_images:
                continue
            u_j = u + (j > k + u)
            rho[i] = j
            rho_images.add(j)
            for x in range(1, k + u_j + 2):
                # x in sigma: x is on a finished cycle or earlier on this walk.
                if x in sigma or (x == m) != closing:
                    continue
                sigma[x] = j
                u_x = u_j + (x > k + u_j)
                if closing:
                    length.update(dict.fromkeys(path, len(path)))
                    yield from from_start(m + 1, u_x)
                    for y in path:
                        del length[y]
                else:
                    path.append(x)
                    yield from step(m, path, u_x)
                    path.pop()
                del sigma[x]
            del rho[i]
            rho_images.discard(j)

    return from_start(1, 0)


def enumerate_B(
    n: int,
    v_vec: Sequence[int],
    shape1: Sequence[tuple[int, int]],
    shape2: Sequence[tuple[int, int]],
) -> int:
    """Count the graph couples (g1, g2) on {1..n} that some pair
    (sigma, rho) induces as its sigma-side and rho-side union graphs over
    the starts 1..K with cycle lengths ``v_vec``, where g1 has the shape
    ``shape1`` and g2 the shape ``shape2``, each given as (vertex count,
    edge count) pairs as ``shape`` lists them.

    The count is the sum of (n-K)!/(n-K-u)! over the walk patterns with
    K + u <= n whose two edge sets have these shapes.
    """
    if n < 1:
        raise ValueError("enumerate_B needs n >= 1")
    k = len(v_vec)
    want = (tuple(sorted(shape1)), tuple(sorted(shape2)))
    return sum(
        math.perm(n - k, u)
        for u, e1, e2 in walk_patterns(v_vec)
        if k + u <= n
        and (shape(DirectedGraph(k + u, e1)), shape(DirectedGraph(k + u, e2))) == want
    )
