"""Deterministic builders for the adversarial instance families and the explicit
labelings that accompany them.

The instance generators hand ``Graph`` their arcs lazily, so its vertex limit
refuses an oversize instance before a single arc is built.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, all_pairs_distances
from .labeling import Labeling, hub_labeling


class NotAVertexCoverError(ValueError):
    """The supplied vertex set does not cover every base-graph edge."""


class InfeasibleParamsError(ValueError):
    """Generator parameters admit no graph."""


@dataclass(frozen=True)
class BadGIds:
    """Vertex numbering of the layered directed family: a's, then b's, then c's row-major."""

    k: int
    a: range
    b: range
    c: range

    def c_id(self, i: int, j: int) -> int:
        """c vertex in row i (1..k+1, under b_i) and column j (1..k)."""
        return self.c.start + (i - 1) * self.k + (j - 1)


def bad_g_ids(k: int) -> BadGIds:
    return BadGIds(k, range(0, k), range(k, 2 * k + 1), range(2 * k + 1, 2 * k + 1 + k * (k + 1)))


def gen_bad_g(k: int) -> Graph:
    """Directed three-layer family where most-edges greedy picks the wrong layer.

    Complete a->b bipartite layer, then k private c's per b; all lengths 1.
    """
    if k < 2:
        raise InfeasibleParamsError("k must be at least 2")
    ids = bad_g_ids(k)
    arcs = itertools.chain(
        ((a, b, 1) for a in ids.a for b in ids.b),
        ((ids.b[i - 1], ids.c_id(i, j), 1) for i in range(1, k + 2) for j in range(1, k + 1)),
    )
    return Graph(True, 2 * k + 1 + k * (k + 1), arcs)


@dataclass(frozen=True)
class BadWIds:
    """Vertex numbering of the density trap: a, b, c's, then d's row-major."""

    k: int
    l: int
    a: int
    b: int
    c: range
    d: range

    def d_id(self, i: int, j: int) -> int:
        """d vertex under c_i (i in 1..k), column j (1..l)."""
        return self.d.start + (i - 1) * self.l + (j - 1)


def bad_w_ids(k: int) -> BadWIds:
    l = 2 * k * k
    return BadWIds(k, l, 0, 1, range(2, 2 + k), range(2 + k, 2 + k + k * l))


def gen_bad_w(k: int) -> Graph:
    """Undirected family (l = 2k^2) where density greedy defers b too long.

    Edges a-d of length 3, b-c and c-d of length 2, so d-d detours through c.
    """
    if k < 2:
        raise InfeasibleParamsError("k must be at least 2")
    ids = bad_w_ids(k)
    rows, cols = range(1, k + 1), range(1, ids.l + 1)
    arcs = itertools.chain(
        ((ids.a, ids.d_id(i, j), 3) for i in rows for j in cols),
        ((ids.b, c, 2) for c in ids.c),
        ((ids.c[i - 1], ids.d_id(i, j), 2) for i in rows for j in cols),
    )
    return Graph(False, 2 + k + k * ids.l, arcs)


@dataclass(frozen=True)
class SeparatorIds:
    """Vertex numbering of the star-clique family: centers, leaves star-major, then s."""

    k: int
    centers: range
    leaves: range
    s: int

    def leaf_id(self, star: int, j: int) -> int:
        return self.leaves.start + star * (self.k - 1) + j


def separator_ids(k: int) -> SeparatorIds:
    return SeparatorIds(k, range(0, k), range(k, k + k * (k - 1)), k * k)


def gen_separator(k: int) -> Graph:
    """k stars with k-1 leaves each, centers forming a clique, and a vertex s
    adjacent to every leaf; unit lengths. Flat labelings beat hierarchical ones here."""
    if k < 2:
        raise InfeasibleParamsError("k must be at least 2")
    ids = separator_ids(k)
    centers, leaf = ids.centers, ids.leaf_id
    arcs = itertools.chain(
        ((centers[i], centers[j], 1) for i in range(k) for j in range(i + 1, k)),
        ((centers[star], leaf(star, j), 1) for star in range(k) for j in range(k - 1)),
        ((ids.s, leaf(star, j), 1) for star in range(k) for j in range(k - 1)),
    )
    return Graph(False, k * k + 1, arcs)


def gen_cycle4(directed: bool = False) -> Graph:
    """The 4-cycle with unit lengths; the directed version carries both arc directions."""
    edges = [(i, (i + 1) % 4, 1) for i in range(4)]
    if not directed:
        return Graph(False, 4, edges)
    arcs = edges + [(h, t, ln) for t, h, ln in edges]
    return Graph(True, 4, arcs)


def construct_c4prime_hl() -> Labeling:
    """Size-16 labeling of the directed 4-cycle, completed by the figure's
    reflection pattern; asymmetric (forward and backward lists differ)."""
    v = np.arange(4)  # each vertex has itself and one more hub per side
    fwd, bwd = (np.r_[v, v], np.r_[v, 3 - v]), (np.r_[v, v], np.r_[v, v ^ 1])
    return hub_labeling(all_pairs_distances(gen_cycle4(True)), fwd, bwd)


def construct_separator_hl(k: int) -> Labeling:
    """Flat labeling of the star-clique family: s everywhere, own center per star
    vertex, and all centers mutually; total size 3k(k-1) + k(k+1) + 1."""
    g = gen_separator(k)
    ids = separator_ids(k)
    v, c = np.arange(g.n), np.array(ids.centers)
    own = np.concatenate((v, v, np.repeat(c, k), ids.leaves))
    hub = np.concatenate((v, np.full(g.n, ids.s), np.tile(c, k), np.repeat(c, k - 1)))
    return hub_labeling(all_pairs_distances(g), (own, hub))  # leaves run star-major


def reduce_vc_undirected(g: Graph, unique_shortest_paths: bool = False) -> Graph:
    """Vertex-cover gadget graph: a 3-path per base vertex, base edges joined at
    the path heads, and a star whose root s is wired to every path head.

    With ``unique_shortest_paths`` all lengths scale by 10 and the s-head edges
    shorten to 9, which makes every shortest path unique.
    """
    if g.directed:
        raise ValueError("base graph must be undirected")
    n = g.n
    unit = 10 if unique_shortest_paths else 1
    short = 9 if unique_shortest_paths else 1
    s = 3 * n
    arcs = []
    for v in range(n):
        arcs.append((3 * v, 3 * v + 1, unit))
        arcs.append((3 * v + 1, 3 * v + 2, unit))
    for t, h, _ in sorted(g.arcs):
        u, v = min(t, h), max(t, h)
        arcs.append((3 * u, 3 * v, unit))
    for leaf in range(3 * n + 1, 6 * n + 1):
        arcs.append((s, leaf, unit))
    for v in range(n):
        arcs.append((s, 3 * v, short))
    return Graph(False, 6 * n + 1, arcs)


def _base_edges(g: Graph) -> list[tuple[int, int]]:
    """The undirected base graph's edges as sorted ``(min, max)`` pairs."""
    if g.directed:
        raise ValueError("base graph must be undirected")
    return sorted((min(t, h), max(t, h)) for t, h, _ in g.arcs)


def _checked_cover(g: Graph, vc) -> frozenset[int]:
    """``vc`` as a set of base vertices, refused unless it covers every edge of g."""
    edges, vc = _base_edges(g), frozenset(int(v) for v in vc)
    if not vc <= set(range(g.n)):
        raise NotAVertexCoverError("cover contains non-base vertices")
    for u, v in edges:
        if u not in vc and v not in vc:
            raise NotAVertexCoverError(f"edge ({u},{v}) uncovered")
    return vc


def construct_reduction_labeling_undirected(
    g: Graph, vc, unique_shortest_paths: bool = False
) -> Labeling:
    """Valid labeling of ``reduce_vc_undirected(g, unique_shortest_paths)`` from
    a vertex cover ``vc`` of the base graph g.

    s and the vertex itself sit in every label, cover vertices get the
    three-hub path pattern, the others the two-hub one, and each base edge is
    crossed exactly three times by the head vertex of a covering endpoint.
    Total size: 14|V| + 1 + 3|E| + |vc|, that is 12|V| + 1 selves and s over
    the 6|V| + 1 vertices, 2|V| + |vc| path-gadget hubs and 3|E| crossings.
    """
    vc = _checked_cover(g, vc)
    gp = reduce_vc_undirected(g, unique_shortest_paths)
    s = 3 * g.n
    entries = [(v, v) for v in range(gp.n)] + [(v, s) for v in range(gp.n)]  # (owner, hub)
    for v in range(g.n):
        v1, v2, v3 = 3 * v, 3 * v + 1, 3 * v + 2
        if v in vc:
            entries += [(v2, v1), (v3, v1), (v3, v2)]
        else:
            entries += [(v1, v2), (v3, v2)]
    for u, v in _base_edges(g):
        x = u if u in vc else v
        y = v if x == u else u
        entries += [(3 * y + i, 3 * x) for i in range(3)]
    return hub_labeling(all_pairs_distances(gp), np.array(entries).T)


def reduce_vc_directed(g: Graph) -> Graph:
    """Directed vertex-cover gadget: root w, a two-arc chain per base vertex,
    crossed chains per base edge, and one sink vertex per base edge; unit lengths."""
    base_edges = _base_edges(g)
    n = g.n
    v1 = lambda v: 1 + 2 * v
    v2 = lambda v: 2 + 2 * v
    arcs = []
    for v in range(n):
        arcs.append((0, v1(v), 1))
        arcs.append((v1(v), v2(v), 1))
    e_base = 2 * n + 1
    for idx, (u, v) in enumerate(base_edges):
        e = e_base + idx
        arcs.append((v1(u), v2(v), 1))
        arcs.append((v1(v), v2(u), 1))
        arcs.append((v2(u), e, 1))
        arcs.append((v2(v), e, 1))
    return Graph(True, 1 + 2 * n + len(base_edges), arcs)


def construct_reduction_labeling_directed(g: Graph, vc) -> Labeling:
    """Valid labeling of ``reduce_vc_directed(g)`` from a vertex cover ``vc`` of
    the base graph g: one mandatory hub per vertex side and per arc, plus the
    cover vertices' second chain vertex in the root's forward label. Total
    size: 2|V'| + |A'| + |vc|."""
    vc = _checked_cover(g, vc)
    gp = reduce_vc_directed(g)
    fwd, bwd = [(v, v) for v in range(gp.n)], [(v, v) for v in range(gp.n)]  # (owner, hub)
    e_base = 2 * g.n + 1
    for t, h, _ in gp.arcs:
        if t == 0:
            fwd.append((0, h))
        elif h >= e_base or (t % 2 == 1 and h == t + 1):
            bwd.append((h, t))
        else:
            fwd.append((t, h))
    fwd += [(0, 2 + 2 * v) for v in vc]
    return hub_labeling(all_pairs_distances(gp), np.array(fwd).T, np.array(bwd).T)


def _non_tree_pairs(n: int, tree):
    """The count of the pairs u < v of 0..n-1 other than the given tree edges, and
    the map from an index i in 0..count-1 to the i-th such pair in lexicographic
    order, computed on call; an index outside that range raises ``IndexError``."""

    def start(u: int) -> int:  # lexicographic rank of the pair (u, u + 1)
        return u * (2 * n - u - 1) // 2

    ranks = sorted(start(a) + b - a - 1 for a, b in tree)
    # Non-tree pairs ranked below the j-th tree edge: the i-th non-tree pair
    # passes exactly the tree edges whose count is <= i.
    below = [r - j for j, r in enumerate(ranks)]
    count = n * (n - 1) // 2 - len(ranks)

    def pair(i: int) -> tuple[int, int]:
        if not 0 <= i < count:
            raise IndexError(i)
        r = i + bisect_right(below, i)
        u = bisect_right(range(n), r, key=start) - 1
        return (u, u + 1 + r - start(u))

    return count, pair


def gen_random(n: int, m: int, maxlen: int, seed: int) -> Graph:
    """Seeded connected undirected graph: random attachment tree plus sampled
    extra edges, lengths uniform in 1..maxlen."""
    if n < 1:
        raise InfeasibleParamsError("n must be at least 1")
    if maxlen < 1:
        raise InfeasibleParamsError("maxlen must be at least 1")
    if m < n - 1 or m > n * (n - 1) // 2:
        raise InfeasibleParamsError(f"m={m} infeasible for n={n}")

    def arcs():
        rng = random.Random(seed)
        edges: list[tuple[int, int]] = []
        for i in range(1, n):
            edges.append((rng.randrange(i), i))
        # ``sample`` reads the length and the drawn items: indices draw as pairs would.
        count, pair = _non_tree_pairs(n, edges)
        edges.extend(map(pair, rng.sample(range(count), m - (n - 1))))
        yield from ((u, v, rng.randint(1, maxlen)) for u, v in edges)

    return Graph(False, n, arcs())
