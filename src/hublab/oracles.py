"""Exact ground-truth solvers at desk scale: optimal labelings, densest subgraphs,
vertex covers, hitting sets, and brute-force highway dimension."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centers import CenterGraph, EmptyCenterGraphError, PathIndex
from .graphs import DistMatrix, Graph, TooLargeError, all_pairs_distances
from .graphs import path_membership  # noqa: F401 -- perfbench/tracing.py patches it here
from .labeling import Labeling, Order, canonical_hhl, hub_labeling

OPT_HHL_MAX_N = 20  # the subset DP's cost table is n x 2^n bytes: 1 MB at n = 16, 20 MB at 20
EXACT_MDS_MAX_NODES = 20  # exact_mds's side nodes: its tables hold 2^20 masks
HD_MAX_N = 24  # highway_dimension_bruteforce's vertices


_POP = np.zeros(1, np.int8)  # bit counts of 0 .. len - 1, grown by _popcounts


def _popcounts(c: int) -> np.ndarray:
    """Bit counts of 0 .. 2^c - 1 as int8, a read-only prefix of one table that is
    rebuilt by doubling (``np.bitwise_count`` needs numpy 2) when c outgrows it."""
    global _POP
    if len(_POP) < 1 << c:
        _POP = np.zeros(1 << c, np.int8)
        for v in range(c):
            np.add(_POP[: 1 << v], 1, out=_POP[1 << v : 2 << v])
        _POP.flags.writeable = False
    return _POP[: 1 << c]


def _depth_first(node, *root) -> None:
    """Run the search tree of ``node`` from ``node(*root)``, depth first on an
    explicit stack: a node returns an iterator over its children's argument
    tuples in visit order, or None when it has none, so a deep search needs no
    interpreter frames."""
    stack = [iter((root,))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif (children := node(*child)) is not None:
            stack.append(children)


def optimal_hhl_bruteforce(d: DistMatrix, limit_n: int = 9) -> tuple[int, Order]:
    """Minimum canonical labeling size over all orders, with a witnessing order.

    The canonical size of an order is the sum, over ranks, of the non-isolated
    vertex count of the chosen center graph at selection time. That count
    depends only on the vertex and the set chosen before it, so the minimum is a
    dynamic program over vertex subsets (at most 2^n states), not a search
    over the n! orders. It runs as numpy passes over all subsets at once.

    ``cost[x, S]`` counts the endpoint slots (tails and heads apart when
    directed) of the pairs through x whose shortest paths miss S. A pair (s, w)
    through x has every shortest s-x path inside its own, so slot s is counted
    exactly when the pair of s and x misses S (likewise for heads). Each pair
    with x at one end thus adds one to ``cost[x, S]`` for every S inside the
    complement of its path mask: a histogram summed over supersets, one pass per
    bit. ``best[S]``, the least size that completes S, is then filled by
    popcount layers from the full set down, the minimum over x outside S of
    ``cost[x, S] + best[S | x]``; ``argmin`` keeps the lowest such x.
    """
    n, limit = d.n, min(limit_n, OPT_HHL_MAX_N)
    if n > limit:
        raise TooLargeError(f"n={n} exceeds limit {limit}")
    idx = PathIndex(d)
    full = (1 << n) - 1
    cost = np.zeros((n, 1 << n), np.int8)
    if len(idx):
        paths = np.bitwise_or.reduceat(np.left_shift(1, idx.verts, dtype=np.int64), idx.ptr[:-1])
        u, w = idx.u.astype(np.int64), idx.w.astype(np.int64)
        ends = np.concatenate((w, u if d.directed else u[u != w]))  # the x of each slot
        free = full ^ np.concatenate((paths, paths if d.directed else paths[u != w]))
        np.add.at(cost.reshape(-1), ends << n | free, 1)
    for i in range(n):
        half = cost.reshape(n, -1, 2, 1 << i)
        half[:, :, 0] += half[:, :, 1]

    states = np.uint16 if n <= 16 else np.uint32
    pop = _popcounts(n)
    best = np.zeros(1 << n, np.int16)
    arg = np.zeros(1 << n, np.int8)
    xs = np.arange(n)[:, None]
    bits = (1 << xs).astype(states)
    step = (1 << 17) // max(n, 1)  # n x step temporaries, at most 8 bytes an entry: 1 MB
    for k in range(n - 1, -1, -1):
        layer = np.flatnonzero(pop == k).astype(states)
        for lo in range(0, len(layer), step):
            s = layer[lo : lo + step]
            up = s | bits
            total = cost[xs, s] + best[up]
            total[up == s] = np.iinfo(np.int16).max  # x already in S
            arg[s] = total.argmin(axis=0)
            best[s] = total.min(axis=0)
    seq, chosen = [], 0
    for _ in range(n):
        seq.append(int(arg[chosen]))
        chosen |= 1 << seq[-1]
    return int(best[0]), Order.from_sequence(seq)


@dataclass(frozen=True)
class HlBnbResult:
    """Branch-and-bound outcome; lower == upper exactly when the search completed."""

    lower: int
    upper: int
    labeling: Labeling
    complete: bool
    nodes: int


def optimal_hl_bnb(d: DistMatrix, pairs=None, budget: int = 1_000_000) -> HlBnbResult:
    """Exact (budget permitting) minimum hub labeling covering ``pairs``.

    ``pairs`` is any iterable of ``(u, w)``; ``None`` means every reachable
    pair. Branches over per-pair hub choices, in the style of Babenko,
    Goldberg, Gupta and Nagarajan (ICALP 2013). Only the first ``budget - 1``
    nodes may branch; each later node, a sibling still pending, is bounded once
    and not expanded, so a budget of 0 or 1 keeps the incumbents and the root
    bound. A negative budget raises ``ValueError``. On budget exhaustion the
    result keeps a valid labeling and honest bounds.

    Each pair's completion cost, the fewest new entries that would cover it
    (0, 1 or 2), is kept in four int bitsets: cost 2 and cost 1 by pair id,
    cost 2 and cost > 0 by position in ``static``. Placing hub h at v can only
    lower the costs of the pairs watching (v, h); a branch re-prices those and
    restores the masks when it returns. Each pick is covered by its own branch,
    so a node's uncovered pairs are those of positive cost. A node bounds by
    greedily matching slot-disjoint pairs (cost 2 first, ascending id;
    ``clash[i]`` holds the pairs sharing a slot with i) and branches on the
    first pair of cost 2 in ``static`` order, else the first pair, cheapest hub
    first: the nodes, in order, of the search that recomputes every cost
    (``tests/bruteforce.py``).
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    n = d.n
    idx = PathIndex(d, pairs)
    pairs = idx.pairs(slice(None))
    options = [idx[i].tolist() for i in range(len(idx))]
    static = sorted(range(len(pairs)), key=lambda i: (len(options[i]), pairs[i]))

    fwd: list[set[int]] = [set() for _ in range(n)]
    bwd: list[set[int]] = [set() for _ in range(n)] if d.directed else fwd
    sides = (fwd, bwd) if d.directed else (fwd,)

    # Incumbents: cheap canonical labelings (covering the target as a subset of
    # all pairs) and the set-cover approximation on the target itself. Either
    # may be far from optimal; they only prime the pruning, the search proves
    # optimality.
    participation = np.diff(idx.vptr).tolist()
    orders = [
        Order(range(1, n + 1)),
        Order.from_sequence(sorted(range(n), key=lambda v: (-participation[v], v))),
    ]
    candidates = [canonical_hhl(d, cand_order) for cand_order in orders]
    from .cohen import run_cohen_hl

    candidates.append(run_cohen_hl(d, pairs)[0])
    best = min(candidates, key=lambda cand: cand.size)  # the first of the smallest
    upper = best.size

    at = [1 << k for k in sorted(range(len(pairs)), key=static.__getitem__)]  # static bits
    m2 = s2 = live = (1 << len(pairs)) - 1  # no entries placed yet: every pair costs 2,
    m1 = 0  # but an undirected self pair costs one entry (both sides are one list)
    holders: dict[int, int] = {}  # slot -> its pairs; undirected, fwd and bwd share a slot
    watch_f: dict[int, list[tuple[int, int, set[int]]]] = {}
    watch_b: dict[int, list[tuple[int, int, set[int]]]] = {} if d.directed else watch_f
    for i, (s, t) in enumerate(pairs):
        for slot in (s, t + n * d.directed):
            holders[slot] = holders.get(slot, 0) | 1 << i
        for h in options[i]:
            watch_f.setdefault(s * n + h, []).append((1 << i, at[i], bwd[t]))
            if d.directed or s != t:
                watch_b.setdefault(t * n + h, []).append((1 << i, at[i], fwd[s]))
        if not d.directed and s == t:
            m2, s2, m1 = m2 ^ 1 << i, s2 ^ at[i], m1 | 1 << i
    clash = [holders[s] | holders[t + n * d.directed] for s, t in pairs]

    nodes = 0
    exhausted_lb: int | None = None

    def node(current: int):
        nonlocal upper, best, nodes, exhausted_lb
        nodes += 1
        if not live:
            if current < upper:
                upper = current  # a copy as (owner, hub) entries: the sets keep changing
                best = [[(v, h) for v, hs in enumerate(side) for h in hs] for side in sides]
            return None
        # Slot-disjoint pairs need disjoint new entries, so their costs add up.
        lb, blocked = current, 0
        for c, free in ((2, m2), (1, m1)):
            free &= ~blocked
            while free:
                i = (free & -free).bit_length() - 1
                lb += c
                blocked |= clash[i]
                free &= ~blocked
        if lb >= upper:
            return None
        if nodes >= budget:
            exhausted_lb = lb if exhausted_lb is None else min(exhausted_lb, lb)
            return None
        first = s2 or live
        return branch(static[(first & -first).bit_length() - 1], current)

    def branch(pick: int, current: int):
        nonlocal m2, m1, s2, live
        s, t = pairs[pick]
        saved, ends = (m2, m1, s2, live), ((fwd[s], watch_f, s), (bwd[t], watch_b, t))
        for _, h in sorted([((h not in fwd[s]) + (h not in bwd[t]), h) for h in options[pick]]):
            placed = []
            for hs, watch, v in ends:
                if h in hs:
                    continue
                hs.add(h)
                placed.append(hs)
                # Only h's term changes, and it can only fall: to 1, or to 0
                # when the other end holds h too.
                for bit, k, other in watch.get(v * n + h, ()):
                    if s2 & k:
                        m2, s2, m1 = m2 ^ bit, s2 ^ k, m1 | bit
                    if h in other and live & k:
                        m1, live = m1 ^ bit, live ^ k
            yield (current + len(placed),)  # a child, its entries placed
            for hs in placed:
                hs.discard(h)
            m2, m1, s2, live = saved

    # Single-option pairs (every self pair away from zero-length edges, for one)
    # admit exactly one hub in any solution: take each one's only branch up front.
    forced_cost = 0
    for i in static:
        if len(options[i]) == 1:
            (forced_cost,) = next(branch(i, forced_cost))  # never resumed, never undone

    _depth_first(node, forced_cost)
    complete = exhausted_lb is None
    lower = upper if complete else min(upper, exhausted_lb)
    if not isinstance(best, Labeling):  # the search beat every candidate
        best = hub_labeling(d, *(np.array(x, np.int64).reshape(-1, 2).T for x in best))
    return HlBnbResult(lower, upper, best, complete, nodes)


def exact_mds(cg: CenterGraph):
    """Exact maximum-density subgraph by one subset DP over the side-node form
    (:class:`CenterGraph`), as numpy passes over all masks.

    A mask's edge count extends that of the mask without its top node:
    ``edges[2^v : 2^(v+1)] = edges[:2^v] + pop[arange(2^v) & adj[v]] + loop[v]``.
    The densest masks are found by integer cross-products: from the whole
    graph, jump to the mask furthest above the current density until none is
    above it (Dinkelbach). Ties prefer fewer side nodes, then, when undirected,
    the lexicographically smallest vertex list (the mask holding the lowest bit
    where the two differ) and, when directed, the smallest integer mask: the
    smallest (tail mask, head mask). More than ``EXACT_MDS_MAX_NODES`` side
    nodes raise ``TooLargeError``; Cohen's runner also caps the subsets per
    run. Returns (sets, density) like the peel.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    adj, loop, c = cg.adj, cg.loop, len(cg.nodes)
    if c > EXACT_MDS_MAX_NODES:
        raise TooLargeError(f"{c} side nodes exceed limit {EXACT_MDS_MAX_NODES}")
    pop = _popcounts(c)
    edges = np.zeros(1 << c, np.int16)
    below = np.arange(1 << c - 1, dtype=np.int32)
    for v in range(c):
        top = edges[1 << v : 2 << v]
        np.add(edges[: 1 << v], pop[below[: 1 << v] & adj[v]], out=top)
        if loop[v]:
            top += 1
    del below  # 2 MB at 20 side nodes, freed before the products
    e, k = edges[1:], pop[1:]  # masks 1 .. 2^c - 1
    best_e, best_k = int(edges[-1]), c
    while True:  # products of at most 210 edges (20 nodes' pairs and loops) and 20: int16
        gain = np.multiply(e, best_k, dtype=np.int16)
        gain -= np.multiply(k, best_e, dtype=np.int16)
        j = int(gain.argmax())
        if gain[j] <= 0:
            break
        best_e, best_k = int(e[j]), int(k[j])
    tied = gain == 0
    tied &= k == k[tied].min()
    masks = np.flatnonzero(tied) + 1
    v = 0
    while len(masks) > 1 and not cg.directed:  # keep those holding the lowest differing bit
        held = masks[masks >> v & 1 == 1]
        masks = held if len(held) else masks
        v += 1
    return cg.sides(int(masks[0])), Fraction(best_e, best_k)


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """Minimum-cardinality vertex cover: a minimum hitting set of the edges."""
    if g.directed:
        raise ValueError("vertex cover is defined on undirected graphs")
    return min_hitting_set([(t, h) for t, h, _ in g.arcs], limit=g.m)


def min_hitting_set(paths, limit: int = 5000) -> frozenset[int]:
    """Minimum hitting set for a family of vertex sets, by branch and bound.

    Duplicates and supersets go and the rest sort by size, then ids. A node
    bounds by a greedy packing of disjoint sets in that order and branches on
    its first set, lowest id first. The root packing's union is the incumbent:
    on graph edges, the ends of a greedy matching."""
    fam = [frozenset(p) for p in paths]
    if len(fam) > limit:
        raise TooLargeError(f"{len(fam)} sets exceed limit {limit}")
    if any(not s for s in fam):
        raise ValueError("cannot hit an empty set")
    fam = sorted(set(fam), key=lambda s: (len(s), sorted(s)))
    minimal: list[frozenset[int]] = []
    for s in fam:
        if not any(t <= s for t in minimal):
            minimal.append(s)

    def packing(remaining) -> tuple[int, set[int]]:
        # A set the packing skips meets its union, so the union hits them all.
        used: set[int] = set()
        count = 0
        for s in remaining:
            if used.isdisjoint(s):
                used |= s
                count += 1
        return count, used

    best = packing(minimal)[1]
    chosen: set[int] = set()

    def node(remaining: list[frozenset[int]]):
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + packing(remaining)[0] >= len(best):
            return
        for v in sorted(remaining[0]):  # filtering keeps the sort: the smallest set
            chosen.add(v)
            yield ([s for s in remaining if v not in s],)  # a child's sets, v chosen
            chosen.discard(v)

    _depth_first(node, minimal)
    return frozenset(best)


def _candidate_radii(d: DistMatrix) -> list[Fraction]:
    """Exact discretization of r > 0: every distinct path length and half-length,
    plus midpoints of consecutive breakpoints and a point below the smallest."""
    lengths = [x for x in np.unique(d.exact()).tolist() if 0 < x < d.unreachable]
    if not lengths:
        return []
    breaks = sorted({Fraction(x) for x in lengths} | {Fraction(x, 2) for x in lengths})
    cands = set(breaks)
    cands.add(breaks[0] / 2)
    for a, b in zip(breaks, breaks[1:]):
        cands.add((a + b) / 2)
    return sorted(cands)


def _witnesses(g: Graph, d: DistMatrix, path: tuple[int, ...]) -> list[tuple[int, tuple]]:
    """A shortest path's witnesses as (length, vertices): the path extended by at
    most one vertex per end, off the path and distinct, to a shortest path."""
    length = d.dist(path[0], path[-1])
    pre = [((), 0)] + [((x,), ln) for x, ln in g.adjacency[path[0]] if x not in path]
    post = [((), 0)] + [((y,), ln) for y, ln in g.adjacency[path[-1]] if y not in path]
    wits = [(lx + length + ly, x + path + y) for x, lx in pre for y, ly in post if not x or x != y]
    return [(ln, w) for ln, w in wits if ln == d.dist(w[0], w[-1])]


def highway_dimension_bruteforce(g: Graph) -> int:
    """Highway dimension: the largest minimum hitting set of any r-neighborhood.

    Neighborhood membership follows the witness definition; the hitting
    requirement covers the positive-length members only: zero-length paths are
    their own sole hitters and would degenerate the measure to n on dense
    instances. The r grid covers all distinct path lengths, half-lengths, and
    midpoints, which is exact. More than ``HD_MAX_N`` vertices raise
    ``TooLargeError``.
    """
    from .highway import DirectedInputError, _path_family, _within

    if g.directed:
        raise DirectedInputError("undirected graph required")
    if g.n > HD_MAX_N:
        raise TooLargeError(f"n={g.n} exceeds limit {HD_MAX_N}")
    d = all_pairs_distances(g)
    if (d.exact() == d.unreachable).any():
        raise ValueError("connected graph required")
    paths = [(sp, _witnesses(g, d, sp.vertices)) for sp in _path_family(g, d)]
    wdist = {wv: d.exact()[list(wv)].min(axis=0) for _, wits in paths for _, wv in wits}
    best = 0
    cache: dict[frozenset[frozenset[int]], int] = {}
    for r in _candidate_radii(d):
        thr = _within(d, 2 * r)
        targets = [(sp, wits) for sp, wits in paths if sp.length > 0 and sp.reach > r]
        for v in range(g.n):
            key = frozenset(
                frozenset(sp.vertices)
                for sp, wits in targets
                if any(wlen > r and wdist[wv][v] <= thr for wlen, wv in wits)
            )
            if key and key not in cache:
                cache[key] = len(min_hitting_set(key, 20_000))
            best = max(best, cache.get(key, 0))
    return best
