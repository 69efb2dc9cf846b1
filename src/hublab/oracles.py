"""Exact ground-truth solvers at desk scale: optimal labelings, densest subgraphs,
vertex covers, hitting sets, and brute-force highway dimension."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centers import CenterGraph, EmptyCenterGraphError, PathIndex
from .graphs import DistMatrix, Graph, TooLargeError, all_pairs_distances
from .graphs import path_membership  # noqa: F401 -- perfbench/tracing.py patches it here
from .highway import DirectedInputError, _must_hit
from .highway import _paths_with_witnesses, _within
from .labeling import Labeling, Order, canonical_hhl, hub_labeling

OPT_HHL_MAX_N = 20  # the subset DP holds up to 2^n memo states and recurses n deep


def optimal_hhl_bruteforce(d: DistMatrix, limit_n: int = 9) -> tuple[int, Order]:
    """Minimum canonical labeling size over all orders, with a witnessing order.

    The canonical size of an order is the sum, over ranks, of the non-isolated
    vertex count of the chosen center graph at selection time. That count
    depends only on the vertex and the set chosen before it, so the minimum is a
    dynamic program over vertex subsets (at most 2^n states), not a search
    over the n! orders.
    """
    n, limit = d.n, min(limit_n, OPT_HHL_MAX_N)
    if n > limit:
        raise TooLargeError(f"n={n} exceeds limit {limit}")
    idx = PathIndex(d)
    us, ws = idx.u.tolist(), idx.w.tolist()
    path_mask = [sum(1 << x for x in idx[p].tolist()) for p in range(len(idx))]
    through = [idx.through(x).tolist() for x in range(n)]

    full = (1 << n) - 1
    memo: dict[int, tuple[int, int]] = {full: (0, -1)}

    def cost_of(x: int, chosen: int) -> int:
        tails = heads = 0
        for p in through[x]:
            if path_mask[p] & chosen:
                continue
            tails |= 1 << us[p]
            heads |= 1 << ws[p]
        if d.directed:
            return tails.bit_count() + heads.bit_count()
        return (tails | heads).bit_count()

    def best(chosen: int) -> tuple[int, int]:
        hit = memo.get(chosen)
        if hit is not None:
            return hit
        best_total, best_x = None, -1
        for x in range(n):
            if chosen >> x & 1:
                continue
            total = cost_of(x, chosen) + best(chosen | (1 << x))[0]
            if best_total is None or total < best_total:
                best_total, best_x = total, x
        memo[chosen] = (best_total, best_x)
        return best_total, best_x

    size, _ = best(0)
    seq = []
    chosen = 0
    while chosen != full:
        _, x = best(chosen)
        seq.append(x)
        chosen |= 1 << x
    return size, Order.from_sequence(seq)


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
    (0, 1 or 2), is kept in ``cost`` instead of being recomputed at every node.
    Placing hub h at vertex v on one side can only lower the cost of the pairs
    with v at that end and h among their options; watch lists keyed by (v, h)
    name them, and undirected both ends share one side and one list. A branch
    re-prices only those pairs and restores their old costs when it returns.
    A node drops its covered pairs, bounds by greedily matching slot-disjoint
    pairs (cost 2 before cost 1, ascending pair id within a cost), each needing
    an entry on every free slot, and branches on the dearest pair with the
    fewest options, cheapest hub first. The kept costs equal a recomputation
    from the current labels, so the nodes and their order are those of the
    search that recomputes them (``tests/bruteforce.py``).
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
    upper = None
    best_f = best_b = None
    for cand in candidates:
        if upper is None or cand.size < upper:
            upper = cand.size
            best_f = [set(h for h, _ in cand.fwd[v]) for v in range(n)]
            best_b = [set(h for h, _ in cand.bwd[v]) for v in range(n)]

    # Undirected self pairs cost one entry: both sides are the same list.
    collapse = [not d.directed and s == t for s, t in pairs]
    # A pair's matching slots as bits: (s, fwd) and (t, bwd), one per vertex undirected.
    slots = [(1 << 2 * s) | (1 << 2 * t + d.directed) for s, t in pairs]
    cost = [1 if c else 2 for c in collapse]  # no entries placed yet
    watch_f: dict[int, list[int]] = {}
    watch_b: dict[int, list[int]] = {} if d.directed else watch_f
    for i, (s, t) in enumerate(pairs):
        for h in options[i]:
            watch_f.setdefault(s * n + h, []).append(i)
            if not collapse[i]:
                watch_b.setdefault(t * n + h, []).append(i)

    def place(side: list[set[int]], watch: dict[int, list[int]], v: int, h: int, undo) -> None:
        # Only h's term changes, and it can only fall; ``undo`` keeps the old costs.
        side[v].add(h)
        for i in watch.get(v * n + h, ()):
            if cost[i]:
                s, t = pairs[i]
                c = 0 if collapse[i] else (h not in fwd[s]) + (h not in bwd[t])
                if c < cost[i]:
                    undo.append((i, cost[i]))
                    cost[i] = c

    nodes = 0
    exhausted_lb: int | None = None
    budget_left = budget

    def dfs(uncovered: list[int], current: int) -> None:
        nonlocal upper, best_f, best_b, nodes, exhausted_lb, budget_left
        nodes += 1
        budget_left -= 1
        still = [i for i in uncovered if cost[i]]
        if not still:
            if current < upper:
                upper = current
                best_f = [set(x) for x in fwd]
                best_b = [set(x) for x in bwd] if d.directed else best_f
            return
        # Slot-disjoint pairs need disjoint new entries, so their costs add up.
        lb, used = current, 0
        ordered = sorted(still)
        for c in (2, 1):
            for i in ordered:
                if cost[i] == c and not used & slots[i]:
                    lb += c
                    used |= slots[i]
        if lb >= upper:
            return
        if budget_left <= 0:
            exhausted_lb = lb if exhausted_lb is None else min(exhausted_lb, lb)
            return
        # The dearest pair with the fewest options, first in ``still``: since
        # ``still`` keeps the (option count, pair) order of ``static``, that is
        # its first pair of cost 2, else its first pair.
        pick = next((i for i in still if cost[i] == 2), still[0])
        s, t = pairs[pick]
        branches = sorted(
            ((h not in fwd[s]) + (h not in bwd[t]), h) for h in options[pick]
        )
        rest = [i for i in still if i != pick]
        for _, h in branches:
            undo: list[tuple[int, int]] = []
            added_f = h not in fwd[s]
            if added_f:
                place(fwd, watch_f, s, h, undo)
            added_b = h not in bwd[t]
            if added_b:
                place(bwd, watch_b, t, h, undo)
            dfs(rest, current + added_f + added_b)
            if added_f:
                fwd[s].discard(h)
            if added_b:
                bwd[t].discard(h)
            for i, c in reversed(undo):
                cost[i] = c

    # Single-option pairs (every self pair away from zero-length edges, for one)
    # admit exactly one hub in any solution; place those entries up front.
    forced_cost = 0
    for i in static:
        if len(options[i]) == 1:
            s, t = pairs[i]
            h = options[i][0]
            if h not in fwd[s]:
                place(fwd, watch_f, s, h, [])
                forced_cost += 1
            if h not in bwd[t]:
                place(bwd, watch_b, t, h, [])
                forced_cost += 1

    dfs(static, forced_cost)
    complete = exhausted_lb is None
    lower = upper if complete else min(upper, exhausted_lb)
    hub_f, hub_b = np.zeros((2, n, n), dtype=bool)
    for v in range(n):
        hub_f[v, list(best_f[v])] = hub_b[v, list(best_b[v])] = True
    labeling = hub_labeling(d, hub_f, hub_b if d.directed else None)
    return HlBnbResult(lower, upper, labeling, complete, nodes)


def exact_mds(cg: CenterGraph, limit: int = 20):
    """Exact maximum-density subgraph by one subset DP over the side-node form
    (:meth:`CenterGraph.side_nodes`).

    Masks run in increasing order, and a mask's edge count extends that of the
    mask without its lowest node; densities compare by integer cross-products.
    Ties prefer fewer side nodes, then, when undirected, the lexicographically
    smallest vertex list (the mask holding the lowest bit where the two differ)
    and, when directed, the smallest integer mask: the smallest (tail mask, head
    mask). More than ``limit`` side nodes raise ``TooLargeError``; Cohen's runner
    also caps the subsets per run. Returns (sets, density) like the peel.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    nodes, adj, loop = cg.side_nodes()
    c = len(nodes)
    if c > limit:
        raise TooLargeError(f"{c} side nodes exceed limit {limit}")
    edges = [0] * (1 << c)
    best, best_e, best_k = 0, 0, 1  # density 0: the first mask with an edge beats it
    for mask in range(1, 1 << c):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        e = edges[mask] = edges[rest] + (adj[v] & rest).bit_count() + loop[v]
        k = mask.bit_count()
        ours, theirs = e * best_k, best_e * k
        if ours > theirs or ours == theirs and (
            k < best_k or k == best_k and not cg.directed and mask & (mask ^ best) & -(mask ^ best)
        ):
            best, best_e, best_k = mask, e, k
    return cg.sides(nodes, best), Fraction(best_e, best_k)


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

    def dfs(remaining: list[frozenset[int]], chosen: set[int]) -> None:
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + packing(remaining)[0] >= len(best):
            return
        for v in sorted(remaining[0]):  # filtering keeps the sort: the smallest set
            chosen.add(v)
            dfs([s for s in remaining if v not in s], chosen)
            chosen.discard(v)

    dfs(minimal, set())
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


def highway_dimension_bruteforce(
    g: Graph,
    limit_n: int = 24,
    include_trivial_paths: bool = False,
) -> int:
    """Highway dimension: the largest minimum hitting set of any r-neighborhood.

    Neighborhood membership follows the witness definition; the hitting
    requirement covers the positive-length members (zero-length paths are their
    own sole hitters and would degenerate the measure to n on dense instances;
    set ``include_trivial_paths`` to demand them anyway). The r grid covers all
    distinct path lengths, half-lengths, and midpoints, which is exact.
    """
    if g.directed:
        raise DirectedInputError("undirected graph required")
    if g.n > limit_n:
        raise TooLargeError(f"n={g.n} exceeds limit {limit_n}")
    d = all_pairs_distances(g)
    if (d.exact() == d.unreachable).any():
        raise ValueError("connected graph required")
    paths = _paths_with_witnesses(g, d, cap=10**6)
    wdist = {wv: d.exact()[list(wv)].min(axis=0) for _, wits in paths for _, wv in wits}
    best = 0
    cache: dict[frozenset[frozenset[int]], int] = {}
    for r in _candidate_radii(d):
        thr = _within(d, 2 * r)
        targets = [(sp, wits) for sp, wits in paths if include_trivial_paths or _must_hit(sp, r)]
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
