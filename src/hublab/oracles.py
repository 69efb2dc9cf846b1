"""Exact ground-truth solvers at desk scale: optimal labelings, densest subgraphs,
vertex covers, hitting sets, and brute-force highway dimension."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .centers import CenterGraph, EmptyCenterGraphError, PathIndex, UncoveredSet, initial_uncovered
from .graphs import DistMatrix, Graph, all_pairs_distances
from .graphs import path_membership  # noqa: F401 -- perfbench/tracing.py patches it here
from .highway import DirectedInputError, _paths_with_witnesses
from .labeling import Labeling, Order, canonical_hhl


class TooLargeError(ValueError):
    """Instance exceeds the configured brute-force limit."""


def optimal_hhl_bruteforce(d: DistMatrix, limit_n: int = 9) -> tuple[int, Order]:
    """Minimum canonical labeling size over all n! orders, with a witnessing order.

    The canonical size of an order is the sum, over ranks, of the non-isolated
    vertex count of the chosen center graph at selection time, which makes the
    minimum computable by dynamic programming over chosen-vertex subsets.
    """
    n = d.n
    if n > limit_n:
        raise TooLargeError(f"n={n} exceeds limit {limit_n}")
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


def optimal_hl_bnb(
    d: DistMatrix, u: UncoveredSet | None = None, budget: int = 1_000_000
) -> HlBnbResult:
    """Exact (budget permitting) minimum hub labeling covering the pair set ``u``.

    Branches over per-pair hub choices; the admissible bound greedily matches
    slot-disjoint uncovered pairs, each needing a hub entry on every free side.
    On budget exhaustion the result keeps a valid labeling and honest bounds.
    """
    n = d.n
    m = d.matrix
    if u is None:
        u = initial_uncovered(d)
    idx = PathIndex(d, u)
    pairs = idx.pairs(slice(None))
    options = [idx[i].tolist() for i in range(len(idx))]
    static = sorted(range(len(pairs)), key=lambda i: (len(options[i]), pairs[i]))

    fwd: list[set[int]] = [set() for _ in range(n)]
    bwd: list[set[int]] = [set() for _ in range(n)] if d.directed else fwd

    def labeling_from(sol_f, sol_b) -> Labeling:
        lf = [{h: int(m[v, h]) for h in sol_f[v]} for v in range(n)]
        if d.directed:
            lb = [{h: int(m[h, v]) for h in sol_b[v]} for v in range(n)]
            return Labeling(True, n, lf, lb)
        return Labeling(False, n, lf)

    # Incumbents: cheap canonical labelings (covering u as a subset of all
    # pairs) and the set-cover approximation on u itself. Either may be far
    # from optimal; they only prime the pruning, the search proves optimality.
    participation = np.diff(idx.vptr).tolist()
    orders = [
        Order(range(1, n + 1)),
        Order.from_sequence(sorted(range(n), key=lambda v: (-participation[v], v))),
    ]
    candidates = [canonical_hhl(d, cand_order) for cand_order in orders]
    from .cohen import run_cohen_hl

    candidates.append(run_cohen_hl(d, u.copy())[0])
    upper = None
    best_f = best_b = None
    for cand in candidates:
        if upper is None or cand.size < upper:
            upper = cand.size
            best_f = [set(h for h, _ in cand.fwd[v]) for v in range(n)]
            best_b = [set(h for h, _ in cand.bwd[v]) for v in range(n)]

    def min_completion(i: int) -> int:
        s, t = pairs[i]
        # Undirected self pairs cost one entry: both sides are the same list.
        collapse = not d.directed and s == t
        best = 3
        for h in options[i]:
            if collapse:
                c = 1 if h not in fwd[s] else 0
            else:
                c = (h not in fwd[s]) + (h not in bwd[t])
            if c < best:
                best = c
                if best == 0:
                    break
        return best

    def lower_bound(uncovered: list[int], current: int) -> int:
        # Greedy matching of slot-disjoint pairs, most expensive first; disjoint
        # pairs need disjoint new entries, so the costs add up.
        costed = sorted(
            ((min_completion(i), i) for i in uncovered), key=lambda x: (-x[0], x[1])
        )
        used: set = set()
        lb = current
        for c, i in costed:
            s, t = pairs[i]
            sf = (s, 0)
            sb = (t, 1) if d.directed else (t, 0)
            if sf in used or sb in used:
                continue
            lb += c
            used.add(sf)
            used.add(sb)
        return lb

    nodes = 0
    exhausted_lb: int | None = None
    budget_left = budget

    def dfs(uncovered: list[int], current: int) -> None:
        nonlocal upper, best_f, best_b, nodes, exhausted_lb, budget_left
        nodes += 1
        budget_left -= 1
        still = [i for i in uncovered if min_completion(i) > 0]
        if not still:
            if current < upper:
                upper = current
                best_f = [set(x) for x in fwd]
                best_b = [set(x) for x in bwd] if d.directed else best_f
            return
        lb = lower_bound(still, current)
        if lb >= upper:
            return
        if budget_left <= 0:
            exhausted_lb = lb if exhausted_lb is None else min(exhausted_lb, lb)
            return
        pick = max(still, key=lambda i: (min_completion(i), -len(options[i])))
        s, t = pairs[pick]
        branches = sorted(
            ((h not in fwd[s]) + (h not in bwd[t]), h) for h in options[pick]
        )
        rest = [i for i in still if i != pick]
        for _, h in branches:
            added_f = h not in fwd[s]
            added_b = h not in bwd[t]
            if added_f:
                fwd[s].add(h)
            if added_b:
                bwd[t].add(h)
            dfs(rest, current + added_f + added_b)
            if added_f:
                fwd[s].discard(h)
            if added_b:
                bwd[t].discard(h)

    # Single-option pairs (every self pair, for one) admit exactly one hub in
    # any solution; place those entries up front.
    forced_cost = 0
    for i in static:
        if len(options[i]) == 1:
            s, t = pairs[i]
            h = options[i][0]
            if h not in fwd[s]:
                fwd[s].add(h)
                forced_cost += 1
            if h not in bwd[t]:
                bwd[t].add(h)
                forced_cost += 1

    dfs(static, forced_cost)
    complete = exhausted_lb is None
    lower = upper if complete else min(upper, exhausted_lb)
    return HlBnbResult(lower, upper, labeling_from(best_f, best_b), complete, nodes)


def exact_mds(cg: CenterGraph, limit: int = 20):
    """Exact maximum-density subgraph by subset enumeration.

    Ties prefer fewer vertices, then the lexicographically smallest vertex set.
    Returns the same (sets, density) shape as the peeling heuristic.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    if cg.directed:
        return _exact_mds_directed(cg, limit)
    return _exact_mds_undirected(cg, limit)


def _exact_mds_undirected(cg: CenterGraph, limit: int):
    verts = sorted(cg.vertices())
    c = len(verts)
    if c > limit:
        raise TooLargeError(f"{c} non-isolated vertices exceed limit {limit}")
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * c
    loop = [0] * c
    for u, w in cg.arcs:
        if u == w:
            loop[idx[u]] = 1
        else:
            adj[idx[u]] |= 1 << idx[w]
            adj[idx[w]] |= 1 << idx[u]
    edges = [0] * (1 << c)
    best_dens: Fraction | None = None
    best_mask = 0
    for mask in range(1, 1 << c):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        e = edges[rest] + (adj[v] & rest).bit_count() + loop[v]
        edges[mask] = e
        if e == 0:
            continue
        dens = Fraction(e, mask.bit_count())
        if (
            best_dens is None
            or dens > best_dens
            or (dens == best_dens and _mask_tie_better(mask, best_mask, verts))
        ):
            best_dens = dens
            best_mask = mask
    members = frozenset(verts[i] for i in range(c) if best_mask >> i & 1)
    return (members,), best_dens


def _mask_tie_better(mask: int, incumbent: int, verts: list[int]) -> bool:
    a, b = mask.bit_count(), incumbent.bit_count()
    if a != b:
        return a < b
    mine = sorted(verts[i] for i in range(len(verts)) if mask >> i & 1)
    theirs = sorted(verts[i] for i in range(len(verts)) if incumbent >> i & 1)
    return mine < theirs


def _exact_mds_directed(cg: CenterGraph, limit: int):
    tails = sorted(cg.tails())
    heads = sorted(cg.heads())
    cx, cy = len(tails), len(heads)
    if cx + cy > limit:
        raise TooLargeError(f"{cx + cy} side occurrences exceed limit {limit}")
    ti = {v: i for i, v in enumerate(tails)}
    hi = {v: i for i, v in enumerate(heads)}
    outmask = [0] * cx
    for u, w in cg.arcs:
        outmask[ti[u]] |= 1 << hi[w]
    best_dens: Fraction | None = None
    best = (0, 0)
    for mx in range(1, 1 << cx):
        rows = [outmask[i] for i in range(cx) if mx >> i & 1]
        for my in range(1, 1 << cy):
            e = sum((row & my).bit_count() for row in rows)
            if e == 0:
                continue
            dens = Fraction(e, mx.bit_count() + my.bit_count())
            if best_dens is None or dens > best_dens:
                best_dens, best = dens, (mx, my)
            elif dens == best_dens:
                size = mx.bit_count() + my.bit_count()
                inc_size = best[0].bit_count() + best[1].bit_count()
                if size < inc_size or (size == inc_size and (mx, my) < best):
                    best = (mx, my)
    sp = frozenset(tails[i] for i in range(cx) if best[0] >> i & 1)
    ss = frozenset(heads[i] for i in range(cy) if best[1] >> i & 1)
    return (sp, ss), best_dens


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """Minimum-cardinality vertex cover by branch and bound."""
    if g.directed:
        raise ValueError("vertex cover is defined on undirected graphs")
    edges = sorted((min(t, h), max(t, h)) for t, h, _ in g.arcs)

    def matching_bound(remaining) -> int:
        used: set[int] = set()
        count = 0
        for a, b in remaining:
            if a not in used and b not in used:
                used.add(a)
                used.add(b)
                count += 1
        return count

    greedy: set[int] = set()
    for a, b in edges:
        if a not in greedy and b not in greedy:
            greedy.add(a)
            greedy.add(b)
    best: set[int] = set(greedy)

    def dfs(remaining: list[tuple[int, int]], cover: set[int]) -> None:
        nonlocal best
        remaining = [(a, b) for a, b in remaining if a not in cover and b not in cover]
        if not remaining:
            if len(cover) < len(best):
                best = set(cover)
            return
        if len(cover) + matching_bound(remaining) >= len(best):
            return
        a, b = remaining[0]
        for pick in (a, b):
            cover.add(pick)
            dfs(remaining, cover)
            cover.discard(pick)

    dfs(edges, set())
    return frozenset(best)


def min_hitting_set(paths, limit: int = 5000) -> frozenset[int]:
    """Minimum hitting set for a family of vertex sets, by branch and bound."""
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
    if not minimal:
        return frozenset()

    universe = sorted(set().union(*minimal))
    greedy: set[int] = set()
    unhit = list(minimal)
    while unhit:
        counts = {v: 0 for v in universe}
        for s in unhit:
            for v in s:
                counts[v] += 1
        pick = max(universe, key=lambda v: (counts[v], -v))
        greedy.add(pick)
        unhit = [s for s in unhit if pick not in s]
    best: set[int] = set(greedy)

    def disjoint_bound(remaining) -> int:
        used: set[int] = set()
        count = 0
        for s in remaining:
            if used.isdisjoint(s):
                used |= s
                count += 1
        return count

    def dfs(remaining: list[frozenset[int]], chosen: set[int]) -> None:
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + disjoint_bound(remaining) >= len(best):
            return
        target = min(remaining, key=lambda s: (len(s), sorted(s)))
        for v in sorted(target):
            chosen.add(v)
            dfs([s for s in remaining if v not in s], chosen)
            chosen.discard(v)

    dfs(minimal, set())
    return frozenset(best)


def _candidate_radii(d: DistMatrix) -> list[Fraction]:
    """Exact discretization of r > 0: every distinct path length and half-length,
    plus midpoints of consecutive breakpoints and a point below the smallest."""
    finite = d.matrix[np.isfinite(d.matrix)]
    lengths = sorted({int(x) for x in finite if x > 0})
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
    hitting_limit: int = 20000,
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
    if g.n and not np.isfinite(d.matrix).all():
        raise ValueError("connected graph required")
    m = d.matrix
    paths = _paths_with_witnesses(g, d, cap=10**6)
    witness_dist: dict[tuple[int, ...], np.ndarray] = {}
    for _, wits in paths:
        for _, wverts in wits:
            if wverts not in witness_dist:
                witness_dist[wverts] = m[list(wverts), :].min(axis=0)

    best = 0
    cache: dict[frozenset[frozenset[int]], int] = {}
    for r in _candidate_radii(d):
        thr = (2 * r).numerator // (2 * r).denominator
        for v in range(g.n):
            sets = set()
            for p, wits in paths:
                if len(p) == 1 and not include_trivial_paths:
                    continue
                if any(wlen > r and witness_dist[wv][v] <= thr for wlen, wv in wits):
                    sets.add(frozenset(p))
            if not sets:
                continue
            key = frozenset(sets)
            size = cache.get(key)
            if size is None:
                size = len(min_hitting_set(sets, hitting_limit))
                cache[key] = size
            if size > best:
                best = size
    return best
