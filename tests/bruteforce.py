"""Independent desk-scale oracles used only by the test suite.

Every routine here recomputes its answer from first principles (simple-path
enumeration, big integers, a MILP solver, or center graphs rebuilt from the
distance matrix) without touching the code paths it is used to check.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import hublab as hl
from hublab import families, highway
from hublab.centers import CoverageState, PathIndex
from hublab.graphs import unique_pairs
from hublab.greedy import IterationRecord, RunTrace
from hublab.labeling import hub_labeling

INF = math.inf


def all_pairs_bruteforce(g: hl.Graph) -> list[list[float]]:
    """Min length over all simple paths, enumerated exhaustively (n <= 8)."""
    n = g.n
    best = [[INF] * n for _ in range(n)]
    adj = g.adjacency

    def dfs(src: int, v: int, dist: int, visited: set[int]) -> None:
        if dist < best[src][v]:
            best[src][v] = dist
        for w, ln in adj[v]:
            if w not in visited:
                visited.add(w)
                dfs(src, w, dist + ln, visited)
                visited.discard(w)

    for s in range(n):
        best[s][s] = 0
        dfs(s, s, 0, {s})
    return best


def path_vertices_bruteforce(g: hl.Graph, u: int, w: int) -> set[int]:
    """Union of vertices over all minimum-length simple u-w paths."""
    best = all_pairs_bruteforce(g)[u][w]
    if best == INF:
        raise ValueError("unreachable")
    adj = g.adjacency
    out: set[int] = set()

    def dfs(v: int, dist: int, path: list[int]) -> None:
        if dist > best:
            return
        if v == w and dist == best:
            out.update(path)
            return
        for x, ln in adj[v]:
            if x not in path:
                path.append(x)
                dfs(x, dist + ln, path)
                path.pop()

    dfs(u, 0, [u])
    return out


def reachable_pairs(d: hl.DistMatrix) -> list[tuple[int, int]]:
    """All reachable pairs: ordered (u, w) when directed, canonical u <= w otherwise."""
    us, ws = d.reachable_arrays()
    return list(zip(us.tolist(), ws.tolist()))


class UnreachablePairError(ValueError):
    """An operation required a finite distance between an unreachable pair."""


def on_shortest_path(d: hl.DistMatrix, u: int, w: int, v: int) -> bool:
    """True iff v lies on some shortest u-w path: dist(u,v) + dist(v,w) == dist(u,w)."""
    m = d.matrix
    a, b = m[u, v], m[v, w]
    return bool(math.isfinite(a) and math.isfinite(b) and a + b == m[u, w])


def shortest_path_vertices(d: hl.DistMatrix, u: int, w: int) -> set[int]:
    """The set of all vertices lying on shortest u-w paths."""
    if not d.finite(u, w):
        raise UnreachablePairError(f"no path from {u} to {w}")
    m = d.matrix
    mask = np.isfinite(m[:, w]) & (m[u, :] + m[:, w] == m[u, w])
    return set(np.flatnonzero(mask).tolist())


def path_index_reference(d: hl.DistMatrix, pairs=None) -> SimpleNamespace:
    """``PathIndex``'s arrays built whole: the reference for its per-source,
    blocked construction.

    The pairs come from one n x n reachability table (or the caller's list,
    canonicalized), the rows of every source are joined and counted at the
    end, and ``vpairs`` is the pair-id owner of every entry put in a stable
    argsort of all of ``verts``.
    """
    into, n = d.exact(), d.n
    if pairs is None:
        fin = into < d.unreachable
        us, ws = np.nonzero(fin if d.directed else np.triu(fin))
    else:
        uw = np.array([(u, w) for u, w in pairs], dtype=np.int64).reshape(-1, 2)
        if not d.directed:
            uw.sort(axis=1)
        us, ws = unique_pairs(True, *uw.T)
    u, w = us.astype(np.int32), ws.astype(np.int32)
    source_ptr = np.searchsorted(u, np.arange(n + 1))
    rows, lens = [np.zeros(0, np.uint16)], [np.zeros(1, np.int64)]
    for s in np.flatnonzero(np.diff(source_ptr)).tolist():
        member = hl.path_membership(d, into[s], w[source_ptr[s] : source_ptr[s + 1]])
        at, vs = np.divmod(np.flatnonzero(member), n)
        lens.append(np.bincount(at, minlength=len(member)))
        rows.append(vs.astype(np.uint16))
    verts = np.concatenate(rows)
    ptr = np.cumsum(np.concatenate(lens))
    owner = np.repeat(np.arange(len(u), dtype=np.int32), np.diff(ptr))
    return SimpleNamespace(
        u=u,
        w=w,
        level=(np.frexp(into[us, ws])[1] - 1).astype(np.int8),
        verts=verts,
        ptr=ptr,
        vpairs=owner[np.argsort(verts, kind="stable")],
        vptr=np.concatenate(([0], np.cumsum(np.bincount(verts, minlength=n)))),
    )


def canonical_hhl_loop(d: hl.DistMatrix, pi: hl.Order) -> hl.Labeling:
    """Pair-by-pair canonical labeling: the reference for ``canonical_hhl``.

    Each reachable pair's hub is the most important vertex on its shortest paths.
    """
    n = d.n
    fwd: list[dict[int, int]] = [{} for _ in range(n)]
    bwd: list[dict[int, int]] = [{} for _ in range(n)] if d.directed else fwd
    for u, w in reachable_pairs(d):
        h = min(shortest_path_vertices(d, u, w), key=pi.rank)
        fwd[u][h] = d.dist(u, h)
        bwd[w][h] = d.dist(h, w)
    return hl.Labeling(True, n, fwd, bwd) if d.directed else hl.Labeling(False, n, fwd)


def hub_labeling_checked(d: hl.DistMatrix, hub_f: np.ndarray, hub_b: np.ndarray | None = None):
    """Row-by-row assembly through the checked ``Labeling`` constructor, which
    sorts and validates every row: the reference for ``hub_labeling``."""
    into = d.exact()

    def side(hub, dist):
        rows = map(np.flatnonzero, hub)
        return [zip(hs.tolist(), dist[v, hs].tolist()) for v, hs in enumerate(rows)]

    bwd = None if hub_b is None else side(hub_b, into.T)
    return hl.Labeling(d.directed, d.n, side(hub_f, into), bwd)


def verify_cover_loop(l: hl.Labeling, d: hl.DistMatrix, pairs=None) -> hl.CoverReport:
    """Pair-by-pair cover check with a dict per label: the reference for ``verify_cover``."""
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    m = d.matrix
    wrong: set[tuple[int, int]] = set()
    uncovered: set[tuple[int, int]] = set()

    def pair_of(a: int, b: int) -> tuple[int, int]:
        return (a, b) if d.directed or a <= b else (b, a)

    for v in range(l.n):
        for h, dd in l.fwd[v]:
            if m[v, h] != dd:
                wrong.add(pair_of(v, h))
        if l.directed:
            for h, dd in l.bwd[v]:
                if m[h, v] != dd:
                    wrong.add(pair_of(h, v))

    fwd_maps = [dict(lst) for lst in l.fwd]
    bwd_maps = fwd_maps if not l.directed else [dict(lst) for lst in l.bwd]
    if pairs is None:
        pairs = reachable_pairs(d)
    for s, t in pairs:
        target = m[s, t]
        if not np.isfinite(target):
            continue
        a, b = fwd_maps[s], bwd_maps[t]
        if len(b) < len(a):
            covered = any(h in a and m[s, h] + m[h, t] == target for h in b)
        else:
            covered = any(h in b and m[s, h] + m[h, t] == target for h in a)
        if not covered:
            uncovered.add(pair_of(s, t))
    return hl.CoverReport(tuple(sorted(wrong)), tuple(sorted(uncovered)))


def _label_rows_reference(n: int, side) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows as sorted tuples of distinct ``(hub, dist)`` pairs, each checked."""
    if len(side) != n:
        raise ValueError(f"expected {n} label lists, got {len(side)}")
    out = []
    for v, entries in enumerate(side):
        if isinstance(entries, dict):
            entries = entries.items()
        pairs = sorted({(int(h), int(dd)) for h, dd in entries})
        hubs = [h for h, _ in pairs]
        if len(set(hubs)) != len(hubs):
            raise ValueError(f"vertex {v}: duplicate hub with conflicting distances")
        for h, dd in pairs:
            if not 0 <= h < n:
                raise ValueError(f"vertex {v}: hub {h} out of range")
            if dd < 0:
                raise ValueError(f"vertex {v}: negative hub distance")
            if dd >= 2**53:
                raise ValueError(f"vertex {v}: hub distance reaches 2^53, above any distance")
        out.append(tuple(pairs))
    return tuple(out)


def parse_labeling_reference(text: str):
    """Line-by-line parse into per-row tuples, every row sorted and checked on
    its own: the reference for ``parse_labeling`` and its flat store.

    Returns ``(directed, n, fwd, bwd)`` with rows as tuples of ``(hub, dist)``
    pairs (``bwd`` is ``fwd`` when undirected), or raises ``LabelFormatError``.
    """
    fwd: dict[int, list[tuple[int, int]]] = {}
    bwd: dict[int, list[tuple[int, int]]] = {}
    und: dict[int, list[tuple[int, int]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag not in ("f", "b", "l") or len(parts) < 2:
            raise hl.LabelFormatError(f"line {line_no}: malformed label line")
        try:
            v = int(parts[1])
            entries = []
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                entries.append((int(h), int(dd)))
        except ValueError:
            raise hl.LabelFormatError(f"line {line_no}: malformed label line") from None
        store = {"f": fwd, "b": bwd, "l": und}[tag]
        if v in store:
            raise hl.LabelFormatError(f"line {line_no}: duplicate label line for vertex {v}")
        store[v] = entries
    if und and (fwd or bwd):
        raise hl.LabelFormatError("mixed directed and undirected label lines")
    try:
        if und:
            n = len(und)
            if sorted(und) != list(range(n)):
                raise hl.LabelFormatError("label lines must cover vertices 0..n-1 exactly")
            rows = _label_rows_reference(n, [und[v] for v in range(n)])
            return False, n, rows, rows
        if not fwd and not bwd:
            raise hl.LabelFormatError("empty label file")
        n = len(fwd)
        if sorted(fwd) != list(range(n)) or sorted(bwd) != list(range(n)):
            raise hl.LabelFormatError("label lines must cover vertices 0..n-1 on both sides")
        sides = [_label_rows_reference(n, [s[v] for v in range(n)]) for s in (fwd, bwd)]
        return (True, n, *sides)
    except hl.LabelFormatError:
        raise
    except ValueError as exc:
        raise hl.LabelFormatError(str(exc)) from None


def query_reference(fwd, bwd, s: int, t: int) -> int | float:
    """Minimum of dist(s, h) + dist(h, t) over the common hubs of two tuple rows."""
    a, b = dict(fwd[s]), dict(bwd[t])
    return min((a[h] + b[h] for h in a.keys() & b.keys()), default=INF)


def pair_level(dist: int) -> int | float:
    """Level of a pair: floor(log2 dist), with dist 0 mapping to -inf."""
    return hl.NEG_INF_LEVEL if dist == 0 else dist.bit_length() - 1


def undirect(g: hl.Graph) -> hl.Graph:
    """Undirected version of a graph; parallel opposite arcs merge to the minimum length."""
    if not g.directed:
        return g
    return hl.Graph(False, g.n, g.arcs)


def respects_order(l: hl.Labeling, pi: hl.Order) -> bool:
    """True iff every hub of v is at least as important as v."""
    if pi.n != l.n:
        raise ValueError("order and labeling disagree on n")
    sides = (l.fwd, l.bwd) if l.directed else (l.fwd,)
    return all(pi.rank(h) <= pi.rank(v) for side in sides for v in range(l.n) for h, _ in side[v])


def is_sublabeling(a: hl.Labeling, b: hl.Labeling) -> bool:
    """True iff every hub entry of ``a`` appears in ``b`` on the same side."""
    if a.directed != b.directed or a.n != b.n:
        raise ValueError("labelings disagree on shape")
    for v in range(a.n):
        if not set(a.fwd[v]) <= set(b.fwd[v]):
            return False
        if a.directed and not set(a.bwd[v]) <= set(b.bwd[v]):
            return False
    return True


def build_center_graph(d: hl.DistMatrix, pairs, v: int) -> hl.CenterGraph:
    """From-scratch center graph of v over the given canonical pairs."""
    m = d.matrix
    arcs = tuple(
        sorted((u, w) for u, w in pairs if np.isfinite(m[u, v]) and m[u, v] + m[v, w] == m[u, w])
    )
    return hl.CenterGraph(v, d.directed, arcs)


def side_nodes(directed: bool, arcs) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The side-node form of the pairs ``arcs`` from dicts and sets: the nodes
    ``(side, v)`` (undirected, the vertices; directed, the heads then the tails,
    each in id order), and per node an adjacency bitmask and a self-loop flag."""
    if directed:
        heads, tails = sorted({w for _, w in arcs}), sorted({u for u, _ in arcs})
        nodes = [(1, w) for w in heads] + [(0, u) for u in tails]
    else:
        nodes = [(0, v) for v in sorted({v for arc in arcs for v in arc})]
    at = {node: i for i, node in enumerate(nodes)}
    adj, loop = [0] * len(nodes), [0] * len(nodes)
    for u, w in arcs:
        a, b = at[0, u], at[int(directed), w]
        if a == b:
            loop[a] = 1
        else:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return nodes, adj, loop


def arcs(cg: hl.CenterGraph) -> list[tuple[int, int]]:
    """A center graph's pairs read back from its side nodes, sorted: (tail, head)
    when directed, min-first when undirected."""
    out = [(v, v) for (_, v), lp in zip(cg.nodes, cg.loop) if lp]
    for i, (side, v) in enumerate(cg.nodes):
        for j, (_, x) in enumerate(cg.nodes):
            if cg.adj[i] >> j & 1 and (side == 0 if cg.directed else i < j):
                out.append((v, x))
    return sorted(out)


def density(cg: hl.CenterGraph) -> Fraction:
    """Edges over non-isolated vertices, as an exact rational."""
    if cg.edge_count == 0:
        raise hl.EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    return Fraction(cg.edge_count, cg.nonisolated_count)


@dataclass(frozen=True)
class LevelProfile:
    """Per-level edge counts of a center graph.

    ``key()`` compares finite levels lexicographically from the top; it orders
    center graphs exactly like comparing total pair weights n^(2*level), where
    dist-0 pairs weigh nothing, so the -inf bucket is excluded from the key.
    """

    counts: tuple[tuple[int | float, int], ...]
    top_level: int

    def count(self, level) -> int:
        return dict(self.counts).get(level, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def key(self) -> tuple[int, ...]:
        by_level = dict(self.counts)
        return tuple(by_level.get(i, 0) for i in range(self.top_level, -1, -1))


def level_profile(cg: hl.CenterGraph, d: hl.DistMatrix) -> LevelProfile:
    m = d.matrix
    counts: dict[int | float, int] = {}
    for u, w in arcs(cg):
        lvl = pair_level(int(m[u, w]))
        counts[lvl] = counts.get(lvl, 0) + 1
    diam = d.diameter
    top = diam.bit_length() - 1 if diam >= 1 else -1
    ordered = tuple(sorted(counts.items(), key=lambda kv: kv[0]))
    return LevelProfile(ordered, top)


def center_weight_sum(cg: hl.CenterGraph, d: hl.DistMatrix) -> int:
    """Exact big-integer sum of pair weights n^(2*level); dist-0 pairs weigh 0."""
    n = d.n
    total = 0
    for u, w in arcs(cg):
        dist = d.dist(u, w)
        if dist > 0:
            total += n ** (2 * (dist.bit_length() - 1))
    return total


def optimal_hl_milp(d: hl.DistMatrix, pairs=None) -> int:
    """Exact minimum hub labeling size via scipy's MILP solver."""
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = d.n
    m = d.matrix
    if pairs is None:
        pairs = reachable_pairs(d)
    pairs = list(pairs)
    opts = []
    for s, t in pairs:
        P = sorted(
            v
            for v in range(n)
            if np.isfinite(m[s, v]) and m[s, v] + m[v, t] == m[s, t]
        )
        opts.append(P)
    nx = n * n
    base = 2 * nx if d.directed else nx
    tvar: dict[tuple[int, int], int] = {}
    idx = base
    for i, P in enumerate(opts):
        for h in P:
            tvar[(i, h)] = idx
            idx += 1
    nvars = idx
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    los: list[float] = []
    his: list[float] = []

    def add_row(entries, lo, hi):
        r = len(los)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        los.append(lo)
        his.append(hi)

    for i, (s, t) in enumerate(pairs):
        add_row([(tvar[(i, h)], 1.0) for h in opts[i]], 1, np.inf)
        for h in opts[i]:
            xf = s * n + h
            xb = (nx + t * n + h) if d.directed else (t * n + h)
            add_row([(tvar[(i, h)], 1.0), (xf, -1.0)], -np.inf, 0)
            if xb != xf:
                add_row([(tvar[(i, h)], 1.0), (xb, -1.0)], -np.inf, 0)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(len(los), nvars))
    c = np.zeros(nvars)
    c[:base] = 1.0
    res = milp(
        c=c,
        constraints=LinearConstraint(A, los, his),
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return int(round(res.fun))


def optimal_hl_bnb_reference(d: hl.DistMatrix, pairs=None, budget: int = 1_000_000):
    """The branch and bound that recomputes every completion cost at every node.

    The same search as ``hl.optimal_hl_bnb``, which keeps the costs current
    instead; the two must agree on every result field and on the labeling.
    A branch checks the backward side only after placing the forward entry, so
    an undirected self pair's branch counts its one entry once.
    """
    n = d.n
    idx = PathIndex(d, pairs)
    pairs = idx.pairs(slice(None))
    options = [idx[i].tolist() for i in range(len(idx))]
    static = sorted(range(len(pairs)), key=lambda i: (len(options[i]), pairs[i]))

    fwd: list[set[int]] = [set() for _ in range(n)]
    bwd: list[set[int]] = [set() for _ in range(n)] if d.directed else fwd

    participation = np.diff(idx.vptr).tolist()
    orders = [
        hl.Order(range(1, n + 1)),
        hl.Order.from_sequence(sorted(range(n), key=lambda v: (-participation[v], v))),
    ]
    candidates = [hl.canonical_hhl(d, cand_order) for cand_order in orders]
    candidates.append(hl.run_cohen_hl(d, pairs)[0])
    upper = None
    best_f = best_b = None
    for cand in candidates:
        if upper is None or cand.size < upper:
            upper = cand.size
            best_f = [set(h for h, _ in cand.fwd[v]) for v in range(n)]
            best_b = [set(h for h, _ in cand.bwd[v]) for v in range(n)]

    def min_completion(i: int) -> int:
        s, t = pairs[i]
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
            if added_f:
                fwd[s].add(h)
            added_b = h not in bwd[t]
            if added_b:
                bwd[t].add(h)
            dfs(rest, current + added_f + added_b)
            if added_f:
                fwd[s].discard(h)
            if added_b:
                bwd[t].discard(h)

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
    hub_f, hub_b = np.zeros((2, n, n), dtype=bool)
    for v in range(n):
        hub_f[v, list(best_f[v])] = hub_b[v, list(best_b[v])] = True
    labeling = hub_labeling(d, np.nonzero(hub_f), np.nonzero(hub_b) if d.directed else None)
    return hl.HlBnbResult(lower, upper, labeling, complete, nodes)


def optimal_hhl_recursive(d: hl.DistMatrix) -> tuple[int, hl.Order]:
    """``hl.optimal_hhl_bruteforce`` as a memoized recursion over vertex subsets:
    a chosen set's completion cost is the least, over the vertices x outside
    it, of the endpoint slots of the pairs through x whose shortest paths miss
    the set, plus the completion of the set with x; ties go to the lowest x."""
    n = d.n
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
    return size, hl.Order.from_sequence(seq)


def gen_random_reference(n: int, m: int, maxlen: int, seed: int) -> hl.Graph:
    """``families.gen_random`` by sampling the sorted list of every non-tree pair."""
    rng = random.Random(seed)
    tree = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(tree)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    edges = tree + rng.sample(candidates, m - (n - 1))
    return hl.Graph(False, n, [(u, v, rng.randint(1, maxlen)) for u, v in edges])


def gen_random_directed(n: int, extra: int, maxlen: int, seed: int) -> hl.Graph:
    """Seeded directed graph over a random connected skeleton."""
    rng = random.Random(seed)
    m = min(n * (n - 1) // 2, n - 1 + extra)
    und = families.gen_random(n, m, maxlen, seed)
    arcs = []
    for t, h, _ in und.arcs:
        arcs.append((t, h, rng.randint(1, maxlen)))
        if rng.random() < 0.8:
            arcs.append((h, t, rng.randint(1, maxlen)))
    return hl.Graph(True, n, arcs)


def significant_paths_bruteforce(g: hl.Graph, r) -> list[tuple[tuple[int, ...], int, int]]:
    """(vertices, length, reach) of every r-significant shortest path (n <= 7).

    Every simple path is enumerated; it is a shortest path when its length equals
    ``all_pairs_bruteforce``. A witness is a shortest path made of the path and at
    most one extra vertex at each end, and the reach is the longest witness
    length. Paths run from the smaller endpoint to the larger one.
    """
    if g.directed:
        raise ValueError("undirected graph required")
    best = all_pairs_bruteforce(g)
    shortest: set[tuple[int, ...]] = set()

    def dfs(path: list[int], dist: int) -> None:
        if dist == best[path[0]][path[-1]]:
            shortest.add(tuple(path))
        for x, ln in g.adjacency[path[-1]]:
            if x not in path:
                path.append(x)
                dfs(path, dist + ln)
                path.pop()

    for s in range(g.n):
        dfs([s], 0)
    out = []
    for p in shortest:
        if p[0] > p[-1]:
            continue
        ends = [()] + [(x,) for x in range(g.n) if x not in p]
        witnesses = [a + p + b for a in ends for b in ends if (a + p + b) in shortest]
        reach = max(best[w[0]][w[-1]] for w in witnesses)
        if reach > r:
            out.append((p, best[p[0]][p[-1]], reach))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def witnesses_reference(g: hl.Graph, d: hl.DistMatrix, path: tuple[int, ...]):
    """The witnesses of one shortest path as (length, vertices), by the per-path
    rule: the path itself and its extensions by a vertex off the path over an arc
    at either end, or at both by two distinct vertices, whose arc lengths sum to
    the distance between their ends. The reach is the longest length."""
    arc = {}
    for t, h, ln in g.arcs:
        arc[t, h] = arc[h, t] = ln
    pres = [()] + [(x,) for x in range(g.n) if (x, path[0]) in arc and x not in path]
    posts = [()] + [(y,) for y in range(g.n) if (path[-1], y) in arc and y not in path]
    out = []
    for pre in pres:
        for post in posts:
            w = pre + path + post
            length = sum(arc[e] for e in zip(w, w[1:]))
            if not (pre and pre == post) and length == d.dist(w[0], w[-1]):
                out.append((length, w))
    return out


def _from(d: hl.DistMatrix, v: int) -> np.ndarray:
    """dist(v, .); an id outside 0..n-1 raises ``IndexError``."""
    if not 0 <= v < d.n:  # numpy would count a negative id from the end
        raise IndexError(f"vertex {v} out of range for {d.n} vertices")
    return d.exact()[v]


def ball(d: hl.DistMatrix, v: int, r) -> set[int]:
    """Vertices within distance r of v (exact for rational r: dist <= floor(r))."""
    return set(np.flatnonzero(_from(d, v) <= min(math.floor(Fraction(r)), d.diameter)).tolist())


def neighborhood_S(d: hl.DistMatrix, v: int, r) -> list:
    """r-significant paths that are (r, 2r)-close to v: some witness longer than
    r lies within distance 2r of v."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    near, thr = _from(d, v), min(math.floor(2 * r), d.diameter)  # D + 1 is unreachable
    return [
        sp
        for sp in hl.enumerate_significant_paths(d, r)
        if any(
            wlen > r and near[list(wverts)].min() <= thr
            for wlen, wverts in witnesses_reference(d.graph, d, sp.vertices)
        )
    ]


def all_shortest_paths_reference(g: hl.Graph, d: hl.DistMatrix) -> list[tuple[int, ...]]:
    """``highway._all_shortest_paths`` by one backward search per pair: from w back
    to u over the arcs (x, tip, ln) with dist(u, x) + ln == dist(u, tip), listed
    as trivial paths, then by source u and target w > u. More than
    ``highway.MAX_PATHS`` paths raise ``CapExceededError``."""
    cap = highway.MAX_PATHS
    if g.directed:
        raise highway.DirectedInputError("undirected graph required")
    adj = g.adjacency
    out: list[tuple[int, ...]] = [(v,) for v in range(g.n)]
    if len(out) > cap:
        raise hl.CapExceededError(f"more than {cap} shortest paths")
    for a, rows, fin in d.source_runs():
        fin[:, a:][np.diag_indices(len(rows))] = False  # the trivial paths are listed
        for i in np.flatnonzero(fin.any(axis=1)).tolist():
            u, du = a + i, rows[i].tolist()
            for w in np.flatnonzero(fin[i]).tolist():
                # Frames are (tip, distance left to u, unread neighbours of tip); the
                # path's vertex set keeps a zero-length edge from being walked twice.
                stack, on_path = [(w, du[w], iter(adj[w]))], {w}
                while stack:
                    tip, left, nbrs = stack[-1]
                    for x, ln in nbrs:
                        if x not in on_path and du[x] + ln == left:
                            break
                    else:
                        stack.pop()
                        on_path.discard(tip)
                        continue
                    if x == u:
                        out.append((u, *(t for t, _, _ in reversed(stack))))
                        if len(out) > cap:
                            raise hl.CapExceededError(f"more than {cap} shortest paths")
                    else:
                        stack.append((x, left - ln, iter(adj[x])))
                        on_path.add(x)
    return out


def greedy_hitting_set_loop(sets) -> set[int]:
    """Greedy hitting set that recounts every unhit set after each pick: the
    lowest-id vertex in the most unhit sets joins until every set is hit."""
    unhit = list(sets)
    hit: set[int] = set()
    while unhit:
        counts = Counter(v for s in unhit for v in s)
        best = min(counts, key=lambda v: (-counts[v], v))
        hit.add(best)
        unhit = [s for s in unhit if best not in s]
    return hit


def min_vertex_cover_reference(g: hl.Graph) -> frozenset[int]:
    """Minimum vertex cover by its own branch and bound over the sorted edges:
    a greedy matching's ends as the incumbent, the matching of the edges left
    as the bound, and a branch on each end of the first edge left."""
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


def min_hitting_set_bruteforce(sets) -> int:
    """Size of a minimum hitting set: the smallest k for which some k vertices
    of the union meet every set."""
    sets = [set(s) for s in sets]
    universe = sorted(set().union(*sets))
    for k in range(len(universe) + 1):
        for pick in itertools.combinations(universe, k):
            if all(s.intersection(pick) for s in sets):
                return k
    raise ValueError("cannot hit an empty set")


def min_hitting_set_recursive(paths, limit: int = 5000) -> frozenset[int]:
    """``hl.min_hitting_set``'s branch and bound as a recursive search: duplicates
    and supersets dropped, the rest by size and ids, a greedy packing as bound
    and the root packing's union as incumbent, branching on the first set left,
    lowest id first. One interpreter frame per chosen vertex."""
    fam = [frozenset(p) for p in paths]
    if len(fam) > limit:
        raise hl.TooLargeError(f"{len(fam)} sets exceed limit {limit}")
    if any(not s for s in fam):
        raise ValueError("cannot hit an empty set")
    fam = sorted(set(fam), key=lambda s: (len(s), sorted(s)))
    minimal: list[frozenset[int]] = []
    for s in fam:
        if not any(t <= s for t in minimal):
            minimal.append(s)

    def packing(remaining) -> tuple[int, set[int]]:
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
        for v in sorted(remaining[0]):
            chosen.add(v)
            dfs([s for s in remaining if v not in s], chosen)
            chosen.discard(v)

    dfs(minimal, set())
    return frozenset(best)


def mds_peel_reference(cg: hl.CenterGraph):
    """Charikar's peel on a dict-of-sets over (side, v) nodes: drop the live node
    least by (deg, v, side), rescanning every live node per drop, and keep the
    earliest densest prefix. Same (sets, density) shape as ``hl.mds_peel``."""
    if cg.edge_count == 0:
        raise hl.EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    head_side = 1 if cg.directed else 0
    adj: dict[tuple[int, int], set[tuple[int, int]]] = {}
    loops: set[tuple[int, int]] = set()
    for u, w in arcs(cg):
        a, b = (0, u), (head_side, w)
        if a == b:
            loops.add(a)
            adj.setdefault(a, set())
        else:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    deg = {node: len(nbrs) + (node in loops) for node, nbrs in adj.items()}
    m = cg.edge_count
    best_set: list[tuple[int, int]] = []
    best_dens: Fraction | None = None
    while m > 0:
        alive = [node for node, dv in deg.items() if dv > 0]
        dens = Fraction(m, len(alive))
        if best_dens is None or dens > best_dens:
            best_dens, best_set = dens, alive
        drop = min(alive, key=lambda node: (deg[node], node[1], node[0]))
        for nbr in adj[drop]:
            adj[nbr].discard(drop)
            deg[nbr] -= 1
            m -= 1
        if drop in loops:
            loops.discard(drop)
            m -= 1
        deg[drop] = 0
        adj[drop] = set()
    sides = tuple(frozenset(v for side, v in best_set if side == s) for s in range(head_side + 1))
    return sides, best_dens


def exact_mds_undirected_reference(cg: hl.CenterGraph):
    """Densest vertex subset by subset DP with one Fraction per subset; ties go
    to fewer vertices, then to the lexicographically smallest sorted list."""
    pairs = arcs(cg)
    verts = sorted({v for arc in pairs for v in arc})
    c = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj, loop = [0] * c, [0] * c
    for u, w in pairs:
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
            or (dens == best_dens and mask_tie_better(mask, best_mask, verts))
        ):
            best_dens = dens
            best_mask = mask
    members = frozenset(verts[i] for i in range(c) if best_mask >> i & 1)
    return (members,), best_dens


def exact_mds_loop(cg: hl.CenterGraph, limit: int = 20):
    """``hl.exact_mds`` as one Python loop over the side-node masks in increasing
    order: a mask's edge count extends that of the mask without its lowest node,
    densities compare by integer cross-products and ties go as in ``hl.exact_mds``."""
    if cg.edge_count == 0:
        raise hl.EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    adj, loop, c = cg.adj, cg.loop, len(cg.nodes)
    if c > limit:
        raise hl.TooLargeError(f"{c} side nodes exceed limit {limit}")
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
    return cg.sides(best), Fraction(best_e, best_k)


def mask_tie_better(mask: int, incumbent: int, verts: list[int]) -> bool:
    """Fewer vertices, then the lexicographically smaller sorted vertex list."""
    a, b = mask.bit_count(), incumbent.bit_count()
    if a != b:
        return a < b
    mine = sorted(verts[i] for i in range(len(verts)) if mask >> i & 1)
    theirs = sorted(verts[i] for i in range(len(verts)) if incumbent >> i & 1)
    return mine < theirs


def exact_mds_directed_reference(cg: hl.CenterGraph):
    """Densest (tails, heads) by a nested loop over tail and head subsets; ties
    go to fewer side occurrences, then to the smallest (tail mask, head mask)."""
    pairs = arcs(cg)
    tails, heads = sorted({u for u, _ in pairs}), sorted({w for _, w in pairs})
    cx, cy = len(tails), len(heads)
    ti = {v: i for i, v in enumerate(tails)}
    hi = {v: i for i, v in enumerate(heads)}
    outmask = [0] * cx
    for u, w in pairs:
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


def exact_mds_reference(cg: hl.CenterGraph):
    if cg.edge_count == 0:
        raise hl.EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    if cg.directed:
        return exact_mds_directed_reference(cg)
    return exact_mds_undirected_reference(cg)


def random_center_graph(
    rng: random.Random, directed: bool, max_nodes: int = 10, width: int = 12
) -> hl.CenterGraph:
    """A seeded center graph on ``width`` scattered ids with at most ``max_nodes``
    side nodes.

    Undirected pairs are min-first and may be loops [v, v]; directed pairs may
    join a tail and a head of the same id. Half the graphs are disjoint copies
    of one small pattern on shuffled ids, so many subsets and degrees tie.
    """
    ids = rng.sample(range(max(40, 3 * width)), width)
    if rng.random() < 0.5:
        k = rng.randint(1, width // 4)
        pattern = [(rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(1, 4))]
        pairs = {(ids[3 * c + a], ids[3 * c + b]) for c in range(k) for a, b in pattern}
    else:
        pool, count = ids[: width * 7 // 12], rng.randint(1, width * width // 12)
        pairs = {(rng.choice(pool), rng.choice(pool)) for _ in range(count)}
    if not directed:
        pairs = {(min(u, w), max(u, w)) for u, w in pairs}
    arcs = sorted(pairs)
    while True:
        cg = hl.CenterGraph(0, directed, tuple(arcs))
        if cg.nonisolated_count <= max_nodes:
            return cg
        arcs.pop()


def center_graph_on(rng: random.Random, directed: bool, c: int, shape: str) -> hl.CenterGraph:
    """A seeded center graph on exactly ``c`` side nodes (``c >= 2`` when
    directed) with scattered ids; directed tails and heads may share ids.

    ``shape`` "random" gives every node a random partner and adds random pairs
    (undirected loops too); "regular" is a cycle, or a crown of tails and heads;
    "cliques" is disjoint equal cliques, or complete bipartite blocks, with the
    few nodes left over on a path or a loop, so many masks tie.
    """
    pool = range(4 * c + 10)
    if not directed:
        ids = rng.sample(pool, c)
        if shape == "random":
            pairs = {(v, rng.choice(ids)) for v in ids}
            pairs |= {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * c))}
        elif shape == "regular" or c == 1:  # one vertex: a loop
            pairs = {(ids[i], ids[(i + 1) % c]) for i in range(c)}
        else:
            size = min(rng.choice((2, 3, 4)), c)
            whole = c - c % size
            pairs = {(ids[i], ids[j]) for i in range(whole) for j in range(i + 1, i - i % size + size)}
            rest = ids[whole:]
            pairs |= {(a, b) for a, b in zip(rest, rest[1:])} or {(v, v) for v in rest}
        return hl.CenterGraph(0, False, tuple(sorted({(min(u, w), max(u, w)) for u, w in pairs})))
    a = c // 2 if shape != "random" else rng.randint(1, c - 1)
    tails, heads = rng.sample(pool, a), rng.sample(pool, c - a)
    if shape == "random":
        pairs = {(u, rng.choice(heads)) for u in tails} | {(rng.choice(tails), w) for w in heads}
        pairs |= {(rng.choice(tails), rng.choice(heads)) for _ in range(rng.randint(0, c))}
    elif shape == "regular":
        pairs = {(tails[i], heads[j % (c - a)]) for i in range(a) for j in (i, i + 1)}
    else:
        side = min(rng.choice((1, 2, 3)), a)
        blocks = a // side
        pairs = {
            (tails[b * side + i], heads[b * side + j])
            for b in range(blocks) for i in range(side) for j in range(side)
        }
        pairs |= {(tails[-1], w) for w in heads[blocks * side :]}
        pairs |= {(u, heads[-1]) for u in tails[blocks * side :]}
    return hl.CenterGraph(0, True, tuple(sorted(pairs)))


def with_zero_arcs(g: hl.Graph, rng: random.Random) -> hl.Graph:
    """Zero some lengths: directed only forward arcs, undirected a matching, so
    no zero-length cycle forms."""
    touched: set[int] = set()
    arcs = []
    for t, h, length in g.arcs:
        if rng.random() < 0.3 and (t < h if g.directed else not {t, h} & touched):
            touched |= {t, h}
            length = 0
        arcs.append((t, h, length))
    return hl.Graph(g.directed, g.n, arcs)


def endpoint_count_graphs(seed: int) -> list[hl.Graph]:
    """Graphs for checking w-HHL's density counted by pair ends: seeded
    undirected and directed graphs, each again with zero-length arcs, graphs
    with unreachable pairs (bad-g 2-5, bad-w 2), and n = 0 and 1 of both kinds."""
    rng = random.Random(seed)
    graphs = []
    for i, (n, extra, maxlen) in enumerate([(3, 1, 2), (5, 3, 3), (6, 5, 1), (7, 6, 4)]):
        graphs.append(families.gen_random(n, n - 1 + extra, maxlen, seed + i))
        graphs.append(gen_random_directed(n, extra, maxlen, seed + 10 + i))
    graphs += [with_zero_arcs(g, rng) for g in graphs]
    graphs += [families.gen_bad_g(k) for k in (2, 3, 4, 5)] + [families.gen_bad_w(2)]
    return graphs + [hl.Graph(directed, n, []) for directed in (False, True) for n in (0, 1)]


def select_reference(d: hl.DistMatrix, engine: CoverageState, algo: str, step, receivers=None):
    """``greedy._select`` one step at a time, with no shortcut for the tail of
    own pairs: call ``step`` until every pair is covered, record each step and
    assemble the labeling from the records' (receiver, center) entries.
    ``receivers(pids)`` gives a step's (tails, heads); by default the ends of
    its pairs, as ``_select`` takes them."""
    receivers = receivers or engine.receivers
    trace = RunTrace(algo, d.directed, d.n)
    while engine.uncovered_count:
        v, score, pids, level = step(engine)
        if not len(pids):
            raise AssertionError(f"center {v} covers no uncovered pair")
        tails, heads = receivers(pids)
        before = engine.uncovered_count
        engine.cover_pairs(pids)
        rec = IterationRecord(v, score, len(pids), before, engine.uncovered_count, tails, heads, level)
        trace.iterations.append(rec)
    sides = []
    for side in ("receivers_fwd", "receivers_bwd") if d.directed else ("receivers_fwd",):
        entries = [(x, rec.vertex) for rec in trace.iterations for x in getattr(rec, side)]
        sides.append(np.array(entries, np.int64).reshape(-1, 2).T)
    return hub_labeling(d, *sides), trace


def run_cohen_hl_reference(d: hl.DistMatrix, pairs=None, exact_mds: bool = False):
    """Cohen's greedy set cover re-solving every live center's densest subgraph
    on every pick, with no subset cap: the step ``hl.run_cohen_hl`` took before
    it kept the solves of centers no pick had touched. Each step's receivers
    are the solver's sets, not the ends of the pairs it covers."""
    engine = CoverageState(d, pairs)
    idx = engine.index
    solve = hl.exact_mds if exact_mds else hl.mds_peel
    picked = {}  # the last step's receivers

    def step(engine: CoverageState):
        best = None
        for v in np.flatnonzero(engine.edges).tolist():
            sets, dens = solve(engine.center_graph(v))
            if best is None or dens > best[0]:
                best = (dens, v, sets)
        dens, v, sets = best
        tails, heads = sets if d.directed else sets * 2
        pids = engine.pairs_through(v)
        covered = pids[np.isin(idx.u[pids], list(tails)) & np.isin(idx.w[pids], list(heads))]
        picked["sets"] = tuple(sorted(tails)), tuple(sorted(heads)) if d.directed else ()
        return v, dens, covered, None

    return select_reference(d, engine, "cohen", step, lambda pids: picked["sets"])
