"""Hub labelings: data model, distance queries, cover verification, canonical construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphs import INF, MAX_TOTAL_LENGTH, DistMatrix, path_membership, unique_pairs


class LabelFormatError(ValueError):
    """Malformed label file input."""


class Order:
    """Total importance order over vertices 0..n-1; rank 1 is the most important."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        ranks = [int(r) for r in ranks]
        n = len(ranks)
        if sorted(ranks) != list(range(1, n + 1)):
            raise ValueError("ranks must be a permutation of 1..n")
        self._ranks = tuple(ranks)

    @classmethod
    def from_sequence(cls, vertices) -> "Order":
        """Build from vertices listed most-important-first."""
        vertices = [int(v) for v in vertices]
        n = len(vertices)
        ranks = [0] * n
        for pos, v in enumerate(vertices):
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for an order of {n} vertices")
            if ranks[v]:
                raise ValueError(f"vertex {v} listed twice")
            ranks[v] = pos + 1
        return cls(ranks)

    @property
    def n(self) -> int:
        return len(self._ranks)

    def rank(self, v: int) -> int:
        return self._ranks[v]

    def by_rank(self) -> list[int]:
        """Vertices most-important-first."""
        return sorted(range(self.n), key=self._ranks.__getitem__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Order):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"Order({list(self._ranks)})"


def _normalize_side(n: int, side) -> tuple[tuple[tuple[int, int], ...], ...]:
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
            if dd >= MAX_TOTAL_LENGTH:
                raise ValueError(f"vertex {v}: hub distance reaches 2^53, above any distance")
        out.append(tuple(pairs))
    return tuple(out)


class Labeling:
    """Per-vertex hub lists with exact distances, sorted by hub id.

    Directed labelings carry a forward and a backward list per vertex; undirected
    labelings store a single list that plays both roles. Immutable once built.
    """

    __slots__ = ("directed", "n", "fwd", "bwd")

    def __init__(self, directed: bool, n: int, fwd, bwd=None):
        self.directed = bool(directed)
        self.n = n
        self.fwd = _normalize_side(n, fwd)
        if self.directed:
            if bwd is None:
                raise ValueError("directed labeling requires backward lists")
            self.bwd = _normalize_side(n, bwd)
        else:
            if bwd is not None:
                raise ValueError("undirected labeling stores a single list per vertex")
            self.bwd = self.fwd

    @classmethod
    def _normal(cls, directed: bool, n: int, fwd: tuple, bwd: tuple | None) -> "Labeling":
        """Wrap rows already in the form ``__init__`` gives them; nothing is checked."""
        lab = cls.__new__(cls)
        lab.directed, lab.n, lab.fwd, lab.bwd = directed, n, fwd, fwd if bwd is None else bwd
        return lab

    @property
    def size(self) -> int:
        total = sum(len(lst) for lst in self.fwd)
        if self.directed:
            total += sum(len(lst) for lst in self.bwd)
        return total

    def hubs(self, v: int) -> set[int]:
        out = {h for h, _ in self.fwd[v]}
        if self.directed:
            out.update(h for h, _ in self.bwd[v])
        return out

    def query(self, s: int, t: int) -> int | float:
        """Minimum hubdist sum over common hubs of L_f(s) and L_b(t); INF if none."""
        a, b = self.fwd[s], self.bwd[t]
        i = j = 0
        best = INF
        while i < len(a) and j < len(b):
            ha, da = a[i]
            hb, db = b[j]
            if ha == hb:
                if da + db < best:
                    best = da + db
                i += 1
                j += 1
            elif ha < hb:
                i += 1
            else:
                j += 1
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.n == other.n
            and self.fwd == other.fwd
            and self.bwd == other.bwd
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, self.fwd, self.bwd))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Labeling({kind}, n={self.n}, size={self.size})"


def labeling_size(l: Labeling) -> int:
    """Total hub count; undirected lists are counted once."""
    return l.size


@dataclass(frozen=True)
class CoverReport:
    """Result of cover verification, as two sorted tuples of pairs.

    ``wrong_distance`` holds the pairs a stored hub distance claims to certify
    but gets wrong; ``uncovered`` holds the pairs with no common hub on a
    shortest path. A pair can be in both. ``violations``, their sorted union
    without repeats, is computed once when the report is made and takes no
    part in equality.
    """

    wrong_distance: tuple[tuple[int, int], ...]
    uncovered: tuple[tuple[int, int], ...]
    violations: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        union = tuple(sorted(set(self.wrong_distance).union(self.uncovered)))
        object.__setattr__(self, "violations", union)

    @property
    def valid(self) -> bool:
        return not (self.wrong_distance or self.uncovered)


def _flatten(side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One label side as flat arrays: hubs, stored distances, owner vertices."""
    counts = np.fromiter(map(len, side), dtype=np.int64, count=len(side))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(side)), np.int64).reshape(-1, 2)
    return flat[:, 0], flat[:, 1], np.repeat(np.arange(len(side)), counts)


def verify_cover(l: Labeling, d: DistMatrix, pairs=None) -> CoverReport:
    """Check the cover property against exact distances.

    Each stored entry (h, dd) in a label of v is audited against ``d``; a wrong
    one, or one for an unreachable pair, marks the pair it claims to certify. A
    pair [s,t] is uncovered when no common hub lies on a shortest s-t path by
    the distances of ``d``, so a wrong stored distance can neither hide nor
    fake a cover. Restricting ``pairs`` checks cover for that subset only;
    unreachable pairs are skipped.
    """
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    into, far = d.exact(), d.unreachable
    f_hub, f_dist, f_own = _flatten(l.fwd)
    bad = (into[f_hub, f_own] != f_dist) | (f_dist >= far)
    wrong_s, wrong_t = [f_own[bad]], [f_hub[bad]]
    if l.directed:
        b_hub, b_dist, b_own = _flatten(l.bwd)
        bad = (into[b_own, b_hub] != b_dist) | (b_dist >= far)
        wrong_s.append(b_hub[bad])
        wrong_t.append(b_own[bad])
    else:
        b_hub, b_own = f_hub, f_own
    unc_s, unc_t = _uncovered(l.directed, into, far, f_hub, f_own, b_hub, b_own, pairs)
    return CoverReport(
        _sorted_pairs(l.directed, wrong_s, wrong_t), _sorted_pairs(l.directed, [unc_s], [unc_t])
    )


def _uncovered(directed: bool, into: np.ndarray, far: int, f_hub, f_own, b_hub, b_own, pairs):
    """Sources and targets of the uncovered pairs, by a join of the two sides on their hubs.

    Both sides are sorted by hub, and each forward entry (s, h) meets every
    backward entry (h, t) of its hub; undirected, the one side meets itself
    from its own position on, so t >= s. A triple covers [s, t] when
    dist(s, h) + dist(h, t) == dist(s, t), all three read from ``into``; a
    leg to an unreachable hub is ``far`` and matches no distance. ``hit[t, s]``,
    one n x n bool seeded with the unreachable pairs, collects the covers, and
    the pairs left unhit are the uncovered ones.

    There are J = sum over hubs of |F_h| |B_h| triples, and since a hub has at
    most n owners, J <= n (B + n), B the backward entries: the cells a scan of
    every backward label per source would gather. The triples go in blocks of
    about B + n int32 indices (an entry's partners, at most n, stay in one
    block), so the join takes at most n blocks and its temporaries stay near
    the size of one such scan's row; flat cells t * n + s fit since
    n^2 < 2^31.
    """
    n = into.shape[0]
    fo = np.argsort(f_hub, kind="stable")  # hub order, owners ascending within a hub
    bo = np.argsort(b_hub, kind="stable") if directed else fo
    s_of, fh = f_own[fo].astype(np.int32), f_hub[fo]
    t_of, bh = b_own[bo].astype(np.int32), b_hub[bo]
    leg_f, leg_b = into[fh, s_of], into[t_of, bh]  # dist(s, h), dist(h, t)
    t_row = t_of * np.int32(n)
    sizes = np.bincount(bh, minlength=n)
    group_end = np.cumsum(sizes)
    # Per forward entry: its first partner among the sorted backward entries,
    # and how many it has.
    first = group_end[fh] - sizes[fh] if directed else np.arange(fo.size)
    count = group_end[fh] - first
    start = np.cumsum(count) - count  # each entry's first triple
    # Block k takes the entries whose triples start in [k, k + 1) * block.
    block = max(b_hub.size + n, 1)
    cuts = np.searchsorted(start, np.arange(block, count.sum(), block)).tolist()
    hit = into >= far
    flat_hit, flat_into = hit.reshape(-1), into.reshape(-1)
    for a, z in zip([0, *cuts], [*cuts, fo.size]):
        if z == a:
            continue
        reps = count[a:z]
        # Triple k of the block meets partner first + k - (the entry's start in the block).
        shift = (first[a:z] - (start[a:z] - start[a])).astype(np.int32)
        j = np.repeat(shift, reps)
        j += np.arange(j.size, dtype=np.int32)
        cell = t_row[j] + np.repeat(s_of[a:z], reps)
        on_path = np.repeat(leg_f[a:z], reps) + leg_b[j] == flat_into[cell]
        flat_hit[cell[on_path]] = True
    np.logical_not(hit, out=hit)  # now reachable and uncovered
    if pairs is None:
        ts, ss = np.nonzero(hit)
        keep = ts >= ss if not directed else slice(None)
    else:
        ss, ts = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
        keep = hit[ts, ss] if directed else hit[np.maximum(ss, ts), np.minimum(ss, ts)]
    return ss[keep], ts[keep]


def _sorted_pairs(directed: bool, us, ws) -> tuple[tuple[int, int], ...]:
    """Distinct pairs from chunks of sources and targets, canonical u <= w when undirected."""
    us, ws = (np.concatenate([np.empty(0, np.int64), *x]) for x in (us, ws))
    if not directed:
        us, ws = np.minimum(us, ws), np.maximum(us, ws)
    return tuple(zip(*(x.tolist() for x in unique_pairs(us, ws))))


def canonical_hhl(d: DistMatrix, pi: Order) -> Labeling:
    """Canonical hierarchical labeling for an order.

    The hub of each reachable pair is the most important vertex on its shortest
    paths; the result respects ``pi`` and is the minimum labeling doing so.
    """
    n = d.n
    if pi.n != n:
        raise ValueError("order and distance matrix disagree on n")
    into = d.exact()
    by_rank = np.array(pi.by_rank(), dtype=np.int64)
    # hub_f[u, h]: h is the hub of a pair [u, .]; hub_b[w, h] of a pair [., w].
    hub_f = np.zeros((n, n), dtype=bool)
    hub_b = np.zeros((n, n), dtype=bool) if d.directed else hub_f
    for u in range(n):
        cols = np.flatnonzero(into[:, u] < d.unreachable)
        if not d.directed:
            cols = cols[cols >= u]
        # Columns in rank order: the first vertex on a path is its most important one.
        hubs = by_rank[np.argmax(path_membership(d, u, cols)[:, by_rank], axis=1)]
        hub_f[u, hubs] = True
        hub_b[cols, hubs] = True
    return hub_labeling(d, hub_f, hub_b if d.directed else None)


def hub_labeling(d: DistMatrix, hub_f: np.ndarray, hub_b: np.ndarray | None = None) -> Labeling:
    """Labeling from owner-by-hub boolean tables, each hub at its exact distance:
    the one reader of label distances from ``d``, which it gives as Python ints.

    ``hub_f[v, h]`` puts h in v's forward label at dist(v, h) and ``hub_b[v, h]``
    in v's backward label at dist(h, v); an undirected labeling has one table.
    Every marked hub must be reachable along its side. A side's rows come from
    one row-major ``nonzero`` (hubs ascending, distinct) and one gather of exact
    distances, so they are in normal form and ``Labeling`` takes them unchecked.
    """
    into = d.exact()  # into[w, v] = dist(v, w), so into.T[v, h] = dist(v, h)

    def side(hub: np.ndarray, dist: np.ndarray) -> tuple[tuple[tuple[int, int], ...], ...]:
        owners, hubs = np.nonzero(hub)
        entries = list(zip(hubs.tolist(), dist[owners, hubs].tolist()))
        ends = np.cumsum(np.bincount(owners, minlength=d.n)).tolist()
        return tuple(tuple(entries[a:b]) for a, b in zip([0, *ends], ends))

    bwd = None if hub_b is None else side(hub_b, into)
    return Labeling._normal(d.directed, d.n, side(hub_f, into.T), bwd)


def respects_order(l: Labeling, pi: Order) -> bool:
    """True iff every hub of v is at least as important as v."""
    for v in range(l.n):
        rv = pi.rank(v)
        if any(pi.rank(h) > rv for h in l.hubs(v)):
            return False
    return True


def is_sublabeling(a: Labeling, b: Labeling) -> bool:
    """True iff every hub entry of ``a`` appears in ``b`` on the same side."""
    if a.directed != b.directed or a.n != b.n:
        raise ValueError("labelings disagree on shape")
    for v in range(a.n):
        if not set(a.fwd[v]) <= set(b.fwd[v]):
            return False
        if a.directed and not set(a.bwd[v]) <= set(b.bwd[v]):
            return False
    return True


def serialize_labeling(l: Labeling) -> str:
    """Deterministic text form: one line per vertex per side, hubs ascending."""
    lines = []
    if l.directed:
        for v in range(l.n):
            lines.append("f " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.fwd[v]]))
            lines.append("b " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.bwd[v]]))
    else:
        for v in range(l.n):
            lines.append("l " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.fwd[v]]))
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> Labeling:
    """Parse the label file format produced by :func:`serialize_labeling`."""
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
            raise LabelFormatError(f"line {line_no}: malformed label line")
        try:
            v = int(parts[1])
            entries = []
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                entries.append((int(h), int(dd)))
        except ValueError:
            raise LabelFormatError(f"line {line_no}: malformed label line") from None
        store = {"f": fwd, "b": bwd, "l": und}[tag]
        if v in store:
            raise LabelFormatError(f"line {line_no}: duplicate label line for vertex {v}")
        store[v] = entries
    if und and (fwd or bwd):
        raise LabelFormatError("mixed directed and undirected label lines")
    if und:
        n = len(und)
        if sorted(und) != list(range(n)):
            raise LabelFormatError("label lines must cover vertices 0..n-1 exactly")
        try:
            return Labeling(False, n, [und[v] for v in range(n)])
        except ValueError as exc:
            raise LabelFormatError(str(exc)) from None
    if not fwd and not bwd:
        raise LabelFormatError("empty label file")
    n = len(fwd)
    if sorted(fwd) != list(range(n)) or sorted(bwd) != list(range(n)):
        raise LabelFormatError("label lines must cover vertices 0..n-1 on both sides")
    try:
        return Labeling(True, n, [fwd[v] for v in range(n)], [bwd[v] for v in range(n)])
    except ValueError as exc:
        raise LabelFormatError(str(exc)) from None
