"""Hub labelings: data model, distance queries, cover verification, canonical construction."""

from __future__ import annotations

from dataclasses import dataclass
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
    shortest path. A pair can be in both.
    """

    wrong_distance: tuple[tuple[int, int], ...]
    uncovered: tuple[tuple[int, int], ...]

    @property
    def violations(self) -> tuple[tuple[int, int], ...]:
        """Sorted union of both kinds."""
        return tuple(sorted(set(self.wrong_distance) | set(self.uncovered)))

    @property
    def valid(self) -> bool:
        return not (self.wrong_distance or self.uncovered)


def _flatten(side) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One label side as CSR arrays: offsets, hubs, stored distances, owner vertices."""
    counts = np.fromiter(map(len, side), dtype=np.int64, count=len(side))
    offsets = np.zeros(len(side) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(side)), np.int64).reshape(-1, 2)
    return offsets, flat[:, 0], flat[:, 1], np.repeat(np.arange(len(side)), counts)


def verify_cover(l: Labeling, d: DistMatrix, pairs=None) -> CoverReport:
    """Check the cover property against exact distances.

    Each stored entry (h, dd) in a label of v is audited against ``d``; a wrong
    one, or one for an unreachable pair, marks the pair it claims to certify. A
    pair [s,t] is uncovered when no common hub lies on a shortest s-t path by
    the distances of ``d``, so a wrong stored distance can neither hide nor
    fake a cover. Restricting ``pairs`` checks cover for that subset only;
    unreachable pairs are skipped.

    Per source s, dist(s, h) is scattered into a row of ``far`` = D + 1 at the
    hubs of L_f(s), and one ``minimum.reduceat`` takes min(row[h] + dist(h, t))
    over each L_b(t), capped at ``far``. That is at least dist(s, t), with
    equality iff a common hub lies on a shortest path; both are ``far`` when t
    is unreachable.
    """
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    n, into, far = l.n, d.exact(), d.unreachable
    f_off, f_hub, f_dist, f_own = _flatten(l.fwd)
    bad = (into[f_hub, f_own] != f_dist) | (f_dist >= far)
    wrong_s, wrong_t = [f_own[bad]], [f_hub[bad]]
    if l.directed:
        b_off, b_hub, b_dist, b_own = _flatten(l.bwd)
        bad = (into[b_own, b_hub] != b_dist) | (b_dist >= far)
        wrong_s.append(b_hub[bad])
        wrong_t.append(b_own[bad])
    else:
        b_off, b_hub, b_own = f_off, f_hub, f_own

    # Each bwd label ends in a sentinel hub n, whose row cell stays far, so no
    # reduceat segment is empty and an empty label reduces to far.
    slot = np.arange(b_hub.size) + b_own
    hub_x = np.full(b_hub.size + n, n)
    hub_x[slot] = b_hub
    leg_x = np.zeros(b_hub.size + n, into.dtype)
    leg_x[slot] = into[b_own, b_hub]
    starts = b_off[:-1] + np.arange(n)
    row = np.full(n + 1, far, into.dtype)

    by_source = None
    if pairs is not None:
        by_source = {}
        for s, t in pairs:
            by_source.setdefault(int(s), []).append(int(t))
    unc_s, unc_t = [], []
    for s in range(n) if by_source is None else by_source:
        lo = s if by_source is None and not l.directed else 0
        hubs = f_hub[f_off[s] : f_off[s + 1]]
        row[hubs] = into[hubs, s]
        a = starts[lo]
        best = np.minimum.reduceat(row[hub_x[a:]] + leg_x[a:], starts[lo:] - a)
        np.minimum(best, far, out=best)
        row[hubs] = far
        if by_source is None:
            ts = np.flatnonzero(best != into[lo:, s]) + lo
        else:
            ts = np.array(by_source[s])
            ts = ts[best[ts] != into[ts, s]]
        unc_s.append(np.full(ts.size, s))
        unc_t.append(ts)
    return CoverReport(
        _sorted_pairs(l.directed, wrong_s, wrong_t), _sorted_pairs(l.directed, unc_s, unc_t)
    )


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
    Every marked hub must be reachable along its side.
    """
    into = d.exact()  # into[w, v] = dist(v, w), so into.T[v, h] = dist(v, h)
    bwd = None if hub_b is None else _side(hub_b, into)
    return Labeling(d.directed, d.n, _side(hub_f, into.T), bwd)


def _side(hub: np.ndarray, dist: np.ndarray) -> list[zip]:
    """Label rows from an owner-by-hub table, each entry (h, dist[owner, h]); lazy
    pairs, so no list of tuples exists beside the one ``Labeling`` keeps."""
    rows = map(np.flatnonzero, hub)
    return [zip(hs.tolist(), dist[v, hs].tolist()) for v, hs in enumerate(rows)]


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
